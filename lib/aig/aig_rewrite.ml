(* Two-level simplification at construction time:
     (x·y)·x   = x·y          (absorption)
     (x·y)·¬x  = 0            (contradiction)
     (x·y)·(x·z) with y = ¬z  = 0
   plus everything [Aig.and_] already handles at one level. *)
let smart_and aig a b =
  let gate_fanins s =
    if (not (Aig.is_compl s)) && Aig.kind aig (Aig.node_of s) = Aig.And then
      Some (Aig.fanins aig (Aig.node_of s))
    else None
  in
  let contradiction =
    let children s =
      match gate_fanins s with Some (x, y) -> [ x; y ] | None -> []
    in
    let ca = children a and cb = children b in
    List.exists (fun x -> x = Aig.not_ b) ca
    || List.exists (fun x -> x = Aig.not_ a) cb
    || List.exists (fun x -> List.mem (Aig.not_ x) cb) ca
  in
  if contradiction then Aig.const0
  else
    let absorbed =
      match gate_fanins a with
      | Some (x, y) when x = b || y = b -> Some a
      | _ -> (
          match gate_fanins b with
          | Some (x, y) when x = a || y = a -> Some b
          | _ -> None)
    in
    match absorbed with Some s -> s | None -> Aig.and_ aig a b

(* One walk of the source into a node-indexed signal array.  Visiting
   fanin slot 2 before slot 1 fixes the fresh graph's node numbering,
   which test_aig's Table III (right) pins. *)
let rewrite aig =
  let fresh = Aig.create () in
  let mig = Aig.to_mig aig in
  let map = Array.make (Core.Mig.num_nodes mig) Aig.const0 in
  for k = 0 to Aig.num_pis aig - 1 do
    map.(Aig.node_of (Aig.pi aig k)) <- Aig.add_pi fresh
  done;
  let copy s =
    if Aig.is_compl s then Aig.not_ map.(Aig.node_of s) else map.(Aig.node_of s)
  in
  Core.Mig.iter_topo_rev mig (fun n ->
      let f0, f1 = Aig.fanins aig n in
      map.(n) <- smart_and fresh (copy f0) (copy f1));
  Array.iter (fun s -> ignore (Aig.add_po fresh (copy s))) (Aig.pos aig);
  fresh
