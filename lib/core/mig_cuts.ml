open Logic

type cut = int array
type t = { table : (int, cut list) Hashtbl.t }

let merge3 k a b c =
  let module S = Set.Make (Int) in
  let s = S.union (S.of_list (Array.to_list a)) (S.union (S.of_list (Array.to_list b)) (S.of_list (Array.to_list c))) in
  if S.cardinal s > k then None else Some (Array.of_list (S.elements s))

let dominated existing candidate =
  (* candidate is dominated if some existing cut is a subset of it *)
  List.exists
    (fun cut -> Array.for_all (fun leaf -> Array.exists (fun x -> x = leaf) candidate) cut)
    existing

let enumerate ?(k = 4) ?(max_cuts = 12) mig =
  let table = Hashtbl.create 997 in
  let cuts_of_node n =
    match Mig.kind mig n with
    | Mig.Gate -> ( match Hashtbl.find_opt table n with Some cs -> cs | None -> [ [| n |] ])
    | _ -> [ [| n |] ]
  in
  List.iter
    (fun g ->
      let ca = cuts_of_node (Mig.node_of (Mig.fanin mig g 0)) in
      let cb = cuts_of_node (Mig.node_of (Mig.fanin mig g 1)) in
      let cc = cuts_of_node (Mig.node_of (Mig.fanin mig g 2)) in
      let merged = ref [] in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              List.iter
                (fun c ->
                  match merge3 k a b c with
                  | Some cut when not (dominated !merged cut) -> merged := cut :: !merged
                  | _ -> ())
                cc)
            cb)
        ca;
      (* prune dominated pairs in both directions, keep smallest cuts *)
      let pruned =
        List.filter
          (fun cut ->
            not
              (List.exists
                 (fun other ->
                   other != cut
                   && Array.length other < Array.length cut
                   && Array.for_all (fun leaf -> Array.exists (fun x -> x = leaf) cut) other)
                 !merged))
          !merged
      in
      let sorted = List.sort (fun a b -> compare (Array.length a) (Array.length b)) pruned in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      Hashtbl.replace table g ([| g |] :: take max_cuts sorted))
    (Mig.topo_order mig);
  { table }

let cuts_of t g =
  match Hashtbl.find_opt t.table g with
  | None -> []
  | Some cs -> List.filter (fun cut -> Array.length cut >= 2 && not (cut = [| g |])) cs

let cone_nodes mig root cut =
  let leaves = Hashtbl.create 7 in
  Array.iter (fun l -> Hashtbl.replace leaves l ()) cut;
  let visited = Hashtbl.create 31 in
  let acc = ref [] in
  let rec visit n =
    if (not (Hashtbl.mem visited n)) && not (Hashtbl.mem leaves n) then begin
      Hashtbl.replace visited n ();
      (match Mig.kind mig n with
      | Mig.Gate ->
          for i = 0 to 2 do
            visit (Mig.node_of (Mig.fanin mig n i))
          done;
          acc := n :: !acc
      | _ -> ())
    end
  in
  visit root;
  List.rev !acc (* topological: fanins before root *)

let cut_function mig root cut =
  let nvars = Array.length cut in
  let values = Hashtbl.create 31 in
  Array.iteri (fun i leaf -> Hashtbl.replace values leaf (Truth_table.var nvars i)) cut;
  let value_of s =
    let v = Hashtbl.find values (Mig.node_of s) in
    if Mig.is_compl s then Truth_table.bnot v else v
  in
  List.iter
    (fun n ->
      Hashtbl.replace values n
        (Truth_table.maj3
           (value_of (Mig.fanin mig n 0))
           (value_of (Mig.fanin mig n 1))
           (value_of (Mig.fanin mig n 2))))
    (cone_nodes mig root cut);
  Hashtbl.find values root

let mffc_size mig root cut =
  let cone = cone_nodes mig root cut in
  let in_mffc = Hashtbl.create 31 in
  Hashtbl.replace in_mffc root ();
  (* process in reverse topological order: a node is in the MFFC when every
     user of it is in the MFFC (the root unconditionally) *)
  List.iter
    (fun n ->
      if n <> root then begin
        let users = Mig.fanout mig n in
        let pos = Mig.po_refs mig n in
        if pos = 0 && users <> [] && List.for_all (fun u -> Hashtbl.mem in_mffc u) users
        then Hashtbl.replace in_mffc n ()
      end)
    (List.rev cone);
  Hashtbl.length in_mffc
