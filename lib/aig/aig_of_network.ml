open Logic

let rec balanced_fold f = function
  | [] -> invalid_arg "Aig_of_network: empty operand list"
  | [ x ] -> x
  | xs ->
      let rec split acc k = function
        | rest when k = 0 -> (List.rev acc, rest)
        | x :: rest -> split (x :: acc) (k - 1) rest
        | [] -> (List.rev acc, [])
      in
      let half = List.length xs / 2 in
      let left, right = split [] half xs in
      f (balanced_fold f left) (balanced_fold f right)

let convert net =
  (* Sized like [Mig_of_network.convert]: a node makes several ANDs or none
     (inverters, buffers), so its count is a middle estimate. *)
  let aig = Aig.create ~capacity:(Network.num_nodes net + 1) () in
  let pis = Array.init (Network.num_inputs net) (fun _ -> Aig.add_pi aig) in
  let n = Network.num_nodes net in
  let signals = Array.make n Aig.const0 in
  for id = 0 to n - 1 do
    let fanins = Network.fanins net id in
    let f i = signals.(fanins.(i)) in
    let all () = Array.to_list (Array.map (fun g -> signals.(g)) fanins) in
    signals.(id) <-
      (match Network.kind net id with
      | Network.Const b -> if b then Aig.const1 else Aig.const0
      | Network.Input k -> pis.(k)
      | Network.And -> balanced_fold (Aig.and_ aig) (all ())
      | Network.Or -> balanced_fold (Aig.or_ aig) (all ())
      | Network.Xor -> balanced_fold (Aig.xor_ aig) (all ())
      | Network.Nand -> Aig.not_ (balanced_fold (Aig.and_ aig) (all ()))
      | Network.Nor -> Aig.not_ (balanced_fold (Aig.or_ aig) (all ()))
      | Network.Xnor -> Aig.not_ (balanced_fold (Aig.xor_ aig) (all ()))
      | Network.Not -> Aig.not_ (f 0)
      | Network.Buf -> f 0
      | Network.Maj -> Aig.maj3 aig (f 0) (f 1) (f 2)
      | Network.Mux -> Aig.mux aig (f 0) (f 1) (f 2)
      | Network.Table sop ->
          let cube_signal cube =
            match Cube.literals cube with
            | [] -> Aig.const1
            | lits ->
                balanced_fold (Aig.and_ aig)
                  (List.map
                     (fun (v, positive) ->
                       let s = signals.(fanins.(v)) in
                       if positive then s else Aig.not_ s)
                     lits)
          in
          (match Sop.cubes sop with
          | [] -> Aig.const0
          | cubes -> balanced_fold (Aig.or_ aig) (List.map cube_signal cubes)))
  done;
  List.iter (fun (_, id) -> ignore (Aig.add_po aig signals.(id))) (Network.outputs net);
  aig
