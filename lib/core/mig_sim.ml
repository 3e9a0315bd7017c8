open Logic

(* The topological order is computed on the closure's first call and kept,
   so repeated rounds on one graph walk it once.  The cache is an option
   ref, not a [Lazy.t]: two domains racing on it both compute the same
   list, where a lazy value forced from two domains at once raises
   [Lazy.Undefined]. *)
let simulate mig =
  let order = ref None in
  fun ins ->
    if Array.length ins <> Mig.num_pis mig then
      invalid_arg "Mig_sim.simulate: input count";
    let order =
      match !order with
      | Some o -> o
      | None ->
          let o = Mig.topo_order mig in
          order := Some o;
          o
    in
    let width = if Array.length ins = 0 then 1 else Bitvec.width ins.(0) in
    let zero = Bitvec.create width in
    let values = Array.make (Mig.num_nodes mig) zero in
    for i = 0 to Mig.num_pis mig - 1 do
      values.(Mig.node_of (Mig.pi mig i)) <- ins.(i)
    done;
    let value_of s =
      let v = values.(Mig.node_of s) in
      if Mig.is_compl s then Bitvec.bnot v else v
    in
    List.iter
      (fun g ->
        let f = Mig.fanins mig g in
        values.(g) <-
          Bitvec.maj3 (value_of f.(0)) (value_of f.(1)) (value_of f.(2)))
      order;
    Array.map value_of (Mig.pos mig)

let eval mig a =
  let ins =
    Array.init (Mig.num_pis mig) (fun i ->
        let bv = Bitvec.create 1 in
        Bitvec.set bv 0 a.(i);
        bv)
  in
  Array.map (fun bv -> Bitvec.get bv 0) (simulate mig ins)

let eval_all mig vectors =
  let n = Mig.num_pis mig in
  let width = List.length vectors in
  let ins = Array.init n (fun _ -> Bitvec.create width) in
  List.iteri (fun k v -> Array.iteri (fun i b -> if b then Bitvec.set ins.(i) k true) v) vectors;
  let outs = simulate mig ins in
  (* Without inputs the simulator answers with one-bit patterns: every
     vector is the empty one. *)
  List.mapi
    (fun k _ -> Array.map (fun bv -> Bitvec.get bv (if n = 0 then 0 else k)) outs)
    vectors

let truth_tables mig =
  let n = Mig.num_pis mig in
  if n > Truth_table.max_vars then invalid_arg "Mig_sim.truth_tables: too many inputs";
  let ins = Array.init n (fun i -> Truth_table.bitvec (Truth_table.var n i)) in
  simulate mig ins
  |> Array.map (fun bv ->
         let tt = Truth_table.create n in
         for w = 0 to Bitvec.num_words bv - 1 do
           Bitvec.set_word (Truth_table.bitvec tt) w (Bitvec.word bv w)
         done;
         tt)
