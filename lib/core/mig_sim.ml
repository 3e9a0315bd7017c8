open Logic

(* The gates in topological order and their fanin signals, three per gate,
   are computed on the closure's first call and kept, so repeated calls on
   one graph walk it once.  The cache is an option ref, not a [Lazy.t]: two
   domains racing on it both compute the same arrays, where a lazy value
   forced from two domains at once raises [Lazy.Undefined].  The word store
   is per call, so a shared closure holds no mutable scratch. *)
let simulate mig =
  let cache = ref None in
  fun ins ->
    if Array.length ins <> Mig.num_pis mig then
      invalid_arg "Mig_sim.simulate: input count";
    let width = Word_store.input_width "Mig_sim.simulate" ins in
    let order, fans =
      match !cache with
      | Some c -> c
      | None ->
          let order = Array.of_list (Mig.topo_order mig) in
          let fans = Array.make (3 * Array.length order) 0 in
          Array.iteri (fun k g -> Array.blit (Mig.fanins mig g) 0 fans (3 * k) 3) order;
          cache := Some (order, fans);
          (order, fans)
    in
    let st = Word_store.create ~slots:(Mig.num_nodes mig) ~width in
    let pos = Mig.pos mig in
    let outs = Array.map (fun _ -> Bitvec.create width) pos in
    Word_store.iter_blocks st (fun () ->
        for i = 0 to Array.length ins - 1 do
          Word_store.load st (Mig.node_of (Mig.pi mig i)) ins.(i)
        done;
        for k = 0 to Array.length order - 1 do
          Word_store.maj st order.(k) fans.(3 * k) fans.((3 * k) + 1) fans.((3 * k) + 2)
        done;
        for o = 0 to Array.length pos - 1 do
          Word_store.store st pos.(o) outs.(o)
        done);
    outs

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
