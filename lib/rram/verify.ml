open Logic

let exhaustive_limit = 12

(* The test set as a stream: its size and a function writing vector [k] into
   an array.  Exhaustive vectors come from the index; random ones are drawn
   in sequence, so [fill] must be called for k = 0, 1, 2, ... in order. *)
let stream ?(seed = 0xBEEF) ?(random_count = 256) n =
  if n <= exhaustive_limit then
    (1 lsl n, fun m v -> Array.iteri (fun i _ -> v.(i) <- m land (1 lsl i) <> 0) v)
  else begin
    let rng = Prng.create seed in
    ( random_count + 2,
      fun k v ->
        match k with
        | 0 -> Array.fill v 0 n false
        | 1 -> Array.fill v 0 n true
        | _ -> Array.iteri (fun i _ -> v.(i) <- Prng.bool rng) v )
  end

let vectors ?seed ?random_count n =
  let count, fill = stream ?seed ?random_count n in
  List.init count (fun k ->
      let v = Array.make n false in
      fill k v;
      v)

let bits f len = String.init len (fun i -> if f i then '1' else '0')

(* Program and reference run on chunks of up to [Sys.int_size] vectors, one
   per bit of a lane word: the program through the bit-sliced kernel, the
   reference through its bit-parallel simulator on the same chunk.  The
   first mismatching vector is the lowest differing lane of the first
   differing chunk. *)
let check ?seed program ~n ~simulate =
  let run = Interp.run_lanes program in
  let count, fill = stream ?seed n in
  let v = Array.make n false in
  let rec chunk base =
    if base >= count then Ok ()
    else begin
      let lanes = min Sys.int_size (count - base) in
      let ins = Array.make n 0 in
      for j = 0 to lanes - 1 do
        fill (base + j) v;
        Array.iteri (fun i b -> if b then ins.(i) <- ins.(i) lor (1 lsl j)) v
      done;
      let got = run ~lanes ins in
      let want =
        simulate
          (Array.map
             (fun w ->
               let bv = Bitvec.create lanes in
               Bitvec.set_word bv 0 (Int64.of_int w);
               bv)
             ins)
        |> Array.map (fun bv -> Int64.to_int (Bitvec.word bv 0))
      in
      let diff =
        if Array.length got <> Array.length want then 1
        else Array.fold_left ( lor ) 0 (Array.map2 ( lxor ) got want)
      in
      if diff = 0 then chunk (base + lanes)
      else begin
        let j = ref 0 in
        while (diff lsr !j) land 1 = 0 do
          incr j
        done;
        let lane w = (w lsr !j) land 1 = 1 in
        Error
          (Printf.sprintf "mismatch on input %s: program %s, reference %s"
             (bits (fun i -> lane ins.(i)) n)
             (bits (fun o -> lane got.(o)) (Array.length got))
             (bits (fun o -> lane want.(o)) (Array.length want)))
      end
    end
  in
  chunk 0

let against_mig ?seed program mig =
  if Core.Mig.num_pis mig <> program.Program.num_inputs then Error "input count mismatch"
  else check ?seed program ~n:(Core.Mig.num_pis mig) ~simulate:(Core.Mig_sim.simulate mig)

let against_network ?seed program net =
  if Network.num_inputs net <> program.Program.num_inputs then
    Error "input count mismatch"
  else check ?seed program ~n:(Network.num_inputs net) ~simulate:(Network.simulate net)
