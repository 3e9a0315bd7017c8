open Logic

let exact_limit = 14

(* All rounds packed into one pattern per input: word [r] of input [i] is
   draw [r·n + i] of the generator, so the vectors are those of [rounds]
   64-bit rounds drawn round-major.  Round 0 carries the corners: lane 0
   is the all-zero vector, lane 1 the all-one vector. *)
let random_inputs ~seed ~rounds n =
  if rounds < 0 then invalid_arg "Mig_equiv: negative rounds";
  let rng = Prng.create seed in
  let ins = Array.init n (fun _ -> Bitvec.create (64 * rounds)) in
  for r = 0 to rounds - 1 do
    for i = 0 to n - 1 do
      let w = Prng.next64 rng in
      Bitvec.set_word ins.(i) r (if r = 0 then Int64.logor (Int64.logand w (-2L)) 2L else w)
    done
  done;
  ins

let generic_equivalent ?(rounds = 64) ?(seed = 0xE0A) ~n_a ~n_b ~m_a ~m_b ~sim_a ~sim_b ~tt_a ~tt_b () =
  n_a = n_b && m_a = m_b
  &&
  if n_a <= exact_limit then
    let ta = tt_a () and tb = tt_b () in
    Array.for_all2 Truth_table.equal ta tb
  else
    let ins = random_inputs ~seed ~rounds n_a in
    Array.for_all2 Bitvec.equal (sim_a ins) (sim_b ins)

let equivalent ?rounds ?seed a b =
  generic_equivalent ?rounds ?seed ~n_a:(Mig.num_pis a) ~n_b:(Mig.num_pis b)
    ~m_a:(Mig.num_pos a) ~m_b:(Mig.num_pos b)
    ~sim_a:(Mig_sim.simulate a) ~sim_b:(Mig_sim.simulate b)
    ~tt_a:(fun () -> Mig_sim.truth_tables a)
    ~tt_b:(fun () -> Mig_sim.truth_tables b)
    ()

let equivalent_network ?rounds ?seed mig net =
  generic_equivalent ?rounds ?seed ~n_a:(Mig.num_pis mig)
    ~n_b:(Network.num_inputs net) ~m_a:(Mig.num_pos mig)
    ~m_b:(Network.num_outputs net)
    ~sim_a:(Mig_sim.simulate mig) ~sim_b:(Network.simulate net)
    ~tt_a:(fun () -> Mig_sim.truth_tables mig)
    ~tt_b:(fun () -> Network.truth_tables net)
    ()

(* Exactly: the lowest minterm on which some output differs.  Randomly:
   words in round order, then outputs in order, then the lowest lane, the
   first difference a round-by-round check would meet. *)
let counterexample ?(rounds = 64) ?(seed = 0xE0A) a b =
  if Mig.num_pis a <> Mig.num_pis b || Mig.num_pos a <> Mig.num_pos b then Some [||]
  else begin
    let n = Mig.num_pis a in
    if n <= exact_limit then begin
      let ta = Mig_sim.truth_tables a and tb = Mig_sim.truth_tables b in
      let differs m =
        Array.exists2 (fun x y -> Truth_table.get x m <> Truth_table.get y m) ta tb
      in
      let rec scan m =
        if m >= 1 lsl n then None
        else if differs m then Some (Array.init n (fun i -> (m lsr i) land 1 = 1))
        else scan (m + 1)
      in
      scan 0
    end
    else begin
      let ins = random_inputs ~seed ~rounds n in
      let oa = Mig_sim.simulate a ins and ob = Mig_sim.simulate b ins in
      let rec scan r o =
        if r >= rounds then None
        else if o >= Array.length oa then scan (r + 1) 0
        else
          let d = Int64.logxor (Bitvec.word oa.(o) r) (Bitvec.word ob.(o) r) in
          if d = 0L then scan r (o + 1)
          else begin
            let bit = ref 0 in
            while Int64.logand (Int64.shift_right_logical d !bit) 1L = 0L do
              incr bit
            done;
            let lane = (64 * r) + !bit in
            Some (Array.init n (fun i -> Bitvec.get ins.(i) lane))
          end
      in
      scan 0 0
    end
  end
