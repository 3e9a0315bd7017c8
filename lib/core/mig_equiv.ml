open Logic

let exact_limit = 14

let random_patterns ~seed ~rounds n =
  let rng = Prng.create seed in
  List.init rounds (fun _ ->
      Array.init n (fun _ ->
          let bv = Bitvec.create 64 in
          Bitvec.randomize rng bv;
          bv))

(* Include the all-zero / all-one corner vectors in the first round. *)
let with_corners patterns n =
  match patterns with
  | [] -> []
  | first :: rest ->
      let adjusted =
        Array.mapi
          (fun _ bv ->
            let bv = Bitvec.copy bv in
            Bitvec.set bv 0 false;
            Bitvec.set bv 1 true;
            bv)
          first
      in
      ignore n;
      adjusted :: rest

let check_outputs equal_outputs sim_a sim_b patterns =
  List.for_all
    (fun ins ->
      let oa = sim_a ins and ob = sim_b ins in
      equal_outputs oa ob)
    patterns

let equal_bv_arrays a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Bitvec.equal x y) a b

let generic_equivalent ?(rounds = 64) ?(seed = 0xE0A) ~n_a ~n_b ~m_a ~m_b ~sim_a ~sim_b ~tt_a ~tt_b () =
  n_a = n_b && m_a = m_b
  &&
  if n_a <= exact_limit then
    let ta = tt_a () and tb = tt_b () in
    Array.for_all2 Truth_table.equal ta tb
  else
    let patterns = with_corners (random_patterns ~seed ~rounds n_a) n_a in
    check_outputs equal_bv_arrays sim_a sim_b patterns

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

let counterexample ?(rounds = 64) ?(seed = 0xE0A) a b =
  if Mig.num_pis a <> Mig.num_pis b || Mig.num_pos a <> Mig.num_pos b then Some [||]
  else begin
    let n = Mig.num_pis a in
    let patterns = with_corners (random_patterns ~seed ~rounds n) n in
    let sim_a = Mig_sim.simulate a and sim_b = Mig_sim.simulate b in
    let found = ref None in
    List.iter
      (fun ins ->
        if !found = None then begin
          let oa = sim_a ins and ob = sim_b ins in
          Array.iteri
            (fun o va ->
              if !found = None && not (Bitvec.equal va ob.(o)) then begin
                let diff = Bitvec.bxor va ob.(o) in
                let bit = ref (-1) in
                for i = 0 to Bitvec.width diff - 1 do
                  if !bit < 0 && Bitvec.get diff i then bit := i
                done;
                let vec = Array.init n (fun i -> Bitvec.get ins.(i) !bit) in
                found := Some vec
              end)
            oa
        end)
      patterns;
    !found
  end
