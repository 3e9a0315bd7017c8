open Logic
module A = Aig_lib.Aig

let random_aig seed ~pis ~gates ~pos =
  let rng = Prng.create seed in
  let aig = A.create () in
  let signals = ref [| A.const0 |] in
  let add s = signals := Array.append !signals [| s |] in
  for _ = 1 to pis do
    add (A.add_pi aig)
  done;
  for _ = 1 to gates do
    let pick () =
      let s = Prng.pick rng !signals in
      if Prng.bool rng then A.not_ s else s
    in
    add (A.and_ aig (pick ()) (pick ()))
  done;
  for _ = 1 to pos do
    let s = Prng.pick rng !signals in
    ignore (A.add_po aig (if Prng.bool rng then A.not_ s else s))
  done;
  aig

let truth_tables aig = Core.Mig_sim.truth_tables (A.to_mig aig)
let depth aig = (Core.Mig_levels.compute_scratch (A.to_mig aig)).Core.Mig_levels.depth

let equal_aig a b =
  A.num_pis a = A.num_pis b
  && A.num_pos a = A.num_pos b
  && Array.for_all2 Truth_table.equal (truth_tables a) (truth_tables b)

(* The view's invariant on [aig]'s MIG: every reachable gate is
   M(0, a, b), the graph and its store check clean, and [size] counts
   [topo_order]. *)
let view_ok aig =
  let mig = A.to_mig aig in
  let order = Core.Mig.topo_order mig in
  List.for_all (fun n -> Core.Mig.fanin mig n 0 = Core.Mig.const0) order
  && Core.Mig_check.check mig = Ok ()
  && Core.Mig.check_store mig = Ok ()
  && A.size aig = List.length order

(* The AIG flow as it was written before it shared [Mig_of_network]'s
   converter and [Mig]'s traversals: recursive rebuilds through [Hashtbl]
   memos, and a compiler with node-keyed tables over [topo_order].  The
   library must build the same graphs and programs. *)
module Reference = struct
  let rec balanced_fold f = function
    | [] -> invalid_arg "Reference.convert: empty operand list"
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
    let aig = A.create ~capacity:(Network.num_nodes net + 1) () in
    let pis = Array.init (Network.num_inputs net) (fun _ -> A.add_pi aig) in
    let n = Network.num_nodes net in
    let signals = Array.make n A.const0 in
    for id = 0 to n - 1 do
      let fanins = Network.fanins net id in
      let f i = signals.(fanins.(i)) in
      let all () = Array.to_list (Array.map (fun g -> signals.(g)) fanins) in
      signals.(id) <-
        (match Network.kind net id with
        | Network.Const b -> if b then A.const1 else A.const0
        | Network.Input k -> pis.(k)
        | Network.And -> balanced_fold (A.and_ aig) (all ())
        | Network.Or -> balanced_fold (A.or_ aig) (all ())
        | Network.Xor -> balanced_fold (A.xor_ aig) (all ())
        | Network.Nand -> A.not_ (balanced_fold (A.and_ aig) (all ()))
        | Network.Nor -> A.not_ (balanced_fold (A.or_ aig) (all ()))
        | Network.Xnor -> A.not_ (balanced_fold (A.xor_ aig) (all ()))
        | Network.Not -> A.not_ (f 0)
        | Network.Buf -> f 0
        | Network.Maj -> A.maj3 aig (f 0) (f 1) (f 2)
        | Network.Mux -> A.mux aig (f 0) (f 1) (f 2)
        | Network.Table sop ->
            let cube_signal cube =
              match Cube.literals cube with
              | [] -> A.const1
              | lits ->
                  balanced_fold (A.and_ aig)
                    (List.map
                       (fun (v, positive) ->
                         let s = signals.(fanins.(v)) in
                         if positive then s else A.not_ s)
                       lits)
            in
            (match Sop.cubes sop with
            | [] -> A.const0
            | cubes -> balanced_fold (A.or_ aig) (List.map cube_signal cubes)))
    done;
    List.iter (fun (_, id) -> ignore (A.add_po aig signals.(id))) (Network.outputs net);
    aig

  (* Two-level simplification at construction time:
       (x·y)·x   = x·y          (absorption)
       (x·y)·¬x  = 0            (contradiction)
       (x·y)·(x·z) with y = ¬z  = 0
     plus everything [A.and_] already handles at one level. *)
  let smart_and aig a b =
    let gate_fanins s =
      if (not (A.is_compl s)) && A.kind aig (A.node_of s) = A.And then
        Some (A.fanins aig (A.node_of s))
      else None
    in
    let contradiction =
      let children s =
        match gate_fanins s with Some (x, y) -> [ x; y ] | None -> []
      in
      let ca = children a and cb = children b in
      List.exists (fun x -> x = A.not_ b) ca
      || List.exists (fun x -> x = A.not_ a) cb
      || List.exists (fun x -> List.mem (A.not_ x) cb) ca
    in
    if contradiction then A.const0
    else
      let absorbed =
        match gate_fanins a with
        | Some (x, y) when x = b || y = b -> Some a
        | _ -> (
            match gate_fanins b with
            | Some (x, y) when x = a || y = a -> Some b
            | _ -> None)
      in
      match absorbed with Some s -> s | None -> A.and_ aig a b

  let rewrite aig =
    let fresh = A.create () in
    let pis = Array.init (A.num_pis aig) (fun _ -> A.add_pi fresh) in
    let memo = Hashtbl.create 997 in
    let rec rebuild s =
      let n = A.node_of s in
      let positive =
        match A.kind aig n with
        | A.Const -> A.const0
        | A.Pi k -> pis.(k)
        | A.And -> (
            match Hashtbl.find_opt memo n with
            | Some r -> r
            | None ->
                let f0, f1 = A.fanins aig n in
                let r = smart_and fresh (rebuild f0) (rebuild f1) in
                Hashtbl.replace memo n r;
                r)
      in
      if A.is_compl s then A.not_ positive else positive
    in
    Array.iter (fun s -> ignore (A.add_po fresh (rebuild s))) (A.pos aig);
    fresh

  let balance aig =
    let fresh = A.create () in
    let pis = Array.init (A.num_pis aig) (fun _ -> A.add_pi fresh) in
    let memo = Hashtbl.create 997 in
    let levels = Hashtbl.create 997 in
    let level_of s =
      match Hashtbl.find_opt levels (A.node_of s) with Some l -> l | None -> 0
    in
    (* Collect the leaves of the maximal AND tree rooted at node [n],
       descending only through positive AND edges. *)
    let rec leaves_of n acc =
      let f0, f1 = A.fanins aig n in
      let descend s acc =
        if (not (A.is_compl s)) && A.kind aig (A.node_of s) = A.And then
          leaves_of (A.node_of s) acc
        else s :: acc
      in
      descend f0 (descend f1 acc)
    in
    let rec rebuild_signal s =
      let n = A.node_of s in
      let positive =
        match A.kind aig n with
        | A.Const -> A.const0
        | A.Pi k -> pis.(k)
        | A.And -> (
            match Hashtbl.find_opt memo n with
            | Some r -> r
            | None ->
                let leaves = leaves_of n [] in
                let mapped = List.map rebuild_signal leaves in
                (* Huffman-style combine: always join the two shallowest. *)
                let sorted =
                  List.sort (fun a b -> compare (level_of a) (level_of b)) mapped
                in
                let rec combine = function
                  | [] -> A.const1
                  | [ x ] -> x
                  | x :: y :: rest ->
                      let z = A.and_ fresh x y in
                      if A.kind fresh (A.node_of z) = A.And then
                        Hashtbl.replace levels (A.node_of z)
                          (1 + max (level_of x) (level_of y));
                      (* keep the list sorted by level *)
                      let rec insert v = function
                        | [] -> [ v ]
                        | w :: ws when level_of w < level_of v -> w :: insert v ws
                        | ws -> v :: ws
                      in
                      combine (insert z rest)
                in
                let r = combine sorted in
                Hashtbl.replace memo n r;
                r)
      in
      if A.is_compl s then A.not_ positive else positive
    in
    Array.iter (fun s -> ignore (A.add_po fresh (rebuild_signal s))) (A.pos aig);
    fresh

  let compile aig =
    let num_inputs = A.num_pis aig in
    let b = Rram.Program.Builder.create ~num_inputs in
    let order = Core.Mig.topo_order (A.to_mig aig) in
    let aig_nodes = List.length order in
    (* Reference counts for result liveness (outputs pin their drivers). *)
    let refcount = Hashtbl.create 997 in
    let bump s =
      let n = A.node_of s in
      if A.kind aig n = A.And then
        Hashtbl.replace refcount n (1 + try Hashtbl.find refcount n with Not_found -> 0)
    in
    List.iter
      (fun n ->
        let f0, f1 = A.fanins aig n in
        bump f0;
        bump f1)
      order;
    Array.iter bump (A.pos aig);
    (* Prologue: every primary input is staged into a device once, so it can
       serve as an implication source. *)
    let input_reg = Array.init num_inputs (fun _ -> Rram.Program.Builder.alloc b) in
    Rram.Program.Builder.push_step b
      (List.init num_inputs (fun i -> Rram.Isa.Load (input_reg.(i), Rram.Isa.Input i)));
    let result_reg = Hashtbl.create 997 in
    (* Plain-value register of a node (not a signal). *)
    let node_reg n =
      match A.kind aig n with
      | A.Pi k -> input_reg.(k)
      | A.And -> Hashtbl.find result_reg n
      | A.Const -> invalid_arg "Reference.compile: constant fanin"
    in
    let release s =
      let n = A.node_of s in
      if A.kind aig n = A.And then begin
        let c = Hashtbl.find refcount n - 1 in
        Hashtbl.replace refcount n c;
        if c = 0 then Rram.Program.Builder.free b (Hashtbl.find result_reg n)
      end
    in
    (* Emit one AND node: load, optional pre-inversion of [a], then the
       implications; empty steps are dropped. *)
    let emit_node n =
      let f0, f1 = A.fanins aig n in
      (* prefer a complemented fanin in the b role: its ¬b is a plain copy *)
      let a_sig, b_sig = if A.is_compl f0 && not (A.is_compl f1) then (f1, f0) else (f0, f1) in
      let r1 = Rram.Program.Builder.alloc b in
      let r2 = Rram.Program.Builder.alloc b in
      let load = ref [ Rram.Isa.Reset r2 ] in
      let temps = ref [ r1 ] in
      (* r1 must end holding ¬b *)
      let s1 =
        if A.is_compl b_sig then begin
          (* ¬b = plain source value: a direct copy during loading *)
          load := Rram.Isa.Load (r1, Rram.Isa.Reg (node_reg (A.node_of b_sig))) :: !load;
          []
        end
        else begin
          load := Rram.Isa.Reset r1 :: !load;
          [ Rram.Isa.Imp { src = node_reg (A.node_of b_sig); dst = r1 } ]
        end
      in
      (* a must be available as a register holding its value *)
      let pre_inv = ref [] in
      let a_reg =
        if A.is_compl a_sig then begin
          let rx = Rram.Program.Builder.alloc b in
          temps := rx :: !temps;
          load := Rram.Isa.Reset rx :: !load;
          pre_inv := [ Rram.Isa.Imp { src = node_reg (A.node_of a_sig); dst = rx } ];
          rx
        end
        else node_reg (A.node_of a_sig)
      in
      Hashtbl.replace result_reg n r2;
      List.iter (Rram.Program.Builder.push_step b)
        [
          List.rev !load;
          !pre_inv;
          s1;
          [ Rram.Isa.Imp { src = a_reg; dst = r1 } ];
          [ Rram.Isa.Imp { src = r1; dst = r2 } ];
        ];
      List.iter (Rram.Program.Builder.free b) !temps;
      release f0;
      release f1
    in
    List.iter emit_node order;
    (* Outputs: complemented drivers get a shared final inversion. *)
    let final_preset = ref [] and final_inv = ref [] in
    let memo = Hashtbl.create 17 in
    let outputs =
      Array.map
        (fun s ->
          match Hashtbl.find_opt memo s with
          | Some o -> o
          | None ->
              let n = A.node_of s and c = A.is_compl s in
              let invert_of src =
                let inv = Rram.Program.Builder.alloc b in
                final_preset := Rram.Isa.Reset inv :: !final_preset;
                final_inv := Rram.Isa.Imp { src; dst = inv } :: !final_inv;
                Rram.Isa.Reg inv
              in
              let o =
                match A.kind aig n with
                | A.Const -> Rram.Isa.Const c
                | A.Pi k -> if c then invert_of input_reg.(k) else Rram.Isa.Input k
                | A.And ->
                    if c then invert_of (Hashtbl.find result_reg n)
                    else Rram.Isa.Reg (Hashtbl.find result_reg n)
              in
              Hashtbl.replace memo s o;
              o)
        (A.pos aig)
    in
    Rram.Program.Builder.push_step b !final_preset;
    Rram.Program.Builder.push_step b !final_inv;
    (Rram.Program.Builder.finish b ~outputs, aig_nodes)
end

(* A random network with every [Network.kind]: n-ary AND/OR/XOR/NAND/NOR/
   XNOR over 1-5 operands, NOT, BUF, MAJ, MUX, SOP tables of 0-3 cubes over
   1-4 variables, and both constants. *)
let random_kind_network seed =
  let rng = Prng.create seed in
  let net = Network.create () in
  let pool = ref [| Network.const net false; Network.const net true |] in
  let add id = pool := Array.append !pool [| id |] in
  for i = 0 to 4 + Prng.int rng 3 do
    add (Network.add_input net (Printf.sprintf "x%d" i))
  done;
  let nary = [| Network.And; Network.Or; Network.Xor; Network.Nand; Network.Nor; Network.Xnor |] in
  for _ = 1 to 25 do
    let pick () = Prng.pick rng !pool in
    let operands n = Array.init n (fun _ -> pick ()) in
    add
      (match Prng.int rng 7 with
      | 0 | 1 | 2 -> Network.gate net (Prng.pick rng nary) (operands (1 + Prng.int rng 5))
      | 3 -> Network.gate net (Prng.pick rng [| Network.Not; Network.Buf |]) (operands 1)
      | 4 -> Network.gate net Network.Maj (operands 3)
      | 5 -> Network.gate net Network.Mux (operands 3)
      | _ ->
          let vars = 1 + Prng.int rng 4 in
          let cube _ = Cube.of_string (String.init vars (fun _ -> "01-".[Prng.int rng 3])) in
          Network.gate net (Network.Table (Sop.of_cubes vars (List.init (Prng.int rng 4) cube)))
            (operands vars))
  done;
  let pool = !pool in
  for k = 0 to 3 do
    Network.add_output net (Printf.sprintf "y%d" k) pool.(Array.length pool - 1 - (3 * k))
  done;
  net

let program_text p = Format.asprintf "%a" Rram.Program.pp p

(* Graphs equal to the reference's node for node, and programs equal to
   its programs step for step. *)
let same_as_reference net random =
  let fp aig = Core.Mig.fingerprint (A.to_mig aig) in
  let same_program aig ref_aig =
    let c = Rram.Compile_aig.compile aig in
    let p, nodes = Reference.compile ref_aig in
    c.Rram.Compile_aig.aig_nodes = nodes
    && program_text c.Rram.Compile_aig.program = program_text p
  in
  let built = A.of_network net and ref_built = Reference.convert net in
  fp built = fp ref_built
  && List.for_all
       (fun aig ->
         let rw = Aig_lib.Aig_rewrite.rewrite aig and ref_rw = Reference.rewrite aig in
         let bal = Aig_lib.Aig_balance.balance aig and ref_bal = Reference.balance aig in
         fp rw = fp ref_rw
         && fp bal = fp ref_bal
         && same_program aig aig
         && same_program rw ref_rw
         && same_program (Aig_lib.Aig_balance.balance rw) (Reference.balance ref_rw))
       [ built; random ]

let basic_tests =
  let open Alcotest in
  [
    test_case "and simplifications" `Quick (fun () ->
        let aig = A.create () in
        let a = A.add_pi aig in
        check int "a & 0" A.const0 (A.and_ aig a A.const0);
        check int "a & 1" a (A.and_ aig a A.const1);
        check int "a & a" a (A.and_ aig a a);
        check int "a & ~a" A.const0 (A.and_ aig a (A.not_ a)));
    test_case "strashing shares" `Quick (fun () ->
        let aig = A.create () in
        let a = A.add_pi aig and b = A.add_pi aig in
        check int "commutative" (A.and_ aig a b) (A.and_ aig b a));
    test_case "or/xor/mux semantics" `Quick (fun () ->
        let aig = A.create () in
        let a = A.add_pi aig and b = A.add_pi aig and c = A.add_pi aig in
        ignore (A.add_po aig (A.or_ aig a b));
        ignore (A.add_po aig (A.xor_ aig a b));
        ignore (A.add_po aig (A.mux aig a b c));
        ignore (A.add_po aig (A.maj3 aig a b c));
        let tts = truth_tables aig in
        let va = Truth_table.var 3 0 and vb = Truth_table.var 3 1 and vc = Truth_table.var 3 2 in
        check bool "or" true (Truth_table.equal tts.(0) (Truth_table.bor va vb));
        check bool "xor" true (Truth_table.equal tts.(1) (Truth_table.bxor va vb));
        check bool "mux" true (Truth_table.equal tts.(2) (Truth_table.mux va vb vc));
        check bool "maj" true (Truth_table.equal tts.(3) (Truth_table.maj3 va vb vc)));
    test_case "levels of a chain" `Quick (fun () ->
        let aig = A.create () in
        let pis = Array.init 5 (fun _ -> A.add_pi aig) in
        let acc = ref pis.(0) in
        for i = 1 to 4 do
          acc := A.and_ aig !acc pis.(i)
        done;
        ignore (A.add_po aig !acc);
        check int "depth" 4 (depth aig));
    test_case "size counts only live nodes" `Quick (fun () ->
        let aig = A.create () in
        let a = A.add_pi aig and b = A.add_pi aig in
        let _dead = A.and_ aig a b in
        let live = A.or_ aig a b in
        ignore (A.add_po aig live);
        check int "live ands" 1 (A.size aig));
  ]

let balance_tests =
  let open Alcotest in
  [
    test_case "balance flattens an AND chain" `Quick (fun () ->
        let aig = A.create () in
        let pis = Array.init 8 (fun _ -> A.add_pi aig) in
        let acc = ref pis.(0) in
        for i = 1 to 7 do
          acc := A.and_ aig !acc pis.(i)
        done;
        ignore (A.add_po aig !acc);
        let balanced = Aig_lib.Aig_balance.balance aig in
        check int "before" 7 (depth aig);
        check int "after" 3 (depth balanced);
        check bool "same function" true (equal_aig aig balanced));
    test_case "balance respects complemented edges" `Quick (fun () ->
        let aig = A.create () in
        let pis = Array.init 6 (fun _ -> A.add_pi aig) in
        let acc = ref pis.(0) in
        for i = 1 to 5 do
          acc := A.not_ (A.and_ aig !acc pis.(i))
        done;
        ignore (A.add_po aig !acc);
        let balanced = Aig_lib.Aig_balance.balance aig in
        check bool "same function" true (equal_aig aig balanced));
  ]

let rewrite_tests =
  let open Alcotest in
  [
    test_case "absorption" `Quick (fun () ->
        let aig = A.create () in
        let a = A.add_pi aig and b = A.add_pi aig in
        let ab = A.and_ aig a b in
        ignore (A.add_po aig (A.and_ aig ab a));
        let rewritten = Aig_lib.Aig_rewrite.rewrite aig in
        check bool "same function" true (equal_aig aig rewritten);
        check bool "not larger" true (A.size rewritten <= A.size aig));
    test_case "contradiction" `Quick (fun () ->
        let aig = A.create () in
        let a = A.add_pi aig and b = A.add_pi aig in
        let ab = A.and_ aig a b in
        ignore (A.add_po aig (A.and_ aig ab (A.not_ a)));
        let rewritten = Aig_lib.Aig_rewrite.rewrite aig in
        check bool "same function" true (equal_aig aig rewritten);
        check int "constant detected" 0 (A.size rewritten));
  ]

(* Table III (right): the AIG baseline [12] on each entry after
   [Aig_rewrite] and [Aig_balance] — Compile_aig's ANDs, RRAMs and steps,
   and the md5 of the ASCII AIGER text of that AIG. *)
let table3_pins =
  [
    ("9sym_d", 79, 24, 277, "f605c174d81297b09dc9b7ec94de85c4");
    ("con1f1", 11, 13, 43, "612ec2fca5a3a26c240f52634260cdab");
    ("con2f2", 9, 14, 34, "490b70be48d94a9a0040286c6d1bc50e");
    ("exam1_d", 4, 8, 16, "7eca7d7d990bdd24d2f52591f85cb4c3");
    ("exam3_d", 10, 10, 42, "e921a4d501c9193d416827aa6c28a80a");
    ("max46_d", 125, 21, 471, "401aefd06124ac0275e840413149c770");
    ("newill_d", 24, 15, 91, "d02a4c89ae2c1eec04760c86932006e3");
    ("newtag_d", 13, 15, 49, "eddaff14e837a0621b9dca2d39376d2b");
    ("rd53f1", 14, 13, 51, "6a6f84859f3169c6556deeaea9748b15");
    ("rd53f2", 22, 15, 80, "d1b7debed928662e96ebd364b2ca17e8");
    ("rd53f3", 18, 12, 65, "f622d3c0d8d52c94bce6d5fcf93e7bff");
    ("rd73f1", 21, 15, 75, "d6db97696f50b75e6eed44d21ae198f3");
    ("rd73f2", 37, 18, 131, "9af120ca15b5c00879c4cb4da69910ca");
    ("rd73f3", 34, 16, 123, "9a2b1680554b462f10aadae372208cc0");
    ("rd84f1", 25, 16, 89, "8a520a08361047070f2cc71eddab0b43");
    ("rd84f2", 50, 21, 178, "df1eb809cb5aaf9e428a9f6c8d702615");
    ("rd84f3", 58, 21, 205, "98b801749ed7c31c835b2d321a506d2a");
    ("rd84f4", 53, 21, 185, "9fad7707cd009001d890dd5212cf2e48");
    ("sao2f1", 75, 20, 279, "2be1d50a0aaa430f21543d00899e9970");
    ("sao2f2", 83, 19, 308, "e3d2985c1cebc29dac81f3e1cbd7e859");
    ("sao2f3", 79, 20, 296, "d26e1ca369c4c90828c7b3f244145467");
    ("sao2f4", 78, 22, 298, "7c907fd74719c3c1d590ee7c22c50ec3");
    ("sym10_d", 94, 31, 328, "3adff312c579503b4823059600893ad4");
    ("t481_d", 29, 24, 101, "8aefb4838347a9331715e918368a5602");
    ("xor5_d", 14, 13, 51, "b0304ad52daa91ded62500e8324f772e");
  ]

let pin_tests =
  let open Alcotest in
  [
    test_case "Table III (right) AIG flow is pinned" `Quick (fun () ->
        check int "one pin per entry" (List.length Io.Benchmarks.table3_aig)
          (List.length table3_pins);
        List.iter
          (fun e ->
            let name = e.Io.Benchmarks.name in
            let _, ands, rrams, steps, digest =
              List.find (fun (n, _, _, _, _) -> n = name) table3_pins
            in
            let aig =
              Aig_lib.Aig_balance.balance
                (Aig_lib.Aig_rewrite.rewrite (Aig_lib.Aig.of_network (e.Io.Benchmarks.build ())))
            in
            let c = Rram.Compile_aig.compile aig in
            check int (name ^ " ANDs") ands c.Rram.Compile_aig.aig_nodes;
            check int (name ^ " RRAMs") rrams c.Rram.Compile_aig.program.Rram.Program.num_regs;
            check int (name ^ " steps") steps (Rram.Program.num_steps c.Rram.Compile_aig.program);
            check string (name ^ " write_aig") digest
              (Digest.to_hex (Digest.string (Io.Aiger.write_aig aig))))
          Io.Benchmarks.table3_aig);
  ]

let props =
  [
    QCheck.Test.make ~name:"balance preserves function" ~count:80
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let aig = random_aig seed ~pis:6 ~gates:40 ~pos:4 in
        equal_aig aig (Aig_lib.Aig_balance.balance aig));
    QCheck.Test.make ~name:"balance does not increase depth" ~count:80
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let aig = random_aig seed ~pis:6 ~gates:40 ~pos:4 in
        depth (Aig_lib.Aig_balance.balance aig) <= depth aig);
    QCheck.Test.make ~name:"rewrite preserves function" ~count:80
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let aig = random_aig seed ~pis:6 ~gates:40 ~pos:4 in
        equal_aig aig (Aig_lib.Aig_rewrite.rewrite aig));
    QCheck.Test.make ~name:"rewrite does not grow" ~count:80
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let aig = random_aig seed ~pis:6 ~gates:40 ~pos:4 in
        A.size (Aig_lib.Aig_rewrite.rewrite aig) <= A.size aig);
    QCheck.Test.make ~name:"network conversion preserves function" ~count:40
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let net =
          Io.Gen.random_network
            ~name:(Printf.sprintf "aig-conv-%d" seed)
            ~inputs:7 ~gates:30 ~outputs:3 ()
        in
        let aig = Aig_lib.Aig.of_network net in
        Array.for_all2 Truth_table.equal (truth_tables aig) (Network.truth_tables net));
    QCheck.Test.make ~name:"every AIG is an AND-only MIG" ~count:80
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let net =
          Io.Gen.random_network
            ~name:(Printf.sprintf "aig-view-%d" seed)
            ~inputs:7 ~gates:30 ~outputs:3 ()
        in
        let built = Aig_lib.Aig.of_network net in
        let random = random_aig seed ~pis:6 ~gates:40 ~pos:4 in
        List.for_all
          (fun aig ->
            view_ok aig
            && view_ok (Aig_lib.Aig_rewrite.rewrite aig)
            && view_ok (Aig_lib.Aig_balance.balance aig))
          [ built; random ]);
    QCheck.Test.make ~name:"convert, rewrite, balance and compile equal the reference"
      ~count:150
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        same_as_reference (random_kind_network seed) (random_aig seed ~pis:6 ~gates:40 ~pos:4));
  ]

let () =
  Alcotest.run "aig"
    [
      ("basic", basic_tests);
      ("balance", balance_tests);
      ("rewrite", rewrite_tests);
      ("pin", pin_tests);
      ("props", List.map QCheck_alcotest.to_alcotest props);
    ]
