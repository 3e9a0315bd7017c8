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
  let order = A.topo_order aig in
  List.for_all (fun n -> Core.Mig.fanin mig n 0 = Core.Mig.const0) order
  && Core.Mig_check.check mig = Ok ()
  && Core.Mig.check_store mig = Ok ()
  && A.size aig = List.length order

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
                (Aig_lib.Aig_rewrite.rewrite (Aig_lib.Aig_of_network.convert (e.Io.Benchmarks.build ())))
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
        let aig = Aig_lib.Aig_of_network.convert net in
        Array.for_all2 Truth_table.equal (truth_tables aig) (Network.truth_tables net));
    QCheck.Test.make ~name:"every AIG is an AND-only MIG" ~count:80
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let net =
          Io.Gen.random_network
            ~name:(Printf.sprintf "aig-view-%d" seed)
            ~inputs:7 ~gates:30 ~outputs:3 ()
        in
        let built = Aig_lib.Aig_of_network.convert net in
        let random = random_aig seed ~pis:6 ~gates:40 ~pos:4 in
        List.for_all
          (fun aig ->
            view_ok aig
            && view_ok (Aig_lib.Aig_rewrite.rewrite aig)
            && view_ok (Aig_lib.Aig_balance.balance aig))
          [ built; random ]);
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
