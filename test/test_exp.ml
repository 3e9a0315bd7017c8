(* Experiment-driver and PLiM tests: the pieces the bench harness runs. *)

let find name = Option.get (Io.Benchmarks.find name)

let experiments_tests =
  let open Alcotest in
  [
    test_case "table2 row fields populated" `Quick (fun () ->
        let row = Exp.Experiments.table2_row ~effort:4 (find "clip") in
        check string "name" "clip" row.Exp.Experiments.name;
        check int "inputs" 9 row.Exp.Experiments.inputs;
        check bool "exact" true row.Exp.Experiments.exact;
        check bool "gates > 0" true (row.Exp.Experiments.initial_gates > 0);
        (* the MAJ columns must be no worse than IMP on steps *)
        check bool "maj steps < imp steps" true
          (row.Exp.Experiments.step_maj.Core.Rram_cost.steps
          < row.Exp.Experiments.step_imp.Core.Rram_cost.steps));
    test_case "table2 MAJ always beats IMP on steps" `Quick (fun () ->
        List.iter
          (fun name ->
            let row = Exp.Experiments.table2_row ~effort:4 (find name) in
            check bool (name ^ " maj < imp") true
              (row.Exp.Experiments.rram_maj.Core.Rram_cost.steps
              < row.Exp.Experiments.rram_imp.Core.Rram_cost.steps))
          [ "cm150a"; "t481"; "parity" ]);
    test_case "table3 bdd row: steps scale with nodes" `Quick (fun () ->
        let row = Exp.Experiments.table3_bdd_row ~effort:4 (find "cm162a") in
        check bool "sequential > levelized" true
          (row.Exp.Experiments.bdd_sequential_steps > snd row.Exp.Experiments.bdd_levelized);
        check bool "nodes > 0" true (row.Exp.Experiments.bdd_nodes > 0));
    test_case "table3 aig row" `Quick (fun () ->
        let row = Exp.Experiments.table3_aig_row ~effort:4 (find "xor5_d") in
        check bool "aig steps positive" true (row.Exp.Experiments.aig_steps > 0);
        check bool "MIG-MAJ beats AIG" true
          (row.Exp.Experiments.mig_maj.Core.Rram_cost.steps < row.Exp.Experiments.aig_steps));
    test_case "verify_entry on exact benchmarks" `Slow (fun () ->
        List.iter
          (fun name ->
            match Exp.Experiments.verify_entry ~effort:4 (find name) with
            | Ok () -> ()
            | Error e -> fail (name ^ ": " ^ e))
          [ "clip"; "cm162a"; "t481"; "rd53f1"; "xor5_d"; "exam1_d" ]);
  ]

let ablation_tests =
  let open Alcotest in
  [
    test_case "effort sweep is monotone at the start" `Quick (fun () ->
        let rows = Exp.Ablation.effort_sweep ~efforts:[ 0; 8 ] (find "cordic") in
        match rows with
        | [ (0, c0); (8, c8) ] ->
            check bool "optimization helps" true
              (c8.Core.Rram_cost.steps <= c0.Core.Rram_cost.steps)
        | _ -> fail "unexpected shape");
    test_case "rule ablation produces all variants" `Quick (fun () ->
        let rows = Exp.Ablation.rule_ablation ~effort:4 (find "clip") in
        check int "variants" 6 (List.length rows));
    test_case "fanout sweep trades R for S" `Quick (fun () ->
        let rows =
          Exp.Ablation.fanout_limit_sweep ~effort:8 ~limits:[ 1; 1000000 ] (find "b9")
        in
        match rows with
        | [ (_, tight); (_, loose) ] ->
            check bool "tight limit uses fewer RRAMs" true
              (tight.Core.Rram_cost.rrams <= loose.Core.Rram_cost.rrams);
            check bool "loose limit uses fewer steps" true
              (loose.Core.Rram_cost.steps <= tight.Core.Rram_cost.steps)
        | _ -> fail "unexpected shape");
    test_case "bdd order sweep covers heuristics" `Quick (fun () ->
        let rows = Exp.Ablation.bdd_order_sweep (find "alu4") in
        check int "three heuristics" 3 (List.length rows);
        List.iter (fun (_, nodes, _) -> check bool "built" true (nodes > 0)) rows);
  ]

let plim_tests =
  let open Alcotest in
  let mig_of name = Core.Mig_of_network.convert ((find name).Io.Benchmarks.build ()) in
  let verified name mig =
    match Rram.Verify.against_mig (Rram.Plim.compile mig) mig with
    | Ok () -> ()
    | Error e -> fail (name ^ ": " ^ e)
  in
  [
    test_case "RM3 identities" `Quick (fun () ->
        (* z <- 0 via RM3(0,1,z); set via RM3(1,0,z); copy via RM3(v,0,0);
           negate via RM3(1,v,0) — exercised through a tiny program *)
        let rm3 p q z = [ Rram.Isa.Maj_pulse { p; q; dst = z } ] in
        let program =
          {
            Rram.Program.num_inputs = 1;
            num_regs = 3;
            steps =
              [
                [ Rram.Isa.Load (0, Rram.Isa.Input 0) ];
                rm3 (Rram.Isa.Reg 0) (Rram.Isa.Const false) 1;
                (* cell1 = copy of input *)
                rm3 (Rram.Isa.Const true) (Rram.Isa.Reg 0) 2;
                (* cell2 = not input *)
              ];
            outputs = [| Rram.Isa.Reg 1; Rram.Isa.Reg 2 |];
          }
        in
        check (array bool) "v=1" [| true; false |] (Rram.Interp.run program [| true |]);
        check (array bool) "v=0" [| false; true |] (Rram.Interp.run program [| false |]));
    test_case "compiled programs verified" `Quick (fun () ->
        List.iter
          (fun name -> verified name (mig_of name))
          [ "clip"; "cm150a"; "t481"; "rd53f2"; "xor5_d" ]);
    test_case "optimized MIGs compile correctly" `Quick (fun () ->
        verified "cm162a" (Core.Mig_opt.steps ~effort:6 (mig_of "cm162a")));
    test_case "instruction economy" `Quick (fun () ->
        (* the operand-role selection keeps RM3-per-gate low *)
        let mig = mig_of "clip" in
        let rm3 = Rram.Plim.rm3_count (Rram.Plim.compile mig) in
        check bool "under 3 RM3 per gate" true (rm3 < 3 * Core.Mig.size mig));
    test_case "cell reuse bounds memory" `Quick (fun () ->
        let mig = mig_of "alu4" in
        check bool "fewer cells than gates" true
          ((Rram.Plim.compile mig).Rram.Program.num_regs < Core.Mig.size mig));
    test_case "ablation rows are pinned" `Quick (fun () ->
        List.iter
          (fun (name, rm3, cells) ->
            let r = Exp.Ablation.plim_row (find name) in
            check (pair int int) name (rm3, cells)
              (r.Exp.Ablation.plim_instructions, r.Exp.Ablation.plim_cells))
          [
            ("5xp1", 366, 53);
            ("alu4", 360, 37);
            ("b9", 746, 52);
            ("clip", 34, 10);
            ("cordic", 321, 29);
            ("t481", 42, 17);
          ]);
  ]

let plim_props =
  [
    QCheck.Test.make ~name:"random MIGs: PLiM = MIG semantics" ~count:40
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let rng = Logic.Prng.create seed in
        let mig = Core.Mig.create () in
        let signals = ref [| Core.Mig.const0 |] in
        let add s = signals := Array.append !signals [| s |] in
        for _ = 1 to 5 do
          add (Core.Mig.add_pi mig)
        done;
        for _ = 1 to 25 do
          let pick () =
            let s = Logic.Prng.pick rng !signals in
            if Logic.Prng.bool rng then Core.Mig.not_ s else s
          in
          add (Core.Mig.maj mig (pick ()) (pick ()) (pick ()))
        done;
        for _ = 1 to 3 do
          ignore (Core.Mig.add_po mig (Logic.Prng.pick rng !signals))
        done;
        let mig = Core.Mig.cleanup mig in
        let program = Rram.Plim.compile mig in
        Rram.Program.validate program = Ok ()
        && Rram.Verify.against_mig program mig = Ok ());
  ]

let () =
  Alcotest.run "exp"
    [
      ("experiments", experiments_tests);
      ("ablation", ablation_tests);
      ("plim", plim_tests);
      ("plim-props", List.map QCheck_alcotest.to_alcotest plim_props);
    ]
