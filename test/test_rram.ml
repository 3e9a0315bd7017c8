open Logic

(* ------------------------------------------------------------------ *)
(* Device physics: Fig. 1 and Fig. 2 truth tables                      *)
(* ------------------------------------------------------------------ *)

let device_tests =
  let open Alcotest in
  [
    test_case "IMP truth table (Fig. 1b)" `Quick (fun () ->
        (* q' = p IMP q = ¬p ∨ q *)
        List.iter
          (fun (p, q, expect) ->
            let dp = Rram.Device.create () and dq = Rram.Device.create () in
            Rram.Device.write dp p;
            Rram.Device.write dq q;
            Rram.Device.imp_pulse ~p:dp ~q:dq;
            check bool (Printf.sprintf "p=%b q=%b" p q) expect (Rram.Device.read dq);
            check bool "p unchanged" p (Rram.Device.read dp))
          [ (false, false, true); (false, true, true); (true, false, false); (true, true, true) ]);
    test_case "MAJ pulse truth table (Fig. 2)" `Quick (fun () ->
        (* R' = M(P, ¬Q, R): for R=0, R' = P·¬Q; for R=1, R' = P ∨ ¬Q *)
        List.iter
          (fun (p, q, r, expect) ->
            let d = Rram.Device.create () in
            Rram.Device.write d r;
            Rram.Device.maj_pulse d ~p ~q;
            check bool (Printf.sprintf "P=%b Q=%b R=%b" p q r) expect (Rram.Device.read d))
          [
            (false, false, false, false);
            (false, true, false, false);
            (true, false, false, true);
            (true, true, false, false);
            (false, false, true, true);
            (false, true, true, false);
            (true, false, true, true);
            (true, true, true, true);
          ]);
    test_case "FALSE clears" `Quick (fun () ->
        let d = Rram.Device.create () in
        Rram.Device.set d;
        Rram.Device.clear d;
        check bool "cleared" false (Rram.Device.read d));
    test_case "MAJ pulse is the majority of P, ~Q, R" `Quick (fun () ->
        for m = 0 to 7 do
          let p = m land 1 <> 0 and q = m land 2 <> 0 and r = m land 4 <> 0 in
          let d = Rram.Device.create () in
          Rram.Device.write d r;
          Rram.Device.maj_pulse d ~p ~q;
          let count = (if p then 1 else 0) + (if not q then 1 else 0) + if r then 1 else 0 in
          Alcotest.(check bool) "majority" (count >= 2) (Rram.Device.read d)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* The paper's hand-derived gate sequences                              *)
(* ------------------------------------------------------------------ *)

let single_maj_mig () =
  let mig = Core.Mig.create () in
  let a = Core.Mig.add_pi mig in
  let b = Core.Mig.add_pi mig in
  let c = Core.Mig.add_pi mig in
  ignore (Core.Mig.add_po mig (Core.Mig.maj mig a b c));
  mig

(* Micro-ops of a program by kind: [loads; resets; imps; maj pulses]. *)
let micro_ops (p : Rram.Program.t) =
  let l, r, i, m =
    List.fold_left
      (List.fold_left (fun (l, r, i, m) -> function
         | Rram.Isa.Load _ -> (l + 1, r, i, m)
         | Rram.Isa.Reset _ -> (l, r + 1, i, m)
         | Rram.Isa.Imp _ -> (l, r, i + 1, m)
         | Rram.Isa.Maj_pulse _ -> (l, r, i, m + 1)))
      (0, 0, 0, 0) p.Rram.Program.steps
  in
  [ l; r; i; m ]

let sequence_tests =
  let open Alcotest in
  [
    test_case "IMP majority gate: 6 RRAMs, 10 steps, correct" `Quick (fun () ->
        let mig = single_maj_mig () in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Imp mig in
        check int "steps" 10 r.Rram.Compile_mig.cost.Core.Rram_cost.latency;
        check int "rrams" 6 r.Rram.Compile_mig.cost.Core.Rram_cost.devices;
        (match Rram.Program.validate r.Rram.Compile_mig.program with
        | Ok () -> ()
        | Error e -> fail e);
        match Rram.Verify.against_mig r.Rram.Compile_mig.program mig with
        | Ok () -> ()
        | Error e -> fail e);
    test_case "MAJ majority gate: 4 RRAMs, 3 steps, correct" `Quick (fun () ->
        let mig = single_maj_mig () in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
        check int "steps" 3 r.Rram.Compile_mig.cost.Core.Rram_cost.latency;
        check int "rrams" 4 r.Rram.Compile_mig.cost.Core.Rram_cost.devices;
        match Rram.Verify.against_mig r.Rram.Compile_mig.program mig with
        | Ok () -> ()
        | Error e -> fail e);
    test_case "single-gate pulse counts" `Quick (fun () ->
        let r = Rram.Compile_mig.compile Core.Rram_cost.Imp (single_maj_mig ()) in
        (* the 10-step sequence: 3 loads + 3 presets + 1 mid-FALSE + 8 imps *)
        check (list int) "loads, resets, imps, maj" [ 3; 4; 8; 0 ]
          (micro_ops r.Rram.Compile_mig.program));
    test_case "maj realization uses fewer pulses" `Quick (fun () ->
        let mig = Core.Mig_of_network.convert (Logic.Funcgen.rd 5 3) in
        let pulses realization =
          List.fold_left ( + ) 0
            (micro_ops (Rram.Compile_mig.compile realization mig).Rram.Compile_mig.program)
        in
        check bool "fewer" true (pulses Core.Rram_cost.Maj < pulses Core.Rram_cost.Imp));
  ]

(* ------------------------------------------------------------------ *)
(* MIG compiler: formula cross-check + functional verification         *)
(* ------------------------------------------------------------------ *)

let check_mig_compile ?(realizations = [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ]) mig =
  List.iter
    (fun realization ->
      let r = Rram.Compile_mig.compile realization mig in
      (match Rram.Program.validate r.Rram.Compile_mig.program with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("invalid program: " ^ e));
      Alcotest.(check int)
        "measured steps = Table I formula" r.Rram.Compile_mig.analytic.Core.Rram_cost.steps
        r.Rram.Compile_mig.cost.Core.Rram_cost.latency;
      Alcotest.(check bool)
        "measured rrams >= analytic" true
        (r.Rram.Compile_mig.cost.Core.Rram_cost.devices
        >= r.Rram.Compile_mig.analytic.Core.Rram_cost.rrams);
      match Rram.Verify.against_mig r.Rram.Compile_mig.program mig with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    realizations

let mig_compile_tests =
  let open Alcotest in
  let of_net net = Core.Mig_of_network.convert net in
  [
    test_case "full adder" `Quick (fun () -> check_mig_compile (of_net (Funcgen.full_adder ())));
    test_case "ripple adder 4" `Quick (fun () ->
        check_mig_compile (of_net (Funcgen.ripple_adder 4)));
    test_case "cla adder 3" `Quick (fun () ->
        check_mig_compile (of_net (Funcgen.carry_lookahead_adder 3)));
    test_case "multiplier 3" `Quick (fun () -> check_mig_compile (of_net (Funcgen.multiplier 3)));
    test_case "rd53" `Quick (fun () -> check_mig_compile (of_net (Funcgen.rd 5 3)));
    test_case "9sym" `Quick (fun () -> check_mig_compile (of_net (Funcgen.sym_range 9 3 6)));
    test_case "parity 8" `Quick (fun () -> check_mig_compile (of_net (Funcgen.parity 8)));
    test_case "comparator 4" `Quick (fun () -> check_mig_compile (of_net (Funcgen.comparator 4)));
    test_case "clip" `Quick (fun () -> check_mig_compile (of_net (Funcgen.clip ())));
    test_case "t481" `Quick (fun () -> check_mig_compile (of_net (Funcgen.t481 ())));
    test_case "complemented PO" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig and b = Core.Mig.add_pi mig and c = Core.Mig.add_pi mig in
        ignore (Core.Mig.add_po mig (Core.Mig.not_ (Core.Mig.maj mig a b c)));
        check_mig_compile mig);
    test_case "PO is a PI / constant" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig in
        ignore (Core.Mig.add_po mig a);
        ignore (Core.Mig.add_po mig Core.Mig.const1);
        List.iter
          (fun realization ->
            let r = Rram.Compile_mig.compile realization mig in
            match Rram.Verify.against_mig r.Rram.Compile_mig.program mig with
            | Ok () -> ()
            | Error e -> fail e)
          [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ]);
    test_case "optimized MIGs still compile correctly" `Quick (fun () ->
        let mig = of_net (Funcgen.rd 5 3) in
        List.iter
          (fun alg ->
            let optimized = Core.Mig_opt.run ~effort:8 alg mig in
            check_mig_compile optimized)
          [
            Core.Mig_opt.Area;
            Core.Mig_opt.Depth;
            Core.Mig_opt.Rram_costs Core.Rram_cost.Maj;
            Core.Mig_opt.Steps;
          ]);
  ]

let mig_compile_props =
  let random_mig seed =
    let rng = Prng.create seed in
    let mig = Core.Mig.create () in
    let signals = ref [| Core.Mig.const0 |] in
    let add s = signals := Array.append !signals [| s |] in
    for _ = 1 to 5 do
      add (Core.Mig.add_pi mig)
    done;
    for _ = 1 to 25 do
      let pick () =
        let s = Prng.pick rng !signals in
        if Prng.bool rng then Core.Mig.not_ s else s
      in
      add (Core.Mig.maj mig (pick ()) (pick ()) (pick ()))
    done;
    for _ = 1 to 3 do
      ignore (Core.Mig.add_po mig (Prng.pick rng !signals))
    done;
    Core.Mig.cleanup mig
  in
  [
    QCheck.Test.make ~name:"random MIGs: program = MIG function (IMP)" ~count:40
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig = random_mig seed in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Imp mig in
        Rram.Verify.against_mig r.Rram.Compile_mig.program mig = Ok ());
    QCheck.Test.make ~name:"random MIGs: program = MIG function (MAJ)" ~count:40
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig = random_mig seed in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
        Rram.Verify.against_mig r.Rram.Compile_mig.program mig = Ok ());
    QCheck.Test.make ~name:"random MIGs: steps match Table I (both)" ~count:40
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig = random_mig seed in
        let depth = (Core.Mig_levels.compute mig).Core.Mig_levels.depth in
        List.for_all
          (fun realization ->
            let r = Rram.Compile_mig.compile realization mig in
            let analytic = r.Rram.Compile_mig.analytic.Core.Rram_cost.steps in
            (* A depth-0 graph with complemented input outputs has no gate
               level whose load step can absorb the staging copies, costing
               one extra step over the formula (documented corner). *)
            if depth = 0 then
              r.Rram.Compile_mig.cost.Core.Rram_cost.latency <= analytic + 1
            else r.Rram.Compile_mig.cost.Core.Rram_cost.latency = analytic)
          [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ]);
  ]

(* ------------------------------------------------------------------ *)
(* Baseline compilers                                                   *)
(* ------------------------------------------------------------------ *)

let check_bdd mode net =
  let built = Bdd_lib.Bdd_of_network.build net in
  let r = Rram.Compile_bdd.compile ~mode built in
  (match Rram.Program.validate r.Rram.Compile_bdd.program with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invalid BDD program: " ^ e));
  match Rram.Verify.against_network r.Rram.Compile_bdd.program net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let check_aig net =
  let aig = Aig_lib.Aig_of_network.convert net in
  let r = Rram.Compile_aig.compile aig in
  (match Rram.Program.validate r.Rram.Compile_aig.program with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invalid AIG program: " ^ e));
  match Rram.Verify.against_network r.Rram.Compile_aig.program net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* PLiM compiles the MIG of the same net: its RM3 stream is a plain
   program, checked like the baselines. *)
let check_plim net =
  let r = Rram.Plim.compile (Core.Mig_of_network.convert net) in
  (match Rram.Program.validate r with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invalid PLiM program: " ^ e));
  match Rram.Verify.against_network r net with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let baseline_tests =
  let open Alcotest in
  let nets =
    [
      ("full adder", Funcgen.full_adder ());
      ("ripple 4", Funcgen.ripple_adder 4);
      ("rd53", Funcgen.rd 5 3);
      ("comparator 3", Funcgen.comparator 3);
      ("parity 6", Funcgen.parity 6);
      ("mux tree 2", Funcgen.mux_tree 2);
      ("clip", Funcgen.clip ());
    ]
  in
  List.concat_map
    (fun (name, net) ->
      [
        test_case (name ^ " / BDD sequential") `Quick (fun () -> check_bdd `Sequential net);
        test_case (name ^ " / BDD levelized") `Quick (fun () -> check_bdd `Levelized net);
        test_case (name ^ " / AIG sequential") `Quick (fun () -> check_aig net);
        test_case (name ^ " / PLiM") `Quick (fun () -> check_plim net);
      ])
    nets
  @ [
      test_case "BDD sequential steps scale with nodes" `Quick (fun () ->
          let net = Funcgen.rd 7 3 in
          let built = Bdd_lib.Bdd_of_network.build net in
          let nodes = Bdd_lib.Bdd_of_network.node_count built in
          let r = Rram.Compile_bdd.compile ~mode:`Sequential built in
          check bool "at least 5 steps per node" true
            (Rram.Program.num_steps r.Rram.Compile_bdd.program >= 5 * nodes));
      test_case "MAJ-MIG beats sequential BDD on steps" `Quick (fun () ->
          (* the headline comparison, in miniature *)
          let net = Funcgen.rd 7 3 in
          let mig = Core.Mig_opt.steps ~effort:8 (Core.Mig_of_network.convert net) in
          let mig_r = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
          let bdd_r =
            Rram.Compile_bdd.compile ~mode:`Sequential (Bdd_lib.Bdd_of_network.build net)
          in
          check bool "MIG-MAJ faster" true
            (mig_r.Rram.Compile_mig.cost.Core.Rram_cost.latency
            < Rram.Program.num_steps bdd_r.Rram.Compile_bdd.program));
    ]

(* ------------------------------------------------------------------ *)
(* Crossbar placement                                                   *)
(* ------------------------------------------------------------------ *)

let placement_tests =
  let open Alcotest in
  let programs () =
    List.concat_map
      (fun net ->
        let mig = Core.Mig_of_network.convert net in
        [
          (Rram.Compile_mig.compile Core.Rram_cost.Imp mig).Rram.Compile_mig.program;
          (Rram.Compile_mig.compile Core.Rram_cost.Maj mig).Rram.Compile_mig.program;
        ])
      [ Logic.Funcgen.full_adder (); Logic.Funcgen.rd 5 3; Logic.Funcgen.comparator 4 ]
  in
  [
    test_case "placements are valid" `Quick (fun () ->
        List.iter
          (fun p ->
            let placement = Rram.Placement.place p in
            match Rram.Placement.validate p placement with
            | Ok () -> ()
            | Error e -> fail e)
          (programs ()));
    test_case "utilization in (0, 1]" `Quick (fun () ->
        List.iter
          (fun p ->
            let t = Rram.Placement.place p in
            check bool "util" true (t.Rram.Placement.utilization > 0.0 && t.Rram.Placement.utilization <= 1.0))
          (programs ()));
    test_case "imp gate devices share a row" `Quick (fun () ->
        let r = Rram.Compile_mig.compile Core.Rram_cost.Imp (single_maj_mig ()) in
        let t = Rram.Placement.place r.Rram.Compile_mig.program in
        (* all 6 devices of the single gate interact through IMP: one row *)
        check bool "at most 2 rows" true (t.Rram.Placement.rows <= 2));
  ]

(* ------------------------------------------------------------------ *)
(* Crossbar-constrained compilation                                     *)
(* ------------------------------------------------------------------ *)

(* Full contract of the crossbar backend on a fitted geometry: the program
   is structurally valid under the per-step row discipline, the placement
   is consistent, the parallel-wave execution computes the same function as
   the MIG, and the latency matches the serial compiler (exactly for MAJ;
   IMP pays one complement sub-step per extra operand position in use,
   which the serial model understates). *)
let crossbar_check mig =
  List.iter
    (fun realization ->
      let serial = Rram.Compile_mig.compile realization mig in
      let arch = Rram.Compile_crossbar.fit realization mig in
      match Rram.Compile_crossbar.compile ~arch realization mig with
      | Error e -> Alcotest.fail ("fit geometry rejected: " ^ e)
      | Ok r ->
          let p = r.Rram.Compile_crossbar.program in
          let placement = r.Rram.Compile_crossbar.placement in
          (match
             Rram.Program.validate ~row_of:placement.Rram.Placement.row_of p
           with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("row discipline: " ^ e));
          (match Rram.Placement.validate p placement with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("placement: " ^ e));
          (match Rram.Verify.against_mig p mig with
          | Ok () -> ()
          | Error e -> Alcotest.fail ("crossbar program diverges: " ^ e));
          let latency = r.Rram.Compile_crossbar.measured.Core.Rram_cost.latency in
          let serial_steps = serial.Rram.Compile_mig.cost.Core.Rram_cost.latency in
          (match realization with
          | Core.Rram_cost.Maj ->
              Alcotest.(check int)
                "MAJ fitted latency = serial steps" serial_steps latency
          | Core.Rram_cost.Imp ->
              let depth = (Core.Mig_levels.compute mig).Core.Mig_levels.depth in
              Alcotest.(check bool)
                "IMP fitted latency within complement-rotation slack" true
                (latency <= serial_steps + (2 * depth) + 2));
          Alcotest.(check bool)
            "devices within capacity" true
            (match arch with
            | Core.Rram_cost.Crossbar { rows; columns } ->
                r.Rram.Compile_crossbar.measured.Core.Rram_cost.devices
                <= rows * columns
            | Core.Rram_cost.Unbounded_serial -> false))
    [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ]

(* Halving the row budget must still produce an equivalent program — waves
   just serialize — and can only increase latency. *)
let crossbar_constrained_check mig =
  let realization = Core.Rram_cost.Maj in
  match Rram.Compile_crossbar.fit realization mig with
  | Core.Rram_cost.Unbounded_serial -> ()
  | Core.Rram_cost.Crossbar { rows; columns = _ } ->
      if rows > 1 then begin
        let fitted =
          match
            Rram.Compile_crossbar.compile
              ~arch:(Rram.Compile_crossbar.fit realization mig)
              realization mig
          with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        let arch =
          Core.Rram_cost.Crossbar { rows = (rows + 1) / 2; columns = 256 }
        in
        match Rram.Compile_crossbar.compile ~arch realization mig with
        | Error e -> Alcotest.fail ("halved rows rejected: " ^ e)
        | Ok r ->
            let p = r.Rram.Compile_crossbar.program in
            (match
               Rram.Program.validate
                 ~row_of:r.Rram.Compile_crossbar.placement.Rram.Placement.row_of
                 p
             with
            | Ok () -> ()
            | Error e -> Alcotest.fail ("row discipline: " ^ e));
            (match Rram.Verify.against_mig p mig with
            | Ok () -> ()
            | Error e -> Alcotest.fail ("constrained program diverges: " ^ e));
            Alcotest.(check bool)
              "halving rows never speeds the program up" true
              (r.Rram.Compile_crossbar.measured.Core.Rram_cost.latency
              >= fitted.Rram.Compile_crossbar.measured.Core.Rram_cost.latency);
            Alcotest.(check bool)
              "spilled levels need more waves" true
              (r.Rram.Compile_crossbar.waves >= fitted.Rram.Compile_crossbar.waves)
      end

(* The rows of a wave's gates in emission order, one list per wave, read off
   the program: a MAJ wave ends with the step of Z <- M(x, A, z) pulses (the
   only pulses whose first operand is a register), an IMP wave holds one
   step of nothing but the A <- FALSE resets (load steps always carry a
   Load), and each of those lands on its gate's row. *)
let wave_rows realization (c : Rram.Compile_crossbar.t) =
  let row_of = c.Rram.Compile_crossbar.placement.Rram.Placement.row_of in
  List.filter_map
    (fun step ->
      let dsts =
        List.map
          (fun m ->
            match (realization, m) with
            | Core.Rram_cost.Maj, Rram.Isa.Maj_pulse { p = Rram.Isa.Reg _; dst; _ }
            | Core.Rram_cost.Imp, Rram.Isa.Reset dst ->
                Some row_of.(dst)
            | _ -> None)
          step
      in
      if step <> [] && List.for_all Option.is_some dsts then
        Some (List.map Option.get dsts)
      else None)
    c.Rram.Compile_crossbar.program.Rram.Program.steps

let crossbar_tests =
  let open Alcotest in
  let of_net net = Core.Mig_of_network.convert net in
  [
    test_case "single MAJ gate fits a 1x4 array in 3 steps" `Quick (fun () ->
        let mig = single_maj_mig () in
        let arch = Rram.Compile_crossbar.fit Core.Rram_cost.Maj mig in
        (match arch with
        | Core.Rram_cost.Crossbar { rows; columns } ->
            check int "rows" 1 rows;
            check int "columns" 4 columns
        | Core.Rram_cost.Unbounded_serial -> fail "expected a crossbar");
        match Rram.Compile_crossbar.compile ~arch Core.Rram_cost.Maj mig with
        | Error e -> fail e
        | Ok r ->
            check int "latency" 3
              r.Rram.Compile_crossbar.measured.Core.Rram_cost.latency;
            check int "devices" 4
              r.Rram.Compile_crossbar.measured.Core.Rram_cost.devices;
            check int "waves" 1 r.Rram.Compile_crossbar.waves);
    test_case "fitted geometry runs one wave per level" `Quick (fun () ->
        let mig = of_net (Funcgen.ripple_adder 4) in
        let arch = Rram.Compile_crossbar.fit Core.Rram_cost.Maj mig in
        match Rram.Compile_crossbar.compile ~arch Core.Rram_cost.Maj mig with
        | Error e -> fail e
        | Ok r ->
            check int "waves = depth"
              (Core.Mig_levels.compute mig).Core.Mig_levels.depth
              r.Rram.Compile_crossbar.waves);
    test_case "benchmarks map on fitted geometries" `Quick (fun () ->
        List.iter
          (fun net -> crossbar_check (of_net net))
          [
            Funcgen.full_adder ();
            Funcgen.ripple_adder 4;
            Funcgen.rd 5 3;
            Funcgen.parity 8;
            Funcgen.comparator 4;
            Funcgen.clip ();
          ]);
    test_case "complemented primary outputs read out correctly" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig
        and b = Core.Mig.add_pi mig
        and c = Core.Mig.add_pi mig in
        let g = Core.Mig.maj mig a b c in
        ignore (Core.Mig.add_po mig (Core.Mig.not_ g));
        ignore (Core.Mig.add_po mig (Core.Mig.not_ a));
        ignore (Core.Mig.add_po mig g);
        crossbar_check mig);
    test_case "a 2^40-row array compiles like the fitted one" `Quick (fun () ->
        (* per-row state grows with the rows the schedule opens, so a huge
           row budget costs nothing and changes nothing *)
        let c17 =
          Io.Bench_format.parse_file
            (if Sys.file_exists "examples/c17.bench" then "examples/c17.bench"
             else "../examples/c17.bench")
        in
        List.iter
          (fun net ->
            let mig = of_net net in
            List.iter
              (fun realization ->
                let columns =
                  match Rram.Compile_crossbar.fit realization mig with
                  | Core.Rram_cost.Crossbar { columns; _ } -> columns
                  | Core.Rram_cost.Unbounded_serial -> fail "expected a crossbar"
                in
                let compile arch =
                  match Rram.Compile_crossbar.compile ~arch realization mig with
                  | Ok c ->
                      ( c.Rram.Compile_crossbar.program,
                        c.Rram.Compile_crossbar.placement.Rram.Placement.row_of,
                        c.Rram.Compile_crossbar.placement.Rram.Placement.column_of,
                        c.Rram.Compile_crossbar.waves )
                  | Error e -> fail e
                in
                check bool "same program, placement and waves" true
                  (compile (Rram.Compile_crossbar.fit realization mig)
                  = compile
                      (Core.Rram_cost.Crossbar { rows = 1 lsl 40; columns })))
              [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ])
          [ c17; Funcgen.ripple_adder 4 ]);
    test_case "row budget forces extra waves" `Quick (fun () ->
        crossbar_constrained_check (of_net (Funcgen.ripple_adder 4));
        crossbar_constrained_check (of_net (Funcgen.rd 5 3)));
    test_case "the serial target is rejected by the backend" `Quick (fun () ->
        match
          Rram.Compile_crossbar.compile ~arch:Core.Rram_cost.Unbounded_serial
            Core.Rram_cost.Maj (single_maj_mig ())
        with
        | Error _ -> ()
        | Ok _ -> fail "expected an error");
    test_case "a too-narrow crossbar is rejected with a reason" `Quick
      (fun () ->
        match
          Rram.Compile_crossbar.compile
            ~arch:(Core.Rram_cost.Crossbar { rows = 4; columns = 2 })
            Core.Rram_cost.Imp (single_maj_mig ())
        with
        | Error e ->
            check bool "mentions the column budget" true
              (String.length e > 0)
        | Ok _ -> fail "expected an error");
    test_case "architecture parsing" `Quick (fun () ->
        (match Core.Rram_cost.parse_arch "32x64" with
        | Ok (Core.Rram_cost.Crossbar { rows = 32; columns = 64 }) -> ()
        | _ -> fail "32x64 should parse");
        (match Core.Rram_cost.parse_arch "serial" with
        | Ok Core.Rram_cost.Unbounded_serial -> ()
        | _ -> fail "serial should parse");
        List.iter
          (fun text ->
            match Core.Rram_cost.parse_arch text with
            | Error _ -> ()
            | Ok _ -> fail (text ^ " should be rejected"))
          [ "0x8"; "8x0"; "-2x8"; "ax8"; "8"; "x"; "" ]);
    test_case "serial compile is bit-identical under the default arch" `Quick
      (fun () ->
        let mig = of_net (Funcgen.rd 5 3) in
        let a = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
        let b =
          Rram.Compile_mig.compile ~arch:Core.Rram_cost.Unbounded_serial
            Core.Rram_cost.Maj mig
        in
        check bool "same program" true
          (a.Rram.Compile_mig.program = b.Rram.Compile_mig.program));
  ]

let crossbar_props =
  let random_mig seed =
    let rng = Prng.create seed in
    let mig = Core.Mig.create () in
    let signals = ref [| Core.Mig.const0 |] in
    let add s = signals := Array.append !signals [| s |] in
    for _ = 1 to 5 do
      add (Core.Mig.add_pi mig)
    done;
    for _ = 1 to 25 do
      let pick () =
        let s = Prng.pick rng !signals in
        if Prng.bool rng then Core.Mig.not_ s else s
      in
      add (Core.Mig.maj mig (pick ()) (pick ()) (pick ()))
    done;
    for _ = 1 to 3 do
      ignore (Core.Mig.add_po mig (Prng.pick rng !signals))
    done;
    Core.Mig.cleanup mig
  in
  [
    QCheck.Test.make
      ~name:"random MIGs: crossbar waves = MIG function, rows disjoint (both)"
      ~count:40
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig = random_mig seed in
        crossbar_check mig;
        true);
    QCheck.Test.make
      ~name:"random MIGs: lowest-index first-fit rows when no row is full"
      ~count:40
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        (* With columns to spare every unused row can host any gate, so
           first-fit puts a wave's k gates on rows 0 .. k-1 in order.  IMP
           producers of complemented outputs prefer rows without a readout
           device, so IMP is checked only on MIGs without them. *)
        let mig = random_mig seed in
        let compl_gate_po =
          Array.exists
            (fun s ->
              Core.Mig.is_compl s
              && Core.Mig.kind mig (Core.Mig.node_of s) = Core.Mig.Gate)
            (Core.Mig.pos mig)
        in
        List.for_all
          (fun realization ->
            match Rram.Compile_crossbar.fit realization mig with
            | Core.Rram_cost.Unbounded_serial -> false
            | Core.Rram_cost.Crossbar { rows = fitted; _ } ->
                List.for_all
                  (fun rows ->
                    let arch = Core.Rram_cost.Crossbar { rows; columns = 1 lsl 20 } in
                    match Rram.Compile_crossbar.compile ~arch realization mig with
                    | Error e -> QCheck.Test.fail_report e
                    | Ok c ->
                        let waves = wave_rows realization c in
                        List.length waves = c.Rram.Compile_crossbar.waves
                        && List.for_all
                             (fun gate_rows ->
                               List.length gate_rows <= rows
                               && gate_rows = List.init (List.length gate_rows) Fun.id)
                             waves)
                  (List.sort_uniq compare [ fitted; max 1 (fitted / 2); 1 ]))
          (if compl_gate_po then [ Core.Rram_cost.Maj ]
           else [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ]));
    QCheck.Test.make ~name:"random MIGs: halved row budget stays equivalent"
      ~count:40
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig = random_mig seed in
        crossbar_constrained_check mig;
        true);
  ]

(* ------------------------------------------------------------------ *)
(* Crossbar golden: exact programs on fitted and constrained arrays     *)
(* ------------------------------------------------------------------ *)

(* One line per circuit x realization x geometry: the MD5 of the compiled
   program's listing, placement and wave count (or of the error text), so a
   scheduler speedup must reproduce every program byte for byte. *)
let crossbar_digest arch realization mig =
  match Rram.Compile_crossbar.compile ~arch realization mig with
  | Error e -> ("error", Digest.to_hex (Digest.string e))
  | Ok c ->
      let b = Buffer.create 65536 in
      let ppf = Format.formatter_of_buffer b in
      Format.fprintf ppf "%a@." Rram.Program.pp c.Rram.Compile_crossbar.program;
      let p = c.Rram.Compile_crossbar.placement in
      Array.iter (fun r -> Printf.bprintf b "%d " r) p.Rram.Placement.row_of;
      Buffer.add_char b '\n';
      Array.iter (fun r -> Printf.bprintf b "%d " r) p.Rram.Placement.column_of;
      Printf.bprintf b "\nwaves %d\n" c.Rram.Compile_crossbar.waves;
      ("ok", Digest.to_hex (Digest.string (Buffer.contents b)))

(* fitted, fit ~rows:(rows / d) for each divisor, and (when [narrow]) the
   fitted rows with one column fewer *)
let crossbar_cells name mig realization ~divisors ~narrow =
  let rows, columns =
    match Rram.Compile_crossbar.fit realization mig with
    | Core.Rram_cost.Crossbar { rows; columns } -> (rows, columns)
    | Core.Rram_cost.Unbounded_serial -> Alcotest.fail "fit returned serial"
  in
  let tag = match realization with Core.Rram_cost.Imp -> "imp" | Core.Rram_cost.Maj -> "maj" in
  let line label arch =
    let status, md5 = crossbar_digest arch realization mig in
    Printf.sprintf "%s %s %s %s %s %s" name tag label
      (Core.Rram_cost.arch_to_string arch) status md5
  in
  (line "fitted" (Core.Rram_cost.Crossbar { rows; columns })
  :: List.map
       (fun d ->
         let label = Printf.sprintf "rows/%d" d in
         match Rram.Compile_crossbar.fit ~rows:(rows / d) realization mig with
         | arch -> line label arch
         | exception Rram.Compile_crossbar.Too_small e ->
             Printf.sprintf "%s %s %s - raise %s" name tag label
               (Digest.to_hex (Digest.string e)))
       divisors)
  @
  if narrow then
    [ line "columns-1" (Core.Rram_cost.Crossbar { rows; columns = columns - 1 }) ]
  else []

let crossbar_digest_tests =
  let open Alcotest in
  [
    test_case "crossbar programs are byte-identical to the pinned digests" `Slow
      (fun () ->
        let path =
          if Sys.file_exists "crossbar_digests.txt" then "crossbar_digests.txt"
          else "test/crossbar_digests.txt"
        in
        let expected =
          In_channel.with_open_text path In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "" && l.[0] <> '#')
        in
        let realizations = [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ] in
        let suite =
          List.concat_map
            (fun (e : Io.Benchmarks.entry) ->
              let mig =
                Core.Mig_opt.steps ~effort:2
                  (Core.Mig_of_network.convert (e.Io.Benchmarks.build ()))
              in
              List.concat_map
                (fun r ->
                  crossbar_cells e.Io.Benchmarks.name mig r ~divisors:[ 2; 4 ]
                    ~narrow:true)
                realizations)
            Io.Benchmarks.table2
        in
        let name = "scale-s3-g10000" in
        let mig =
          Core.Mig_flows.run
            (Core.Mig_flows.parse_exn
               (Option.get (Core.Mig_flows.canonical_script ~effort:2 "area")))
            (Core.Mig_of_network.convert
               (Io.Gen.scale_network ~name ~gates:10_000 ()))
        in
        let scale =
          List.concat_map
            (fun r -> crossbar_cells name mig r ~divisors:[ 2 ] ~narrow:false)
            realizations
        in
        check int "25 circuits x 2 x 4 + scale 2 x 2" 204 (List.length expected);
        List.iter2 (check string "cell") expected (suite @ scale));
  ]

(* ------------------------------------------------------------------ *)
(* Non-ideal devices, fault semantics, remapping, TMR                   *)
(* ------------------------------------------------------------------ *)

(* Noiseless physics with the LRS and HRS resistances swapped: every read
   senses the complement of the stored state. *)
let swapped_physics n =
  Array.map
    (fun p -> { p with Rram.Device.r_lrs = p.Rram.Device.r_hrs; r_hrs = p.Rram.Device.r_lrs })
    (Rram.Variation.sample Rram.Variation.ideal ~seed:1 n)

let nonideal_device_tests =
  let open Alcotest in
  [
    test_case "zeroed model behaves ideally" `Quick (fun () ->
        let d =
          Rram.Device.create_phys (Rram.Variation.sample Rram.Variation.ideal ~seed:1 1).(0)
        in
        Rram.Device.set d;
        check bool "set" true (Rram.Device.read d);
        Rram.Device.clear d;
        check bool "clear" false (Rram.Device.read d));
    test_case "read_disturb = 1.0 flips every read but not the state" `Quick (fun () ->
        let d = Rram.Device.create_phys (swapped_physics 1).(0) in
        check bool "reads 1" true (Rram.Device.read d);
        check bool "stores 0" false (Rram.Device.observe d);
        Rram.Device.set d;
        check bool "reads 0" false (Rram.Device.read d);
        check bool "stores 1" true (Rram.Device.observe d));
    test_case "defective cell ignores every pulse" `Quick (fun () ->
        let d = Rram.Device.create () in
        Rram.Device.set_defect d Rram.Device.Stuck_0;
        Rram.Device.set d;
        Rram.Device.maj_pulse d ~p:true ~q:false;
        Rram.Device.imp_apply ~p:false d;
        check bool "still 0" false (Rram.Device.read d));
    test_case "only state changes wear the cell" `Quick (fun () ->
        let d = Rram.Device.create () in
        Rram.Device.clear d;
        Rram.Device.write d false;
        check int "no-op writes are free" 0 (Rram.Device.wear d);
        Rram.Device.set d;
        check int "one switch" 1 (Rram.Device.wear d));
  ]

let fault_reference_setup () =
  let net = Funcgen.rd 5 3 in
  let mig = Core.Mig_opt.steps ~effort:8 (Core.Mig_of_network.convert net) in
  (mig, Core.Mig_sim.eval mig)

let survives program ~reference defects vectors =
  List.for_all (fun v -> Rram.Interp.run ~defects program v = reference v) vectors

(* A single stuck-at defect that flips at least one output on some vector. *)
let find_breaking_fault program ~reference vectors =
  List.init program.Rram.Program.num_regs Fun.id
  |> List.concat_map (fun cell -> [ (cell, Rram.Device.Stuck_1); (cell, Rram.Device.Stuck_0) ])
  |> List.find_opt (fun d -> not (survives program ~reference [ d ] vectors))

let fault_semantics_tests =
  let open Alcotest in
  [
    test_case "yield at rate 0.0 is exactly 1.0 (both realizations)" `Quick (fun () ->
        let mig, reference = fault_reference_setup () in
        let params = { Rram.Variation.ideal with stuck_rate = 0.0 } in
        List.iter
          (fun realization ->
            let p = (Rram.Compile_mig.compile realization mig).Rram.Compile_mig.program in
            let n = p.Rram.Program.num_regs in
            let vectors = Rram.Verify.vectors p.Rram.Program.num_inputs in
            let trials = 50 in
            let faults = ref 0 and passed = ref 0 in
            for seed = 1 to trials do
              faults := !faults + List.length (Rram.Variation.stuck params ~seed n);
              let devices = Rram.Variation.crossbar params ~seed n in
              if
                List.for_all
                  (fun v -> Rram.Interp.run_on ~devices p v = reference v)
                  vectors
              then incr passed
            done;
            check (float 0.0) "yield" 1.0 (Float.of_int !passed /. Float.of_int trials);
            check (float 0.0) "mean faults" 0.0 (Float.of_int !faults /. Float.of_int trials))
          [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ]);
    test_case "a stuck cell that is never live cannot change outputs" `Quick (fun () ->
        let mig, reference = fault_reference_setup () in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
        let p = r.Rram.Compile_mig.program in
        (* a spare physical cell beyond every register the program touches *)
        let widened = { p with Rram.Program.num_regs = p.Rram.Program.num_regs + 1 } in
        let spare = p.Rram.Program.num_regs in
        let vectors = Rram.Verify.vectors p.Rram.Program.num_inputs in
        List.iter
          (fun level ->
            check bool "outputs unchanged" true
              (survives widened ~reference [ (spare, level) ] vectors))
          [ Rram.Device.Stuck_1; Rram.Device.Stuck_0 ];
        (* the resilient executor agrees: nothing to detect, nothing remapped *)
        let env = Rram.Resilient.env_of_defects [ (spare, Rram.Device.Stuck_1) ] in
        let report = Rram.Resilient.run env widened ~reference in
        check bool "ok" true report.Rram.Resilient.ok;
        check int "first attempt" 1 report.Rram.Resilient.attempts;
        check int "no moves" 0 (List.length report.Rram.Resilient.moves));
    test_case "repair succeeds where the unrepaired program fails" `Quick (fun () ->
        let mig, reference = fault_reference_setup () in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
        let p = r.Rram.Compile_mig.program in
        let vectors = Rram.Verify.vectors p.Rram.Program.num_inputs in
        match find_breaking_fault p ~reference vectors with
        | None -> fail "expected a breaking single stuck-at fault"
        | Some ((cell, _) as f) ->
            (* unrepaired: fails by construction *)
            check bool "unrepaired fails" false (survives p ~reference [ f ] vectors);
            let env = Rram.Resilient.env_of_defects [ f ] in
            let report = Rram.Resilient.run env p ~reference in
            check bool "repaired" true report.Rram.Resilient.ok;
            check bool "needed a retry" true (report.Rram.Resilient.attempts > 1);
            check bool "diagnosed the injected cell" true
              (List.mem cell report.Rram.Resilient.diagnosed);
            (* the repaired program no longer touches the dead cell *)
            let live = Rram.Remap.live_regs report.Rram.Resilient.program in
            check bool "dead cell abandoned" false live.(cell));
    test_case "remapped program verifies and grows only by the moves" `Quick (fun () ->
        let mig, _ = fault_reference_setup () in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Imp mig in
        let p = r.Rram.Compile_mig.program in
        match Rram.Remap.remap p ~bad:[ 0; 3 ] with
        | Error e -> fail e
        | Ok m ->
            check int "two moves" 2 (List.length m.Rram.Remap.moves);
            check int "regs grew by 2" (p.Rram.Program.num_regs + 2)
              m.Rram.Remap.program.Rram.Program.num_regs;
            (match Rram.Program.validate m.Rram.Remap.program with
            | Ok () -> ()
            | Error e -> fail e);
            (match Rram.Verify.against_mig m.Rram.Remap.program mig with
            | Ok () -> ()
            | Error e -> fail e));
    test_case "remap refuses when the placement has no spares" `Quick (fun () ->
        let mig, _ = fault_reference_setup () in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
        let p = r.Rram.Compile_mig.program in
        let placement = Rram.Placement.place p in
        (* a fully-utilized array has capacity = num_regs: no spare sites *)
        let full = { placement with Rram.Placement.rows = 1; columns = p.Rram.Program.num_regs } in
        match Rram.Remap.remap ~placement:full p ~bad:[ 0 ] with
        | Error _ -> ()
        | Ok _ -> fail "expected an out-of-spares error");
  ]

let tmr_tests =
  let open Alcotest in
  [
    test_case "TMR program is valid and fault-free correct" `Quick (fun () ->
        let mig, reference = fault_reference_setup () in
        List.iter
          (fun realization ->
            let r = Rram.Compile_mig.compile realization mig in
            let p = r.Rram.Compile_mig.program in
            let tmr = Rram.Tmr.protect p in
            (match Rram.Program.validate tmr.Rram.Tmr.program with
            | Ok () -> ()
            | Error e -> fail e);
            List.iter
              (fun v ->
                check bool "matches reference" true
                  (Rram.Interp.run tmr.Rram.Tmr.program v = reference v))
              (Rram.Verify.vectors p.Rram.Program.num_inputs))
          [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ]);
    test_case "TMR with one faulty replica still verifies" `Quick (fun () ->
        let mig, reference = fault_reference_setup () in
        let r = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
        let p = r.Rram.Compile_mig.program in
        let vectors = Rram.Verify.vectors p.Rram.Program.num_inputs in
        match find_breaking_fault p ~reference vectors with
        | None -> fail "expected a breaking single stuck-at fault"
        | Some (cell, level) ->
            let tmr = Rram.Tmr.protect p in
            let n = p.Rram.Program.num_regs in
            (* the same defect in each replica in turn: always voted out *)
            List.iter
              (fun k ->
                check bool
                  (Printf.sprintf "replica %d masked" k)
                  true
                  (survives tmr.Rram.Tmr.program ~reference
                     [ (cell + (k * n), level) ]
                     vectors))
              [ 0; 1; 2 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Trace-callback contract (see the Interp.mli doc): 1-based indices,  *)
(* post-step states, noiseless observes, pre-step latching visible     *)
(* ------------------------------------------------------------------ *)

let interp_trace_tests =
  let open Alcotest in
  let collect ?physics program inputs =
    let acc = ref [] in
    let devices = Rram.Interp.crossbar ?physics program.Rram.Program.num_regs in
    ignore
      (Rram.Interp.run_on ~devices
         ~trace:(fun idx step states -> acc := (idx, step, Array.copy states) :: !acc)
         program inputs);
    List.rev !acc
  in
  [
    test_case "exact ordering and post-step values" `Quick (fun () ->
        (* Step 2 pairs [Reset 0] with an IMP reading register 0: the IMP
           must latch the pre-step value (parallel semantics) while the
           trace shows the post-step state of both cells. *)
        let program =
          {
            Rram.Program.num_inputs = 1;
            num_regs = 2;
            steps =
              [
                [ Rram.Isa.Load (0, Rram.Isa.Input 0); Rram.Isa.Load (1, Rram.Isa.Const false) ];
                [ Rram.Isa.Reset 0; Rram.Isa.Imp { src = 0; dst = 1 } ];
                [
                  Rram.Isa.Maj_pulse
                    { p = Rram.Isa.Input 0; q = Rram.Isa.Reg 1; dst = 0 };
                ];
              ];
            outputs = [| Rram.Isa.Reg 0 |];
          }
        in
        List.iter
          (fun i ->
            let entries = collect program [| i |] in
            check (list int) "1-based step indices" [ 1; 2; 3 ]
              (List.map (fun (idx, _, _) -> idx) entries);
            List.iteri
              (fun k (_, step, _) ->
                check bool
                  (Printf.sprintf "step %d is the program's" (k + 1))
                  true
                  (step == List.nth program.Rram.Program.steps k))
              entries;
            (* after step 1: [|i; false|]; after step 2 (Reset 0 in
               parallel with dst1 <- ¬i ∨ false): [|false; ¬i|]; after
               step 3 (dst0 <- M(i, ¬(¬i), false) = i): [|i; ¬i|] *)
            let expect =
              [ [| i; false |]; [| false; not i |]; [| i; not i |] ]
            in
            List.iteri
              (fun k (_, _, states) ->
                check (array bool)
                  (Printf.sprintf "i=%b post-step states of step %d" i (k + 1))
                  (List.nth expect k) states)
              entries)
          [ true; false ]);
    test_case "states are noiseless observes under full read disturb" `Quick (fun () ->
        (* Swapped LRS/HRS physics complements every sensed read; the
           program avoids Reg reads so execution is unaffected, and the
           trace must show the true stored states (Device.observe), not
           reads. *)
        let program =
          {
            Rram.Program.num_inputs = 1;
            num_regs = 2;
            steps =
              [
                [ Rram.Isa.Load (0, Rram.Isa.Input 0); Rram.Isa.Load (1, Rram.Isa.Const true) ];
                [ Rram.Isa.Reset 1 ];
                [
                  Rram.Isa.Maj_pulse
                    { p = Rram.Isa.Input 0; q = Rram.Isa.Const false; dst = 1 };
                ];
              ];
            outputs = [| Rram.Isa.Input 0 |];
          }
        in
        let entries = collect ~physics:(swapped_physics 2) program [| true |] in
        let expect = [ [| true; true |]; [| true; false |]; [| true; true |] ] in
        check (list int) "indices" [ 1; 2; 3 ] (List.map (fun (i, _, _) -> i) entries);
        List.iteri
          (fun k (_, _, states) ->
            check (array bool)
              (Printf.sprintf "noiseless states of step %d" (k + 1))
              (List.nth expect k) states)
          entries);
    test_case "Resilient differential replay sees the defect, not noise" `Quick
      (fun () ->
        (* End-to-end guard for the diagnose contract: a stuck cell is found
           by comparing golden and faulty observe traces. *)
        let program =
          {
            Rram.Program.num_inputs = 1;
            num_regs = 2;
            steps =
              [
                [ Rram.Isa.Load (0, Rram.Isa.Input 0) ];
                [ Rram.Isa.Load (1, Rram.Isa.Reg 0) ];
              ];
            outputs = [| Rram.Isa.Reg 1 |];
          }
        in
        let env =
          Rram.Resilient.env_of_defects [ (1, Rram.Device.Stuck_0) ]
        in
        let reference v = [| v.(0) |] in
        let report =
          Rram.Resilient.run ~max_attempts:2 ~vectors:[ [| true |] ] env program
            ~reference
        in
        check (list int) "diagnosed the stuck cell" [ 1 ] report.Rram.Resilient.diagnosed;
        check bool "repaired" true report.Rram.Resilient.ok);
  ]

(* ------------------------------------------------------------------ *)
(* Bit-sliced kernel and bit-parallel verification                     *)
(* ------------------------------------------------------------------ *)

(* Lane [j] of a word array, as one input or output vector. *)
let lane_vector words j = Array.map (fun w -> (w lsr j) land 1 = 1) words

let random_words rng n = Array.init n (fun _ -> Int64.to_int (Prng.next64 rng))

(* Interp.run_lanes agrees with Interp.run on every lane, and leaves the
   bits above the lanes zero. *)
let lanes_agree program ~lanes words =
  let got = Rram.Interp.run_lanes program ~lanes words in
  List.for_all
    (fun j -> Rram.Interp.run program (lane_vector words j) = lane_vector got j)
    (List.init lanes Fun.id)
  && Array.for_all (fun w -> lanes = Sys.int_size || w lsr lanes = 0) got

(* Programs Program.validate may reject: several micro-ops per step, two
   writes to one register in a step, IMP with src = dst, constant and input
   operands everywhere an operand may go. *)
let random_program rng =
  let ni = Prng.int rng 4 and nr = 1 + Prng.int rng 5 in
  let reg () = Prng.int rng nr in
  let operand () =
    match Prng.int rng (if ni = 0 then 2 else 3) with
    | 0 -> Rram.Isa.Reg (reg ())
    | 1 -> Rram.Isa.Const (Prng.bool rng)
    | _ -> Rram.Isa.Input (Prng.int rng ni)
  in
  let micro () =
    match Prng.int rng 4 with
    | 0 -> Rram.Isa.Load (reg (), operand ())
    | 1 -> Rram.Isa.Reset (reg ())
    | 2 -> Rram.Isa.Imp { src = reg (); dst = reg () }
    | _ -> Rram.Isa.Maj_pulse { p = operand (); q = operand (); dst = reg () }
  in
  let step () = List.init (1 + Prng.int rng 4) (fun _ -> micro ()) in
  {
    Rram.Program.num_inputs = ni;
    num_regs = nr;
    steps = List.init (1 + Prng.int rng 8) (fun _ -> step ());
    outputs = Array.init (1 + Prng.int rng 3) (fun _ -> operand ());
  }

(* The serial, crossbar, BDD, AIG, PLiM and TMR programs of rd53. *)
let rd53_programs () =
  let net = Funcgen.rd 5 3 in
  let mig = Core.Mig_of_network.convert net in
  let serial r = (Rram.Compile_mig.compile r mig).Rram.Compile_mig.program in
  let crossbar =
    let r = Core.Rram_cost.Maj in
    match Rram.Compile_crossbar.compile ~arch:(Rram.Compile_crossbar.fit r mig) r mig with
    | Ok c -> c.Rram.Compile_crossbar.program
    | Error e -> Alcotest.fail e
  in
  let bdd =
    (Rram.Compile_bdd.compile ~mode:`Sequential (Bdd_lib.Bdd_of_network.build net))
      .Rram.Compile_bdd.program
  in
  let aig =
    (Rram.Compile_aig.compile (Aig_lib.Aig_of_network.convert net)).Rram.Compile_aig.program
  in
  [
    ("serial IMP", serial Core.Rram_cost.Imp);
    ("serial MAJ", serial Core.Rram_cost.Maj);
    ("crossbar MAJ", crossbar);
    ("BDD", bdd);
    ("AIG", aig);
    ("PLiM", Rram.Plim.compile mig);
    ("TMR", (Rram.Tmr.protect (serial Core.Rram_cost.Maj)).Rram.Tmr.program);
  ]

let lane_counts = [ 1; 62; Sys.int_size ]

(* The per-vector check the bit-parallel Verify replaced: Interp.run and the
   single-vector reference on every test vector, in order. *)
let oracle ?seed program ~n ~reference =
  let bits a = String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list a)) in
  let rec go = function
    | [] -> Ok ()
    | v :: rest ->
        let got = Rram.Interp.run program v and want = reference v in
        if got = want then go rest
        else
          Error
            (Printf.sprintf "mismatch on input %s: program %s, reference %s" (bits v)
               (bits got) (bits want))
  in
  go (Rram.Verify.vectors ?seed n)

let oracle_network ?seed program net =
  oracle ?seed program ~n:(Network.num_inputs net) ~reference:(Network.eval net)

let oracle_mig ?seed program mig =
  oracle ?seed program ~n:(Core.Mig.num_pis mig) ~reference:(Core.Mig_sim.eval mig)

let verdict = Alcotest.(result unit string)

(* [n]-input AND compiled to serial MAJ, and an [n]-input network that is
   constant 0: they differ exactly where every input is 1. *)
let and_vs_zero n =
  let build out =
    let net = Network.create () in
    let ins = Array.init n (fun i -> Network.add_input net (Printf.sprintf "x%d" i)) in
    Network.add_output net "f" (out net ins);
    net
  in
  let and_net = build (fun net ins -> Network.gate net Network.And ins) in
  let zero_net = build (fun net _ -> Network.const net false) in
  let program =
    (Rram.Compile_mig.compile Core.Rram_cost.Maj (Core.Mig_of_network.convert and_net))
      .Rram.Compile_mig.program
  in
  (program, and_net, zero_net)

(* Swap the operands of the [k]-th MAJ pulse. *)
let swap_maj_operand (program : Rram.Program.t) k =
  let seen = ref (-1) in
  let swap = function
    | Rram.Isa.Maj_pulse { p; q; dst } ->
        incr seen;
        if !seen = k then Rram.Isa.Maj_pulse { p = q; q = p; dst }
        else Rram.Isa.Maj_pulse { p; q; dst }
    | m -> m
  in
  { program with Rram.Program.steps = List.map (List.map swap) program.Rram.Program.steps }

(* The mutants of the first MAJ pulses must each get the oracle's exact
   answer, and at least one of them must be caught. *)
let check_mutants ~name ~verify ~oracle program =
  let results =
    List.init 6 (fun k ->
        let m = swap_maj_operand program k in
        let got = verify m in
        Alcotest.check verdict (Printf.sprintf "%s mutant %d" name k) (oracle m) got;
        got)
  in
  Alcotest.(check bool) (name ^ ": some mutant is caught") true
    (List.exists Result.is_error results)

let lanes_tests =
  let open Alcotest in
  [
    test_case "a second write in a step sees the first" `Quick (fun () ->
        (* Step 2 latches p = r0 = 1, resets r0, then IMP reads r0 = 0 as its
           write lands: r0 <- not 1 or 0 = 0. *)
        let program =
          {
            Rram.Program.num_inputs = 0;
            num_regs = 1;
            steps =
              [
                [ Rram.Isa.Imp { src = 0; dst = 0 } ];
                [ Rram.Isa.Reset 0; Rram.Isa.Imp { src = 0; dst = 0 } ];
              ];
            outputs = [| Rram.Isa.Reg 0 |];
          }
        in
        check (array bool) "Interp.run" [| false |] (Rram.Interp.run program [||]);
        check (array int) "run_lanes" [| 0 |] (Rram.Interp.run_lanes program ~lanes:5 [||]));
    test_case "rd53 programs agree lane by lane" `Quick (fun () ->
        let rng = Prng.create 53 in
        List.iter
          (fun (name, program) ->
            List.iter
              (fun lanes ->
                check bool
                  (Printf.sprintf "%s, %d lanes" name lanes)
                  true
                  (lanes_agree program ~lanes (random_words rng 5)))
              lane_counts)
          (rd53_programs ()));
    test_case "bad lane and input counts are rejected" `Quick (fun () ->
        let _, program = List.hd (rd53_programs ()) in
        let run = Rram.Interp.run_lanes program in
        check_raises "0 lanes" (Invalid_argument "Interp.run_lanes: lanes") (fun () ->
            ignore (run ~lanes:0 (Array.make 5 0)));
        check_raises "too many lanes" (Invalid_argument "Interp.run_lanes: lanes")
          (fun () -> ignore (run ~lanes:(Sys.int_size + 1) (Array.make 5 0)));
        check_raises "input count" (Invalid_argument "Interp.run_lanes: input count")
          (fun () -> ignore (run ~lanes:1 (Array.make 4 0))));
    test_case "malformed programs: sources fail before destinations" `Quick
      (fun () ->
        (* one register, one input line; each program has two faults, and
           the error named is the one found first: every source operand
           (a pulse's q before its p) before any destination, destinations
           before outputs *)
        let program steps outputs =
          { Rram.Program.num_inputs = 1; num_regs = 1; steps; outputs }
        in
        let raises msg prog =
          check_raises msg (Invalid_argument ("Interp.run_lanes: " ^ msg)) (fun () ->
              ignore (Rram.Interp.run_lanes prog : lanes:int -> int array -> int array))
        in
        raises "input out of range"
          (program
             [ [ Rram.Isa.Reset 3 ]; [ Rram.Isa.Load (0, Rram.Isa.Input 2) ] ]
             [| Rram.Isa.Reg 0 |]);
        raises "input out of range"
          (program
             [ [ Rram.Isa.Maj_pulse { p = Rram.Isa.Reg 4; q = Rram.Isa.Input 1; dst = 0 } ] ]
             [| Rram.Isa.Reg 0 |]);
        raises "register out of range"
          (program
             [ [ Rram.Isa.Maj_pulse { p = Rram.Isa.Input 1; q = Rram.Isa.Reg 4; dst = 0 } ] ]
             [| Rram.Isa.Reg 0 |]);
        raises "register out of range"
          (program [ [ Rram.Isa.Imp { src = 0; dst = 2 } ] ] [| Rram.Isa.Input 5 |]));
    test_case "counters and histograms count vectors" `Quick (fun () ->
        (* 63 vectors through the kernel record exactly what 63 runs of
           Interp.run record; only the span count differs. *)
        let _, program = List.nth (rd53_programs ()) 1 in
        let words = random_words (Prng.create 7) 5 in
        let snapshot f =
          Obs.reset ();
          Obs.set_enabled true;
          Fun.protect ~finally:(fun () -> Obs.set_enabled false) f;
          let h name = Obs.histogram_buckets (Obs.histogram name) in
          ( List.filter
              (fun (n, _) -> String.starts_with ~prefix:"rram.interp/" n)
              (Obs.counters ()),
            h "rram.interp/micro_ops_per_step",
            h "rram.interp/writes_per_device" )
        in
        let per_vector =
          snapshot (fun () ->
              for j = 0 to Sys.int_size - 1 do
                ignore (Rram.Interp.run program (lane_vector words j))
              done)
        in
        let lanes =
          snapshot (fun () ->
              ignore (Rram.Interp.run_lanes program ~lanes:Sys.int_size words))
        in
        Obs.reset ();
        check bool "identical counters and histograms" true (per_vector = lanes));
  ]

let lanes_props =
  [
    QCheck.Test.make ~name:"random unvalidated programs: run_lanes = run on every lane"
      ~count:300
      (QCheck.make QCheck.Gen.(int_bound 1_000_000))
      (fun seed ->
        let rng = Prng.create seed in
        let program = random_program rng in
        List.for_all
          (fun lanes ->
            lanes_agree program ~lanes (random_words rng program.Rram.Program.num_inputs))
          lane_counts);
  ]

let verify_tests =
  let open Alcotest in
  let boundary n =
    test_case (Printf.sprintf "n = %d: result and message match the oracle" n) `Quick
      (fun () ->
        let net = Funcgen.parity n in
        let program =
          (Rram.Compile_mig.compile Core.Rram_cost.Imp (Core.Mig_of_network.convert net))
            .Rram.Compile_mig.program
        in
        check verdict "correct program" (Ok ()) (Rram.Verify.against_network program net);
        (* Exhaustively the AND differs from 0 on the last vector (lane 0 of
           the chunk after the last full word for n = 6 and 12); on seeded
           vectors, on the all-one corner. *)
        let program, _, zero = and_vs_zero n in
        let want = oracle_network program zero in
        check bool "the oracle sees the mismatch" true (Result.is_error want);
        check verdict "mismatch message" want (Rram.Verify.against_network program zero))
  in
  List.map boundary [ 6; 12; 13 ]
  @ [
      test_case "vector counts at the boundaries" `Quick (fun () ->
          List.iter
            (fun (n, count) ->
              check int (Printf.sprintf "n = %d" n) count
                (List.length (Rram.Verify.vectors n)))
            [ (6, 64); (12, 4096); (13, 258) ]);
      test_case "serial MAJ mutants, 13 inputs, seeded vectors" `Quick (fun () ->
          let mig = Core.Mig_of_network.convert (Funcgen.rd 13 4) in
          let program = (Rram.Compile_mig.compile Core.Rram_cost.Maj mig).Rram.Compile_mig.program in
          check_mutants ~name:"rd13 4"
            ~verify:(fun p -> Rram.Verify.against_mig ~seed:7 p mig)
            ~oracle:(fun p -> oracle_mig ~seed:7 p mig)
            program);
      test_case "crossbar mutants, 12 inputs, exhaustive" `Quick (fun () ->
          let net = Funcgen.comparator 6 in
          let mig = Core.Mig_of_network.convert net in
          let r = Core.Rram_cost.Maj in
          match Rram.Compile_crossbar.compile ~arch:(Rram.Compile_crossbar.fit r mig) r mig with
          | Error e -> fail e
          | Ok c ->
              check int "inputs" 12 (Network.num_inputs net);
              check_mutants ~name:"comparator 6"
                ~verify:(fun p -> Rram.Verify.against_network p net)
                ~oracle:(fun p -> oracle_network p net)
                c.Rram.Compile_crossbar.program);
      test_case "input and output count mismatches" `Quick (fun () ->
          let net = Funcgen.rd 5 3 in
          let mig = Core.Mig_of_network.convert net in
          let program = (Rram.Compile_mig.compile Core.Rram_cost.Maj mig).Rram.Compile_mig.program in
          let narrow = { program with Rram.Program.num_inputs = 4 } in
          check verdict "network" (Error "input count mismatch")
            (Rram.Verify.against_network narrow net);
          check verdict "MIG" (Error "input count mismatch") (Rram.Verify.against_mig narrow mig);
          let fewer =
            { program with Rram.Program.outputs = Array.sub program.Rram.Program.outputs 0 2 }
          in
          check verdict "fewer outputs, network" (oracle_network fewer net)
            (Rram.Verify.against_network fewer net);
          check verdict "fewer outputs, MIG" (oracle_mig fewer mig)
            (Rram.Verify.against_mig fewer mig);
          check verdict "the message" (Error "mismatch on input 00000: program 00, reference 000")
            (Rram.Verify.against_mig fewer mig));
    ]

let () =
  Alcotest.run "rram"
    [
      ("device", device_tests);
      ("nonideal-device", nonideal_device_tests);
      ("paper-sequences", sequence_tests);
      ("mig-compile", mig_compile_tests);
      ("mig-compile-props", List.map QCheck_alcotest.to_alcotest mig_compile_props);
      ("baselines", baseline_tests);
      ("placement", placement_tests);
      ("crossbar", crossbar_tests);
      ("crossbar-props", List.map QCheck_alcotest.to_alcotest crossbar_props);
      ("crossbar-digests", crossbar_digest_tests);
      ("fault-semantics", fault_semantics_tests);
      ("tmr", tmr_tests);
      ("interp-trace", interp_trace_tests);
      ("lanes", lanes_tests);
      ("lanes-props", List.map QCheck_alcotest.to_alcotest lanes_props);
      ("verify", verify_tests);
    ]
