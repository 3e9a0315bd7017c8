(* The Flow pass manager: generic engine semantics (on a toy graph type),
   the flow-script parser (positions, suggestions, round-trips), the MIG
   pass registry (equivalence preservation, structural integrity), and the
   golden regression pinning the flow-script encodings of Algs. 1-4 to the
   pre-refactor Mig_opt results. *)

open Logic

(* ------------------------------------------------------------------ *)
(* Toy graphs: the engine is generic, so its control flow is testable   *)
(* without MIGs.                                                        *)
(* ------------------------------------------------------------------ *)

type toy = { mutable v : int; mutable trace : string list (* reversed *) }

let toy_ops =
  {
    Flow.copy = (fun t -> { v = t.v; trace = t.trace });
    cleanup = (fun t -> t);
    measure = (fun _ -> []);
    fingerprint = (fun t -> Marshal.to_string (t.v, t.trace) []);
  }

let toy_pass ?(reads_cycle = false) name run =
  { Flow.name; category = "toy"; doc = ""; preserves = ""; reads_cycle; run }

let log_pass name changed =
  toy_pass name (fun ~cycle:_ t ->
      t.trace <- name :: t.trace;
      (t, changed))

let engine_tests =
  let open Alcotest in
  [
    test_case "seq runs every element (no short-circuit)" `Quick (fun () ->
        let t = { v = 0; trace = [] } in
        let flow =
          Flow.Seq
            [
              Pass (log_pass "a" true);
              Pass (log_pass "b" false);
              Pass (log_pass "c" true);
            ]
        in
        let _, changed = Flow.changed_run ~ops:toy_ops flow t in
        check (list string) "order" [ "a"; "b"; "c" ] (List.rev t.trace);
        check bool "changed" true changed);
    test_case "cycle stops on convergence" `Quick (fun () ->
        let t = { v = 0; trace = [] } in
        let inc =
          toy_pass "inc" (fun ~cycle:_ t ->
              t.v <- t.v + 1;
              (t, t.v < 3))
        in
        let r = Flow.run ~ops:toy_ops (Cycle { effort = 10; body = Pass inc }) t in
        check int "converged after three iterations" 3 r.v);
    test_case "cycle respects the effort bound" `Quick (fun () ->
        let t = { v = 0; trace = [] } in
        let inc =
          toy_pass "inc" (fun ~cycle:_ t ->
              t.v <- t.v + 1;
              (t, true))
        in
        let r = Flow.run ~ops:toy_ops (Cycle { effort = 5; body = Pass inc }) t in
        check int "exactly effort iterations" 5 r.v);
    test_case "every(3) fires on cycles 0, 3, 6" `Quick (fun () ->
        let t = { v = 0; trace = [] } in
        let tick = toy_pass "tick" (fun ~cycle:_ t -> (t, true)) in
        let record =
          toy_pass ~reads_cycle:true "record" (fun ~cycle t ->
              t.trace <- string_of_int cycle :: t.trace;
              (t, false))
        in
        let body = Flow.Seq [ Pass tick; Every { period = 3; body = Pass record } ] in
        ignore (Flow.run ~ops:toy_ops (Cycle { effort = 7; body }) t);
        check (list string) "fired cycles" [ "0"; "3"; "6" ] (List.rev t.trace));
    test_case "accept_if rolls back a worsening body" `Quick (fun () ->
        let t = { v = 5; trace = [] } in
        let bump =
          toy_pass "bump" (fun ~cycle:_ t ->
              t.v <- t.v + 10;
              (t, true))
        in
        let flow =
          Flow.Accept_if
            { cost_name = "v"; cost = (fun t -> float_of_int t.v); body = Pass bump }
        in
        let r, changed = Flow.changed_run ~ops:toy_ops flow t in
        check int "rolled back" 5 r.v;
        check bool "reported unchanged" false changed);
    test_case "accept_if keeps an improving body" `Quick (fun () ->
        let t = { v = 5; trace = [] } in
        let dec =
          toy_pass "dec" (fun ~cycle:_ t ->
              t.v <- t.v - 1;
              (t, true))
        in
        let flow =
          Flow.Accept_if
            { cost_name = "v"; cost = (fun t -> float_of_int t.v); body = Pass dec }
        in
        let r, changed = Flow.changed_run ~ops:toy_ops flow t in
        check int "kept" 4 r.v;
        check bool "reported changed" true changed);
    test_case "run never mutates the input graph" `Quick (fun () ->
        (* cleanup is a real copy here, like Mig.cleanup *)
        let copying_ops = { toy_ops with Flow.cleanup = toy_ops.Flow.copy } in
        let t = { v = 0; trace = [] } in
        let inc =
          toy_pass "inc" (fun ~cycle:_ t ->
              t.v <- t.v + 1;
              (t, true))
        in
        let r = Flow.run ~ops:copying_ops (Cycle { effort = 4; body = Pass inc }) t in
        check int "input untouched" 0 t.v;
        check int "result advanced" 4 r.v);
  ]

(* ------------------------------------------------------------------ *)
(* Orbit exit: a toy state that walks a pre-period of [mu] states into  *)
(* a cycle of [lambda] states, so every repeat is known in advance.     *)
(* ------------------------------------------------------------------ *)

let rho_step ~mu ~lambda v = if v < mu then v + 1 else mu + ((v - mu + 1) mod lambda)

(* A pass that advances the rho walk, always reporting a change, and
   counts its executions in [runs]. *)
let rho_pass ?reads_cycle ~mu ~lambda runs =
  toy_pass ?reads_cycle "rho" (fun ~cycle:_ t ->
      incr runs;
      t.v <- rho_step ~mu ~lambda t.v;
      (t, true))

let rho_run ?reads_cycle ~mu ~lambda ~effort body_of =
  let runs = ref 0 in
  let body = body_of (rho_pass ?reads_cycle ~mu ~lambda runs) in
  let r = Flow.run ~ops:toy_ops (Cycle { effort; body }) { v = 0; trace = [] } in
  (r.v, !runs)

let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let orbit_props =
  let gen =
    QCheck.Gen.(
      int_range 0 6 >>= fun mu ->
      int_range 1 6 >>= fun lambda ->
      int_range 1 (mu + (3 * lambda) + 3) >|= fun effort -> (mu, lambda, effort))
  in
  [
    QCheck.Test.make ~name:"orbit exit ends on the state of a plain run" ~count:300
      (QCheck.make ~print:QCheck.Print.(triple int int int) gen)
      (fun (mu, lambda, effort) ->
        let v, runs = rho_run ~mu ~lambda ~effort (fun p -> Flow.Pass p) in
        let plain = ref 0 in
        for _ = 1 to effort do
          plain := rho_step ~mu ~lambda !plain
        done;
        (* Cleaned states are recorded from cycle 1 on, so the first repeat
           is state [max mu 1 + lambda]; from there only the remainder of
           the period is run. *)
        let j = max mu 1 + lambda in
        let expected_runs = if effort >= j then j + ((effort - j) mod lambda) else effort in
        if v <> !plain then
          QCheck.Test.fail_reportf "final state %d, plain run %d" v !plain;
        if runs <> expected_runs then
          QCheck.Test.fail_reportf "%d body runs, expected %d" runs expected_runs;
        true);
  ]

let orbit_tests =
  let open Alcotest in
  [
    test_case "every(N) in the body disables the exit" `Quick (fun () ->
        let _, runs =
          rho_run ~mu:2 ~lambda:3 ~effort:40 (fun p ->
              let noop = toy_pass "noop" (fun ~cycle:_ t -> (t, false)) in
              Flow.Seq [ Pass p; Every { period = 2; body = Pass noop } ])
        in
        check int "every cycle ran" 40 runs);
    test_case "a pass reading the cycle disables the exit" `Quick (fun () ->
        let _, runs =
          rho_run ~reads_cycle:true ~mu:2 ~lambda:3 ~effort:40 (fun p -> Flow.Pass p)
        in
        check int "every cycle ran" 40 runs);
    test_case "a nested cycle keeps the exit" `Quick (fun () ->
        let _, runs =
          rho_run ~mu:2 ~lambda:3 ~effort:40 (fun p ->
              Flow.Cycle { effort = 1; body = Pass p })
        in
        check bool "fewer body runs than the effort" true (runs < 40));
    test_case "changed=false still stops first" `Quick (fun () ->
        (* state 2 repeats state 1, but the cycle that produced it reported
           no change: the loop converges there instead of skipping ahead *)
        with_obs (fun () ->
            let runs = ref 0 in
            let cap =
              toy_pass "cap" (fun ~cycle:_ t ->
                  incr runs;
                  let v = min (t.v + 1) 1 in
                  let changed = v <> t.v in
                  t.v <- v;
                  (t, changed))
            in
            let r =
              Flow.run ~ops:toy_ops ~name:"cap" (Cycle { effort = 10; body = Pass cap })
                { v = 0; trace = [] }
            in
            check int "converged state" 1 r.v;
            check int "two body runs" 2 !runs;
            check int "nothing skipped" 0
              (Obs.count (Obs.counter "flow/cap/cycle.orbit_skipped"));
            check int "one sample per executed cycle" 3
              (List.length (Obs.samples (Obs.series "flow/cap/trajectory")))));
    test_case "the toy fingerprint sees the whole state" `Quick (fun () ->
        let fp v trace = toy_ops.Flow.fingerprint { v; trace } in
        check bool "v" false (fp 1 [] = fp 2 []);
        check bool "trace" false (fp 1 [ "a" ] = fp 1 [ "b" ]);
        check bool "equal states" true (fp 1 [ "a" ] = fp 1 [ "a" ]));
  ]

(* ------------------------------------------------------------------ *)
(* Script parser                                                       *)
(* ------------------------------------------------------------------ *)

let parse_ok script =
  match Core.Mig_flows.parse script with
  | Ok flow -> flow
  | Error e -> Alcotest.failf "unexpected parse error %a" Flow.Script.pp_error e

let parse_err script =
  match Core.Mig_flows.parse script with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" script
  | Error e -> e

let check_err script ~pos ~msg =
  let e = parse_err script in
  Alcotest.(check int) ("position of " ^ script) pos e.Flow.Script.pos;
  Alcotest.(check string) ("message of " ^ script) msg e.Flow.Script.msg

let parser_tests =
  let open Alcotest in
  [
    test_case "canonical scripts parse and round-trip" `Quick (fun () ->
        List.iter
          (fun name ->
            let script = Option.get (Core.Mig_flows.canonical_script name) in
            let flow = parse_ok script in
            check string ("round-trip " ^ name) script (Flow.Script.to_string flow))
          Core.Mig_flows.canonical_names);
    test_case "structure of a composite script" `Quick (fun () ->
        match parse_ok "cycle(3){eliminate; every(2){psi_r}}; accept_if(size){balance}" with
        | Flow.Seq
            [
              Cycle
                {
                  effort = 3;
                  body = Seq [ Pass p1; Every { period = 2; body = Pass p2 } ];
                };
              Accept_if { cost_name = "size"; body = Pass p3; _ };
            ] ->
            check string "p1" "eliminate" p1.Flow.name;
            check string "p2" "psi_r" p2.Flow.name;
            check string "p3" "balance" p3.Flow.name
        | _ -> fail "unexpected flow structure");
    test_case "cycle without a count uses the default effort" `Quick (fun () ->
        (match parse_ok "cycle{eliminate}" with
        | Flow.Cycle { effort; _ } ->
            check int "default effort" Flow.default_effort effort
        | _ -> fail "expected a cycle");
        match
          Flow.Script.parse ~registry:Core.Mig_flows.registry
            ~costs:Core.Mig_flows.costs ~default_effort:7 "cycle{eliminate}"
        with
        | Ok (Flow.Cycle { effort; _ }) -> check int "overridden default" 7 effort
        | _ -> fail "expected a cycle");
    test_case "comments, newlines and braces group" `Quick (fun () ->
        match
          parse_ok "# warm-up\n{ eliminate;\n  reshape }; # tail\n eliminate;"
        with
        | Flow.Seq [ Seq [ Pass _; Pass _ ]; Pass _ ] -> ()
        | _ -> fail "unexpected structure");
    test_case "unknown pass: position and suggestion" `Quick (fun () ->
        check_err "cycle(5){pushup}" ~pos:9
          ~msg:"unknown pass 'pushup' (did you mean 'push_up'?)";
        check_err "eliminate; funky" ~pos:11 ~msg:"unknown pass 'funky'";
        check_err "elimnate" ~pos:0
          ~msg:"unknown pass 'elimnate' (did you mean 'eliminate'?)");
    test_case "unknown cost: position and suggestion" `Quick (fun () ->
        check_err "accept_if(sized){eliminate}" ~pos:10
          ~msg:"unknown cost 'sized' (did you mean 'size'?)");
    test_case "syntax errors carry byte positions" `Quick (fun () ->
        check_err "" ~pos:0 ~msg:"empty flow";
        check_err "cycle(5){eliminate" ~pos:18
          ~msg:"expected '}' before end of script";
        check_err "eliminate}" ~pos:9 ~msg:"expected ';' between steps, found '}'";
        check_err "cycle(0){eliminate}" ~pos:6 ~msg:"cycle count must be positive";
        check_err "cycle(x){eliminate}" ~pos:6 ~msg:"expected a number of cycles";
        check_err "cycle(99999999999999999999){eliminate}" ~pos:6
          ~msg:"number too large";
        check_err "cycle(2){every( 4611686018427387904){psi_r}}" ~pos:16
          ~msg:"number too large";
        check_err "eliminate reshape" ~pos:10
          ~msg:"expected ';' between steps, found 'r'");
    test_case "the CLI error line format" `Quick (fun () ->
        let e = parse_err "cycle(5){pushup}" in
        check string "migsyn flow convention"
          "migsyn flow: error: at byte 9: unknown pass 'pushup' (did you mean \
           'push_up'?)"
          (Format.asprintf "migsyn flow: error: %a" Flow.Script.pp_error e));
  ]

(* ------------------------------------------------------------------ *)
(* Registry: every pass preserves equivalence and structural integrity  *)
(* ------------------------------------------------------------------ *)

let funcgen_nets =
  [|
    ("full_adder", Funcgen.full_adder ());
    ("rd53", Funcgen.rd 5 3);
    ("comparator4", Funcgen.comparator 4);
    ("parity6", Funcgen.parity 6);
    ("mux_tree2", Funcgen.mux_tree 2);
  |]

let arb_seed = QCheck.make QCheck.Gen.(int_bound 1000000)

let registry_props =
  [
    QCheck.Test.make ~name:"every registered pass preserves equivalence and integrity"
      ~count:20 arb_seed (fun seed ->
        let rng = Prng.create seed in
        let name, net = Prng.pick rng funcgen_nets in
        List.for_all
          (fun (p : Core.Mig.t Flow.pass) ->
            let mig = ref (Core.Mig_of_network.convert net) in
            for cycle = 0 to 2 do
              let m, _changed = p.Flow.run ~cycle !mig in
              mig := m
            done;
            (match Core.Mig_check.check !mig with
            | Ok () -> ()
            | Error e ->
                QCheck.Test.fail_reportf "pass %s broke %s: %s" p.Flow.name name e);
            Core.Mig_equiv.equivalent_network !mig net
            || QCheck.Test.fail_reportf "pass %s changed the function of %s"
                 p.Flow.name name)
          (Flow.passes Core.Mig_flows.registry));
  ]

let registry_tests =
  let open Alcotest in
  [
    test_case "only reshape reads the cycle index" `Quick (fun () ->
        (* The orbit exit trusts the flag: a pass that does not set it must
           compute the same graph whatever cycle it runs in. *)
        let mig = Core.Mig.cleanup (Core.Mig_of_network.convert (Funcgen.rd 5 3)) in
        List.iter
          (fun (p : Core.Mig.t Flow.pass) ->
            check bool (p.Flow.name ^ " flag") (p.Flow.name = "reshape") p.Flow.reads_cycle;
            let at cycle =
              Core.Mig.fingerprint
                (Core.Mig.cleanup (fst (p.Flow.run ~cycle (Core.Mig.cleanup mig))))
            in
            if not p.Flow.reads_cycle then
              check string (p.Flow.name ^ " ignores the cycle") (at 0) (at 7))
          (Flow.passes Core.Mig_flows.registry));
    test_case "pass metadata is complete" `Quick (fun () ->
        let ps = Flow.passes Core.Mig_flows.registry in
        check bool "has the paper's vocabulary" true (List.length ps >= 13);
        List.iter
          (fun (p : Core.Mig.t Flow.pass) ->
            check bool (p.Flow.name ^ " has doc") true (p.Flow.doc <> "");
            check bool (p.Flow.name ^ " has category") true (p.Flow.category <> "");
            check bool
              (p.Flow.name ^ " preserves the function")
              true
              (String.length p.Flow.preserves >= 8))
          ps);
    test_case "duplicate registration is rejected" `Quick (fun () ->
        let r = Flow.create_registry () in
        Flow.register r (log_pass "x" true);
        check_raises "duplicate"
          (Invalid_argument "Flow.register: duplicate pass x") (fun () ->
            Flow.register r (log_pass "x" true)));
  ]

(* ------------------------------------------------------------------ *)
(* accept_if on real MIGs                                              *)
(* ------------------------------------------------------------------ *)

let guard_tests =
  let open Alcotest in
  [
    test_case "accept_if(size) caps growth of push_up" `Quick (fun () ->
        let net = Funcgen.rd 5 3 in
        let mig = Core.Mig_of_network.convert net in
        let initial = Core.Mig.size (Core.Mig.cleanup mig) in
        let guarded =
          Core.Mig_flows.run
            (Core.Mig_flows.parse_exn "cycle(10){accept_if(size){push_up}}")
            mig
        in
        check bool "size never grows past the checkpoint" true
          (Core.Mig.size guarded <= initial);
        check bool "still equivalent" true
          (Core.Mig_equiv.equivalent_network guarded net);
        (* the guard is not vacuous: unguarded push_up does grow rd53 *)
        let unguarded =
          Core.Mig_flows.run (Core.Mig_flows.parse_exn "cycle(10){push_up}") mig
        in
        check bool "unguarded comparison run is equivalent too" true
          (Core.Mig_equiv.equivalent_network unguarded net));
  ]

(* ------------------------------------------------------------------ *)
(* Golden regression: flow scripts == the pre-refactor Mig_opt results  *)
(* ------------------------------------------------------------------ *)

(* (size, depth, R_imp, S_imp, R_maj, S_maj) at effort 40, captured from the
   legacy hardcoded Mig_opt.drive implementation before the pass-manager
   refactor.  Both the Mig_opt wrappers and the canonical flow scripts must
   keep reproducing these numbers bit-for-bit. *)
let golden =
  [
    (* c17 *)
    ("c17/area", (6, 3, 16, 33, 12, 12));
    ("c17/depth", (8, 3, 21, 34, 15, 13));
    ("c17/rram-costs-imp", (8, 3, 21, 32, 15, 11));
    ("c17/rram-costs-maj", (8, 3, 21, 32, 15, 11));
    ("c17/steps", (8, 3, 21, 32, 15, 11));
    ("c17/bool-rewrite", (6, 3, 16, 33, 12, 12));
    (* full_adder *)
    ("full_adder/area", (7, 4, 18, 42, 12, 14));
    ("full_adder/depth", (7, 4, 14, 43, 10, 15));
    ("full_adder/rram-costs-imp", (9, 4, 26, 43, 18, 15));
    ("full_adder/rram-costs-maj", (9, 4, 26, 43, 18, 15));
    ("full_adder/steps", (8, 4, 18, 42, 12, 14));
    ("full_adder/bool-rewrite", (7, 4, 18, 42, 12, 14));
    (* rd53 *)
    ("rd53/area", (17, 7, 30, 74, 20, 25));
    ("rd53/depth", (25, 6, 53, 65, 37, 23));
    ("rd53/rram-costs-imp", (22, 6, 44, 64, 30, 22));
    ("rd53/rram-costs-maj", (22, 6, 44, 64, 30, 22));
    ("rd53/steps", (22, 6, 45, 63, 31, 21));
    ("rd53/bool-rewrite", (17, 7, 30, 74, 20, 25));
    (* comparator4 *)
    ("comparator4/area", (26, 8, 76, 87, 52, 31));
    ("comparator4/depth", (26, 6, 76, 64, 52, 22));
    ("comparator4/rram-costs-imp", (27, 6, 76, 64, 52, 22));
    ("comparator4/rram-costs-maj", (27, 6, 76, 64, 52, 22));
    ("comparator4/steps", (27, 6, 76, 65, 52, 23));
    ("comparator4/bool-rewrite", (26, 8, 76, 87, 52, 31));
  ]

let shape mig =
  let size, depth = Core.Mig_passes.size_and_depth mig in
  let i = Core.Rram_cost.of_mig Core.Rram_cost.Imp mig in
  let m = Core.Rram_cost.of_mig Core.Rram_cost.Maj mig in
  ( size,
    depth,
    i.Core.Rram_cost.rrams,
    i.Core.Rram_cost.steps,
    m.Core.Rram_cost.rrams,
    m.Core.Rram_cost.steps )

let golden_nets () =
  [
    ( "c17",
      let path =
        if Sys.file_exists "examples/c17.bench" then "examples/c17.bench"
        else "../examples/c17.bench"
      in
      Io.Bench_format.parse_file path );
    ("full_adder", Funcgen.full_adder ());
    ("rd53", Funcgen.rd 5 3);
    ("comparator4", Funcgen.comparator 4);
  ]

let legacy_entry name =
  match name with
  | "area" -> Core.Mig_opt.area ?effort:None
  | "depth" -> Core.Mig_opt.depth ?effort:None
  | "rram-costs-imp" -> Core.Mig_opt.rram_costs Core.Rram_cost.Imp
  | "rram-costs-maj" -> Core.Mig_opt.rram_costs Core.Rram_cost.Maj
  | "steps" -> Core.Mig_opt.steps ?effort:None
  | "bool-rewrite" -> Core.Mig_opt.boolean ?effort:None
  | _ -> assert false

let tuple6 = Alcotest.(pair int (pair int (pair int (pair int (pair int int)))))
let nest (a, b, c, d, e, f) = (a, (b, (c, (d, (e, f)))))

let golden_tests =
  let open Alcotest in
  [
    test_case "Mig_opt entry points and flow scripts match the legacy results"
      `Slow
      (fun () ->
        List.iter
          (fun (bench, net) ->
            let mig = Core.Mig_of_network.convert net in
            List.iter
              (fun alg ->
                let expected = List.assoc (bench ^ "/" ^ alg) golden in
                check tuple6
                  (bench ^ "/" ^ alg ^ " via Mig_opt")
                  (nest expected)
                  (nest (shape (legacy_entry alg mig)));
                let script = Option.get (Core.Mig_flows.canonical_script alg) in
                check tuple6
                  (bench ^ "/" ^ alg ^ " via flow script")
                  (nest expected)
                  (nest (shape (Core.Mig_flows.run (Core.Mig_flows.parse_exn script) mig))))
              Core.Mig_flows.canonical_names)
          (golden_nets ()));
    test_case "area golden is unchanged with strash inserted" `Slow (fun () ->
        (* At every cycle boundary the engine has just run Mig.cleanup, so
           the graph is canonical and strash must be an exact no-op there:
           the §9 table rows reproduce bit-for-bit with it spliced in. *)
        let script = "cycle(40){strash; eliminate; reshape; eliminate}; strash; eliminate" in
        List.iter
          (fun (bench, net) ->
            let mig = Core.Mig_of_network.convert net in
            let expected = List.assoc (bench ^ "/area") golden in
            check tuple6 (bench ^ "/area with strash") (nest expected)
              (nest (shape (Core.Mig_flows.run (Core.Mig_flows.parse_exn script) mig))))
          (golden_nets ()));
  ]

(* ------------------------------------------------------------------ *)
(* Structural golden: exact output circuits of the paper's suite        *)
(* ------------------------------------------------------------------ *)

(* One line per Table II circuit x paper algorithm x effort (40, the
   paper's; 10, the daemon's): the MD5 of the .bench export of the
   optimized MIG.  Pins node-for-node structure, not just quality, so an
   engine speedup must reproduce every circuit byte for byte. *)
let structure_digests () =
  let path =
    if Sys.file_exists "structure_digests.txt" then "structure_digests.txt"
    else "test/structure_digests.txt"
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match String.split_on_char ' ' l with
         | [ circuit; alg; effort; md5 ] -> ((circuit, alg, int_of_string effort), md5)
         | _ -> Alcotest.failf "malformed digest line %S" l)

let structure_tests =
  let open Alcotest in
  [
    test_case "Table II outputs are byte-identical to the pinned digests" `Slow
      (fun () ->
        let expected = structure_digests () in
        check int "25 circuits x 5 algorithms x 2 efforts" 250 (List.length expected);
        let nets = Hashtbl.create 32 in
        List.iter
          (fun ((circuit, alg, effort), md5) ->
            let mig =
              match Hashtbl.find_opt nets circuit with
              | Some m -> m
              | None ->
                  let e = Option.get (Io.Benchmarks.find circuit) in
                  let m = Core.Mig_of_network.convert (e.Io.Benchmarks.build ()) in
                  Hashtbl.add nets circuit m;
                  m
            in
            let script = Option.get (Core.Mig_flows.canonical_script ~effort alg) in
            let out = Core.Mig_flows.run (Core.Mig_flows.parse_exn script) mig in
            let text = Io.Bench_format.write_string (Core.Mig_to_network.export out) in
            check string
              (Printf.sprintf "%s/%s@%d" circuit alg effort)
              md5
              (Digest.to_hex (Digest.string text)))
          expected);
    test_case "Alg. 3 on a Table II circuit takes the orbit exit" `Quick (fun () ->
        with_obs (fun () ->
            let e = Option.get (Io.Benchmarks.find "t481") in
            let mig = Core.Mig_of_network.convert (e.Io.Benchmarks.build ()) in
            ignore (Core.Mig_opt.rram_costs Core.Rram_cost.Maj mig);
            check bool "cycles skipped" true
              (Obs.count (Obs.counter "mig.opt/rram-costs-maj/cycle.orbit_skipped") > 0);
            let traj = Obs.samples (Obs.series "mig.opt/rram-costs-maj/trajectory") in
            let last = List.nth traj (List.length traj - 1) in
            check (float 0.) "last sample is cycle 40" 40. (List.assoc "cycle" last);
            check bool "fewer samples than cycles" true (List.length traj < 41)));
    test_case "scale circuits: node ids and the AIGER write are pinned" `Slow
      (fun () ->
        (* The seeded 10^4 and 3x10^4-gate tiers as the scale benchmark
           builds them (through a binary AIGER round trip): the MD5 of the
           node store after conversion and after the area flow at effort 2
           pins every node id, and the MD5 of the binary AIGER of the
           export pins the write path, which the .bench digests above do
           not reach. *)
        let md5 s = Digest.to_hex (Digest.string s) in
        List.iter
          (fun (gates, converted, optimized, written) ->
            let name = Printf.sprintf "scale-s3-g%d" gates in
            let net = Io.Gen.scale_network ~name ~gates () in
            let net = Io.Aiger.parse_binary_string (Io.Aiger.write_network_binary net) in
            let mig = Core.Mig_of_network.convert net in
            check string (name ^ " converted") converted (md5 (Core.Mig.fingerprint mig));
            let script = Option.get (Core.Mig_flows.canonical_script ~effort:2 "area") in
            let out = Core.Mig_flows.run (Core.Mig_flows.parse_exn script) mig in
            check string (name ^ " optimized") optimized (md5 (Core.Mig.fingerprint out));
            check string (name ^ " written") written
              (md5 (Io.Aiger.write_network_binary (Core.Mig_to_network.export out))))
          [
            ( 10_000,
              "c58cbf3c42e1c9a3c10eaadceb305c72",
              "c63f039c6d56852ef1a70fdd0203dad1",
              "63d338f0f9171a99a0b5ee3ea9eac52a" );
            ( 30_000,
              "9dc22edde7573bfbb302798277e99f89",
              "f437f9815f65dbc16dfcbc91cdeb08a6",
              "aa486579777ddae29d461038bf2ff82e" );
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Experiment threading                                                *)
(* ------------------------------------------------------------------ *)

let experiment_tests =
  let open Alcotest in
  [
    test_case "profile rows record flow name and script" `Quick (fun () ->
        let entry = Option.get (Io.Benchmarks.find "b9") in
        let flows =
          Exp.Experiments.default_flows ~effort:1 ()
          @ [
              {
                Exp.Experiments.flow_name = "custom/tiny";
                script = "cycle(1){eliminate}; eliminate";
              };
            ]
        in
        let row = Exp.Experiments.profile_row ~flows entry in
        check int "one measured entry per flow" 6
          (List.length row.Exp.Experiments.algs);
        let json = Exp.Experiments.profile_json ~effort:1 [ row ] in
        let rec count_scripts = function
          | Obs.Json.Assoc kvs ->
              List.fold_left
                (fun acc (k, v) ->
                  acc + (if k = "script" then 1 else 0) + count_scripts v)
                0 kvs
          | Obs.Json.List vs ->
              List.fold_left (fun acc v -> acc + count_scripts v) 0 vs
          | _ -> 0
        in
        check int "every algorithm row carries its script" 6 (count_scripts json);
        match json with
        | Obs.Json.Assoc kvs ->
            check bool "schema bumped" true
              (List.assoc "schema" kvs = Obs.Json.String "migsyn-bench/3")
        | _ -> fail "profile_json is not an object");
  ]

let () =
  Alcotest.run "flow"
    [
      ("engine", engine_tests);
      ("orbit", orbit_tests);
      ("orbit-props", List.map QCheck_alcotest.to_alcotest orbit_props);
      ("script", parser_tests);
      ("registry", registry_tests);
      ("registry-props", List.map QCheck_alcotest.to_alcotest registry_props);
      ("guards", guard_tests);
      ("golden", golden_tests);
      ("structure", structure_tests);
      ("experiments", experiment_tests);
    ]
