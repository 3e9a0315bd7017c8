(* Benchmark harness: regenerates every table of the paper's evaluation
   section (§IV).

   Sections:
     1. Table I   — cost-model cross-check (formula vs executed programs)
     2. Table II  — the six optimization columns over the 25-benchmark suite
     3. Table III — comparison with the BDD flow [11] and the AIG flow [12]
     4. §IV-A     — runtime claim ("each algorithm < 3 s for the whole set")

   Timing numbers come from perfbench (perfbench/run.py); this harness
   records quality only, apart from the §IV-A lines it prints.

   EFFORT (env var) overrides the paper's effort = 40.
   --json [FILE] additionally writes a machine-readable per-benchmark
   summary (default FILE: BENCH_results.json) and the BENCH_opt.json
   quality golden; CI compares both exactly.
   --jobs N fans the per-circuit work of each table over N domains
   (default 1).  Every written document is identical to the sequential
   run's (DESIGN.md §11).
   --ledger FILE (or $MIGSYN_LEDGER) appends a migsyn-run/1 manifest of
   the whole harness run — effort, jobs, row counts and the aggregated
   span tree — to a JSON-lines run ledger, comparable across runs with
   `migsyn report`. *)

let die msg =
  prerr_endline ("bench: " ^ msg);
  exit 1

let effort =
  match Sys.getenv_opt "EFFORT" with
  | None -> Core.Mig_opt.default_effort
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> n
      | _ -> die "EFFORT expects a non-negative integer")

let json_path =
  let rec scan = function
    | [] -> None
    | "--json" :: p :: _ when String.length p > 0 && p.[0] <> '-' -> Some p
    | "--json" :: _ -> Some "BENCH_results.json"
    | _ :: rest -> scan rest
  in
  scan (Array.to_list Sys.argv)

let jobs =
  let rec scan = function
    | [] -> 1
    | "--jobs" :: n :: _ -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> n
        | _ -> die "--jobs expects a positive integer")
    | [ "--jobs" ] -> die "--jobs expects a positive integer"
    | _ :: rest -> scan rest
  in
  scan (Array.to_list Sys.argv)

let ledger_path =
  let rec scan = function
    | [] -> Sys.getenv_opt "MIGSYN_LEDGER"
    | "--ledger" :: p :: _ when String.length p > 0 && p.[0] <> '-' -> Some p
    | "--ledger" :: _ -> die "--ledger expects a file path"
    | _ :: rest -> scan rest
  in
  scan (Array.to_list Sys.argv)

(* Custom flows benched side-by-side with the paper's five: named
   flow-script pipelines built from the same pass registry.  The guarded
   variant wraps each Alg. 4 cycle in a weighted-(R,S) acceptance test, the
   flow-level generalization of Alg. 3's move-level criterion. *)
let custom_flows =
  [
    {
      Exp.Experiments.flow_name = "custom/guarded-steps";
      script =
        Printf.sprintf
          "cycle(%d){accept_if(weighted_maj){push_up; omega_i3; omega_i; push_up}}; \
           push_up"
          effort;
    };
    {
      Exp.Experiments.flow_name = "custom/area-then-balance";
      script =
        Printf.sprintf
          "cycle(%d){eliminate; reshape; eliminate}; cycle(%d){balance}; eliminate"
          effort (max 1 (effort / 4));
    };
  ]

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let () =
  Printf.printf "MIG-based RRAM synthesis — evaluation harness (effort = %d, jobs = %d)\n"
    effort jobs;

  if ledger_path <> None then begin
    Obs.set_enabled true;
    Obs.reset ();
    Obs.Manifest.start ~tool:"bench" ~subcommand:"harness"
      ~argv:(Array.to_list Sys.argv) ();
    Obs.Manifest.add_context "effort" (Obs.Json.Int effort);
    Obs.Manifest.add_context "jobs" (Obs.Json.Int jobs)
  end;

  section "Table I: cost model cross-check";
  Format.printf "%a@." Exp.Experiments.pp_table1_check ();

  section "Table II: optimization results (25 benchmarks, 6 columns)";
  let t2 = Exp.Experiments.table2 ~effort ~jobs () in
  Format.printf "%a@." Exp.Experiments.pp_table2 t2;
  Obs.Manifest.add_result "table2_rows" (Obs.Json.Int (List.length t2));

  section "Table III (left): MIG vs the BDD-based flow [11]";
  Format.printf "%a@." Exp.Experiments.pp_table3_bdd
    (Exp.Experiments.table3_bdd ~effort ~jobs ());

  section "Table III (right): MIG vs the AIG-based flow [12]";
  Format.printf "%a@." Exp.Experiments.pp_table3_aig
    (Exp.Experiments.table3_aig ~effort ~jobs ());

  section "End-to-end verification (device simulator vs source networks)";
  Par.map ~jobs
    (fun name ->
      match Io.Benchmarks.find name with
      | None -> Printf.sprintf "  %-10s missing!" name
      | Some e -> (
          match Exp.Experiments.verify_entry e with
          | Ok () -> Printf.sprintf "  %-10s all four compiled programs verified" name
          | Error msg -> Printf.sprintf "  %-10s FAILED: %s" name msg))
    [ "5xp1"; "alu4"; "b9"; "clip"; "cm150a"; "cordic"; "t481"; "rd53f2"; "9sym_d"; "xor5_d" ]
  |> List.iter print_endline;

  section "Runtime claim (paper §IV-A: each algorithm < 3 s on the whole suite)";
  let time_algorithm name run =
    let t0 = Obs.now_ns () in
    List.iter
      (fun e -> ignore (run (Core.Mig_of_network.convert (e.Io.Benchmarks.build ()))))
      Io.Benchmarks.table2;
    Printf.printf "  %-24s %.2f s (paper bound: < 3 s)\n%!" name
      (Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9)
  in
  time_algorithm "area (Alg. 1)" (Core.Mig_opt.area ~effort);
  time_algorithm "depth (Alg. 2)" (Core.Mig_opt.depth ~effort);
  time_algorithm "rram-costs IMP (Alg. 3)"
    (Core.Mig_opt.rram_costs ~effort Core.Rram_cost.Imp);
  time_algorithm "rram-costs MAJ (Alg. 3)"
    (Core.Mig_opt.rram_costs ~effort Core.Rram_cost.Maj);
  time_algorithm "steps (Alg. 4)" (Core.Mig_opt.steps ~effort);
  List.iter
    (fun spec ->
      time_algorithm
        (spec.Exp.Experiments.flow_name ^ " (flow script)")
        (Exp.Experiments.run_flow spec))
    custom_flows;

  (match json_path with
  | None -> ()
  | Some path ->
      section "JSON export (--json)";
      let paper_flows = Exp.Experiments.default_flows ~effort () in
      let rows = Exp.Experiments.profile ~effort ~flows:(paper_flows @ custom_flows) ~jobs () in
      Obs.write_json path (Exp.Experiments.profile_json ~effort rows);
      Printf.printf "  wrote %s (%d benchmarks)\n" path (List.length rows);
      (* The quality golden on the largest bundled and generated circuits:
         each flow's result size, depth and Table I costs, plus the crossbar
         backend's measured devices and latency.  CI regenerates it at
         EFFORT=2 and compares it exactly with the committed BENCH_opt.json. *)
      let opt_path = "BENCH_opt.json" in
      let bundled =
        List.filter_map
          (fun name ->
            Option.map
              (fun e -> (name, fun () -> Core.Mig_of_network.convert (e.Io.Benchmarks.build ())))
              (Io.Benchmarks.find name))
          [ "alu4"; "apex4"; "misex3"; "seq"; "apex6"; "x3" ]
      in
      let generated =
        [
          ("mult8", fun () -> Core.Mig_of_network.convert (Logic.Funcgen.multiplier 8));
          ("mult12", fun () -> Core.Mig_of_network.convert (Logic.Funcgen.multiplier 12));
          ("cla64", fun () -> Core.Mig_of_network.convert (Logic.Funcgen.carry_lookahead_adder 64));
        ]
      in
      (* The large-N tier: seeded Io.Gen synthetics at 10^4 and 10^5 gates.
         The 10^4 tier runs the five paper algorithms and the crossbar
         backend; the 10^5 tier runs only the canonical area flow to keep
         the harness bounded. *)
      let scale_build gates () =
        Core.Mig_of_network.convert
          (Io.Gen.scale_network ~name:(Printf.sprintf "scale%d" gates) ~gates ())
      in
      let flow_cell spec =
        ( spec.Exp.Experiments.flow_name,
          fun m -> Exp.Experiments.(alg_result_fields (measure spec m)) )
      in
      (* Wave scheduling on the fitted geometry (fit = one unbounded-column
         scheduling pass, then the real compile) of the unoptimized MIG. *)
      let crossbar_maj m =
        let arch = Rram.Compile_crossbar.fit Core.Rram_cost.Maj m in
        match Rram.Compile_crossbar.compile ~arch Core.Rram_cost.Maj m with
        | Error msg -> failwith ("bench: crossbar-maj: " ^ msg)
        | Ok r ->
            let t = r.Rram.Compile_crossbar.measured in
            [
              ("algorithm", Obs.Json.String "crossbar-maj");
              ("devices", Obs.Json.Int t.Core.Rram_cost.devices);
              ("latency", Obs.Json.Int t.Core.Rram_cost.latency);
            ]
      in
      let paper_algorithms = List.map flow_cell paper_flows @ [ ("crossbar-maj", crossbar_maj) ] in
      let algorithms = paper_algorithms @ List.map flow_cell custom_flows in
      let area_only = List.filter (fun (alg, _) -> alg = "area") algorithms in
      (* One pool task per (circuit, algorithm) cell; Par.map keeps the
         sequential order, so the document is the same for every --jobs. *)
      let tiers =
        List.map (fun (c, b) -> (c, b, algorithms)) (bundled @ generated)
        @ [
            ("scale10k", scale_build 10_000, paper_algorithms);
            ("scale100k", scale_build 100_000, area_only);
          ]
      in
      let cells =
        List.concat_map
          (fun (circuit, build, algs) -> List.map (fun (_, run) -> (circuit, build, run)) algs)
          tiers
      in
      let opt_rows =
        Par.map ~jobs
          (fun (circuit, build, run) ->
            let mig = build () in
            Obs.Json.Assoc
              (("circuit", Obs.Json.String circuit)
              :: ("gates", Obs.Json.Int (Core.Mig.size mig))
              :: run mig))
          cells
      in
      Obs.write_json opt_path
        (Obs.Json.Assoc
           [
             ("schema", Obs.Json.String "migsyn-bench-opt/2");
             ("effort", Obs.Json.Int effort);
             ("rows", Obs.Json.List opt_rows);
           ]);
      Printf.printf "  wrote %s (%d cells: quality on the largest circuits)\n" opt_path
        (List.length opt_rows));

  section "Ablations (design-choice studies; see DESIGN.md)";
  let pick name = Option.get (Io.Benchmarks.find name) in
  (* The section's vertical box lives on a formatter of its own: the first
     Domain.spawn of the process (the campaigns below fan over Par) flushes
     the standard formatters, which closes every box open on them. *)
  let out = Format.formatter_of_out_channel stdout in
  Format.fprintf out "@[<v>Effort sweep (Alg. 4, MAJ costs) — where effort=40 saturates:@,";
  List.iter
    (fun name ->
      Format.fprintf out "  %s:@,%a" name Exp.Ablation.pp_effort_sweep
        (Exp.Ablation.effort_sweep (pick name)))
    [ "b9"; "cordic"; "alu4" ];
  Format.fprintf out "@,Rule ablation (what each mechanism of Alg. 4 buys, MAJ costs):@,";
  List.iter
    (fun name ->
      Format.fprintf out "  %s:@,%a" name Exp.Ablation.pp_rule_ablation
        (Exp.Ablation.rule_ablation (pick name)))
    [ "b9"; "cordic"; "parity" ];
  Format.fprintf out
    "@,Duplication bound of the multi-objective algorithm (R-vs-S trade-off):@,";
  List.iter
    (fun name ->
      Format.fprintf out "  %s:@,%a" name Exp.Ablation.pp_fanout_sweep
        (Exp.Ablation.fanout_limit_sweep (pick name)))
    [ "b9"; "alu4" ];
  Format.fprintf out "@,BDD variable order (baseline sensitivity; nodes / levelized steps):@,";
  List.iter
    (fun name ->
      Format.fprintf out "  %-8s" name;
      List.iter
        (fun (h, nodes, steps) ->
          if nodes < 0 then Format.fprintf out "  %s: overflow" h
          else Format.fprintf out "  %s: %d/%d" h nodes steps)
        (Exp.Ablation.bdd_order_sweep (pick name));
      Format.fprintf out "@,")
    [ "alu4"; "cm150a"; "t481" ];
  Format.fprintf out
    "@,Boolean cut rewriting (extension; gates: initial / Alg.1 / Alg.1+Boolean):@,";
  List.iter
    (fun name ->
      let init, area, boolean = Exp.Ablation.boolean_rewrite_row (pick name) in
      Format.fprintf out "  %-10s %4d / %4d / %4d@," name init area boolean)
    [ "5xp1"; "cordic"; "misex1"; "x2"; "apex4" ];
  Format.fprintf out
    "@,PLiM computer [15] (sequential RM3 stream) vs level-parallel realizations:@,";
  List.iter
    (fun name ->
      let r = Exp.Ablation.plim_row (pick name) in
      Format.fprintf out
        "  %-8s gates=%4d  PLiM %5d RM3 / %4d cells   MAJ %4d steps   IMP %4d steps@,"
        name r.Exp.Ablation.gates r.Exp.Ablation.plim_instructions
        r.Exp.Ablation.plim_cells r.Exp.Ablation.maj_steps r.Exp.Ablation.imp_steps)
    [ "5xp1"; "alu4"; "b9"; "clip"; "cordic"; "t481" ];
  Format.fprintf out
    "@,Fault tolerance (stuck-at campaigns on ideal devices; yield per arm):@,";
  List.iter
    (fun name ->
      Format.fprintf out "  %s:@," name;
      let config = { Exp.Montecarlo.default with trials = 100; effort = 10 } in
      let net = (pick name).Io.Benchmarks.build () in
      List.iter
        (fun rate ->
          let t =
            Exp.Montecarlo.run ~config:(Exp.Montecarlo.stuck_at config rate) ~name net
          in
          List.iter
            (fun p ->
              Format.fprintf out "    rate %.4f%a@," rate Exp.Montecarlo.pp_arms
                p.Exp.Montecarlo.arms)
            t.Exp.Montecarlo.points)
        [ 0.003; 0.01; 0.03 ])
    [ "5xp1"; "b9" ];
  Format.fprintf out
    "@,Statistical variability (Monte-Carlo yield vs sigma over the sampled@,\
     device physics; Wilson 95%% CIs; campaign fans across the Par pool):@,";
  List.iter
    (fun name ->
      let config =
        {
          Exp.Montecarlo.default with
          trials = 100;
          sigmas = [ 0.5; 1.0; 1.5 ];
          jobs = Some jobs;
        }
      in
      let t =
        Exp.Montecarlo.run ~config ~name ((pick name).Io.Benchmarks.build ())
      in
      let executions =
        float_of_int (t.Exp.Montecarlo.trials * List.length t.Exp.Montecarlo.points)
      in
      Format.fprintf out "  %a  (%.0f trials/s, --jobs %d)@," Exp.Montecarlo.pp t
        (executions /. t.Exp.Montecarlo.wall_seconds)
        jobs)
    [ "5xp1"; "b9" ];
  Format.fprintf out
    "@,Crossbar geometry of the serial programs:@,";
  List.iter
    (fun name ->
      let mig =
        Core.Mig_opt.steps ~effort:20
          (Core.Mig_of_network.convert ((pick name).Io.Benchmarks.build ()))
      in
      let line realization =
        let r = Rram.Compile_mig.compile realization mig in
        let place = Rram.Placement.place r.Rram.Compile_mig.program in
        Format.asprintf "%a %a" Core.Rram_cost.pp_realization realization
          Rram.Placement.pp place
      in
      Format.fprintf out "  %-8s %s | %s@," name (line Core.Rram_cost.Imp)
        (line Core.Rram_cost.Maj))
    [ "alu4"; "b9"; "cordic"; "t481" ];
  Format.fprintf out "@]@.";

  section "Crossbar-constrained mapping (serial vs parallel pulse waves)";
  let xbar_entries =
    List.filter_map Io.Benchmarks.find
      [ "5xp1"; "alu4"; "b9"; "clip"; "cordic"; "t481" ]
  in
  let xbar = Exp.Crossbar.run ~effort ~jobs ~entries:xbar_entries () in
  Format.printf "%a" Exp.Crossbar.pp xbar;
  Printf.printf "(full suite: migsyn crossbar)\n";
  Obs.Manifest.add_result "crossbar_rows"
    (Obs.Json.Int (List.length xbar.Exp.Crossbar.rows));
  (match ledger_path with
  | None -> ()
  | Some path ->
      Obs.Ledger.append path (Obs.Manifest.finish ());
      Printf.printf "\nappended run to %s\n" path);
  Printf.printf "\nDone.\n"
