(* migsyn — MIG-based logic synthesis for RRAM in-memory computing.

   Subcommands:
     stats     parse a netlist and print representation statistics
     flow      optimize (an algorithm, a flow script or a portfolio race),
               compile, verify, optionally write BLIF out
     map       compile to an RRAM program, report costs, verify, dump
     compare   MIG flow vs the BDD [11] and AIG [12] baselines on one file
     bench     run the paper's experiment rows for named benchmarks
     crossbar  unbounded-serial vs crossbar-constrained mapping comparison
     plim      compile to an RM3 instruction stream for the PLiM computer
     export    write the optimized MIG as DOT/Verilog/BLIF/bench/AIGER
     gen       generate a seeded synthetic netlist (large-N tiers included)
     faults    stuck-at repair demo + baseline/resilient/TMR yield experiment
     montecarlo  yield-vs-variability campaign over the statistical device model
     report    compare two ledgers/manifests/baselines, exit 2 on regression
     serve     synthesis daemon on a Unix socket with a strash result cache
     client    send one migsyn-serve/1 request to a running daemon

   flow, map, plim and export say which optimization to run with one term,
   [optimization_term]: -a ALG (a canonical algorithm, default steps) or
   -s SCRIPT (a flow script), at effort -e N.

   Every subcommand accepts --trace FILE (Chrome trace-event JSON, loadable
   in chrome://tracing or Perfetto), --metrics FILE (flat metrics JSON),
   --flame FILE (collapsed stacks for flamegraph.pl) and --ledger FILE
   (append a migsyn-run/1 manifest to a JSON-lines run ledger; also set by
   $MIGSYN_LEDGER); any of them switches the Obs layer on for the run.

   Every subcommand is built by [subcommand], so its body runs inside the
   one run wrapper [run_sub], which owns those flags and the error path:
   a body returns its exit code and reports an expected failure only by
   raising [Failure].  Command-line usage errors stay cmdliner's, exit
   124. *)

open Cmdliner

(* ---------------- observability plumbing ---------------- *)

type obs_opts = {
  o_trace : string option;
  o_metrics : string option;
  o_flame : string option;
  o_flame_weight : [ `Time_us | `Calls ];
  o_ledger : string option;
}

let obs_term =
  let trace_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON of this run (open in \
             chrome://tracing or https://ui.perfetto.dev). Enables the \
             observability layer.")
  in
  let metrics_arg =
    Arg.(
      value & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write a flat metrics JSON (counters, gauges, histograms, \
             optimization trajectories, span aggregates) of this run. \
             Enables the observability layer.")
  in
  let flame_arg =
    Arg.(
      value & opt (some string) None
      & info [ "flame" ] ~docv:"FILE"
          ~doc:
            "Write the aggregated span tree in the collapsed-stack format \
             flamegraph.pl consumes (one 'a;b;c weight' line per span \
             path). Enables the observability layer.")
  in
  let flame_weight_arg =
    Arg.(
      value
      & opt (enum [ ("time", `Time_us); ("calls", `Calls) ]) `Time_us
      & info [ "flame-weight" ] ~docv:"W"
          ~doc:
            "Collapsed-stack weight: $(b,time) (exclusive self time in \
             microseconds, the flame view) or $(b,calls) (call counts — \
             deterministic, byte-identical for every --jobs).")
  in
  let ledger_arg =
    Arg.(
      value & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~env:(Cmd.Env.info "MIGSYN_LEDGER")
          ~doc:
            "Append a self-describing run manifest (schema migsyn-run/1: \
             subcommand, argv, context, results, span tree, counters, \
             histogram summaries) to this JSON-lines run ledger. Enables \
             the observability layer. Compare ledgers with $(b,migsyn \
             report).")
  in
  let make o_trace o_metrics o_flame o_flame_weight o_ledger =
    { o_trace; o_metrics; o_flame; o_flame_weight; o_ledger }
  in
  Term.(
    const make $ trace_arg $ metrics_arg $ flame_arg $ flame_weight_arg
    $ ledger_arg)

let write_text path text =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let export opts =
  let wrote what write =
    Option.iter (fun path ->
        write path;
        Format.printf "wrote %s %s@." what path)
  in
  wrote "trace" (fun p -> Obs.write_json p (Obs.chrome_trace_json ())) opts.o_trace;
  wrote "metrics" (fun p -> Obs.write_json p (Obs.metrics_json ())) opts.o_metrics;
  wrote "flame"
    (fun p -> write_text p (Obs.collapsed_stacks ~weight:opts.o_flame_weight ()))
    opts.o_flame;
  Option.iter
    (fun path ->
      Obs.Ledger.append path (Obs.Manifest.finish ());
      Format.printf "appended run to %s@." path)
    opts.o_ledger

(* The one run wrapper every subcommand body goes through.  It switches
   the Obs layer on when any export flag was given, starts the run manifest, runs [body] for its exit code, and writes
   the requested artifacts on every exit path, so `--ledger` records
   failed runs too.  An expected failure is a [Failure] or [Sys_error]
   from the body: after the artifacts are written it becomes exactly one
   `migsyn SUB: error: MSG` line and exit code 1.  Nothing else is caught,
   so a programming error keeps its backtrace. *)
let run_sub ~sub opts body =
  if
    opts.o_trace <> None || opts.o_metrics <> None
    || opts.o_flame <> None || opts.o_ledger <> None
  then begin
    Obs.set_enabled true;
    Obs.reset ()
  end;
  if Obs.enabled () then
    Obs.Manifest.start ~tool:"migsyn" ~subcommand:sub
      ~argv:(Array.to_list Sys.argv) ();
  match Fun.protect ~finally:(fun () -> export opts) body with
  | code -> code
  | exception
      ( Failure msg
      | Sys_error msg
      | Fun.Finally_raised (Failure msg | Sys_error msg) ) ->
      prerr_endline (Printf.sprintf "migsyn %s: error: %s" sub msg);
      1

(* A subcommand: [body]'s arguments plus the observability flags, run
   inside {!run_sub}. *)
let subcommand sub ~doc body =
  Cmd.v (Cmd.info sub ~doc) Term.(const (run_sub ~sub) $ obs_term $ body)

let ctx = Obs.Manifest.add_context
let res = Obs.Manifest.add_result

let parse_netlist path =
  match Io.Netlist.parse_file path with
  | Some net -> net
  | None when Filename.extension path = "" ->
      failwith (Printf.sprintf "%s: missing extension (expected %s)" path Io.Netlist.expected)
  | None ->
      failwith
        (Printf.sprintf "%s: unsupported netlist extension %s (expected %s)" path
           (Filename.extension path) Io.Netlist.expected)
  | exception Io.Netlist.Parse_error (line, msg) ->
      failwith (Printf.sprintf "%s:%d: %s" path line msg)

let input_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"NETLIST"
        ~doc:"Input netlist (.blif, .bench, .pla, .aag or .aig).")

let effort_arg =
  Arg.(
    value & opt int Core.Mig_opt.default_effort
    & info [ "e"; "effort" ] ~docv:"N" ~doc:"Optimization effort (cycles).")

let realizations = [ ("imp", Core.Rram_cost.Imp); ("maj", Core.Rram_cost.Maj) ]

let realization_arg =
  Arg.(
    value
    & opt (enum realizations) Core.Rram_cost.Maj
    & info [ "r"; "realization" ] ~docv:"R" ~doc:"RRAM realization: imp or maj.")

(* --arch stays a raw string through cmdliner and is parsed by
   [parse_arch] inside the run, so a bad geometry is an expected failure
   (exit 1, ledgered) rather than a usage error (exit 124). *)
let arch_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "arch" ] ~docv:"ARCH"
        ~doc:
          "Execution architecture: $(b,serial) (the default unbounded-serial \
           target, one device per register and one micro-operation per step) \
           or a crossbar geometry $(b,ROWSxCOLUMNS), e.g. $(b,64x64). A \
           crossbar geometry packs independent same-level gates into \
           parallel pulse waves, one gate pulse per row per step.")

let parse_arch = function
  | None -> Core.Rram_cost.Unbounded_serial
  | Some text -> Result.fold ~ok:Fun.id ~error:failwith (Core.Rram_cost.parse_arch text)

(* ---------------- the optimization term ---------------- *)

(* One vocabulary: -a takes exactly the canonical algorithm names. *)
let algorithm_conv =
  Arg.enum
    (List.map (fun a -> (Core.Mig_opt.algorithm_name a, a)) Core.Mig_opt.algorithms)

let algorithm_info =
  Arg.info [ "a"; "algorithm" ] ~docv:"ALG"
    ~doc:
      (Printf.sprintf
         "Optimization algorithm: %s (Algs. 1–4 of the paper, Alg. 3 \
          once per realization, and the beyond-paper Boolean rewriting). \
          Runs the algorithm's canonical flow script (see $(b,migsyn flow \
          --list-passes)). Default: $(b,steps)."
         (Arg.doc_alts_enum
            (List.map (fun a -> (Core.Mig_opt.algorithm_name a, ())) Core.Mig_opt.algorithms)))

(* faults and montecarlo run an algorithm, never a script. *)
let algorithm_arg = Arg.(value & opt algorithm_conv Core.Mig_opt.Steps algorithm_info)

type optimization = {
  algorithm : Core.Mig_opt.algorithm option;  (* -a, when given *)
  scripts : string list;  (* -s, repeatable only for flow --portfolio *)
  effort : int;
}

let optimization_term =
  let algorithm = Arg.(value & opt (some algorithm_conv) None algorithm_info) in
  let scripts =
    Arg.(
      value & opt_all string []
      & info [ "s"; "script" ] ~docv:"SCRIPT"
          ~doc:
            "Optimize with this flow script instead of an algorithm, e.g. \
             'cycle(40){push_up; psi_r; push_up}; push_up' (see \
             $(b,migsyn flow --list-passes)). Only $(b,flow --portfolio) \
             takes it more than once: each script races as one entrant.")
  in
  let make algorithm scripts effort = { algorithm; scripts; effort } in
  Term.(const make $ algorithm $ scripts $ effort_arg)

(* The optimizer -a or -s selects, with its display label.  -a ALG runs
   ALG's canonical script under the span name ALG, exactly as
   [Mig_opt.run]; -s SCRIPT runs the script under the span name
   "script". *)
let optimizer opt =
  match (opt.algorithm, opt.scripts) with
  | Some _, _ :: _ -> failwith "--algorithm and --script are mutually exclusive"
  | None, [ text ] -> (
      (* a script error (byte position, did-you-mean suggestion) is a user error *)
      match Core.Mig_flows.parse text with
      | Ok flow -> (Flow.Script.to_string flow, Core.Mig_flows.run ~name:"script" flow)
      | Error e -> failwith (Format.asprintf "%a" Flow.Script.pp_error e))
  | _, _ :: _ :: _ -> failwith "repeated --script requires flow --portfolio"
  | alg, [] ->
      let alg = Option.value alg ~default:Core.Mig_opt.Steps in
      let name = Core.Mig_opt.algorithm_name alg in
      ctx "algorithm" (Obs.Json.String name);
      (name, Core.Mig_opt.run ~effort:opt.effort alg)

(* The prologue every optimizing subcommand shares: record the run, point
   the xbar_* accept_if costs at [arch] (the daemon's default when the
   subcommand has no --arch), then read, convert and optimize the
   netlist.  Returns the source network, the converted MIG and the
   optimized MIG. *)
let optimize_netlist ?arch path ~effort optimize =
  ctx "input" (Obs.Json.String path);
  ctx "effort" (Obs.Json.Int effort);
  Option.iter
    (fun a -> ctx "arch" (Obs.Json.String (Core.Rram_cost.arch_to_string a)))
    arch;
  Core.Mig_flows.set_arch (Option.value arch ~default:Core.Rram_cost.Unbounded_serial);
  let net = parse_netlist path in
  let mig = Core.Mig_of_network.convert net in
  (net, mig, optimize mig)

let no_verify_arg =
  Arg.(value & flag & info [ "no-verify" ] ~doc:"Skip simulator verification.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel sections. 0 (the default) picks \
           automatically: $(b,MIGSYN_JOBS) if set, else the recommended \
           domain count of this machine. 1 runs sequentially on the \
           calling domain. Results are identical for every value; only \
           the wall time changes.")

let resolve_jobs n = Par.resolve_jobs (if n <= 0 then None else Some n)

(* The BDD of [stats] and [compare]: DFS order, at most 10^6 nodes. *)
let bdd_of_network net =
  Bdd_lib.Bdd_of_network.build ~max_nodes:1_000_000
    ~perm:(Bdd_lib.Bdd_order.order Bdd_lib.Bdd_order.Dfs net)
    net

(* ---------------- stats ---------------- *)

let stats_cmd =
  let run path () =
    ctx "input" (Obs.Json.String path);
    let net = parse_netlist path in
    Format.printf "network: %a@." Logic.Network.pp_stats net;
    let mig = Core.Mig_of_network.convert net in
    let lv = Core.Mig_levels.compute mig in
    Format.printf "MIG:     %a depth=%d@." Core.Mig.pp_stats mig lv.Core.Mig_levels.depth;
    let aig = Aig_lib.Aig_of_network.convert net in
    Format.printf "AIG:     %a@." Aig_lib.Aig.pp_stats aig;
    (try
       Format.printf "BDD:     %a@." Bdd_lib.Bdd_stats.pp
         (Bdd_lib.Bdd_stats.of_result (bdd_of_network net))
     with Bdd_lib.Bdd.Limit_exceeded -> Format.printf "BDD:     > 1M nodes (skipped)@.");
    Format.printf "Table I: IMP %a   MAJ %a@." Core.Rram_cost.pp
      (Core.Rram_cost.of_mig Core.Rram_cost.Imp mig)
      Core.Rram_cost.pp
      (Core.Rram_cost.of_mig Core.Rram_cost.Maj mig);
    0
  in
  subcommand "stats" ~doc:"Print representation statistics for a netlist"
    Term.(const run $ input_arg)

(* ---------------- flow ---------------- *)

let flow_cmd =
  let portfolio_arg =
    Arg.(
      value & flag
      & info [ "portfolio" ]
          ~doc:
            "Race several flows on independent copies of the MIG (one per \
             worker domain, see $(b,--jobs)) and keep the best result under \
             $(b,--cost). Entrants are the repeated $(b,--script) values, or \
             — when none are given — the five canonical paper algorithms at \
             $(b,--effort). The winner is chosen by lowest cost, ties to the \
             earliest entrant, so it is identical for every $(b,--jobs).")
  in
  let cost_arg =
    Arg.(
      value & opt string Core.Mig_flows.default_cost
      & info [ "cost" ] ~docv:"NAME"
          ~doc:
            "Portfolio race cost: one of the accept_if cost names \
             (see $(b,--list-passes)).")
  in
  let file_arg =
    Arg.(
      value & opt (some file) None
      & info [ "f"; "file" ] ~docv:"FILE"
          ~doc:"Read the flow script from a file ('#' comments allowed).")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list-passes" ]
          ~doc:"List every registered pass and accept_if cost, then exit.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the optimized MIG as BLIF.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the final size, depth and Table I cost pairs of the \
             optimized MIG (from the maintained analysis) as one \
             machine-friendly line.")
  in
  let input_opt_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"NETLIST"
          ~doc:
            "Input netlist (.blif, .bench, .pla, .aag or .aig); not needed \
             with --list-passes.")
  in
  let list_passes () =
    Format.printf "passes (usable in flow scripts; see also 'cycle', 'every', \
                   'accept_if'):@.";
    List.iter
      (fun (p : Core.Mig.t Flow.pass) ->
        Format.printf "  %-14s %-10s preserves %-20s %s@." p.Flow.name
          p.Flow.category p.Flow.preserves p.Flow.doc)
      (Flow.passes Core.Mig_flows.registry);
    Format.printf "@.accept_if costs (checkpoint/rollback guards):@.";
    List.iter
      (fun (name, _) -> Format.printf "  %s@." name)
      Core.Mig_flows.costs;
    Format.printf
      "@.canonical algorithm scripts (what 'migsyn flow -a NAME' runs):@.";
    List.iter
      (fun name ->
        match Core.Mig_flows.canonical_script name with
        | Some s -> Format.printf "  %-14s %s@." name s
        | None -> ())
      Core.Mig_flows.canonical_names
  in
  (* The portfolio race: the repeated -s scripts, the -f script, or the
     five canonical algorithms. *)
  let race opt file cost jobs mig =
    let specs =
      match (opt.algorithm, opt.scripts, file) with
      | Some _, _, _ -> failwith "--algorithm and --portfolio are mutually exclusive"
      | None, [], None -> Core.Mig_flows.default_portfolio ~effort:opt.effort ()
      | None, [], Some f -> [ (Filename.basename f, read_file f) ]
      | None, scripts, None ->
          List.mapi (fun i s -> (Printf.sprintf "script%d" (i + 1), s)) scripts
      | None, _ :: _, Some _ -> failwith "--script and --file are mutually exclusive"
    in
    let jobs = resolve_jobs jobs in
    ctx "jobs" (Obs.Json.Int jobs);
    ctx "portfolio" (Obs.Json.Int (List.length specs));
    ctx "cost" (Obs.Json.String cost);
    let winner, outcomes =
      try Core.Mig_flows.portfolio ~jobs ~cost specs mig
      with Invalid_argument msg -> failwith msg
    in
    (match List.find_opt (fun o -> o.Flow.o_winner) outcomes with
    | Some o ->
        res "winner" (Obs.Json.String o.Flow.o_label);
        res "winner_cost" (Obs.Json.Float o.Flow.o_cost)
    | None -> ());
    Format.printf "portfolio: %d entrants, cost %s, %d worker domain%s@."
      (List.length specs) cost jobs (if jobs = 1 then "" else "s");
    List.iter
      (fun o ->
        Format.printf "  %-18s cost %10.1f  %6.2f s%s@." o.Flow.o_label
          o.Flow.o_cost o.Flow.o_seconds
          (if o.Flow.o_winner then "  <- winner" else ""))
      outcomes;
    winner
  in
  let run opt file list portfolio cost jobs arch dump_out no_verify stats input () =
    if list then list_passes ()
    else begin
      let path = match input with Some p -> p | None -> failwith "missing NETLIST argument" in
      let arch = parse_arch arch in
      let optimize =
        if portfolio then race opt file cost jobs
        else begin
          let opt =
            match (file, opt) with
            | None, _ -> opt
            | Some f, { algorithm = None; scripts = []; _ } -> { opt with scripts = [ read_file f ] }
            | Some _, { algorithm = Some _; _ } ->
                failwith "--algorithm and --file are mutually exclusive"
            | Some _, _ -> failwith "--script and --file are mutually exclusive"
          in
          let label, optimize = optimizer opt in
          Format.printf "flow: %s@." label;
          optimize
        end
      in
      let net, mig, optimized = optimize_netlist ~arch path ~effort:opt.effort optimize in
      if not (Core.Mig_equiv.equivalent_network optimized net) then
        failwith "internal error: the flow changed the function";
      let before_size, before_depth = Core.Mig_passes.size_and_depth mig in
      let size, depth = Core.Mig_passes.size_and_depth optimized in
      res "size" (Obs.Json.Int size);
      res "depth" (Obs.Json.Int depth);
      Format.printf "  MIG: %d -> %d gates, depth %d -> %d@." before_size size
        before_depth depth;
      List.iter
        (fun realization ->
          (* a crossbar too small for the circuit is a user error *)
          let r =
            try Rram.Compile_mig.compile ~arch realization optimized
            with Invalid_argument msg -> failwith msg
          in
          let verdict =
            if no_verify then ""
            else
              match Rram.Verify.against_network r.Rram.Compile_mig.program net with
              | Ok () -> " (verified against the source netlist)"
              | Error e -> failwith ("verification failed: " ^ e)
          in
          Format.printf "  %a: %a, program %d RRAMs %d steps%s@."
            Core.Rram_cost.pp_realization realization Core.Rram_cost.pp
            r.Rram.Compile_mig.analytic r.Rram.Compile_mig.cost.Core.Rram_cost.devices
            r.Rram.Compile_mig.cost.Core.Rram_cost.latency verdict)
        [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ];
      if stats then begin
        (* O(1) reads off the maintained analysis of the result graph *)
        let an = Core.Mig_analysis.of_mig optimized in
        let imp = Core.Rram_cost.of_mig Core.Rram_cost.Imp optimized in
        let maj = Core.Rram_cost.of_mig Core.Rram_cost.Maj optimized in
        Format.printf
          "stats: size=%d depth=%d r_imp=%d s_imp=%d r_maj=%d s_maj=%d@."
          (Core.Mig_analysis.size an) (Core.Mig_analysis.depth an)
          imp.Core.Rram_cost.rrams imp.Core.Rram_cost.steps
          maj.Core.Rram_cost.rrams maj.Core.Rram_cost.steps
      end;
      Option.iter
        (fun f ->
          Io.Blif.write_file ~model_name:"flow" f (Core.Mig_to_network.export optimized);
          Format.printf "wrote %s@." f)
        dump_out
    end;
    0
  in
  subcommand "flow"
    ~doc:
      "Optimize a netlist with one of the paper's algorithms ($(b,-a)), a \
       user-written flow script composed from the registered passes \
       ($(b,-s) or $(b,-f); cycle / every / accept_if combinators), or \
       race several scripts with --portfolio; then compile both \
       realizations and verify them against the source netlist. \
       --list-passes prints the vocabulary."
    Term.(
      const run $ optimization_term $ file_arg $ list_arg $ portfolio_arg
      $ cost_arg $ jobs_arg $ arch_arg $ out_arg $ no_verify_arg $ stats_arg
      $ input_opt_arg)

(* ---------------- map ---------------- *)

let map_cmd =
  let dump_arg =
    Arg.(value & flag & info [ "p"; "program" ] ~doc:"Dump the full program listing.")
  in
  let run path opt realization arch dump no_verify () =
    let arch = parse_arch arch in
    let label, optimize = optimizer opt in
    let net, _, mig = optimize_netlist ~arch path ~effort:opt.effort optimize in
    let program, placement =
      match arch with
      | Core.Rram_cost.Unbounded_serial ->
          let r = Rram.Compile_mig.compile realization mig in
          res "rrams" (Obs.Json.Int r.Rram.Compile_mig.cost.Core.Rram_cost.devices);
          res "steps" (Obs.Json.Int r.Rram.Compile_mig.cost.Core.Rram_cost.latency);
          Format.printf
            "%a realization after %s optimization:@.  Table I: %a@.  program: %d RRAMs, %d steps@."
            Core.Rram_cost.pp_realization realization
            label Core.Rram_cost.pp
            r.Rram.Compile_mig.analytic r.Rram.Compile_mig.cost.Core.Rram_cost.devices
            r.Rram.Compile_mig.cost.Core.Rram_cost.latency;
          (r.Rram.Compile_mig.program, Rram.Placement.place r.Rram.Compile_mig.program)
      | Core.Rram_cost.Crossbar _ -> (
          match Rram.Compile_crossbar.compile ~arch realization mig with
          | Error e -> failwith e
          | Ok c ->
              let m = c.Rram.Compile_crossbar.measured in
              res "rrams" (Obs.Json.Int m.Core.Rram_cost.devices);
              res "steps" (Obs.Json.Int m.Core.Rram_cost.latency);
              res "waves" (Obs.Json.Int c.Rram.Compile_crossbar.waves);
              Format.printf
                "%a realization after %s optimization, %s crossbar:@.  Table I (serial): %a@.  analytic: %a@.  measured: %a, %d waves@."
                Core.Rram_cost.pp_realization realization
                label
                (Core.Rram_cost.arch_to_string arch) Core.Rram_cost.pp
                c.Rram.Compile_crossbar.serial Core.Rram_cost.pp_triple
                c.Rram.Compile_crossbar.analytic Core.Rram_cost.pp_triple m
                c.Rram.Compile_crossbar.waves;
              let placement = c.Rram.Compile_crossbar.placement in
              (match
                 Rram.Program.validate
                   ~row_of:placement.Rram.Placement.row_of
                   c.Rram.Compile_crossbar.program
               with
              | Ok () -> Format.printf "  row discipline: one gate pulse per row per step@."
              | Error e -> failwith ("internal error: " ^ e));
              (c.Rram.Compile_crossbar.program, placement))
    in
    Format.printf "  placement: %a@." Rram.Placement.pp placement;
    if not no_verify then begin
      match Rram.Verify.against_network program net with
      | Ok () -> Format.printf "  verified against the source netlist@."
      | Error e -> failwith ("verification failed: " ^ e)
    end;
    if dump then Format.printf "@.%a@." Rram.Program.pp program;
    0
  in
  subcommand "map"
    ~doc:
      "Optimize a netlist ($(b,-a) or $(b,-s)), compile it to an RRAM \
       program for the serial target or a crossbar, report its costs and \
       verify it against the source netlist (exhaustively up to 12 \
       inputs). With --trace, --metrics, --flame or --ledger it is also \
       the profiling run."
    Term.(
      const run $ input_arg $ optimization_term $ realization_arg $ arch_arg
      $ dump_arg $ no_verify_arg)

(* ---------------- compare ---------------- *)

let compare_cmd =
  let run path effort () =
    ctx "input" (Obs.Json.String path);
    ctx "effort" (Obs.Json.Int effort);
    let net = parse_netlist path in
    let mig = Core.Mig_of_network.convert net in
    let rram_maj = Core.Mig_opt.rram_costs ~effort Core.Rram_cost.Maj mig in
    let rram_imp = Core.Mig_opt.rram_costs ~effort Core.Rram_cost.Imp mig in
    let maj = Rram.Compile_mig.compile Core.Rram_cost.Maj rram_maj in
    let imp = Rram.Compile_mig.compile Core.Rram_cost.Imp rram_imp in
    Format.printf "MIG-MAJ: %d RRAMs %d steps@.MIG-IMP: %d RRAMs %d steps@."
      maj.Rram.Compile_mig.cost.Core.Rram_cost.devices
      maj.Rram.Compile_mig.cost.Core.Rram_cost.latency
      imp.Rram.Compile_mig.cost.Core.Rram_cost.devices
      imp.Rram.Compile_mig.cost.Core.Rram_cost.latency;
    (try
       let built = bdd_of_network net in
       let lev = Rram.Compile_bdd.compile ~mode:`Levelized built in
       let seq = Rram.Compile_bdd.compile ~mode:`Sequential built in
       Format.printf "BDD [11]: %d nodes, %d RRAMs %d steps (levelized), %d steps (sequential)@."
         lev.Rram.Compile_bdd.bdd_nodes lev.Rram.Compile_bdd.program.Rram.Program.num_regs
         (Rram.Program.num_steps lev.Rram.Compile_bdd.program)
         (Rram.Program.num_steps seq.Rram.Compile_bdd.program)
     with Bdd_lib.Bdd.Limit_exceeded -> Format.printf "BDD [11]: overflow (> 1M nodes)@.");
    let aig =
      Aig_lib.Aig_balance.balance
        (Aig_lib.Aig_rewrite.rewrite (Aig_lib.Aig_of_network.convert net))
    in
    let a = Rram.Compile_aig.compile aig in
    Format.printf "AIG [12]: %d ANDs, %d RRAMs %d steps (sequential)@."
      a.Rram.Compile_aig.aig_nodes a.Rram.Compile_aig.program.Rram.Program.num_regs
      (Rram.Program.num_steps a.Rram.Compile_aig.program);
    0
  in
  subcommand "compare" ~doc:"Compare the MIG flow against the BDD and AIG baselines"
    Term.(const run $ input_arg $ effort_arg)

(* ---------------- plim ---------------- *)

let plim_cmd =
  let dump_arg =
    Arg.(value & flag & info [ "p"; "program" ] ~doc:"Dump the RM3 program listing.")
  in
  let run path opt dump () =
    let label, optimize = optimizer opt in
    let _, _, mig = optimize_netlist path ~effort:opt.effort optimize in
    let program = Rram.Plim.compile mig in
    let rm3 = Rram.Plim.rm3_count program and gates = Core.Mig.size mig in
    res "rm3_instructions" (Obs.Json.Int rm3);
    res "cells_used" (Obs.Json.Int program.Rram.Program.num_regs);
    Format.printf
      "PLiM compilation after %s optimization:@.  %d RM3 instructions, %d cells (%.2f RM3/gate over %d gates)@."
      label rm3 program.Rram.Program.num_regs
      (if gates = 0 then 0.0 else float_of_int rm3 /. float_of_int gates)
      gates;
    (match Rram.Verify.against_mig program mig with
    | Ok () -> Format.printf "  verified on the PLiM machine model@."
    | Error e -> failwith ("verification failed: " ^ e));
    if dump then Format.printf "@.%a@." Rram.Program.pp program;
    0
  in
  subcommand "plim"
    ~doc:"Compile to an RM3 instruction stream for the PLiM computer [15]"
    Term.(const run $ input_arg $ optimization_term $ dump_arg)

(* ---------------- export ---------------- *)

let export_cmd =
  let format_arg =
    let formats = "dot" :: "verilog" :: Io.Netlist.output_formats in
    Arg.(
      value
      & opt (enum (List.map (fun f -> (f, f)) formats)) "dot"
      & info [ "f"; "format" ] ~docv:"FMT"
          ~doc:"Output format: dot, verilog, blif, bench, aag or aig.")
  in
  let out_arg =
    Arg.(
      required & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let run path opt fmt out () =
    ctx "format" (Obs.Json.String fmt);
    let label, optimize = optimizer opt in
    let _, _, mig = optimize_netlist path ~effort:opt.effort optimize in
    let contents =
      match fmt with
      | "dot" -> Io.Export.mig_to_dot mig
      | "verilog" -> Io.Export.mig_to_verilog ~module_name:"mig" mig
      | format ->
          Option.get
            (Io.Netlist.write_string ~model_name:"mig" ~format
               (Core.Mig_to_network.export mig))
    in
    Io.Export.write_file out contents;
    Format.printf "wrote %s (%s) after %s optimization@." out fmt label;
    0
  in
  subcommand "export"
    ~doc:"Export the optimized MIG as DOT/Verilog/BLIF/bench/AIGER (aag or aig)"
    Term.(const run $ input_arg $ optimization_term $ format_arg $ out_arg)

(* ---------------- gen ---------------- *)

let gen_cmd =
  let gates_arg =
    Arg.(
      value & opt int 10_000
      & info [ "gates" ] ~docv:"N"
          ~doc:
            "Gate count of the generated circuit. The large-N tiers used by \
             the scale benchmarks are 10000 and 100000; generation is \
             linear in N.")
  in
  let seed_arg =
    Arg.(
      value & opt string "scale"
      & info [ "seed" ] ~docv:"NAME"
          ~doc:
            "Generator seed string. Equal seeds (with equal shape options) \
             produce byte-identical circuits on every machine.")
  in
  let inputs_arg =
    Arg.(
      value & opt int 0
      & info [ "inputs" ] ~docv:"N"
          ~doc:
            "Primary inputs. 0 (the default) generates the scale-tier \
             layered circuit with about N/64 inputs; an explicit shape \
             switches to the windowed random generator.")
  in
  let outputs_arg =
    Arg.(
      value & opt int 0
      & info [ "outputs" ] ~docv:"N"
          ~doc:
            "Primary outputs. 0 (the default) generates the scale-tier \
             layered circuit with about N/128 outputs; an explicit shape \
             switches to the windowed random generator.")
  in
  let out_arg =
    Arg.(
      required & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output netlist; the extension picks the format (.blif, .bench, .aag or .aig).")
  in
  let run gates seed inputs outputs out () =
    if gates < 1 then
      failwith (Printf.sprintf "--gates must be at least 1 (got %d)" gates);
    if inputs < 0 then
      failwith (Printf.sprintf "--inputs must be non-negative (got %d)" inputs);
    if outputs < 0 then
      failwith (Printf.sprintf "--outputs must be non-negative (got %d)" outputs);
    ctx "seed" (Obs.Json.String seed);
    ctx "gates" (Obs.Json.Int gates);
    let net =
      Obs.with_span ~cat:"gen" "gen/generate" (fun () ->
          if inputs = 0 && outputs = 0 then
            Io.Gen.scale_network ~name:seed ~gates ()
          else
            let inputs = if inputs = 0 then max 16 (gates / 64) else inputs in
            let outputs = if outputs = 0 then max 8 (gates / 128) else outputs in
            Io.Gen.random_network ~name:seed ~inputs ~gates ~outputs ())
    in
    let contents =
      match
        Io.Netlist.write_string ~model_name:seed
          ~format:(Io.Netlist.format_of_path out) net
      with
      | Some text -> text
      | None ->
          failwith
            (Printf.sprintf "%s: unsupported output extension %s (expected %s)" out
               (Filename.extension out) Io.Netlist.expected_output)
    in
    write_text out contents;
    res "gates" (Obs.Json.Int (Logic.Network.num_gates net));
    res "inputs" (Obs.Json.Int (Logic.Network.num_inputs net));
    res "outputs" (Obs.Json.Int (Logic.Network.num_outputs net));
    Format.printf "wrote %s (seed %s: %a)@." out seed Logic.Network.pp_stats net;
    0
  in
  subcommand "gen"
    ~doc:
      "Generate a seeded synthetic netlist (deterministic in --seed), \
       including the 10^4/10^5-gate large-N tiers used by the scale \
       benchmarks"
    Term.(
      const run $ gates_arg $ seed_arg $ inputs_arg $ outputs_arg
      $ out_arg)

(* ---------------- faults ---------------- *)

let faults_cmd =
  let rate_arg =
    Arg.(
      value & opt float 0.01
      & info [ "rate" ] ~docv:"R"
          ~doc:"Center per-cell stuck-at probability for the yield experiment.")
  in
  let trials_arg =
    Arg.(
      value & opt int 200
      & info [ "trials" ] ~docv:"N" ~doc:"Monte-Carlo trials per fault rate.")
  in
  let seed_arg =
    Arg.(value & opt int 0xFA17 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.")
  in
  let attempts_arg =
    Arg.(
      value & opt int 4
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:"Verification rounds of the resilient executor's remap/retry loop.")
  in
  let run path alg effort realization rate trials seed attempts () =
    (* One stuck-at campaign per rate, on ideal devices at sigma 0: the
       same engine as [montecarlo], so the curve is --jobs-independent. *)
    let rates = [ rate /. 3.0; rate; Float.min 1.0 (rate *. 3.0) ] in
    let config =
      Exp.Montecarlo.
        { default with trials; seed; effort; algorithm = alg; realization; max_attempts = attempts }
    in
    if not (Float.is_finite rate && rate >= 0.0 && rate <= 1.0) then
      failwith (Printf.sprintf "--rate must be a probability in [0, 1] (got %g)" rate);
    Result.iter_error failwith Exp.Montecarlo.(validate (stuck_at config rate));
    ctx "rate" (Obs.Json.Float rate);
    ctx "trials" (Obs.Json.Int trials);
    ctx "seed" (Obs.Json.Int seed);
    let net, _, mig = optimize_netlist path ~effort (Core.Mig_opt.run ~effort alg) in
    let r = Rram.Compile_mig.compile realization mig in
    let program = r.Rram.Compile_mig.program in
    let tmr = Rram.Tmr.protect program in
    Format.printf
      "%a realization after %s optimization: %d RRAMs, %d steps@.TMR-protected: %d RRAMs, %d steps (%d voted outputs)@."
      Core.Rram_cost.pp_realization realization (Core.Mig_opt.algorithm_name alg)
      program.Rram.Program.num_regs (Rram.Program.num_steps program)
      tmr.Rram.Tmr.program.Rram.Program.num_regs
      (Rram.Program.num_steps tmr.Rram.Tmr.program)
      tmr.Rram.Tmr.voters;
    (* Single-defect repair demo: find a stuck-at fault that breaks the
       program, then let the resilient executor repair it.  The vectors
       follow --seed so the whole run replays under the same flag. *)
    let vectors = Rram.Verify.vectors ~seed program.Rram.Program.num_inputs in
    (* The reference is tabulated once; every candidate defect and the
       repair look the fixed vector set up in the table. *)
    let reference =
      let table = Hashtbl.create (List.length vectors) in
      List.iter2 (Hashtbl.replace table) vectors (Core.Mig_sim.eval_all mig vectors);
      Hashtbl.find table
    in
    let breaks defect =
      List.exists
        (fun v -> Rram.Interp.run ~defects:[ defect ] program v <> reference v)
        vectors
    in
    let breaking =
      List.init program.Rram.Program.num_regs Fun.id
      |> List.concat_map (fun cell ->
             [ (cell, Rram.Device.Stuck_1); (cell, Rram.Device.Stuck_0) ])
      |> List.find_opt breaks
    in
    Format.printf "@.Repair demo (resilient executor, max %d attempts):@." attempts;
    (match breaking with
    | None ->
        Format.printf
          "  no single stuck-at defect changes the outputs — nothing to repair@."
    | Some ((cell, level) as defect) ->
        Format.printf "  injected defect: cell %d stuck-at-%d@." cell
          (if level = Rram.Device.Stuck_1 then 1 else 0);
        let env = Rram.Resilient.env_of_defects [ defect ] in
        let report =
          Rram.Resilient.run ~max_attempts:attempts ~vectors env program ~reference
        in
        Format.printf "  mismatch detected against the reference@.";
        Format.printf "  diagnosed faulty cell(s): %s@."
          (String.concat ", " (List.map string_of_int report.Rram.Resilient.diagnosed));
        List.iter
          (fun (from, to_) -> Format.printf "  remapped cell %d -> spare %d@." from to_)
          report.Rram.Resilient.moves;
        if report.Rram.Resilient.ok then
          Format.printf "  re-verified OK after %d attempt(s)@."
            report.Rram.Resilient.attempts
        else begin
          let trusted =
            report.Rram.Resilient.trusted |> Array.to_list
            |> List.mapi (fun i t -> (i, t))
            |> List.filter_map (fun (i, t) -> if t then Some (string_of_int i) else None)
          in
          Format.printf "  repair FAILED after %d attempts; trusted outputs: %s@."
            report.Rram.Resilient.attempts
            (if trusted = [] then "none" else String.concat ", " trusted)
        end);
    List.iteri
      (fun i rate ->
        let t =
          Exp.Montecarlo.run ~config:(Exp.Montecarlo.stuck_at config rate)
            ~name:(Filename.basename path) net
        in
        let arms = (List.hd t.Exp.Montecarlo.points).Exp.Montecarlo.arms in
        if i = 0 then
          Format.printf
            "@.Monte-Carlo functional yield on ideal devices at sigma 0 (%d trials per rate, %d test vectors, seed %#x, %d-cell universe):@.  %-11s%s@."
            trials t.Exp.Montecarlo.num_vectors seed t.Exp.Montecarlo.universe "cells"
            (String.concat ""
               (List.map
                  (fun a -> Printf.sprintf " | %s %d" a.Exp.Montecarlo.arm a.Exp.Montecarlo.cells)
                  arms));
        Format.printf "  rate %.4f%a@." rate Exp.Montecarlo.pp_arms arms)
      rates;
    0
  in
  subcommand "faults"
    ~doc:
      "Fault-tolerance experiment: repair a stuck-at defect by remapping, and \
       compare Monte-Carlo yield of bare IMP/MAJ vs resilient vs TMR \
       execution in stuck-at campaigns at rates R/3, R and 3R"
    Term.(
      const run $ input_arg $ algorithm_arg $ effort_arg
      $ realization_arg $ rate_arg $ trials_arg $ seed_arg $ attempts_arg)

(* ---------------- montecarlo ---------------- *)

let montecarlo_cmd =
  let open Exp.Montecarlo in
  let trials_arg =
    Arg.(
      value & opt int default.trials
      & info [ "trials" ] ~docv:"N" ~doc:"Monte-Carlo trials per sigma point.")
  in
  let sigma_arg =
    Arg.(
      value & opt_all float []
      & info [ "sigma" ] ~docv:"S"
          ~doc:
            "Variability scale (repeatable): multiplies the lognormal \
             LRS/HRS shapes of the device model. 0 is a uniform array, 1 \
             the nominal spread. Default: 0.25 0.5 1.0 1.5.")
  in
  let seed_arg =
    Arg.(
      value & opt int default.seed
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Campaign master seed. Trial $(i,t) draws from the split \
             stream $(i,split(S, t)) whatever $(b,--jobs) is, so equal \
             seeds replay bit-identical campaigns.")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the campaign as JSON (schema migsyn-montecarlo/1). \
             Deterministic except the top-level wall_seconds member.")
  in
  let vectors_arg =
    Arg.(
      value & opt int default.vectors
      & info [ "vectors" ] ~docv:"N" ~doc:"Test vectors evaluated per execution.")
  in
  let attempts_arg =
    Arg.(
      value & opt int default.max_attempts
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:"Verification rounds of the resilient controller's remap/retry loop.")
  in
  let run path alg effort realization trials sigmas seed jobs json vectors
      attempts () =
    let config =
      {
        default with
        trials;
        sigmas = (if sigmas = [] then default.sigmas else sigmas);
        seed;
        jobs = Some (resolve_jobs jobs);
        effort;
        algorithm = alg;
        realization;
        vectors;
        max_attempts = attempts;
      }
    in
    Result.iter_error failwith (validate config);
    ctx "input" (Obs.Json.String path);
    ctx "trials" (Obs.Json.Int config.trials);
    ctx "seed" (Obs.Json.Int config.seed);
    ctx "jobs" (Obs.Json.Int (Option.value config.jobs ~default:1));
    ctx "sigmas"
      (Obs.Json.List (List.map (fun s -> Obs.Json.Float s) config.sigmas));
    let net = parse_netlist path in
    let campaign = run ~config ~name:(Filename.basename path) net in
    (* Manifest summary: per-sigma yield of every arm — the campaign's
       deterministic signature, comparable across runs by migsyn report. *)
    res "universe" (Obs.Json.Int campaign.universe);
    List.iter
      (fun p ->
        List.iter
          (fun a ->
            res
              (Printf.sprintf "yield.sigma=%g.%s" p.sigma a.arm)
              (Obs.Json.Float a.estimate.yield))
          p.arms)
      campaign.points;
    Format.printf "%a@." pp campaign;
    Option.iter
      (fun file ->
        Obs.write_json file (to_json campaign);
        Format.printf "wrote campaign %s@." file)
      json;
    0
  in
  subcommand "montecarlo"
    ~doc:
      "Monte-Carlo yield campaign over statistical device variability: \
       sample lognormal LRS/HRS spreads, sense noise and endurance drift \
       per device, and measure functional yield vs sigma for bare IMP/MAJ \
       execution, the resilient controller (plain and wear-aware \
       remapping) and TMR, with Wilson 95% confidence intervals. \
       Bit-reproducible for any --jobs at a fixed --seed."
    Term.(
      const run $ input_arg $ algorithm_arg $ effort_arg
      $ realization_arg $ trials_arg $ sigma_arg $ seed_arg $ jobs_arg $ json_arg
      $ vectors_arg $ attempts_arg)

(* ---------------- bench ---------------- *)

let benchmarks_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"NAME"
        ~doc:"Benchmark names (default: the whole Table II suite).")

let find_benchmarks = function
  | [] -> Io.Benchmarks.table2
  | names ->
      List.map
        (fun n ->
          match Io.Benchmarks.find n with
          | Some e -> e
          | None -> failwith ("unknown benchmark " ^ n))
        names

let bench_cmd =
  let run effort jobs names () =
    ctx "effort" (Obs.Json.Int effort);
    ctx "jobs" (Obs.Json.Int (resolve_jobs jobs));
    let entries = find_benchmarks names in
    let rows =
      Par.map ~jobs:(resolve_jobs jobs) (Exp.Experiments.table2_row ~effort) entries
    in
    Format.printf "%a@." Exp.Experiments.pp_table2 rows;
    0
  in
  subcommand "bench" ~doc:"Run the paper's Table II flow for named benchmarks"
    Term.(const run $ effort_arg $ jobs_arg $ benchmarks_arg)

(* ---------------- crossbar ---------------- *)

let crossbar_cmd =
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the comparison as JSON (schema migsyn-crossbar/1, \
             consumable by $(b,migsyn report)).")
  in
  let run effort jobs realization names json () =
    ctx "effort" (Obs.Json.Int effort);
    let jobs = resolve_jobs jobs in
    ctx "jobs" (Obs.Json.Int jobs);
    let entries = find_benchmarks names in
    let t = Exp.Crossbar.run ~effort ~realization ~jobs ~entries () in
    Format.printf "%a@." Exp.Crossbar.pp t;
    let unverified =
      List.concat_map
        (fun r ->
          List.filter_map
            (fun p ->
              if p.Exp.Crossbar.p_verified then None
              else
                Some
                  (r.Exp.Crossbar.name ^ " @ "
                  ^ Core.Rram_cost.arch_to_string p.Exp.Crossbar.p_arch))
            r.Exp.Crossbar.points)
        t.Exp.Crossbar.rows
    in
    res "benchmarks" (Obs.Json.Int (List.length t.Exp.Crossbar.rows));
    res "unverified" (Obs.Json.Int (List.length unverified));
    Option.iter
      (fun file ->
        Obs.write_json file (Exp.Crossbar.to_json t);
        Format.printf "wrote %s@." file)
      json;
    if unverified <> [] then
      failwith ("crossbar programs failed verification: " ^ String.concat ", " unverified);
    0
  in
  subcommand "crossbar"
    ~doc:
      "Compare the unbounded-serial target against crossbar-constrained \
       mapping on the paper's benchmarks: the fitted (minimum-latency) \
       array plus half- and quarter-row geometries, every program \
       re-verified on the device simulator and marked Pareto-optimal or \
       dominated in the (devices, latency, utilization) space."
    Term.(
      const run $ effort_arg $ jobs_arg $ realization_arg $ benchmarks_arg
      $ json_arg)

(* ---------------- report ---------------- *)

let report_cmd =
  let baseline_arg =
    Arg.(
      required & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Baseline source: a run ledger, a run manifest, or a committed \
             baseline document (BENCH_opt.json, MONTECARLO_golden.json, a \
             bench --json profile).")
  in
  let current_arg =
    Arg.(
      required & opt (some file) None
      & info [ "current" ] ~docv:"FILE"
          ~doc:"Current source to judge against the baseline (same formats).")
  in
  let threshold_arg =
    Arg.(
      value & opt float 0.25
      & info [ "threshold" ] ~docv:"T"
          ~doc:
            "Relative slow-down a wall-time metric may show before it \
             counts as a regression (0.25 = 25%). Deterministic metrics \
             always compare exactly.")
  in
  let min_time_arg =
    Arg.(
      value & opt float 0.005
      & info [ "min-time" ] ~docv:"SECONDS"
          ~doc:
            "Absolute floor under which wall-time deltas are ignored \
             (scaled to nanoseconds for *_ns metrics): microsecond jitter \
             on a microsecond pass is not signal.")
  in
  let ignore_arg =
    Arg.(
      value & opt_all string []
      & info [ "ignore" ] ~docv:"METRIC"
          ~doc:
            "Drop this metric from the comparison (repeatable), e.g. \
             $(b,--ignore total_ns) to gate a run ledger on its \
             deterministic rows only.")
  in
  let md_arg =
    Arg.(
      value & opt (some string) None
      & info [ "md" ] ~docv:"FILE" ~doc:"Also write the Markdown report to FILE.")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the report as JSON (schema migsyn-report/1).")
  in
  let run baseline current threshold min_time ignores md json () =
    if not (Float.is_finite threshold) || threshold < 0.0 then
      failwith
        (Printf.sprintf "--threshold must be finite and non-negative (got %g)"
           threshold);
    if not (Float.is_finite min_time) || min_time < 0.0 then
      failwith
        (Printf.sprintf "--min-time must be finite and non-negative (got %g)"
           min_time);
    ctx "baseline" (Obs.Json.String baseline);
    ctx "current" (Obs.Json.String current);
    let report =
      Exp.Report.compare ~threshold ~min_time ~ignore_metrics:ignores
        ~baseline:(Exp.Report.load baseline) ~current:(Exp.Report.load current)
        ()
    in
    print_string (Exp.Report.to_markdown report);
    res "verdict"
      (Obs.Json.String (if Exp.Report.regressed report then "regressed" else "ok"));
    res "regressions"
      (Obs.Json.Int (List.length report.Exp.Report.rp_regressions));
    Option.iter
      (fun file ->
        write_text file (Exp.Report.to_markdown report);
        Format.printf "wrote report %s@." file)
      md;
    Option.iter
      (fun file ->
        Obs.write_json file (Exp.Report.to_json report);
        Format.printf "wrote report %s@." file)
      json;
    Exp.Report.exit_code report
  in
  subcommand "report"
    ~doc:
      "Compare two run ledgers, run manifests or committed baseline \
       documents row by row: deterministic metrics must match exactly, \
       wall times may drift within --threshold. Prints a Markdown \
       report and exits 2 on regression, 1 on usage errors, 0 \
       otherwise."
    Term.(
      const run $ baseline_arg $ current_arg $ threshold_arg
      $ min_time_arg $ ignore_arg $ md_arg $ json_arg)

(* ---------------- serve ---------------- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket path of the daemon. $(b,migsyn serve) binds \
           it (replacing a stale file), $(b,migsyn client) dials it.")

let serve_cmd =
  let jobs_serve_arg =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains of the shared synthesis pool. 0 (the default) \
             picks automatically: $(b,MIGSYN_JOBS) if set, else the \
             recommended domain count of this machine.")
  in
  let cache_mb_arg =
    Arg.(
      value & opt int 256
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:
            "Byte budget of the strash result cache in MiB; least-recently \
             used results are evicted beyond it.")
  in
  let max_request_mb_arg =
    Arg.(
      value & opt int 8
      & info [ "max-request-mb" ] ~docv:"MB"
          ~doc:
            "Request lines beyond this many MiB are answered with an \
             $(b,oversized) error instead of being parsed.")
  in
  let run socket jobs cache_mb max_request_mb () =
    if cache_mb < 1 then
      failwith
        (Printf.sprintf "--cache-mb must be at least 1 (got %d)" cache_mb);
    if max_request_mb < 1 then
      failwith
        (Printf.sprintf "--max-request-mb must be at least 1 (got %d)"
           max_request_mb);
    let jobs = resolve_jobs jobs in
    ctx "socket" (Obs.Json.String socket);
    ctx "jobs" (Obs.Json.Int jobs);
    ctx "cache_mb" (Obs.Json.Int cache_mb);
    let stop = ref false in
    let on_signal _ = stop := true in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
     with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
     with Invalid_argument _ | Sys_error _ -> ());
    let cfg =
      {
        Serve.Server.socket_path = socket;
        jobs;
        cache_budget_bytes = cache_mb * 1024 * 1024;
        max_request_bytes = max_request_mb * 1024 * 1024;
        stop = (fun () -> !stop);
        on_listening =
          (fun () ->
            Format.printf "migsyn serve: listening on %s (jobs=%d)@." socket
              jobs;
            (* tools waiting for readiness watch stdout *)
            flush stdout);
      }
    in
    let s =
      try Serve.Server.run cfg
      with Unix.Unix_error (err, fn, arg) ->
        failwith
          (Printf.sprintf "%s: %s%s" fn (Unix.error_message err)
             (if arg = "" then "" else " (" ^ arg ^ ")"))
    in
    let c = s.Serve.Server.cache in
    Format.printf
      "migsyn serve: shutting down: %d requests (%d ok, %d errors) in %d \
       batches (max batch %d)@."
      s.Serve.Server.requests s.Serve.Server.ok s.Serve.Server.errors
      s.Serve.Server.batches s.Serve.Server.max_batch;
    Format.printf
      "migsyn serve: cache: %d hits, %d misses, %d coalesced, %d evictions, \
       %d entries, %d bytes@."
      c.Serve.Cache.hits c.Serve.Cache.misses c.Serve.Cache.coalesced
      c.Serve.Cache.evictions c.Serve.Cache.entries c.Serve.Cache.bytes;
    0
  in
  subcommand "serve"
    ~doc:
      "Run the synthesis daemon: a Unix-domain-socket server speaking \
       newline-delimited JSON (schema migsyn-serve/1, spec in \
       docs/PROTOCOL.md). Requests carry a circuit in any of the five \
       input formats plus a flow script or algorithm; responses carry \
       the optimized network, the cost triple and the verification \
       status. Results are cached by strash-canonical form, so repeated \
       equivalent requests are answered from memory, bit-identical to a \
       cold synthesis. Stop with SIGINT/SIGTERM or a shutdown request; \
       both flush --ledger manifests with the final request and cache \
       counters."
    Term.(
      const run $ socket_arg $ jobs_serve_arg $ cache_mb_arg
      $ max_request_mb_arg)

(* ---------------- client ---------------- *)

let client_cmd =
  let op_arg =
    Arg.(
      value
      & opt (enum [ ("synth", `Synth); ("ping", `Ping); ("metrics", `Metrics); ("shutdown", `Shutdown) ]) `Synth
      & info [ "op" ] ~docv:"OP"
          ~doc:"Request op: $(b,synth) (default), $(b,ping), $(b,metrics) or \
                $(b,shutdown).")
  in
  let netlist_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"NETLIST"
          ~doc:"Input netlist for synth requests (.blif, .bench, .pla, .aag \
                or .aig).")
  in
  let flow_args =
    Arg.(
      value & opt_all string []
      & info [ "f"; "flow" ] ~docv:"SCRIPT"
          ~doc:
            "Flow script to run (see $(b,migsyn flow --list-passes)). \
             Repeatable: several scripts race as a portfolio under the \
             request's --cost, exactly like $(b,migsyn flow --portfolio).")
  in
  let algorithm_opt_arg = Arg.(value & opt (some algorithm_conv) None algorithm_info) in
  let effort_opt_arg =
    Arg.(
      value & opt (some int) None
      & info [ "e"; "effort" ] ~docv:"N"
          ~doc:"Optimization effort for --algorithm requests.")
  in
  let cost_arg =
    Arg.(
      value & opt (some string) None
      & info [ "cost" ] ~docv:"COST"
          ~doc:"Portfolio selection cost for multi---flow requests.")
  in
  let inline_arg =
    Arg.(
      value & flag
      & info [ "inline" ]
          ~doc:
            "Send the netlist text inline in the request instead of its \
             path, so the daemon needs no access to the client's \
             filesystem.")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Send the request N times over one connection (the second and \
             later responses exercise the daemon's result cache).")
  in
  let stable_arg =
    Arg.(
      value & flag
      & info [ "stable" ]
          ~doc:
            "Strip the volatile envelope members (cache disposition, wall \
             seconds) from each response before printing, leaving only \
             bytes that are identical for hot and cold answers.")
  in
  let id_arg =
    Arg.(
      value & opt (some string) None
      & info [ "id" ] ~docv:"ID" ~doc:"Correlation id echoed in responses.")
  in
  let jobs_req_arg =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Per-request worker budget for portfolio requests (capped by \
             the daemon's own --jobs).")
  in
  let no_verify_arg =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:"Ask the daemon to skip equivalence verification.")
  in
  let run socket op netlist flows algorithm effort jobs cost arch realization
      no_verify inline repeat stable id () =
    if repeat < 1 then
      failwith (Printf.sprintf "--repeat must be at least 1 (got %d)" repeat);
    let request =
      match op with
      | `Ping -> { Serve.Protocol.id; op = Serve.Protocol.Ping }
      | `Metrics -> { Serve.Protocol.id; op = Serve.Protocol.Metrics }
      | `Shutdown -> { Serve.Protocol.id; op = Serve.Protocol.Shutdown }
      | `Synth ->
          let path =
            match netlist with
            | Some p -> p
            | None -> failwith "synth requests need a NETLIST argument"
          in
          let circuit =
            if inline then begin
              let format =
                match Io.Netlist.format_of_path path with
                | "" -> failwith (path ^ ": missing extension")
                | format -> format
              in
              Serve.Protocol.Inline { format; source = read_file path }
            end
            else Serve.Protocol.File path
          in
          {
            Serve.Protocol.id;
            op =
              Serve.Protocol.Synth
                {
                  circuit;
                  flows;
                  algorithm = Option.map Core.Mig_opt.algorithm_name algorithm;
                  effort;
                  jobs = (if jobs <= 0 then None else Some jobs);
                  cost;
                  arch;
                  realization =
                    fst (List.find (fun (_, r) -> r = realization) realizations);
                  verify = not no_verify;
                };
          }
    in
    let line = Serve.Protocol.encode_request request in
    let conn =
      try Serve.Client.connect socket
      with Unix.Unix_error (err, fn, _) ->
        failwith (socket ^ ": " ^ fn ^ ": " ^ Unix.error_message err)
    in
    let saw_error = ref false in
    for _ = 1 to repeat do
      Serve.Client.send_line conn line;
      let response =
        match Obs.Json.of_string (Serve.Client.recv_line conn) with
        | json -> json
        | exception Obs.Json.Parse_error msg ->
            failwith ("invalid response from migsyn serve: " ^ msg)
      in
      (match Obs.Json.member "status" response with
      | Obs.Json.String "ok" -> ()
      | _ -> saw_error := true);
      let shown =
        if stable then Serve.Protocol.strip_volatile response else response
      in
      print_endline (Obs.Json.to_string shown)
    done;
    Serve.Client.close conn;
    if !saw_error then 1 else 0
  in
  subcommand "client"
    ~doc:
      "Send one request to a running $(b,migsyn serve) daemon and print \
       each response line (JSON, schema migsyn-serve/1). The test-harness \
       side of the wire protocol: --repeat demonstrates cache hits, \
       --stable strips the volatile envelope members so hot and cold \
       responses byte-compare equal. Exits 1 if any response carries an \
       error status."
    Term.(
      const run $ socket_arg $ op_arg $ netlist_arg $ flow_args
      $ algorithm_opt_arg $ effort_opt_arg $ jobs_req_arg $ cost_arg
      $ arch_arg $ realization_arg $ no_verify_arg $ inline_arg
      $ repeat_arg $ stable_arg $ id_arg)

let subcommands =
  [
    stats_cmd;
    flow_cmd;
    map_cmd;
    compare_cmd;
    bench_cmd;
    crossbar_cmd;
    plim_cmd;
    export_cmd;
    gen_cmd;
    faults_cmd;
    montecarlo_cmd;
    report_cmd;
    serve_cmd;
    client_cmd;
  ]

let () =
  let info =
    Cmd.info "migsyn" ~version:"1.0.0"
      ~doc:"MIG-based logic synthesis for RRAM in-memory computing (DATE 2016)"
  in
  (* Bare `migsyn` (or `migsyn --help`) prints the subcommand overview
     instead of a missing-COMMAND error. *)
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let group = Cmd.group ~default info subcommands in
  (* Cmdliner prefixes its diagnostics with the tool name only; capture them
     and name the offending subcommand too, so `migsyn map --bogus` fails
     with `migsyn map: unknown option '--bogus'`. *)
  let err_buf = Buffer.create 256 in
  let err_fmt = Format.formatter_of_buffer err_buf in
  (* Expected failures never reach here: {!run_sub} turns them into exit
     code 1.  Anything else escapes with its backtrace. *)
  let code = Cmd.eval' ~catch:false ~err:err_fmt group in
  Format.pp_print_flush err_fmt ();
  let msg = Buffer.contents err_buf and prefix = "migsyn: " in
  (match Array.to_list Sys.argv with
  | _ :: sub :: _
    when List.mem sub (List.map Cmd.name subcommands)
         && String.starts_with ~prefix msg ->
      let plen = String.length prefix in
      prerr_string
        (Printf.sprintf "migsyn %s: %s" sub
           (String.sub msg plen (String.length msg - plen)))
  | _ -> prerr_string msg);
  exit code
