let ops =
  {
    Flow.copy = Mig.cleanup;
    cleanup = Mig.cleanup;
    fingerprint = Mig.fingerprint;
    measure =
      (fun mig ->
        let size, depth = Mig_passes.size_and_depth mig in
        let imp = Rram_cost.of_mig Rram_cost.Imp mig in
        let maj = Rram_cost.of_mig Rram_cost.Maj mig in
        [
          ("size", float_of_int size);
          ("depth", float_of_int depth);
          ("r_imp", float_of_int imp.Rram_cost.rrams);
          ("s_imp", float_of_int imp.Rram_cost.steps);
          ("r_maj", float_of_int maj.Rram_cost.rrams);
          ("s_maj", float_of_int maj.Rram_cost.steps);
        ]);
  }

let registry : Mig.t Flow.registry = Flow.create_registry ()

let inplace f ~cycle:_ mig = (mig, f mig)

let pass name ~category ~doc ?(preserves = "function") ?(reads_cycle = false) run =
  { Flow.name; category; doc; preserves; reads_cycle; run }

let () =
  List.iter (Flow.register registry)
    [
      pass "eliminate" ~category:"area"
        ~doc:
          "Ω.M + Ω.D right-to-left sweeps to a bounded fixpoint \
           (the node-count engine of Alg. 1)"
        (inplace Mig_passes.eliminate);
      pass "reshape" ~category:"area" ~preserves:"function, depth" ~reads_cycle:true
        ~doc:
          "Ω.A + Ψ.C level-preserving perturbation; the random \
           subset of moves is seeded by the enclosing cycle index"
        (fun ~cycle mig -> (mig, Mig_passes.reshape ~seed:(0x5EED + cycle) mig));
      pass "push_up" ~category:"depth"
        ~doc:
          "critical-path depth reduction (Ω.M; Ω.D left-to-right; \
           Ω.A; Ψ.C), looking through complemented edges"
        (inplace (fun mig -> Mig_passes.push_up mig));
      pass "push_up_nc" ~category:"depth"
        ~doc:
          "push-up restricted to uncomplemented edges — the \
           conventional-depth variant of Alg. 2"
        (inplace (Mig_passes.push_up ~through_compl:false));
      pass "push_up_f2" ~category:"rram"
        ~doc:
          "push-up with duplication bounded to fanout ≤ 2, keeping \
           level widths (hence RRAM counts) from growing (Alg. 3)"
        (inplace (Mig_passes.push_up ~fanout_limit:2));
      pass "psi_r" ~category:"depth"
        ~doc:"one Ψ.R sweep (bounded-cone reconvergence substitution)"
        (inplace Mig_passes.relevance);
      pass "omega_i" ~category:"rram"
        ~doc:
          "Ω.I sweep over gates with ≥ 2 complemented fanins, \
           applied unconditionally (Alg. 4)"
        (inplace (Mig_passes.compl_prop Mig_passes.Always));
      pass "omega_i3" ~category:"rram"
        ~doc:
          "Ω.I sweep over gates with ≥ 3 complemented fanins \
           (Alg. 4's first phase)"
        (inplace (Mig_passes.compl_prop ~min_compl:3 Mig_passes.Always));
      pass "omega_i_w_imp" ~category:"rram"
        ~doc:
          "Ω.I sweep accepting only moves that do not worsen the \
           weighted (R, S) cost under the IMP realization (Alg. 3)"
        (inplace (Mig_passes.compl_prop (Mig_passes.Weighted Rram_cost.Imp)));
      pass "omega_i_w_maj" ~category:"rram"
        ~doc:
          "Ω.I sweep accepting only moves that do not worsen the \
           weighted (R, S) cost under the MAJ realization (Alg. 3)"
        (inplace (Mig_passes.compl_prop (Mig_passes.Weighted Rram_cost.Maj)));
      pass "balance" ~category:"rram"
        ~doc:
          "trailing Ω.A; Ω.D right-to-left combination that undoes \
           level-size growth introduced by push-up (Alg. 3)"
        (inplace Mig_passes.balance);
      pass "cleanup" ~category:"structural" ~preserves:"function, structure"
        ~doc:"mark-and-compact copy: drop dead nodes, renumber topologically"
        (fun ~cycle:_ mig -> (Mig.cleanup mig, false));
      pass "strash" ~category:"structural" ~preserves:"function, structure"
        ~doc:
          "one topological re-hash sweep: merge structural duplicates, \
           compact dead ids; no-op (and reports no change) on an already \
           canonical graph"
        (fun ~cycle:_ mig -> Mig_passes.strash mig);
      pass "cut_rewrite" ~category:"boolean"
        ~doc:
          "NPN-cached 4-input cut-based Boolean resynthesis (the bool-rewrite \
           extension); replaces cones when strictly smaller"
        (fun ~cycle:_ mig ->
          let rewritten = Mig_cut_rewrite.rewrite mig in
          (rewritten, Mig.size rewritten <> Mig.size mig));
    ]

(* The architecture the xbar_* costs are evaluated against.  Scripts name
   costs, not geometries, so the concrete target is ambient state set once
   per run (the CLI and the daemon set it before optimizing); the default
   keeps the costs meaningful for library callers that never set it. *)
let arch = ref (Rram_cost.Crossbar { rows = 64; columns = 64 })
let set_arch a = arch := a

let costs : (string * (Mig.t -> float)) list =
  let cost_field realization f mig =
    float_of_int (f (Rram_cost.of_mig realization mig))
  in
  let xbar realization f mig =
    f (Rram_cost.triple_of_levels ~arch:!arch realization (Mig_levels.compute mig))
  in
  [
    ("size", fun mig -> float_of_int (Mig_analysis.size (Mig_analysis.of_mig mig)));
    ("depth", fun mig -> float_of_int (snd (Mig_passes.size_and_depth mig)));
    ("rrams_imp", cost_field Rram_cost.Imp (fun c -> c.Rram_cost.rrams));
    ("steps_imp", cost_field Rram_cost.Imp (fun c -> c.Rram_cost.steps));
    ("rrams_maj", cost_field Rram_cost.Maj (fun c -> c.Rram_cost.rrams));
    ("steps_maj", cost_field Rram_cost.Maj (fun c -> c.Rram_cost.steps));
    ("weighted_imp", fun mig -> Rram_cost.weighted (Rram_cost.of_mig Rram_cost.Imp mig));
    ("weighted_maj", fun mig -> Rram_cost.weighted (Rram_cost.of_mig Rram_cost.Maj mig));
    ("xbar_devices_imp", xbar Rram_cost.Imp (fun t -> float_of_int t.Rram_cost.devices));
    ("xbar_devices_maj", xbar Rram_cost.Maj (fun t -> float_of_int t.Rram_cost.devices));
    ("xbar_latency_imp", xbar Rram_cost.Imp (fun t -> float_of_int t.Rram_cost.latency));
    ("xbar_latency_maj", xbar Rram_cost.Maj (fun t -> float_of_int t.Rram_cost.latency));
    ("xbar_weighted_maj", xbar Rram_cost.Maj (Rram_cost.weighted_triple ?step_weight:None));
  ]

let parse text = Flow.Script.parse ~registry ~costs text

let parse_exn text =
  match parse text with
  | Ok flow -> flow
  | Error e ->
      invalid_arg (Format.asprintf "flow script %a" Flow.Script.pp_error e)

let run ?name flow mig = Flow.run ~ops ~span_prefix:"mig.opt" ?name flow mig

let canonical_names =
  [ "area"; "depth"; "rram-costs-imp"; "rram-costs-maj"; "steps"; "bool-rewrite" ]

let canonical_script ?(effort = Flow.default_effort) name =
  let converge body finish = Printf.sprintf "cycle(%d){%s}; %s" effort body finish in
  let area = converge "eliminate; reshape; eliminate" "eliminate" in
  match name with
  | "area" -> Some area
  | "depth" -> Some (converge "push_up_nc; every(3){psi_r}; push_up_nc" "push_up_nc")
  | "rram-costs-imp" ->
      Some (converge "push_up_f2; omega_i_w_imp; push_up_f2; balance" "push_up_f2")
  | "rram-costs-maj" ->
      Some (converge "push_up_f2; omega_i_w_maj; push_up_f2; balance" "push_up_f2")
  | "steps" -> Some (converge "push_up; omega_i3; omega_i; push_up" "push_up")
  | "bool-rewrite" -> Some (area ^ "; cleanup; cut_rewrite; eliminate")
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Portfolio                                                           *)
(* ------------------------------------------------------------------ *)

let default_cost = "weighted_maj"

let cost_fn name =
  match List.assoc_opt name costs with
  | Some f -> f
  | None ->
      invalid_arg
        (Printf.sprintf "Mig_flows.portfolio: unknown cost '%s'%s" name
           (match Flow.suggest ~candidates:(List.map fst costs) name with
           | Some s -> Printf.sprintf " (did you mean '%s'?)" s
           | None -> ""))

let portfolio ?jobs ?(cost = default_cost) specs mig =
  let cost = cost_fn cost in
  let entrants =
    List.map
      (fun (label, script) -> { Flow.label; flow = parse_exn script })
      specs
  in
  Flow.portfolio ~ops ~span_prefix:"mig.opt" ?jobs ~cost entrants mig

let default_portfolio ?effort () =
  List.filter_map
    (fun name ->
      Option.map (fun script -> (name, script)) (canonical_script ?effort name))
    [ "area"; "depth"; "rram-costs-imp"; "rram-costs-maj"; "steps" ]

(* The portfolio as an ordinary registered pass, so flow scripts can embed
   the race (e.g. `portfolio; push_up`).  Effort of the inner canonical
   scripts is fixed at a moderate 10 to keep nested cycles affordable; the
   CLI's --portfolio mode races the full-effort scripts instead. *)
let () =
  Flow.register registry
    (pass "portfolio" ~category:"search"
       ~doc:
         "race the five canonical algorithm scripts (effort 10) on \
          separate domains; keep the lowest weighted_maj cost, ties to \
          the earliest script"
       (fun ~cycle:_ mig ->
         let before_size, before_depth = Mig_passes.size_and_depth mig in
         let winner, _ = portfolio (default_portfolio ~effort:10 ()) mig in
         let size, depth = Mig_passes.size_and_depth winner in
         (winner, size <> before_size || depth <> before_depth)))
