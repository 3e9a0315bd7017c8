let mig_of (e : Io.Benchmarks.entry) = Core.Mig_of_network.convert (e.Io.Benchmarks.build ())

let maj_cost mig = Core.Rram_cost.of_mig Core.Rram_cost.Maj mig

let effort_sweep ?(efforts = [ 0; 2; 5; 10; 20; 40 ]) e =
  let mig = mig_of e in
  List.map
    (fun effort ->
      let optimized = if effort = 0 then Core.Mig.cleanup mig else Core.Mig_opt.steps ~effort mig in
      (effort, maj_cost optimized))
    efforts

type rule_variant = { variant : string; cost : Core.Rram_cost.cost; gates : int }

(* Hand-rolled optimizer loops that disable one mechanism each. *)
let rule_ablation ?(effort = 20) e =
  let source = mig_of e in
  let drive cycle =
    let current = ref (Core.Mig.cleanup source) in
    let continue_ = ref true and n = ref 0 in
    while !continue_ && !n < effort do
      if not (cycle !current) then continue_ := false;
      current := Core.Mig.cleanup !current;
      incr n
    done;
    !current
  in
  let variants =
    [
      ("none (initial MIG)", fun () -> Core.Mig.cleanup source);
      ( "push-up only, complement-blind",
        fun () -> drive (fun m -> Core.Mig_passes.push_up ~through_compl:false m) );
      ("push-up only", fun () -> drive (fun m -> Core.Mig_passes.push_up m));
      ( "push-up + Ω.I (full Alg. 4)",
        fun () -> Core.Mig_opt.steps ~effort source );
      ( "Alg. 4 without the Ω.I passes",
        fun () ->
          drive (fun m ->
              let a = Core.Mig_passes.push_up m in
              let b = Core.Mig_passes.push_up m in
              a || b) );
      ( "Alg. 2 (depth, with Ψ.R)",
        fun () -> Core.Mig_opt.depth ~effort source );
    ]
  in
  List.map
    (fun (variant, run) ->
      let m = run () in
      { variant; cost = maj_cost m; gates = Core.Mig.size m })
    variants

let fanout_limit_sweep ?(effort = 20) ?(limits = [ 1; 2; 4; 1000000 ]) e =
  let source = mig_of e in
  List.map
    (fun limit ->
      let push_up = Core.Mig_passes.push_up ~fanout_limit:limit in
      let current = ref (Core.Mig.cleanup source) in
      let continue_ = ref true and n = ref 0 in
      while !continue_ && !n < effort do
        let c1 = push_up !current in
        let c2 =
          Core.Mig_passes.compl_prop (Core.Mig_passes.Weighted Core.Rram_cost.Maj) !current
        in
        let c3 = push_up !current in
        let c4 = Core.Mig_passes.balance !current in
        if not (c1 || c2 || c3 || c4) then continue_ := false;
        current := Core.Mig.cleanup !current;
        incr n
      done;
      (limit, maj_cost !current))
    limits

let bdd_order_sweep e =
  let net = e.Io.Benchmarks.build () in
  List.map
    (fun (name, heuristic) ->
      match
        Bdd_lib.Bdd_of_network.build ~max_nodes:500_000
          ~perm:(Bdd_lib.Bdd_order.order heuristic net)
          net
      with
      | built ->
          let c = Rram.Compile_bdd.compile ~mode:`Levelized built in
          (name, c.Rram.Compile_bdd.bdd_nodes, c.Rram.Compile_bdd.measured_steps)
      | exception Bdd_lib.Bdd.Limit_exceeded -> (name, -1, -1))
    [
      ("natural", Bdd_lib.Bdd_order.Natural);
      ("dfs", Bdd_lib.Bdd_order.Dfs);
      ("force-20", Bdd_lib.Bdd_order.Force 20);
    ]

type plim_comparison = {
  gates : int;
  plim_instructions : int;
  plim_cells : int;
  maj_steps : int;
  imp_steps : int;
}

let plim_row ?(effort = 20) e =
  let mig = Core.Mig_opt.steps ~effort (mig_of e) in
  let plim = Rram.Plim.compile mig in
  let maj = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
  let imp = Rram.Compile_mig.compile Core.Rram_cost.Imp mig in
  {
    gates = Core.Mig.size mig;
    plim_instructions = plim.Rram.Plim.instructions;
    plim_cells = plim.Rram.Plim.cells_used;
    maj_steps = maj.Rram.Compile_mig.measured_steps;
    imp_steps = imp.Rram.Compile_mig.measured_steps;
  }

let schedule_row ?(effort = 20) e =
  let mig = Core.Mig_opt.steps ~effort (mig_of e) in
  let asap = Core.Rram_cost.of_levels Core.Rram_cost.Maj (Core.Mig_schedule.asap mig) in
  let bal =
    Core.Rram_cost.of_levels Core.Rram_cost.Maj (Core.Mig_schedule.balanced mig)
  in
  (asap, bal)

let boolean_rewrite_row ?(effort = 10) e =
  let mig = mig_of e in
  let area = Core.Mig_opt.area ~effort mig in
  let boolean = Core.Mig_opt.boolean ~effort mig in
  (Core.Mig.size mig, Core.Mig.size area, Core.Mig.size boolean)

let pp_effort_sweep ppf rows =
  List.iter
    (fun (effort, cost) ->
      Format.fprintf ppf "    effort %3d: %a@," effort Core.Rram_cost.pp cost)
    rows

let pp_rule_ablation ppf rows =
  List.iter
    (fun { variant; cost; gates } ->
      Format.fprintf ppf "    %-34s %a gates=%d@," variant Core.Rram_cost.pp cost gates)
    rows

let pp_fanout_sweep ppf rows =
  List.iter
    (fun (limit, cost) ->
      if limit >= 1000000 then Format.fprintf ppf "    limit ∞  : %a@," Core.Rram_cost.pp cost
      else Format.fprintf ppf "    limit %2d : %a@," limit Core.Rram_cost.pp cost)
    rows
