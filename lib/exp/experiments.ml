type cost = Core.Rram_cost.cost

let cost_pair (c : cost) = (c.Core.Rram_cost.rrams, c.Core.Rram_cost.steps)

(* ------------------------------------------------------------------ *)
(* Table II                                                             *)
(* ------------------------------------------------------------------ *)

type t2_row = {
  name : string;
  inputs : int;
  exact : bool;
  initial_gates : int;
  area_imp : cost;
  depth_imp : cost;
  rram_imp : cost;
  rram_maj : cost;
  step_imp : cost;
  step_maj : cost;
  paper : Io.Benchmarks.table2_ref;
}

let paper_t2 (e : Io.Benchmarks.entry) =
  match e.Io.Benchmarks.reference with
  | Io.Benchmarks.Table2_ref r -> r
  | Io.Benchmarks.Table3_ref _ -> invalid_arg "not a Table II entry"

let paper_t3 (e : Io.Benchmarks.entry) =
  match e.Io.Benchmarks.reference with
  | Io.Benchmarks.Table3_ref r -> r
  | Io.Benchmarks.Table2_ref _ -> invalid_arg "not a Table III entry"

let table2_row ?effort (e : Io.Benchmarks.entry) =
  Obs.with_span ~cat:"exp" ("exp/table2/" ^ e.Io.Benchmarks.name) @@ fun () ->
  let net = e.Io.Benchmarks.build () in
  let mig = Core.Mig_of_network.convert net in
  let cost realization m = Core.Rram_cost.of_mig realization m in
  let area = Core.Mig_opt.area ?effort mig in
  let depth = Core.Mig_opt.depth ?effort mig in
  let rram_i = Core.Mig_opt.rram_costs ?effort Core.Rram_cost.Imp mig in
  let rram_m = Core.Mig_opt.rram_costs ?effort Core.Rram_cost.Maj mig in
  let step = Core.Mig_opt.steps ?effort mig in
  {
    name = e.Io.Benchmarks.name;
    inputs = e.Io.Benchmarks.inputs;
    exact = e.Io.Benchmarks.exact;
    initial_gates = Core.Mig.size mig;
    area_imp = cost Core.Rram_cost.Imp area;
    depth_imp = cost Core.Rram_cost.Imp depth;
    rram_imp = cost Core.Rram_cost.Imp rram_i;
    rram_maj = cost Core.Rram_cost.Maj rram_m;
    step_imp = cost Core.Rram_cost.Imp step;
    step_maj = cost Core.Rram_cost.Maj step;
    paper = paper_t2 e;
  }

(* Suite-level fan-out: every [table*]/[profile] driver takes [?jobs] and
   maps its per-circuit row function over a Par pool.  Par.map collects
   results by index, so row order — and, the wall-time fields aside, row
   content — is bit-identical to the sequential run (DESIGN.md §11). *)
let table2 ?effort ?(jobs = 1) () =
  Par.map ~jobs (table2_row ?effort) Io.Benchmarks.table2

let pp_cell ppf (measured, paper) = Format.fprintf ppf "%5d/%-5d" measured paper

let pp_cost_cells ppf (c, (pp : Io.Benchmarks.pair)) =
  let r, s = cost_pair c in
  Format.fprintf ppf "%a %a" pp_cell (r, pp.Io.Benchmarks.r) pp_cell (s, pp.Io.Benchmarks.s)

let sum f rows = List.fold_left (fun acc r -> acc + f r) 0 rows

let pp_table2 ppf rows =
  Format.fprintf ppf
    "@[<v>Table II reproduction — measured/paper per cell (R then S per column)@,";
  Format.fprintf ppf
    "%-10s %3s | %-23s | %-23s | %-23s | %-23s | %-23s | %-23s@," "bench" "in"
    "Area-IMP" "Depth-IMP" "RRAM-IMP" "RRAM-MAJ" "Step-IMP" "Step-MAJ";
  List.iter
    (fun row ->
      let p = row.paper in
      Format.fprintf ppf "%-10s %3d | %a | %a | %a | %a | %a | %a%s@," row.name
        row.inputs pp_cost_cells
        (row.area_imp, p.Io.Benchmarks.area_imp)
        pp_cost_cells
        (row.depth_imp, p.Io.Benchmarks.depth_imp)
        pp_cost_cells
        (row.rram_imp, p.Io.Benchmarks.rram_imp)
        pp_cost_cells
        (row.rram_maj, p.Io.Benchmarks.rram_maj)
        pp_cost_cells
        (row.step_imp, p.Io.Benchmarks.step_imp)
        pp_cost_cells
        (row.step_maj, p.Io.Benchmarks.step_maj)
        (if row.exact then "" else "  (substitute)"))
    rows;
  let col f pf =
    ( sum (fun r -> fst (cost_pair (f r))) rows,
      sum (fun r -> snd (cost_pair (f r))) rows,
      sum (fun r -> (pf r.paper).Io.Benchmarks.r) rows,
      sum (fun r -> (pf r.paper).Io.Benchmarks.s) rows )
  in
  let print_sum label (mr, ms, pr, ps) =
    Format.fprintf ppf "  %-10s  measured R=%6d S=%6d   paper R=%6d S=%6d@," label mr
      ms pr ps
  in
  Format.fprintf ppf "@,Column sums:@,";
  print_sum "Area-IMP" (col (fun r -> r.area_imp) (fun p -> p.Io.Benchmarks.area_imp));
  print_sum "Depth-IMP" (col (fun r -> r.depth_imp) (fun p -> p.Io.Benchmarks.depth_imp));
  print_sum "RRAM-IMP" (col (fun r -> r.rram_imp) (fun p -> p.Io.Benchmarks.rram_imp));
  print_sum "RRAM-MAJ" (col (fun r -> r.rram_maj) (fun p -> p.Io.Benchmarks.rram_maj));
  print_sum "Step-IMP" (col (fun r -> r.step_imp) (fun p -> p.Io.Benchmarks.step_imp));
  print_sum "Step-MAJ" (col (fun r -> r.step_maj) (fun p -> p.Io.Benchmarks.step_maj));
  (* The paper's headline shape statements for Table II. *)
  let s_of f = float_of_int (sum (fun r -> snd (cost_pair (f r))) rows) in
  let r_of f = float_of_int (sum (fun r -> fst (cost_pair (f r))) rows) in
  Format.fprintf ppf "@,Shape checks (measured, paper's claim in parentheses):@,";
  Format.fprintf ppf
    "  Step-MAJ vs Depth-IMP steps: %.2fx fewer (paper: ~3.9x, 'almost one fourth')@,"
    (s_of (fun r -> r.depth_imp) /. s_of (fun r -> r.step_maj));
  Format.fprintf ppf
    "  RRAM-IMP vs Depth-IMP steps: %.1f%% fewer (paper: 30.43%%)@,"
    (100.0 *. (1.0 -. (s_of (fun r -> r.rram_imp) /. s_of (fun r -> r.depth_imp))));
  Format.fprintf ppf
    "  RRAM-IMP vs Area-IMP steps: %.1f%% fewer (paper: 35.39%%)@,"
    (100.0 *. (1.0 -. (s_of (fun r -> r.rram_imp) /. s_of (fun r -> r.area_imp))));
  Format.fprintf ppf
    "  RRAM-MAJ vs Step-MAJ RRAMs: %.1f%% fewer (paper: 19.78%%) at %.1f%% more steps (paper: 21.09%%)@]@,"
    (100.0 *. (1.0 -. (r_of (fun r -> r.rram_maj) /. r_of (fun r -> r.step_maj))))
    (100.0 *. ((s_of (fun r -> r.rram_maj) /. s_of (fun r -> r.step_maj)) -. 1.0))

(* ------------------------------------------------------------------ *)
(* Table III (left): versus the BDD flow [11]                          *)
(* ------------------------------------------------------------------ *)

type bdd_row = {
  name : string;
  bdd_nodes : int;
  bdd_levelized : int * int;
  bdd_sequential_steps : int;
  mig_imp : cost;
  mig_maj : cost;
  paper : Io.Benchmarks.table2_ref;
}

let table3_bdd_row ?effort ?(bdd_max_nodes = 2_000_000) (e : Io.Benchmarks.entry) =
  Obs.with_span ~cat:"exp" ("exp/table3_bdd/" ^ e.Io.Benchmarks.name) @@ fun () ->
  let net = e.Io.Benchmarks.build () in
  let perm = Bdd_lib.Bdd_order.order Bdd_lib.Bdd_order.Dfs net in
  let built = Bdd_lib.Bdd_of_network.build ~max_nodes:bdd_max_nodes ~perm net in
  let lev = Rram.Compile_bdd.compile ~mode:`Levelized built in
  let seq = Rram.Compile_bdd.compile ~mode:`Sequential built in
  let mig = Core.Mig_of_network.convert net in
  let rram_i = Core.Mig_opt.rram_costs ?effort Core.Rram_cost.Imp mig in
  let rram_m = Core.Mig_opt.rram_costs ?effort Core.Rram_cost.Maj mig in
  {
    name = e.Io.Benchmarks.name;
    bdd_nodes = lev.Rram.Compile_bdd.bdd_nodes;
    bdd_levelized =
      ( lev.Rram.Compile_bdd.program.Rram.Program.num_regs,
        Rram.Program.num_steps lev.Rram.Compile_bdd.program );
    bdd_sequential_steps = Rram.Program.num_steps seq.Rram.Compile_bdd.program;
    mig_imp = Core.Rram_cost.of_mig Core.Rram_cost.Imp rram_i;
    mig_maj = Core.Rram_cost.of_mig Core.Rram_cost.Maj rram_m;
    paper = paper_t2 e;
  }

let table3_bdd ?effort ?(jobs = 1) () =
  Par.map ~jobs (table3_bdd_row ?effort) Io.Benchmarks.table2

let pp_table3_bdd ppf rows =
  Format.fprintf ppf
    "@[<v>Table III (vs BDD flow [11]) — measured/paper where the paper reports@,";
  Format.fprintf ppf "%-10s | %6s %18s %8s | %-23s | %-23s@," "bench" "nodes"
    "BDD R/paper S/paper" "seq-S" "MIG-IMP (R S)" "MIG-MAJ (R S)";
  List.iter
    (fun row ->
      let p = row.paper in
      let br, bs = row.bdd_levelized in
      Format.fprintf ppf "%-10s | %6d %a %a %8d | %a | %a@," row.name row.bdd_nodes
        pp_cell
        (br, p.Io.Benchmarks.bdd.Io.Benchmarks.r)
        pp_cell
        (bs, p.Io.Benchmarks.bdd.Io.Benchmarks.s)
        row.bdd_sequential_steps pp_cost_cells
        (row.mig_imp, p.Io.Benchmarks.rram_imp)
        pp_cost_cells
        (row.mig_maj, p.Io.Benchmarks.rram_maj))
    rows;
  let total f = float_of_int (sum f rows) in
  let maj_steps = total (fun r -> snd (cost_pair r.mig_maj)) in
  let imp_steps = total (fun r -> snd (cost_pair r.mig_imp)) in
  let bdd_lev_steps = total (fun r -> snd r.bdd_levelized) in
  let bdd_seq_steps = total (fun r -> float_of_int r.bdd_sequential_steps |> int_of_float) in
  Format.fprintf ppf
    "@,Sums: BDD levelized S=%.0f, BDD sequential S=%.0f, MIG-IMP S=%.0f, MIG-MAJ S=%.0f@,"
    bdd_lev_steps bdd_seq_steps imp_steps maj_steps;
  Format.fprintf ppf
    "Shape: MIG-MAJ vs BDD steps %.1fx (levelized) / %.1fx (sequential) fewer — paper: ~8x@,"
    (bdd_lev_steps /. maj_steps)
    (bdd_seq_steps /. maj_steps);
  Format.fprintf ppf
    "       MIG-IMP vs BDD steps %.1fx (levelized) / %.1fx (sequential) fewer — paper: ~4.5x@,"
    (bdd_lev_steps /. imp_steps)
    (bdd_seq_steps /. imp_steps);
  (* the 135-input headline pair *)
  let largest = List.filter (fun r -> r.name = "apex6" || r.name = "x3") rows in
  if List.length largest = 2 then begin
    let bdd = sum (fun r -> snd r.bdd_levelized) largest in
    let bdd_seq = sum (fun r -> r.bdd_sequential_steps) largest in
    let maj = sum (fun r -> snd (cost_pair r.mig_maj)) largest in
    Format.fprintf ppf
      "Largest (apex6+x3, 135 inputs): MIG-MAJ %.1fx (lev) / %.1fx (seq) fewer steps — paper: 26.5x@,"
      (float_of_int bdd /. float_of_int maj)
      (float_of_int bdd_seq /. float_of_int maj)
  end;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Table III (right): versus the AIG flow [12]                         *)
(* ------------------------------------------------------------------ *)

type aig_row = {
  name : string;
  aig_nodes : int;
  aig_steps : int;
  mig_imp : cost;
  mig_maj : cost;
  paper : Io.Benchmarks.table3_ref;
}

let table3_aig_row ?effort (e : Io.Benchmarks.entry) =
  Obs.with_span ~cat:"exp" ("exp/table3_aig/" ^ e.Io.Benchmarks.name) @@ fun () ->
  let net = e.Io.Benchmarks.build () in
  let aig =
    Aig_lib.Aig_balance.balance (Aig_lib.Aig_rewrite.rewrite (Aig_lib.Aig.of_network net))
  in
  let compiled = Rram.Compile_aig.compile aig in
  let mig = Core.Mig_of_network.convert net in
  let rram_i = Core.Mig_opt.rram_costs ?effort Core.Rram_cost.Imp mig in
  let rram_m = Core.Mig_opt.rram_costs ?effort Core.Rram_cost.Maj mig in
  {
    name = e.Io.Benchmarks.name;
    aig_nodes = compiled.Rram.Compile_aig.aig_nodes;
    aig_steps = Rram.Program.num_steps compiled.Rram.Compile_aig.program;
    mig_imp = Core.Rram_cost.of_mig Core.Rram_cost.Imp rram_i;
    mig_maj = Core.Rram_cost.of_mig Core.Rram_cost.Maj rram_m;
    paper = paper_t3 e;
  }

let table3_aig ?effort ?(jobs = 1) () =
  Par.map ~jobs (table3_aig_row ?effort) Io.Benchmarks.table3_aig

let pp_table3_aig ppf rows =
  Format.fprintf ppf
    "@[<v>Table III (vs AIG flow [12]) — measured/paper@,";
  Format.fprintf ppf "%-10s | %5s %11s | %-23s | %-23s@," "bench" "ands" "AIG S/paper"
    "MIG-IMP (R S)" "MIG-MAJ (R S)";
  List.iter
    (fun row ->
      let p = row.paper in
      Format.fprintf ppf "%-10s | %5d %a | %a | %a@," row.name row.aig_nodes pp_cell
        (row.aig_steps, p.Io.Benchmarks.aig_steps)
        pp_cost_cells
        (row.mig_imp, p.Io.Benchmarks.mig_imp)
        pp_cost_cells
        (row.mig_maj, p.Io.Benchmarks.mig_maj))
    rows;
  let aig = float_of_int (sum (fun r -> r.aig_steps) rows) in
  let imp = float_of_int (sum (fun r -> snd (cost_pair r.mig_imp)) rows) in
  let maj = float_of_int (sum (fun r -> snd (cost_pair r.mig_maj)) rows) in
  Format.fprintf ppf
    "@,Sums: AIG S=%.0f, MIG-IMP S=%.0f, MIG-MAJ S=%.0f@,Shape: MIG-MAJ %.1fx fewer steps (paper: 7.1x), MIG-IMP %.1fx (paper: 2.57x)@]@,"
    aig imp maj (aig /. maj) (aig /. imp)

(* ------------------------------------------------------------------ *)
(* Profiled suite run and JSON export (bench --json)                   *)
(* ------------------------------------------------------------------ *)

type flow_spec = { flow_name : string; script : string }

let default_flows ?effort () =
  List.filter_map
    (fun name ->
      (* table2's five columns; bool-rewrite is the beyond-paper extra *)
      if name = "bool-rewrite" then None
      else
        Option.map
          (fun script -> { flow_name = name; script })
          (Core.Mig_flows.canonical_script ?effort name))
    Core.Mig_flows.canonical_names

let run_flow spec mig =
  Core.Mig_flows.run ~name:spec.flow_name (Core.Mig_flows.parse_exn spec.script) mig

type alg_result = { flow : flow_spec; size : int; depth : int; imp : cost; maj : cost }

let measure flow mig =
  let optimized = run_flow flow mig in
  let size, depth = Core.Mig_passes.size_and_depth optimized in
  {
    flow;
    size;
    depth;
    imp = Core.Rram_cost.of_mig Core.Rram_cost.Imp optimized;
    maj = Core.Rram_cost.of_mig Core.Rram_cost.Maj optimized;
  }

type profile_row = {
  bench : string;
  inputs : int;
  exact : bool;
  initial_size : int;
  initial_depth : int;
  algs : alg_result list;
}

let profile_row ?effort ?flows (e : Io.Benchmarks.entry) =
  Obs.with_span ~cat:"exp" ("exp/profile/" ^ e.Io.Benchmarks.name) @@ fun () ->
  let flows = match flows with Some fs -> fs | None -> default_flows ?effort () in
  let mig = Core.Mig_of_network.convert (e.Io.Benchmarks.build ()) in
  let initial_size, initial_depth = Core.Mig_passes.size_and_depth mig in
  {
    bench = e.Io.Benchmarks.name;
    inputs = e.Io.Benchmarks.inputs;
    exact = e.Io.Benchmarks.exact;
    initial_size;
    initial_depth;
    algs = List.map (fun flow -> measure flow mig) flows;
  }

let profile ?effort ?flows ?(jobs = 1) ?(entries = Io.Benchmarks.table2) () =
  Par.map ~jobs (profile_row ?effort ?flows) entries

let cost_json (c : cost) =
  Obs.Json.Assoc
    [
      ("rrams", Obs.Json.Int c.Core.Rram_cost.rrams);
      ("steps", Obs.Json.Int c.Core.Rram_cost.steps);
    ]

let alg_result_fields (a : alg_result) =
  let open Obs.Json in
  [
    ("algorithm", String a.flow.flow_name);
    ("script", String a.flow.script);
    ("size", Int a.size);
    ("depth", Int a.depth);
    ("imp", cost_json a.imp);
    ("maj", cost_json a.maj);
  ]

let profile_json ~effort rows =
  let open Obs.Json in
  Assoc
    [
      ("schema", String "migsyn-bench/3");
      ("effort", Int effort);
      ( "benchmarks",
        List
          (List.map
             (fun (r : profile_row) ->
               Assoc
                 [
                   ("name", String r.bench);
                   ("inputs", Int r.inputs);
                   ("exact", Bool r.exact);
                   ( "initial",
                     Assoc
                       [ ("size", Int r.initial_size); ("depth", Int r.initial_depth) ]
                   );
                   ("algorithms", List (List.map (fun a -> Assoc (alg_result_fields a)) r.algs));
                 ])
             rows) );
    ]

(* ------------------------------------------------------------------ *)
(* Verification and the Table I cross-check                            *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let verify_entry ?(effort = 8) (e : Io.Benchmarks.entry) =
  let net = e.Io.Benchmarks.build () in
  let mig = Core.Mig_of_network.convert net in
  let optimized = Core.Mig_opt.rram_costs ~effort Core.Rram_cost.Maj mig in
  if not (Core.Mig_equiv.equivalent_network ~rounds:8 optimized net) then
    Error "optimized MIG differs from source network"
  else
    let* () =
      Rram.Verify.against_network
        (Rram.Compile_mig.compile Core.Rram_cost.Maj optimized).Rram.Compile_mig.program
        net
    in
    let* () =
      Rram.Verify.against_network
        (Rram.Compile_mig.compile Core.Rram_cost.Imp optimized).Rram.Compile_mig.program
        net
    in
    let* () =
      match
        Bdd_lib.Bdd_of_network.build ~max_nodes:1_000_000
          ~perm:(Bdd_lib.Bdd_order.order Bdd_lib.Bdd_order.Dfs net)
          net
      with
      | built ->
          Rram.Verify.against_network (Rram.Compile_bdd.compile built).Rram.Compile_bdd.program net
      | exception Bdd_lib.Bdd.Limit_exceeded -> Ok () (* BDD check skipped *)
    in
    Rram.Verify.against_network
      (Rram.Compile_aig.compile (Aig_lib.Aig.of_network net)).Rram.Compile_aig.program
      net

let pp_table1_check ppf () =
  let single () =
    let mig = Core.Mig.create () in
    let a = Core.Mig.add_pi mig in
    let b = Core.Mig.add_pi mig in
    let c = Core.Mig.add_pi mig in
    ignore (Core.Mig.add_po mig (Core.Mig.maj mig a b c));
    mig
  in
  Format.fprintf ppf "@[<v>Table I cost model — formula vs executed program@,";
  List.iter
    (fun realization ->
      let r = Rram.Compile_mig.compile realization (single ()) in
      Format.fprintf ppf
        "  single majority gate, %a: formula %a, program rrams=%d steps=%d@,"
        Core.Rram_cost.pp_realization realization Core.Rram_cost.pp
        r.Rram.Compile_mig.analytic r.Rram.Compile_mig.cost.Core.Rram_cost.devices
        r.Rram.Compile_mig.cost.Core.Rram_cost.latency)
    [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ];
  List.iter
    (fun (name, net) ->
      let mig = Core.Mig_of_network.convert net in
      List.iter
        (fun realization ->
          let r = Rram.Compile_mig.compile realization mig in
          let ok =
            match Rram.Verify.against_network r.Rram.Compile_mig.program net with
            | Ok () -> "verified"
            | Error e -> "MISMATCH: " ^ e
          in
          Format.fprintf ppf
            "  %-12s %a: formula %a, program rrams=%d steps=%d (%s)@," name
            Core.Rram_cost.pp_realization realization Core.Rram_cost.pp
            r.Rram.Compile_mig.analytic r.Rram.Compile_mig.cost.Core.Rram_cost.devices
            r.Rram.Compile_mig.cost.Core.Rram_cost.latency ok)
        [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ])
    [
      ("full_adder", Logic.Funcgen.full_adder ());
      ("rd53", Logic.Funcgen.rd 5 3);
      ("comparator4", Logic.Funcgen.comparator 4);
      ("clip", Logic.Funcgen.clip ());
    ];
  Format.fprintf ppf "@]"
