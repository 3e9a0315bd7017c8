(** The paper's experiments, as reusable drivers.

    Each [table*] function runs the full flow for one suite entry —
    build → MIG → the optimization algorithms of §III-C/D → Table I
    costs (and for Table III, the BDD/AIG baseline compilers) — and pairs
    the measured numbers with the paper's, so the report printers can show
    them side by side.  [bench/main.ml] regenerates every table and figure
    through this module; the [benchmark_sweep] example and the CLI use it
    too. *)

type cost = Core.Rram_cost.cost

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

val table2_row : ?effort:int -> Io.Benchmarks.entry -> t2_row

val table2 : ?effort:int -> ?jobs:int -> unit -> t2_row list
(** Runs {!table2_row} over the Table II suite.  [jobs] (default [1]) fans
    the circuits out over a {!Par} work-pool; rows come back in suite order
    and are bit-identical to the sequential run for any [jobs] (only the
    scheduling changes — see DESIGN.md §11). *)

val pp_table2 : Format.formatter -> t2_row list -> unit
(** Prints the Table II reproduction: measured and paper value per cell,
    per-column sums and measured/paper shape summaries. *)

type bdd_row = {
  name : string;
  bdd_nodes : int;
  bdd_levelized : int * int;  (** (RRAMs, steps) of the parallel variant *)
  bdd_sequential_steps : int;
  mig_imp : cost;
  mig_maj : cost;
  paper : Io.Benchmarks.table2_ref;
}

val table3_bdd_row : ?effort:int -> ?bdd_max_nodes:int -> Io.Benchmarks.entry -> bdd_row

val table3_bdd : ?effort:int -> ?jobs:int -> unit -> bdd_row list
(** Suite driver for {!table3_bdd_row}; [jobs] as in {!table2}. *)

val pp_table3_bdd : Format.formatter -> bdd_row list -> unit

type aig_row = {
  name : string;
  aig_nodes : int;
  aig_steps : int;  (** sequential AIG→IMP compilation, the [12] accounting *)
  mig_imp : cost;
  mig_maj : cost;
  paper : Io.Benchmarks.table3_ref;
}

val table3_aig_row : ?effort:int -> Io.Benchmarks.entry -> aig_row

val table3_aig : ?effort:int -> ?jobs:int -> unit -> aig_row list
(** Suite driver for {!table3_aig_row}; [jobs] as in {!table2}. *)

val pp_table3_aig : Format.formatter -> aig_row list -> unit

type flow_spec = {
  flow_name : string;  (** display/JSON name, e.g. ["area"] or ["custom/x"] *)
  script : string;  (** the flow-script text; parsed by {!Core.Mig_flows} *)
}
(** A named, scriptable optimization pipeline.  The experiment drivers take
    flows rather than a closed algorithm variant, so custom pipelines are
    benchable side-by-side with the paper's. *)

val default_flows : ?effort:int -> unit -> flow_spec list
(** The five paper algorithms (Table II order) as their canonical flow
    scripts at the given effort. *)

val run_flow : flow_spec -> Core.Mig.t -> Core.Mig.t
(** Parse and run a flow on a MIG.  @raise Invalid_argument on a script
    error (the CLI validates scripts before reaching this). *)

type alg_result = {
  flow : flow_spec;  (** the pipeline this row measured *)
  size : int;  (** MIG gate count after the flow *)
  depth : int;  (** MIG depth after the flow *)
  imp : cost;
  maj : cost;
}

val measure : flow_spec -> Core.Mig.t -> alg_result
(** Run one flow on a MIG and record the result's size, depth and Table I
    costs under both realizations. *)

type profile_row = {
  bench : string;
  inputs : int;
  exact : bool;
  initial_size : int;
  initial_depth : int;
  algs : alg_result list;  (** one entry per flow, in the given order *)
}

val profile_row : ?effort:int -> ?flows:flow_spec list -> Io.Benchmarks.entry -> profile_row

val profile :
  ?effort:int ->
  ?flows:flow_spec list ->
  ?jobs:int ->
  ?entries:Io.Benchmarks.entry list ->
  unit ->
  profile_row list
(** Per-benchmark before/after shape and per-flow {!measure} over [entries]
    (default: the Table II suite) — the machine-readable counterpart of
    [table2], used by [bench --json].  [flows] defaults to {!default_flows};
    extra named custom flows appear as additional rows, distinguishable by
    their recorded name and script.  [jobs] (default [1]) fans benchmarks
    out over a {!Par} pool; the rows are identical to the sequential run. *)

val alg_result_fields : alg_result -> (string * Obs.Json.t) list
(** One flow's measurement as JSON members: [algorithm], [script], [size],
    [depth], and the [imp] / [maj] costs as [{rrams, steps}]. *)

val profile_json : effort:int -> profile_row list -> Obs.Json.t
(** Serializes [profile] rows as the [BENCH_results.json] document
    (schema ["migsyn-bench/3"]); every algorithm row holds
    {!alg_result_fields}. *)

val verify_entry : ?effort:int -> Io.Benchmarks.entry -> (unit, string) result
(** End-to-end check for one benchmark: optimize (multi-objective, MAJ),
    compile both realizations, execute on the device simulator against the
    source network, and also check the BDD and AIG baseline programs. *)

val pp_table1_check : Format.formatter -> unit -> unit
(** Prints the Table I cost-model cross-check: formula vs measured program
    costs for a single majority gate and for a sample of circuits. *)
