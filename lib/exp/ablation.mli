(** Ablation studies for the design choices DESIGN.md calls out.

    Each study isolates one mechanism of the synthesis flow and measures its
    contribution on benchmark circuits:

    - {!effort_sweep}: the outer-loop cycle count (the paper fixes 40 —
      where does the benefit saturate?);
    - {!rule_ablation}: what each ingredient of the step optimizer buys
      (push-up alone, + Ω.I complement propagation, + crossing complemented
      edges);
    - {!fanout_limit_sweep}: the duplication bound of the multi-objective
      algorithm — the knob that trades RRAM count against step count;
    - {!bdd_order_sweep}: variable-ordering heuristics for the BDD baseline;
    - {!plim_row}: sequential PLiM (RM3) execution versus the
      level-parallel MAJ/IMP realizations.

    Functional yield under stuck-at defects is a {!Montecarlo} campaign
    with a {!Rram.Variation.params} [stuck_rate]. *)

val effort_sweep :
  ?efforts:int list -> Io.Benchmarks.entry -> (int * Core.Rram_cost.cost) list
(** (effort, MAJ-realization cost after step optimization). *)

type rule_variant = {
  variant : string;
  cost : Core.Rram_cost.cost;  (** MAJ realization *)
  gates : int;
}

val rule_ablation : ?effort:int -> Io.Benchmarks.entry -> rule_variant list

val fanout_limit_sweep :
  ?effort:int ->
  ?limits:int list ->
  Io.Benchmarks.entry ->
  (int * Core.Rram_cost.cost) list
(** (limit, MAJ cost after the multi-objective algorithm with that
    duplication bound). *)

val bdd_order_sweep :
  Io.Benchmarks.entry -> (string * int * int) list
(** (heuristic, BDD nodes, levelized steps); entries whose BDD overflows
    report [(name, -1, -1)]. *)

type plim_comparison = {
  gates : int;
  plim_instructions : int;
  plim_cells : int;
  maj_steps : int;
  imp_steps : int;
}

val plim_row : ?effort:int -> Io.Benchmarks.entry -> plim_comparison

val boolean_rewrite_row :
  ?effort:int -> Io.Benchmarks.entry -> int * int * int
(** (initial gates, after Alg. 1, after Alg. 1 + cut-based Boolean
    rewriting) — what the beyond-paper Boolean pass adds over the paper's
    algebraic area optimization. *)

val pp_effort_sweep : Format.formatter -> (int * Core.Rram_cost.cost) list -> unit
val pp_rule_ablation : Format.formatter -> rule_variant list -> unit
val pp_fanout_sweep : Format.formatter -> (int * Core.Rram_cost.cost) list -> unit
