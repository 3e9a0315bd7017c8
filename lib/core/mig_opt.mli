(** The four MIG optimization algorithms of the paper (Algs. 1–4).

    Since the pass-manager refactor these are {e thin wrappers}: each entry
    point parses its canonical flow script ({!Mig_flows.canonical_script})
    and runs it on the generic {!Flow} engine, so
    [migsyn flow --script "cycle(40){eliminate; reshape; eliminate}; eliminate"]
    reproduces [area] exactly, and user scripts can recombine the same
    registered passes with cost-guarded acceptance ([accept_if]).

    Every optimizer is functional: it copies its input (via
    {!Mig.cleanup}-style compaction between cycles) and returns a new,
    logically equivalent MIG.  [effort] is the cycle count of the outer
    loop; the paper uses 40.  All algorithms stop early when a full cycle
    leaves the graph unchanged.

    When observability is on ({!Obs.set_enabled}), every algorithm records a
    span per cycle (category ["mig.opt"]), one per pass application
    (["mig.opt/pass/<pass>"]) and a ["mig.opt/<name>/trajectory"] series
    with one [(cycle, size, depth, r_imp, s_imp, r_maj, s_maj)] sample for
    the initial graph and after each cycle's cleanup; the per-rule hit/miss
    counters live in {!Mig_passes} (["mig.rule/*"]). *)

val default_effort : int
(** 40, the paper's setting. *)

val area : ?effort:int -> Mig.t -> Mig.t
(** Alg. 1 — conventional area optimization:
    per cycle \[eliminate; reshape; eliminate\], final eliminate. *)

val depth : ?effort:int -> Mig.t -> Mig.t
(** Alg. 2 — conventional depth optimization:
    per cycle \[push-up; Ψ.R; push-up\], final push-up. *)

val rram_costs : ?effort:int -> Rram_cost.realization -> Mig.t -> Mig.t
(** Alg. 3 — multi-objective optimization of the (RRAM count, step count)
    pair: per cycle \[push-up; Ω.I(1–3) with weighted-gain acceptance;
    push-up; balance\], final push-up.  The realization fixes the constants
    of the cost model used in the acceptance test. *)

val steps : ?effort:int -> Mig.t -> Mig.t
(** Alg. 4 — step-count optimization:
    per cycle \[push-up; Ω.I case (1); Ω.I(1–3); push-up\], final push-up. *)

val boolean : ?effort:int -> Mig.t -> Mig.t
(** Extension (not in the paper): Alg. 1 followed by NPN-cached cut-based
    Boolean rewriting ({!Mig_cut_rewrite}) and a final eliminate. *)

type algorithm =
  | Area
  | Depth
  | Rram_costs of Rram_cost.realization
  | Steps
  | Boolean  (** extension: area + cut-based Boolean rewriting *)

val algorithms : algorithm list
(** Every algorithm, in Table II order. *)

val run : ?effort:int -> algorithm -> Mig.t -> Mig.t
(** Run the algorithm's canonical script under the span name
    [algorithm_name alg]. *)

val algorithm_name : algorithm -> string
(** The algorithm's canonical name: {!Mig_flows.canonical_names}, element
    for element of {!algorithms}. *)
