(** The RRAM cost model of Table I.

    For a MIG with per-level gate counts [N_i], complemented ingoing edge
    counts [C_i], depth [D] and [L] levels having complemented edges, the
    level-by-level mapping methodology of §III-B costs

    - RRAMs:  [R = max_i (K·N_i + C_i)] with [K = 6] (IMP) or [4] (MAJ);
    - steps:  [S = K·D + L]            with [K = 10] (IMP) or [3] (MAJ).

    These formulas are cross-checked against the actual resource usage and
    step count of the compiled programs in [lib/rram] (see
    [test/test_rram.ml]). *)

type realization = Imp | Maj

val rrams_per_gate : realization -> int
(** 6 for IMP, 4 for MAJ. *)

val steps_per_level : realization -> int
(** 10 for IMP, 3 for MAJ. *)

(** {1 Architecture model}

    The execution target the mapping pipeline compiles for.  The paper's
    implicit model — an unbounded device pool where every level executes
    in one batch of shared steps — is [Unbounded_serial], the default
    everywhere; [Crossbar] is a fixed rows × columns array where at most
    one gate pulse may fire per row per step, so a level wider than the
    row budget spills across several pulse waves (see DESIGN.md §15 and
    the backend in lib/rram for the scheduler that honors it). *)

type arch = Unbounded_serial | Crossbar of { rows : int; columns : int }

val validate_arch : arch -> (unit, string) result
(** Crossbar geometry must have at least one row and one column, and its
    device count [rows × columns] must fit in an [int]. *)

val parse_arch : string -> (arch, string) result
(** ["serial"] (or ["unbounded"]), or ["RxC"] with positive integers, e.g.
    ["32x64"].  The error message names the offending text. *)

val arch_to_string : arch -> string

type cost = { rrams : int; steps : int }

val of_levels : realization -> Mig_levels.t -> cost
val of_mig : realization -> Mig.t -> cost

(** {1 The crossbar cost triple} *)

type triple = {
  devices : int;  (** crossbar sites the mapping occupies *)
  latency : int;  (** parallel pulse steps to evaluate the circuit once *)
  utilization : float;  (** devices / (rows × columns) of the target *)
}

val triple_of_levels : arch:arch -> realization -> Mig_levels.t -> triple
(** Analytic model: each level runs in [ceil(N_i / rows)] waves of the
    realization's step count (plus a complement step per wave on levels
    with complemented edges); device demand is the Table I per-level
    formula capped at one wave of gates and at the array capacity.  Under
    [Unbounded_serial] this is exactly Table I ([devices = R],
    [latency = S], utilization 1).  The measured counterpart comes from
    the compiled program (the crossbar backend in lib/rram). *)

val triple_pareto_better : triple -> triple -> bool
(** Dominance on (devices, latency); utilization is derived, not a goal. *)

val weighted_triple : ?step_weight:float -> triple -> float
(** [devices + step_weight·latency], the crossbar analogue of
    {!weighted} (default weight 4.0). *)

val pp_triple : Format.formatter -> triple -> unit

val weighted : ?step_weight:float -> cost -> float
(** Scalarization used by the multi-objective optimizer to accept moves:
    [rrams + step_weight * steps]; the default weight (4.0) reflects the
    paper's position that steps are the dominant cost. *)

val pp : Format.formatter -> cost -> unit

val pp_realization : Format.formatter -> realization -> unit
