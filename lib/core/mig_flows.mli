(** The MIG instantiation of the generic {!Flow} pass manager.

    This module is the single place where the paper's rewrite sweeps are
    named and registered: every whole-graph pass of {!Mig_passes} (plus the
    Boolean cut rewriter and a compaction step) becomes a [Flow.pass], the
    RRAM cost model becomes the table of [accept_if] guard costs, and
    Algs. 1–4 and the Boolean extension become canonical flow scripts.
    {!Mig_opt}'s entry points are thin wrappers that parse and run those
    scripts; [migsyn flow] exposes the same machinery for user-written
    pipelines. *)

val registry : Mig.t Flow.registry
(** All registered MIG passes, e.g. [eliminate], [reshape], [push_up],
    [push_up_nc], [push_up_f2], [psi_r], [omega_i], [omega_i3],
    [omega_i_w_imp], [omega_i_w_maj], [balance], [cleanup], [strash],
    [cut_rewrite]. *)

val ops : Mig.t Flow.ops
(** Cleanup/copy via {!Mig.cleanup}, orbit-exit keys via
    {!Mig.fingerprint}; the trajectory measure samples
    [(size, depth, r_imp, s_imp, r_maj, s_maj)] exactly as {!Mig_opt}
    always recorded. *)

val costs : (string * (Mig.t -> float)) list
(** [accept_if] guard costs: [size], [depth], [rrams_imp], [steps_imp],
    [rrams_maj], [steps_maj], the scalarized [weighted_imp] /
    [weighted_maj] of {!Rram_cost.weighted}, and the crossbar-aware
    [xbar_devices_imp], [xbar_devices_maj], [xbar_latency_imp],
    [xbar_latency_maj] and [xbar_weighted_maj]
    ({!Rram_cost.triple_of_levels} against the ambient {!set_arch}
    architecture), so flow scripts can optimize for a concrete array. *)

val set_arch : Rram_cost.arch -> unit
(** Set the architecture the [xbar_*] costs are evaluated against
    (default: a 64×64 crossbar).  The CLI calls this before optimizing,
    with [--arch] or the unbounded-serial target, as the daemon does
    with a request's [arch]; scripts themselves name costs, not
    geometries. *)

val parse : string -> (Mig.t Flow.t, Flow.Script.error) result
(** Parse a flow script against {!registry} and {!costs}. *)

val parse_exn : string -> Mig.t Flow.t
(** @raise Invalid_argument with the rendered error on a bad script. *)

val run : ?name:string -> Mig.t Flow.t -> Mig.t -> Mig.t
(** {!Flow.run} with span prefix ["mig.opt"], so scripted flows share the
    observability namespace of the paper's algorithms. *)

val canonical_script : ?effort:int -> string -> string option
(** The flow-script encoding of a named algorithm ([area], [depth],
    [rram-costs-imp], [rram-costs-maj], [steps], [bool-rewrite]) with the
    given cycle effort (default {!Flow.default_effort}); [None] for unknown
    names.  {!Mig_opt.run} executes exactly these scripts. *)

val canonical_names : string list
(** The algorithm names {!canonical_script} accepts, in Table II order. *)

(** {1 Portfolio runs}

    The MIG face of [Flow.portfolio]: race several flow {e scripts} over
    copies of one MIG — on separate domains when the pool has more than one
    worker — and keep the winner under a deterministic
    (lowest cost, then lowest script index) tie-break. *)

val default_cost : string
(** ["weighted_maj"] — the scalarized MAJ-realization (R, S) cost the
    portfolio race minimizes by default. *)

val portfolio :
  ?jobs:int ->
  ?cost:string ->
  (string * string) list ->
  Mig.t ->
  Mig.t * Flow.outcome list
(** [portfolio specs mig] parses each [(label, script)] spec, races the
    flows on independent copies of [mig], and returns the winning MIG plus
    one outcome per spec in spec order.  [cost] names an entry of {!costs}
    (default {!default_cost}); [jobs] defaults to [Par.recommended_jobs ()].
    The winner is identical for every [jobs] value.

    @raise Invalid_argument on a bad script or unknown cost name. *)

val default_portfolio : ?effort:int -> unit -> (string * string) list
(** The five paper algorithms as portfolio specs — the default entrant set
    of [migsyn flow --portfolio] and of the registered [portfolio] pass
    (which fixes the inner effort at 10). *)
