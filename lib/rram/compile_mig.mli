(** Level-by-level compilation of a MIG into an RRAM program (§III-B).

    For each MIG level, the compiler emits: one data-loading step (operand
    copies, FALSE presets), one complement step when the level has
    complemented ingoing edges (all inversions in parallel), and the gate
    steps of the chosen realization — 9 for IMP (steps 02–10 of §III-A.1,
    the load being step 01) or 2 for MAJ (§III-A.2).  Complemented primary
    outputs get a final readout-inversion step.  Thus the measured step
    count equals the Table I formula [S = K·D + L] exactly, which
    [test/test_rram.ml] asserts.

    The measured RRAM count (crossbar size) can exceed the analytic
    [R = max(K·N_i + C_i)] because results whose consumers sit several
    levels higher stay alive across levels, and complemented primary-input
    operands need a staging device; the paper's analytic model ignores
    both.  Both numbers are reported. *)

type result = {
  program : Program.t;
  analytic : Core.Rram_cost.cost;  (** Table I formula *)
  measured_rrams : int;
  measured_steps : int;
  placement : Placement.t option;
      (** the row/column assignment the crossbar backend used; [None] for
          the unbounded-serial target (use {!Placement.place} to derive a
          worst-case report) *)
  cost : Core.Rram_cost.triple;
      (** measured (devices, latency, utilization); under
          [Unbounded_serial] this mirrors [measured_rrams] /
          [measured_steps] with utilization 1 *)
}

val compile :
  ?schedule:Core.Mig_levels.t ->
  ?arch:Arch.t ->
  Core.Rram_cost.realization ->
  Core.Mig.t ->
  result
(** [schedule] overrides the default ASAP level assignment (see
    {!Core.Mig_schedule}); it must be dependency-valid.  [arch] (default
    [Unbounded_serial], which reproduces the historical programs
    bit-identically) selects the execution target; a [Crossbar] geometry
    routes through {!Compile_crossbar}.

    @raise Invalid_argument when a crossbar geometry cannot host the
    circuit, carrying {!Compile_crossbar.compile}'s error text unchanged
    (careful callers use that function directly for a [result]-typed
    error). *)
