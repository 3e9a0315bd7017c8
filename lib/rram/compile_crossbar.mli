(** Crossbar-constrained MIG compilation: map a MIG onto a fixed
    rows × columns RRAM array, packing independent same-level gates into
    parallel pulse waves across rows.

    {2 Execution model}

    A gate pulse ({!Isa.Imp} or {!Isa.Maj_pulse}) drives the horizontal
    nanowire of its destination device, so {e at most one gate pulse may
    fire per row per step} ({!Program.validate} with [~row_of] checks
    this).  [Load] and [Reset] are column-driver writes and carry no row
    constraint.  Consequences per realization:

    - {b IMP}: every operand device of a gate is an IMP source of its
      pulses and must share the gate's row; complement inversions of one
      gate therefore also sit on its row, and the complement phase of a
      wave rotates over the (at most three) operand positions — one
      row-disjoint sub-step per position in use — where the serial model
      charges a single step.  A complemented fanin from another row is
      staged with an extra copy device so the inversion IMP stays
      row-local.
    - {b MAJ}: pulses read their operands through the top electrodes, so
      inversion devices spread across rows and the complement phase stays
      one parallel step whenever the wave's inversions fit distinct rows.

    {2 Scheduling}

    Levels run in order; a level with more gates than rows spills across
    [ceil(width / rows)] sequential waves, each wave claiming one row per
    gate (lowest-index first-fit — the schedule is deterministic).  Sites
    freed by liveness become reusable at the next wave boundary, never
    inside the wave that freed them.  Between boundaries a row that
    cannot host a request keeps failing, so each kind of request resumes
    its first-fit scan where the previous one stopped: scheduling costs
    O(gates + rows) per wave, and memory grows with the rows the schedule
    opens, not with the geometry's row count.  Readout-inversion devices for
    complemented outputs are reserved on distinct rows (for IMP, on the
    producing gate's row) with their FALSE presets riding along with load
    steps, so the final inversion is a single row-disjoint batch on a
    fitted array.

    On a {!fit}-sized array the MAJ backend reproduces the serial step
    count exactly; the IMP backend adds one sub-step per extra complement
    position in use — a cost the unbounded-serial model understates. *)

exception Too_small of string
(** The geometry cannot host the circuit.  {!compile} turns it into an
    [Error]; {!fit} with an explicit row budget lets it escape. *)

type t = {
  program : Program.t;
  placement : Placement.t;  (** the row/column assignment actually used *)
  serial : Core.Rram_cost.cost;  (** Table I analytic (unbounded serial) *)
  analytic : Core.Rram_cost.triple;
      (** {!Core.Rram_cost.triple_of_levels} wave model for this geometry *)
  measured : Core.Rram_cost.triple;  (** from the compiled program *)
  waves : int;  (** total pulse waves scheduled *)
}

val compile :
  ?schedule:Core.Mig_levels.t ->
  arch:Core.Rram_cost.arch ->
  Core.Rram_cost.realization ->
  Core.Mig.t ->
  (t, string) result
(** [Error] when the geometry cannot host the circuit (some gate's working
    set is wider than a row, or live values exhaust every row) — and when
    [arch] is [Unbounded_serial], which belongs to {!Compile_mig}. *)

val fit :
  ?schedule:Core.Mig_levels.t ->
  ?rows:int ->
  Core.Rram_cost.realization ->
  Core.Mig.t ->
  Core.Rram_cost.arch
(** The smallest geometry on which the scheduler runs without spilling:
    rows = widest level (for MAJ also the complement and readout demand),
    columns = widest row the unbounded-column schedule actually used.
    Compiling at the fitted geometry reproduces that schedule exactly.

    [rows] overrides the row count (clamped to ≥ 1): the scheduler then
    spills wide levels across extra waves and the returned geometry has
    the minimal column count for that row budget — the knob behind the
    latency/geometry Pareto sweep in [Exp.Crossbar].
    @raise Too_small when [rows] is below the circuit's hard floor (a
    readout demand or gate working set that cannot be rearranged). *)
