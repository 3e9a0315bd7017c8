(** Interpreter: executes an RRAM program on a crossbar of {!Device}s.

    Steps have parallel semantics — every micro-operation in a step reads the
    pre-step device states; this matches the hardware, where all pulses of a
    step are applied in the same clock.  A trace callback can observe every
    executed step (used by the [crossbar_trace] example and the differential
    diagnosis of {!Resilient}).

    {2 Trace-callback contract}

    For both {!run} and {!run_on}, [trace idx step states] is invoked once
    per program step, in program order, {e after} every write of the step
    has landed:

    - [idx] is the 1-based step index ([1 .. Program.num_steps]);
    - [step] is the executed step, physically equal to the program's;
    - [states] holds the {e true} post-step state of every device of the
      crossbar ([Array.length states = Array.length devices], which can
      exceed [num_regs] on an oversized crossbar).  States are read with
      {!Device.observe}: they bypass read noise and misreads, and reflect
      stuck-at/wear effects exactly.  This noiseless contract is what the
      differential replay of {!Resilient.run} relies on — comparing
      observed traces of an ideal and a faulty crossbar must expose the
      first diverging {e write}, not a read artifact.

    [test/test_rram.ml] (group [interp-trace]) pins this ordering and these
    values.

    When observability is enabled ({!Obs.set_enabled}), every run records
    pulse counters (["rram.interp/pulses.*"]), a micro-ops-per-step
    parallelism histogram, a writes-per-device histogram, wear gauges and a
    ["rram.interp/run"] span.  The counters count {e vectors}: the
    bit-sliced {!run_lanes}, which {!Verify} uses, records one vector per
    lane, so they read the same whichever executor ran the vectors.

    The crossbar is ideal by default; [defects] pins individual cells stuck
    at 0 or 1 before execution.  Statistical device physics comes from
    {!Variation}, which builds its arrays with {!crossbar}. *)

val crossbar :
  ?physics:Device.physics array ->
  ?defects:(Isa.reg * Device.defect) list ->
  int ->
  Device.t array
(** [crossbar n] allocates [n] fresh devices with the given non-idealities
    applied.  Defect entries outside [0, n) are ignored (they name physical
    cells the program does not use).  [physics] gives each device its
    sampled statistical physics ({!Variation.sample}); it must cover at
    least [n] cells. *)

val run_on :
  devices:Device.t array ->
  ?trace:(int -> Isa.step -> bool array -> unit) ->
  Program.t ->
  bool array ->
  bool array
(** Execute on an existing crossbar, preserving its devices' wear and
    defects across runs — {!Variation.env} uses this so wear, and with it
    endurance drift, accumulates across the controller's retries. *)

val run :
  ?defects:(Isa.reg * Device.defect) list ->
  ?trace:(int -> Isa.step -> bool array -> unit) ->
  Program.t ->
  bool array ->
  bool array
(** [run program inputs] returns one boolean per program output, on a fresh
    ideal crossbar with the [defects] pinned.  The trace callback follows
    the contract above (1-based step index, executed step, noiseless
    post-step {!Device.observe} states). *)

val run_lanes : Program.t -> lanes:int -> int array -> int array
(** Bit-sliced execution on a fresh ideal crossbar: [run_lanes program
    ~lanes inputs] runs [lanes] input vectors ([1 ≤ lanes ≤ Sys.int_size])
    at once.  Bit [j] of [inputs.(i)] is input [i] of vector [j]; bit [j] of
    output word [o] is what {!run} returns for output [o] on vector [j].
    Bits at or above [lanes] of the result are zero; those of [inputs] are
    ignored.  Every register is one machine word, so a micro-operation costs
    two or three bitwise operations for all lanes together.

    Partially applied to a program, it flattens the step list into arrays
    once and returns the kernel; each call allocates its own registers, so
    one kernel may run on several domains.  The step semantics are exactly
    {!run_on}'s, also on programs {!Program.validate} would reject: all
    source operands of a step are latched before any write, the writes land
    in micro-operation order, and an [Imp] or [Maj_pulse] reads its
    destination's state as its own write lands (so a second write to one
    register in a step sees the first).
    @raise Invalid_argument when a register or input line is out of range
    (on partial application), or on a bad [lanes] or input count.

    {b Telemetry.}  When observability is enabled, one call records what
    [lanes] calls of {!run} would: every ["rram.interp/*"] counter counts
    {e vectors} (so ["runs"] grows by [lanes]), and the step-width and
    writes-per-device histograms see each value [lanes] times.  It emits
    one ["rram.interp/run"] span per call, with a ["lanes"] argument.  It
    sets no wear gauge: wear belongs to the physical arrays of {!run_on}. *)
