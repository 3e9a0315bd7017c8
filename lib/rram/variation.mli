(** Statistical device variability and stuck-at defects (extension).

    Real resistive devices fail {e statistically}: the programmed LRS/HRS
    resistances spread lognormally from device to device, the sense margin
    between the two read currents collapses when a draw lands near (or
    across) the sense reference, and endurance drift narrows the window
    further as switching events accumulate.  On top of that, a fraction of
    cells come out of manufacturing (or wear out) stuck in one resistance
    state.  This module samples both per device and wires them behind the
    existing {!Device} interface, so every interpreter, controller and
    protection scheme runs unchanged against a physically-grounded
    adversary.

    The model, per device [d] of an array (DESIGN.md §12):

    - LRS/HRS resistances are sampled {e once}, at array creation, from
      lognormal distributions with medians [r_lrs]/[r_hrs] and shapes
      [sigma_lrs]/[sigma_hrs];
    - a read senses the stored state's current [v_read/R] — degraded by
      drift, jittered by Gaussian noise of relative sigma [read_noise] —
      against the shared reference {!i_ref}, so the misread probability is
      Φ(-margin) of the {e sampled} window, not a flat coin flip;
    - each switching event advances the {!Device.wear} gauge, and the
      window closes linearly in wear: LRS drifts up and HRS down by factor
      [1 + drift·wear] (cycle-dependent endurance drift);
    - each cell is pinned stuck with probability [stuck_rate], at a
      uniformly drawn level ({!stuck}).

    All randomness descends from one campaign seed through
    {!Logic.Prng.split_seed}: the trial owns stream [split(master, trial)],
    device [d] of an [n]-cell array owns [split(trial_seed, d)], and the
    array's stuck-at draws own [split(trial_seed, n)].  No draw depends on
    evaluation order across devices, arms or domains — the determinism
    contract [Exp.Montecarlo] and [--jobs] rely on. *)

type params = {
  r_lrs : float;  (** median LRS resistance, Ω *)
  r_hrs : float;  (** median HRS resistance, Ω *)
  sigma_lrs : float;  (** lognormal shape of the LRS spread *)
  sigma_hrs : float;  (** lognormal shape of the HRS spread *)
  v_read : float;  (** read voltage, V *)
  read_noise : float;  (** relative sigma of the sensed current *)
  drift : float;  (** window closure per switching event *)
  stuck_rate : float;  (** probability that a cell is stuck, in [\[0, 1\]] *)
}

val nominal : params
(** A bipolar HfO2-class device: 2.5 kΩ / 16 kΩ medians, shapes
    0.18 / 0.45, 0.9 V reads, 5% sense noise, 0.2% drift per cycle, no
    stuck cells. *)

val ideal : params
(** {!nominal} with every non-ideality off: no spread, no sense noise, no
    drift, no stuck cells.  Every device of such an array reads and
    switches like an ideal {!Device.create} cell, so
    [{ ideal with stuck_rate = r }] is the pure stuck-at fault model. *)

val scaled : ?base:params -> float -> params
(** [scaled s] multiplies the two lognormal shapes of [base] (default
    {!nominal}) by [s] — the campaign's variability-σ axis.  [scaled 0.]
    is a perfectly uniform array; [scaled 1.] the nominal spread. *)

val validate : params -> (unit, string) result
(** Rejects non-positive resistances and voltages, an LRS median at or
    above the HRS median, negative sigmas / noise / drift, and a stuck-at
    rate outside [\[0, 1\]]. *)

val lognormal : Logic.Prng.t -> median:float -> sigma:float -> float
(** [median · exp(sigma · N(0,1))] — mean [median·exp(sigma²/2)]. *)

val i_ref : params -> float
(** The shared sense reference: the midpoint of the two nominal read
    currents. *)

val sample : params -> seed:int -> int -> Device.physics array
(** [sample params ~seed n] draws the physics of an [n]-cell array.  Equal
    [(params, seed, n)] yield identical draws; each cell's subsequent
    read-noise stream is split off [seed] by cell index, so two arrays
    sampled with the same seed replay the same silicon {e and} the same
    noise. *)

val stuck : params -> seed:int -> int -> (Isa.reg * Device.defect) list
(** [stuck params ~seed n] draws the stuck cells of an [n]-cell array:
    each cell independently with probability [stuck_rate], stuck at a
    uniform level; ascending by cell.  The draws come from stream
    [split(seed, n)], which no physics or read-noise draw of the array
    uses, and at rate 0 nothing is drawn — so the stuck-at layer never perturbs the
    rest of the sampled silicon. *)

val crossbar :
  ?defects:(Isa.reg * Device.defect) list -> params -> seed:int -> int -> Device.t array
(** A fresh crossbar over {!sample}d physics with the {!stuck} cells
    pinned, ready for {!Interp.run_on}; [defects] pins further cells
    (overriding a drawn level on the same cell). *)

val screen : ?passes:int -> Device.t array -> Isa.reg list
(** Built-in self-test: write each cell to both levels and sense them back,
    [passes] times (default 3), returning the cells that ever misread —
    ascending, every cell left cleared.  Uses only operations a real
    controller has ({!Device.write}, {!Device.read}); a wrong-side
    resistance draw is caught deterministically, a noise-marginal cell
    probabilistically.  Stored-state differential diagnosis
    ({!Resilient.diagnose}) cannot see read-path faults — the culprit's
    {e state} is correct — so campaigns screen before execution and remap
    proactively.  Costs [2·passes] switching events of wear per cell. *)

type env = {
  devices : Device.t array;  (** the persistent physical array *)
  env : Resilient.env;  (** executes on [devices], wear accumulating *)
  wear : unit -> int array;  (** current wear gauge of every cell *)
}

val env :
  ?defects:(Isa.reg * Device.defect) list -> params -> seed:int -> int -> env
(** One persistent [n]-cell array as the {!Resilient} controller sees it:
    executions share devices, so wear — and with it endurance drift —
    accumulates across the detect/remap/retry loop, and the [wear]
    snapshot is what a wear-aware {!Remap} policy steers by.  [n] bounds
    the registers any (remapped) program may use on this array. *)
