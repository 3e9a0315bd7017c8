(** Functional model of a single bipolar RRAM device, ideal or non-ideal.

    The state is the internal resistance: [true] = low resistance = logic 1,
    [false] = high resistance = logic 0.  The three operations below are the
    three voltage configurations of the paper:

    - {!clear}: V_CLEAR resets to 0 (the FALSE operation);
    - {!imp_pulse}: V_COND on device P and V_SET on device Q execute material
      implication, [q' = ¬p ∨ q] (Fig. 1, after Borghetti et al.);
    - {!maj_pulse}: driving the two terminals with the voltage levels encoded
      by logic values P and Q switches the device to
      [R' = P·R + ¬Q·R + P·¬Q = M(P, ¬Q, R)] (Fig. 2) — the intrinsic
      resistive-majority operation.

    Devices created with {!create} are ideal: every pulse lands and reads
    are noiseless.  Devices created with {!create_phys} carry sampled
    statistical {!physics} ({!Variation} draws them): reads sense a
    current against a reference, with noise and wear-driven drift.  Either
    kind can be pinned by a stuck-at {!defect}; every successful switching
    event advances the {!wear} gauge. *)

type defect = Stuck_0 | Stuck_1
(** A cell permanently pinned in the high- (0) or low- (1) resistance
    state — from manufacturing, or from wear-out at runtime. *)

type physics = {
  r_lrs : float;  (** sampled low-resistance-state resistance, Ω *)
  r_hrs : float;  (** sampled high-resistance-state resistance, Ω *)
  v_read : float;  (** read voltage, V *)
  i_ref : float;  (** sense-amplifier current reference, A *)
  read_noise : float;  (** relative sigma of the sensed current *)
  drift : float;  (** window closure per switching event (endurance drift) *)
  rng : Logic.Prng.t;  (** device-local stream for read-noise draws *)
}
(** Statistical device physics ({!Variation} samples these per device): the
    cell's {e sampled} LRS/HRS resistances, the sensing configuration, and
    the endurance-drift law.  A device carrying physics senses reads as a
    current comparison — the stored state's read current, degraded by drift
    in proportion to the accumulated {!wear} and jittered by Gaussian
    thermal noise, against [i_ref] — so its read-failure probability is
    Φ(-margin) of the sampled resistance window, not a flat coin flip. *)

type t

val create : unit -> t
(** A fresh ideal device in the 0 (high-resistance) state. *)

val create_phys : physics -> t
(** A fresh device with sampled statistical physics, in the 0 state. *)

val physics : t -> physics option

val margin : t -> float option
(** Worst-case sense margin of the two states at the current wear, in
    thermal-noise sigmas ([None] for devices without physics).  Negative
    once drift or an unlucky resistance draw pushes a state's read current
    across the reference — such a cell misreads more often than not. *)

val set_defect : t -> defect -> unit
(** Pin the cell: its state snaps to the defect value and every subsequent
    pulse is ignored.  Works on ideal devices too (used for fault
    injection). *)

val defect : t -> defect option
val wear : t -> int
(** Number of successful switching events so far. *)

val read : t -> bool
(** Sensed value: the stored state on an ideal device, a noisy current
    comparison on a device with {!physics}. *)

val observe : t -> bool
(** The true stored state, bypassing read noise.  For traces, debugging and
    differential diagnosis — not something the hardware controller has. *)

val clear : t -> unit
val set : t -> unit
val write : t -> bool -> unit
(** Data loading: V_SET or V_CLEAR depending on the value. *)

val imp_pulse : p:t -> q:t -> unit
(** [q ← p IMP q].  [p] is unchanged. *)

val imp_apply : p:bool -> t -> unit
(** [q ← p IMP q] with the source value already latched — the interpreter's
    parallel-step semantics, avoiding a scratch device per pulse. *)

val maj_pulse : t -> p:bool -> q:bool -> unit
(** [r ← M(p, ¬q, r)]. *)
