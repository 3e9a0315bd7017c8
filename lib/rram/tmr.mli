(** Triple modular redundancy with resistive-majority voting (extension).

    An opt-in transform that triplicates a compiled program into three
    replicas on disjoint register ranges, runs them in lock-step (each step
    of the protected program is the parallel union of the replicas' steps,
    so the step count grows only by the voting tail), and votes each
    replicated output with the paper's own MAJ primitive — the voter is a
    single RRAM cell receiving one M(a, b, c) pulse sequence, not external
    CMOS logic.

    A single stuck cell lives in exactly one replica, so any single-cell
    defect (and most multi-cell ones, as long as no two replicas break the
    same output) is masked by the vote.  The cost is ~3× the devices and
    three extra steps; the ["tmr"] arm of [Exp.Montecarlo]'s campaigns
    (with a {!Variation.params} [stuck_rate]) quantifies what that buys at
    a given fault rate. *)

type t = {
  program : Program.t;  (** the protected program *)
  replicas : int;  (** always 3 *)
  voters : int;  (** number of voted outputs (shared outputs vote once) *)
}

val protect : Program.t -> t
(** Constant and primary-input outputs pass through unvoted — there is no
    computation to protect. *)

val overhead : Program.t -> t -> float * float
(** (device ratio, step ratio) of the protected program over the original. *)
