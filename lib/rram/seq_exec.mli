(** Cycle-accurate execution of sequential circuits on the crossbar.

    The combinational core of a {!Logic.Seq.t} is compiled once (through the
    MIG flow); each clock tick then runs the compiled program with the
    current primary inputs and the state vector, reads back the outputs and
    the next state, and latches the state for the following tick — an
    in-memory finite-state machine.  The per-cycle latency is exactly the
    program's step count, so the MIG step optimization directly sets the
    machine's clock period. *)

type t

val compile :
  ?algorithm:Core.Mig_opt.algorithm ->
  ?effort:int ->
  ?arch:Arch.t ->
  Core.Rram_cost.realization ->
  Logic.Seq.t ->
  t
(** Optimize (default: Alg. 4) and compile the combinational core.
    [arch] (default unbounded serial) compiles the per-cycle program for a
    concrete crossbar geometry — see {!Compile_mig.compile}; the per-cycle
    latency then reflects the row-constrained wave schedule. *)

val steps_per_cycle : t -> int
val rrams : t -> int
val program : t -> Program.t

val run :
  ?defects:(Isa.reg * Device.defect) list ->
  t ->
  bool array list ->
  bool array list
(** One output vector per input vector, starting from the initial state.
    The whole stream runs on one persistent crossbar with the [defects]
    pinned; device wear accumulates across cycles. *)

val verify : t -> Logic.Seq.t -> ?cycles:int -> ?seed:int -> unit -> (unit, string) result
(** Compare against {!Logic.Seq.simulate} on a random input stream. *)
