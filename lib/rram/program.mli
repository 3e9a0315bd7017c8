(** RRAM programs: a step sequence plus output map, with a register
    allocator that models level-by-level RRAM reuse.

    [num_regs] is the size of the crossbar the program needs — the peak of
    concurrently-live devices, i.e. the {e measured} "R".  The compilers also
    report the paper's {e analytic} R (Table I formula); the measured value
    can be larger because results crossing several levels must be kept alive,
    which the analytic model ignores (see DESIGN.md §2). *)

type t = {
  num_inputs : int;
  num_regs : int;
  steps : Isa.step list;
  outputs : Isa.operand array;
      (** post-inversion: reading an output never needs an extra NOT *)
}

val num_steps : t -> int

val validate : ?row_of:int array -> t -> (unit, string) result
(** Structural checks: register bounds, one write per register per step, no
    micro-op reading an input line that does not exist.  With [~row_of]
    (register → row, e.g. {!Placement.t.row_of}) additionally enforces the
    crossbar pulse discipline: a gate pulse ([Imp] or [Maj_pulse]) drives
    the row nanowire of its destination, so no step may fire two gate
    pulses on one row.  Serial programs generally fail this stricter
    check — it is meant for {!Compile_crossbar} output. *)

val pp : Format.formatter -> t -> unit
(** Full listing (one line per step). *)

(** Register allocator with free-list reuse; [peak] is the crossbar size. *)
module Alloc : sig
  type a

  val create : unit -> a
  val get : a -> Isa.reg
  val free : a -> Isa.reg -> unit
  val peak : a -> int
end

(** Incremental program builder. *)
module Builder : sig
  type b

  val create : num_inputs:int -> b
  val alloc : b -> Isa.reg
  val free : b -> Isa.reg -> unit
  val push_step : b -> Isa.step -> unit
  (** Empty steps are dropped. *)

  val finish : b -> outputs:Isa.operand array -> t
end
