(** Sequential circuits: a combinational core plus a register file.

    The ISCAS-89 benchmarks the paper evaluates are sequential; the paper
    (after [17]) works on their {e combinational profiles} — the core with
    every flip-flop cut into a pseudo primary input (the Q pin) and a pseudo
    primary output (the D pin).  This module makes that cut explicit and
    reversible: a [Seq.t] wraps a combinational {!Network.t} whose inputs
    are [real PIs @ register outputs] and whose outputs are
    [real POs @ register inputs], together with the initial state.

    {!simulate} gives the cycle-accurate reference semantics. *)

type t

val create : Network.t -> num_pis:int -> num_pos:int -> init:bool array -> t
(** The network must have [num_pis + Array.length init] inputs (reals first)
    and [num_pos + Array.length init] outputs (reals first). *)

val combinational : t -> Network.t
(** The combinational profile — what the paper's flow optimizes. *)

val num_pis : t -> int
val num_pos : t -> int
val num_regs : t -> int
val initial_state : t -> bool array

val step : t -> bool array -> bool array -> bool array * bool array
(** [step t state inputs] = (outputs, next_state). *)

val simulate : t -> bool array list -> bool array list
(** Run from the initial state over an input stream; one output vector per
    cycle. *)

val pp_stats : Format.formatter -> t -> unit
