(** The Programmable Logic-in-Memory (PLiM) computer of Gaillardon et al.
    (DATE 2016) — reference [15] of the paper, and the architecture whose
    native instruction is exactly the intrinsic majority the MAJ-based
    realization exploits.

    The machine is a memory of RRAM cells executing a single instruction,
    {e RM3}: given operands [p], [q] (memory cells or the constant rails)
    and a destination cell [z],

    {v z ← M(p, ¬q, z) v}

    Everything is built from RM3: [z ← 0] is [RM3(0, 1, z)], copy is
    [RM3(v, 0, 0-cell)], negation is [RM3(1, v, 0-cell)], and a majority
    gate [M(x,y,z)] is [RM3(x, ¬y, z-cell)].

    The compiler maps a MIG to a sequential RM3 stream, choosing the operand
    roles so complemented fanins land in the [q] slot (where the built-in
    negation makes them free) and destroying single-use operand cells in
    place.  The instruction count is the PLiM latency metric, directly
    comparable with the step counts of the level-parallel realizations —
    the [bench] ablation section contrasts them. *)

type operand = Imm of bool | Cell of int

type instr = { p : operand; q : operand; z : int }

type program = {
  cells : int;  (** memory size *)
  num_inputs : int;
  input_cells : int array;  (** where the host loads the inputs *)
  instrs : instr list;
  outputs : operand array;
}

type compiled = {
  program : program;
  instructions : int;
  cells_used : int;
  rm3_per_gate : float;
}

val compile : Core.Mig.t -> compiled

val run :
  ?defects:(int * Device.defect) list ->
  program ->
  bool array ->
  bool array
(** Execute the RM3 stream.  Ideal by default (a plain boolean memory, all
    cells 0); with [defects] every memory cell is a {!Device} and each RM3
    lands as one {!Device.maj_pulse}, so the stuck cells apply. *)

val verify : program -> Core.Mig.t -> (unit, string) result

val pp_instr : Format.formatter -> instr -> unit
val pp_program : Format.formatter -> program -> unit
