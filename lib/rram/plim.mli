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

    RM3 is [Isa.Maj_pulse], so a PLiM program is an ordinary
    {!Program.t}: it runs on {!Interp} (with or without defects) and is
    checked by {!Verify} like every other compiled program.

    The compiler maps a MIG to a sequential RM3 stream, choosing the operand
    roles so complemented fanins land in the [q] slot (where the built-in
    negation makes them free) and destroying single-use operand cells in
    place.  The instruction count is the PLiM latency metric, directly
    comparable with the step counts of the level-parallel realizations —
    the [bench] ablation section contrasts them. *)

val compile : Core.Mig.t -> Program.t
(** One parallel step loads input [i] into cell [i] (omitted when the MIG
    has no inputs); every later step is one RM3 ([Maj_pulse]), mapping the
    constant rails to [Const] operands and cells to [Reg]s.  [num_regs] is
    the number of memory cells used. *)

val rm3_count : Program.t -> int
(** The number of RM3 instructions ([Maj_pulse] micro-operations). *)
