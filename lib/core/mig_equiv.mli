(** Equivalence checking between MIGs (and against networks).

    Exact (exhaustive truth tables) for ≤ {!exact_limit} inputs; above that,
    seeded random-vector simulation with a configurable number of 64-bit
    rounds.  Random checking can of course only refute; the test-suite uses
    the exact mode wherever sizes allow.

    {b The random vectors.}  With [n] inputs, round [r] (from 0) gives
    each input one 64-bit word: input [i]'s word is draw [r·n + i] of
    [Prng.create seed], so the draws are round-major.  Lane [j] of round
    [r] is the vector whose input [i] is bit [j] of that input's word.
    Round 0 carries the two corners: its lane 0 is the all-zero vector and
    its lane 1 the all-one vector.  All rounds are packed into one
    [64·rounds]-bit pattern per input and simulated in a single call per
    graph.  [rounds] defaults to 64 and [seed] to [0xE0A]; a negative
    [rounds] raises [Invalid_argument]. *)

val exact_limit : int
(** 14 inputs (16 K minterms per output). *)

val equivalent : ?rounds:int -> ?seed:int -> Mig.t -> Mig.t -> bool
(** Same number of inputs and outputs and (exactly, or with high confidence)
    the same functions. *)

val equivalent_network : ?rounds:int -> ?seed:int -> Mig.t -> Logic.Network.t -> bool
(** Check a MIG against the network it was derived from. *)

val counterexample : ?rounds:int -> ?seed:int -> Mig.t -> Mig.t -> bool array option
(** A distinguishing input vector, if one is found among the random
    vectors (used whatever the input count).  The search takes rounds in
    order, then outputs in order, then the lowest differing lane: the
    vector is the first difference a round-by-round check would meet.
    [Some [||]] when the input or output counts differ. *)
