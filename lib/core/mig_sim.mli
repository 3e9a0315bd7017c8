(** Functional simulation of MIGs.

    Evaluates a MIG on bit-vector patterns (64 test vectors per word) or
    exhaustively as truth tables.  This is the reference semantics every
    rewrite and every compiled RRAM program is checked against. *)

val simulate : Mig.t -> Logic.Bitvec.t array -> Logic.Bitvec.t array
(** One pattern set per primary input; one per output, of the inputs'
    width (1 when there are no inputs).

    Every input must have the same width: unequal widths raise
    [Invalid_argument "Mig_sim.simulate: input width"], and a wrong input
    count raises [Invalid_argument "Mig_sim.simulate: input count"].
    Each call runs on one {!Logic.Word_store} allocated for it and walks
    the gates once per 512 lanes, so one wide call costs far less than
    many narrow ones.

    A partial application [simulate mig] computes [mig]'s topological
    order and the gates' fanin signals on its first call and reuses them
    on every later call.  The closure therefore fixes the graph's
    topology at that first call: after adding nodes or rewiring fanins,
    apply [simulate] to the graph again.  It holds no scratch state, so
    domains may share it. *)

val eval : Mig.t -> bool array -> bool array
(** Single input vector. *)

val eval_all : Mig.t -> bool array list -> bool array list
(** [eval_all mig vectors] is [List.map (eval mig) vectors], computed in one
    bit-parallel {!simulate} pass over all the vectors. *)

val truth_tables : Mig.t -> Logic.Truth_table.t array
(** Exact output functions; requires [num_pis ≤ Truth_table.max_vars]. *)
