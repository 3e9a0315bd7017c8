(** Functional simulation of MIGs.

    Evaluates a MIG on bit-vector patterns (64 test vectors per word) or
    exhaustively as truth tables.  This is the reference semantics every
    rewrite and every compiled RRAM program is checked against. *)

val simulate : Mig.t -> Logic.Bitvec.t array -> Logic.Bitvec.t array
(** One pattern set per primary input (equal widths); one per output.

    A partial application [simulate mig] computes [mig]'s topological
    order on its first call and reuses it on every later call, so many
    rounds over one graph pay for the order once.  The closure therefore
    fixes the graph's topology at that first call: after adding nodes or
    rewiring fanins, apply [simulate] to the graph again. *)

val eval : Mig.t -> bool array -> bool array
(** Single input vector. *)

val eval_all : Mig.t -> bool array list -> bool array list
(** [eval_all mig vectors] is [List.map (eval mig) vectors], computed in one
    bit-parallel {!simulate} pass over all the vectors. *)

val truth_tables : Mig.t -> Logic.Truth_table.t array
(** Exact output functions; requires [num_pis ≤ Truth_table.max_vars]. *)
