(** Functional simulation of MIGs.

    Evaluates a MIG on bit-vector patterns (64 test vectors per word) or
    exhaustively as truth tables.  This is the reference semantics every
    rewrite and every compiled RRAM program is checked against. *)

val simulate : Mig.t -> Logic.Bitvec.t array -> Logic.Bitvec.t array
(** One pattern set per primary input (equal widths); one per output. *)

val eval : Mig.t -> bool array -> bool array
(** Single input vector. *)

val eval_all : Mig.t -> bool array list -> bool array list
(** [eval_all mig vectors] is [List.map (eval mig) vectors], computed in one
    bit-parallel {!simulate} pass over all the vectors. *)

val truth_tables : Mig.t -> Logic.Truth_table.t array
(** Exact output functions; requires [num_pis ≤ Truth_table.max_vars]. *)
