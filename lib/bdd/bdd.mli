(** Reduced Ordered Binary Decision Diagrams.

    A from-scratch ROBDD package used as the substrate of the BDD-based
    RRAM-synthesis baseline [11] (Chakraborti et al., IDT 2014).  Nodes are
    hash-consed through a unique table, so two equal functions are
    represented by the same node index — BDD equality is pointer equality.
    Binary operations are memoized in a computed table.

    Variables are identified by their level in a fixed order chosen at
    manager creation (use {!Bdd_order} to pick a good order before
    building). *)

type t
(** Manager: unique table, computed table, variable count. *)

type node = int
(** 0 and 1 are the terminals. *)

exception Limit_exceeded
(** Raised by node creation when the manager's [max_nodes] cap is hit. *)

val create : ?max_nodes:int -> int -> t
(** [create num_vars].  [max_nodes] (default 2_000_000) bounds the unique
    table so that an order-hostile function fails fast instead of
    exhausting memory. *)

val num_vars : t -> int

val bfalse : node
val btrue : node

val var : t -> int -> node
(** The projection of variable [i]. *)

val nvar : t -> int -> node
(** Complemented projection. *)

val ite : t -> node -> node -> node -> node
(** If-then-else — the universal ternary operator. *)

val bnot : t -> node -> node
val band : t -> node -> node -> node
val bor : t -> node -> node -> node
val bxor : t -> node -> node -> node
val maj3 : t -> node -> node -> node -> node

val level : t -> node -> int
(** Variable level of a non-terminal node. *)

val low : t -> node -> node
val high : t -> node -> node
val is_terminal : node -> bool

val eval : t -> node -> bool array -> bool
(** Evaluate under an assignment indexed by variable level. *)

val count_nodes : t -> node list -> int
(** Distinct non-terminal nodes reachable from the given roots (shared nodes
    counted once) — the "R"-driving size metric of the baseline. *)

val nodes_per_level : t -> node list -> int array
(** Reachable non-terminal node counts, indexed by variable level. *)

val fold_reachable : t -> node list -> init:'a -> (node -> 'a -> 'a) -> 'a
(** Fold over reachable non-terminal nodes in topological order (children
    before parents). *)

val truth_table : t -> node -> Logic.Truth_table.t
(** Tabulate (≤ {!Logic.Truth_table.max_vars} variables). *)

val of_truth_table : t -> Logic.Truth_table.t -> node

val size : t -> int
(** Total allocated nodes in the manager. *)
