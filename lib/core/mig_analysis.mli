(** Incrementally maintained graph analysis for MIGs.

    Attaches to a {!Mig.t} through the mutation-event interface and keeps the
    quantities every optimization loop asks for — node levels, depth, gates
    and complemented edges per level, the reachable gate count, and the
    Table I cost pairs — up to date as the graph is rewritten, instead of
    recomputing them from a fresh topological traversal at every query.

    Reachability is tracked by reference counting: a gate is {e counted}
    (contributes to the statistics) iff it is referenced by a primary output
    or by a counted gate, which in a DAG coincides with reachability from the
    outputs.  Speculative gates built and abandoned by rewrite rules stay
    uncounted and cost nothing.

    Levels are repaired lazily: mutations push affected nodes onto a dirty
    worklist whose processing is deferred to the next query, and a
    from-scratch rebuild takes over when the dirty frontier grows past a
    threshold (see DESIGN.md §10).

    All query functions flush pending work first, so results always reflect
    the current graph.  Use {!of_mig} to attach (or fetch the already
    attached analysis); attaching installs the graph's event listener. *)

type t

val of_mig : Mig.t -> t
(** The analysis attached to this graph, creating and attaching one (full
    initial computation) on first use.  Subsequent calls are O(1). *)

val size : t -> int
(** Number of live gates reachable from the outputs — equals {!Mig.size}
    in O(1). *)

val depth : t -> int
(** Maximum level over the primary outputs.  O(num_pos) after the flush. *)

val level : t -> int -> int
(** Current level of a node: 0 for inputs and constants, 1 + max fanin level
    for gates.  Valid for any live node, including speculative gates a
    rewrite rule just built (their level is assigned on creation). *)

val is_counted : t -> int -> bool
(** Whether the node is a live gate reachable from the outputs. *)

val gates_at_level : t -> int -> int
(** Number of counted gates at a level (N_i of Table I). *)

val compl_at_level : t -> int -> int
(** Number of complemented non-constant fanin edges of counted gates at a
    level (C_i of Table I), excluding the virtual readout stage. *)

val po_compl : t -> int
(** Complemented non-constant primary outputs — the virtual readout stage at
    depth + 1. *)

val table1 : t -> rrams_per_gate:int -> steps_per_level:int -> int * int
(** [(R, S)] of the paper's Table I for a realization with [K_R] RRAMs per
    gate and [K_S] steps per level: [R = max_i (K_R * N_i + C_i)] over
    levels 0 .. depth+1 (with the readout stage at depth+1) and
    [S = K_S * depth + #{i | C_i > 0}].  O(depth) after the flush;
    {!Rram_cost.of_mig} supplies the constants. *)

val levels_with_compl : t -> int
(** Number of levels, including the readout stage, with at least one
    complemented edge — the L term of Table I. *)

val check : t -> unit
(** Validate every maintained quantity against a from-scratch recomputation;
    raises [Failure] on any mismatch.  For tests. *)
