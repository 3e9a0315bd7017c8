(** The MIG Boolean algebra: the Ω and Ψ transformations as local rewrites.

    Each [try_*] function attempts one rewrite rooted at a given gate and
    returns [true] when it changed the graph.  Commutativity (Ω.C) is
    implicit in the sorted-fanin normal form of {!Mig}; the majority rule
    (Ω.M) is applied eagerly on node creation and during substitution.

    Depth-aware rules take the graph's incrementally maintained
    {!Mig_analysis} and query {!Mig_analysis.level}: levels are repaired
    after every substitution through the mutation-event interface, so they
    always see current levels at amortized O(1) per query. *)

val try_distributivity_rl : Mig.t -> int -> bool
(** Ω.D right-to-left: [M(M(x,y,u), M(x,y,v), r) → M(x, y, M(u,v,r))].
    Applied only when both shared-pair fanins are positive single-fanout
    gates, so the rewrite cannot increase the node count. *)

val try_distributivity_lr :
  ?through_compl:bool -> ?fanout_limit:int -> Mig.t -> Mig_analysis.t -> int -> bool
(** Ω.D left-to-right: [M(x, y, M(u,v,z)) → M(M(x,y,u), M(x,y,v), z)].
    Applied only when it strictly reduces the root's level (pushes the
    critical signal [z] one level up).  [fanout_limit] bounds how shared the
    inner gate may be: rewriting through a gate with [k] other users
    duplicates it for them, so the area-conscious multi-objective algorithm
    passes a small limit while pure depth/step optimization passes none. *)

val try_associativity :
  ?strict:bool ->
  ?through_compl:bool ->
  ?fanout_limit:int ->
  Mig.t ->
  Mig_analysis.t ->
  int ->
  bool
(** Ω.A: [M(x, u, M(y,u,z)) → M(z, u, M(y,u,x))] when it strictly reduces
    the root's level; with [strict:false], level-preserving swaps are also
    accepted (used by the reshape phase of area optimization). *)

val try_compl_assoc :
  ?require_gain:bool ->
  ?through_compl:bool ->
  ?fanout_limit:int ->
  Mig.t ->
  Mig_analysis.t ->
  int ->
  bool
(** Ψ.C: [M(x, u, M(y,¬u,z)) → M(x, u, M(y,x,z))].  Removes one complemented
    edge; with [require_gain] (default) the root's level must not increase. *)

(** The [through_compl] flag on the three rules above controls whether they
    may look through complemented gate edges (by Ω.I, [¬M(u,v,z)] exposes
    the flipped triple).  The conventional Algs. 1–2 run with
    [through_compl:false]; the complement-aware Algs. 3–4 with [true]. *)

val compl_fanins : Mig.t -> int -> int
(** Number of complemented fanins whose source is not the constant node. *)

val try_compl_prop : ?min_compl:int -> Mig.t -> int -> bool
(** Ω.I right-to-left, the extension of §III-C.3: when the gate has at least
    [min_compl] (default 2) complemented non-constant fanins, replace
    [M(a,b,c)] by [¬M(¬a,¬b,¬c)], i.e. flip all fanin polarities and
    complement every fanout/output edge.  Case (1) of the paper is
    [compl_fanins = 3], cases (2)/(3) are [compl_fanins = 2]. *)

val try_relevance : ?max_cone:int -> Mig.t -> Mig_analysis.t -> int -> bool
(** Ψ.R: [M(x,y,z) → M(x,y, z\[x ↦ ¬y\])]: rebuild the (bounded) cone of [z]
    substituting the reconvergent signal [x] with [¬y].  Applied when [x]
    occurs in the cone and the rebuilt cone's level does not increase. *)
