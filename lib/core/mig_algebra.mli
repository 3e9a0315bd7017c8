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

val compl_count : Mig.signal -> Mig.signal -> Mig.signal -> int
(** [compl_count f0 f1 f2]: how many of a gate's fanins [f0 f1 f2] are
    complemented and not the constant node. *)

val try_compl_prop : ?min_compl:int -> Mig.t -> int -> bool
(** Ω.I right-to-left, the extension of §III-C.3: when the gate has at least
    [min_compl] (default 2) complemented non-constant fanins, replace
    [M(a,b,c)] by [¬M(¬a,¬b,¬c)], i.e. flip all fanin polarities and
    complement every fanout/output edge.  Case (1) of the paper is
    [compl_count = 3], cases (2)/(3) are [compl_count = 2]. *)

val try_relevance : ?max_cone:int -> Mig.t -> Mig_analysis.t -> int -> bool
(** Ψ.R: [M(x,y,z) → M(x,y, z\[x ↦ ¬y\])]: rebuild the (bounded) cone of [z]
    substituting the reconvergent signal [x] with [¬y].  Applied when [x]
    occurs in the cone and the rebuilt cone's level does not increase.
    The cone and rebuild tables are arrays made when
    [try_relevance ?max_cone mig an] is applied and reused by every call
    of the resulting closure, so a sweep applies it once. *)

(** {1 Kernels for sweeps}

    The [try_*] rules above read the root's level, its fanin triple and
    the fanins' levels, then run one of these kernels.  A sweep that has
    already read those values passes them in: [root] is the level of gate
    [g], [f0 f1 f2] its fanin triple and [l0 l1 l2] the fanins' levels.
    The values must be current, i.e. read after the last
    {!Mig.substitute}; a kernel re-reads every use count it tests, since a
    declined attempt can leave speculative gates that use the fanins.
    Positions are tried in the order [(f0,f1,f2)], [(f1,f0,f2)],
    [(f2,f0,f1)], and the first rewrite that succeeds wins. *)

val eligible : Mig.t -> bool -> int -> Mig.signal -> bool
(** [eligible mig through_compl limit p]: fanin [p] may play a rule's
    inner gate — a gate, reached through a positive edge unless
    [through_compl], with at most [limit] uses. *)

val distributivity_lr_at :
  Mig.t -> Mig_analysis.t -> bool -> int -> int -> int ->
  Mig.signal -> Mig.signal -> Mig.signal -> int -> int -> int -> bool
(** [distributivity_lr_at mig an through_compl limit g root f0 f1 f2 l0 l1
    l2] is {!try_distributivity_lr}. *)

val associativity_at :
  Mig.t -> Mig_analysis.t -> bool -> bool -> int -> int -> int ->
  Mig.signal -> Mig.signal -> Mig.signal -> int -> int -> int -> bool
(** [associativity_at mig an strict through_compl limit g root f0 f1 f2 l0
    l1 l2] is {!try_associativity}. *)

val compl_assoc_at :
  Mig.t -> Mig_analysis.t -> bool -> bool -> int -> int -> int ->
  Mig.signal -> Mig.signal -> Mig.signal -> int -> int -> int -> bool
(** [compl_assoc_at mig an require_gain through_compl limit g root f0 f1 f2
    l0 l1 l2] is {!try_compl_assoc}. *)

val compl_prop_at : Mig.t -> int -> Mig.signal -> Mig.signal -> Mig.signal -> bool
(** [compl_prop_at mig g f0 f1 f2]: {!try_compl_prop}'s flip of gate [g]
    with fanin triple [f0 f1 f2], whatever its complement count. *)
