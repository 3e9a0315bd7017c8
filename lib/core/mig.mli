(** Majority-Inverter Graphs (MIGs).

    A MIG is a DAG whose internal nodes are 3-input majority gates and whose
    edges may carry complement attributes (Amarù et al., DAC 2014).  This
    module provides the node store: structural hashing, fanout tracking, node
    substitution with cascading re-normalization, and mark-and-compact
    cleanup.  The Ω/Ψ rewrite rules live in {!Mig_algebra}; whole-graph
    passes in {!Mig_passes}.

    Signals are integers [2*node + complement]; the node with index 0 is the
    constant-false node, so [const0 = 0] and [const1 = 1].  Structural
    hashing keys on the *sorted fanin triple with polarities*: no polarity
    canonicalization is performed, because the placement of complement
    attributes is itself an optimization dimension for RRAM mapping (each
    complemented edge costs one RRAM and contributes to the step count). *)

type t

type signal = int

(** {1 Signals} *)

val const0 : signal
val const1 : signal
val not_ : signal -> signal
val node_of : signal -> int
val is_compl : signal -> bool
val signal_of : int -> bool -> signal
(** [signal_of node compl]. *)

(** {1 Construction} *)

val create : unit -> t

val add_pi : t -> signal
(** Append a primary input; returns its (positive) signal. *)

val maj : t -> signal -> signal -> signal -> signal
(** Structural-hashed majority node creation.  Applies the Ω.M simplification
    rules [M(x,x,z) = x] and [M(x,¬x,z) = z] eagerly, so the returned signal
    may not be a fresh node. *)

val and_ : t -> signal -> signal -> signal
(** [M(a, b, 0)]. *)

val or_ : t -> signal -> signal -> signal
(** [M(a, b, 1)]. *)

val xor_ : t -> signal -> signal -> signal
(** Three majority nodes. *)

val mux : t -> signal -> signal -> signal -> signal
(** [mux s a b] = if [s] then [a] else [b]; three majority nodes. *)

val add_po : t -> signal -> int
(** Append a primary output; returns its index. *)

(** {1 Inspection} *)

type kind = Const | Pi of int | Gate

val kind : t -> int -> kind
val num_pis : t -> int
val num_pos : t -> int
val num_nodes : t -> int
(** Allocated node records, including dead ones (an upper bound on ids). *)

val num_gates : t -> int
(** O(1) maintained count of live majority gates, including gates no longer
    reachable from the outputs (e.g. speculative nodes a rewrite rule built
    and abandoned).  Use {!size} for the reachable count. *)

val size : t -> int
(** Number of live majority gates reachable from the outputs.  Computed by a
    traversal; {!Mig_analysis.size} maintains the same number in O(1). *)

val pi : t -> int -> signal
val po : t -> int -> signal
val set_po : t -> int -> signal -> unit
val pos : t -> signal array
val fanins : t -> int -> signal array
(** The three fanin signals of a gate (sorted ascending); [[||]] for
    constants and inputs. *)

val fanout : t -> int -> int list
(** Live gate nodes that use this node as a fanin, newest first. *)

val fanout_size : t -> int -> int
(** Number of live users — O(1), maintained alongside the fanout array. *)

val fanout_iter : t -> int -> (int -> unit) -> unit
(** Iterate the live users of a node, oldest first, without allocating.  The
    callback must not rewrite the graph. *)

val po_refs : t -> int -> int
(** How many primary outputs are driven (possibly complemented) by the
    node.  O(1): maintained alongside the output array. *)

val is_dead : t -> int -> bool

val lookup : t -> signal -> signal -> signal -> signal option
(** Structural-hash lookup without creating: the signal an equivalent
    majority node would return, if one already exists or the triple
    simplifies. *)

(** {1 Rewriting support} *)

val substitute : t -> int -> signal -> unit
(** [substitute t n s] replaces node [n] by signal [s] everywhere (fanouts
    and outputs), cascading the re-normalization of affected fanout nodes
    (majority-rule simplification and strash merging).  [s]'s cone must not
    contain [n]. *)

val cleanup : t -> t
(** Compacted copy containing only nodes reachable from the outputs, in
    topological order.  Primary inputs and outputs keep their indices. *)

val fingerprint : t -> string
(** An exact, compact encoding (varints) of the node store: every node's
    kind and fanin triple in id order, and the outputs.  Two graphs built
    by {!cleanup} are indistinguishable — same ids, fanout orders and
    strash table — iff their fingerprints are equal, so the string can key
    a table of visited states.  Compare the strings, never only a hash. *)

val topo_order : t -> int list
(** Live gate nodes reachable from the outputs, fanins before fanouts. *)

val iter_topo : t -> (int -> unit) -> unit
(** Call [f] on every live gate reachable from the outputs, fanins before
    fanouts — the same order as {!topo_order} without materializing the
    list.  Iterative over a reusable scratch (stack-safe on deep graphs);
    the callback must not rewrite the graph (use {!foreach_gate} for that). *)

val foreach_gate : t -> (int -> unit) -> unit
(** Iterate {!topo_order} (snapshot taken before the first call, so the
    callback may rewrite the graph). *)

(** {1 Mutation events}

    A single listener slot (one load-and-branch when absent) lets an analysis
    layer such as {!Mig_analysis} track the graph incrementally.  Events fire
    after the graph is consistent: [Gate_added] once the node is strashed and
    wired, [Gate_killed] with the dead node's fanin array still readable,
    [Refanin] with the superseded fanin array (ownership passes to the
    listener), [Po_redirected]/[Po_added] after the output array is
    updated. *)

type event =
  | Gate_added of int
  | Gate_killed of int
  | Refanin of { node : int; old_fanins : signal array }
  | Po_added of int  (** output index *)
  | Po_redirected of { index : int; old_po : signal }

val on_event : t -> (event -> unit) option -> unit
(** Install (or clear) the mutation listener.  Last install wins. *)

(** Extension slot for an attached analysis, so higher layers can cache state
    on the graph without this module depending on them. *)
type attachment = ..

val attachment : t -> attachment option
val set_attachment : t -> attachment option -> unit

val pp_stats : Format.formatter -> t -> unit
