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
    complemented edge costs one RRAM and contributes to the step count).

    The store is a struct of arrays indexed by node id: one kind array, the
    fanin triples in one flat [int] array (three slots per node), their
    fanout back-pointers in a second flat array, the fanout counts, a dead
    flag per node, and one fanout array per node.  There is no per-node
    record, so {!cleanup} sizes a fresh store once and the hot readers use
    the non-allocating {!fanin}. *)

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

val create : ?capacity:int -> unit -> t
(** An empty graph (only the constant node) with room for [capacity]
    nodes, 64 by default, before its arrays first grow.  The capacity is a
    sizing hint: it changes no result. *)

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
(** Allocated node ids, including dead ones (an upper bound on ids). *)

val num_gates : t -> int
(** O(1) maintained count of live majority gates, including gates no longer
    reachable from the outputs (e.g. speculative nodes a rewrite rule built
    and abandoned).  Use {!size} for the reachable count. *)

val size : t -> int
(** Number of majority gates reachable from the outputs, computed by the
    {!iter_topo} traversal.  It counts a dead gate that is still reachable:
    until the open {!substitute} defect is mended, a user that collapses
    inside a nested cascade can be left on a killed gate, which
    {!foreach_gate} then skips, so the two counts can differ.  On a graph
    no substitution touched (every [Aig_lib.Aig] view) every reachable gate
    is live.  Where no dead gate is reachable, {!Mig_analysis.size}
    maintains the same number in O(1). *)

val pi : t -> int -> signal
val po : t -> int -> signal
val set_po : t -> int -> signal -> unit
val pos : t -> signal array
val fanin : t -> int -> int -> signal
(** [fanin t g i] is fanin [i] (0, 1 or 2) of gate [g]; the triple is sorted
    ascending.  Reads the store without allocating.  Meaningless when [g] is
    a constant or an input.  A dead gate keeps the triple it had when it was
    killed. *)

val fanins : t -> int -> signal array
(** The three fanin signals of a gate (sorted ascending) as a fresh array,
    which later rewrites of the graph do not change; [[||]] for constants
    and inputs.  Allocates: loops over many gates use {!fanin}. *)

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

val uses : t -> int -> int
(** [fanout_size t n + po_refs t n]: every gate and output that reads the
    node.  O(1). *)

val is_gate : t -> int -> bool
(** Whether node [n] is a majority gate (live or dead): [kind t n = Gate]
    without building or comparing a [kind]. *)

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

val cleanup : ?size:int -> t -> t
(** Compacted copy containing only nodes reachable from the outputs, in
    topological order.  Primary inputs and outputs keep their indices.
    [size], when given, must be {!size} of the graph: the copy is sized
    from it instead of counting again. *)

val fingerprint : t -> string
(** An exact, compact encoding (varints) of the node store: every node's
    kind and fanin triple in id order, and the outputs.  Two graphs built
    by {!cleanup} are indistinguishable — same ids, fanout orders and
    strash table — iff their fingerprints are equal, so the string can key
    a table of visited states.  Compare the strings, never only a hash. *)

val topo_order : t -> int list
(** Gate nodes reachable from the outputs, fanins before fanouts: the
    {!iter_topo} order, dead gates included (see {!size}). *)

val iter_topo : t -> (int -> unit) -> unit
(** Call [f] on every gate reachable from the outputs, fanins before
    fanouts — the same order as {!topo_order} without materializing the
    list.  A reachable dead gate is visited too (see {!size}).  Iterative,
    with its visited set and stack allocated per call (stack-safe on deep
    graphs; concurrent read-only traversals of one graph share no state);
    the callback must not rewrite the graph (use {!foreach_gate} for
    that). *)

val iter_topo_rev : t -> (int -> unit) -> unit
(** {!iter_topo} exploring each gate's fanins from slot 2 down to slot 0:
    the order in which {!cleanup} copies gates, and the order in which a
    recursive rebuild [f (rebuild x) (rebuild y)] creates them (OCaml
    evaluates the arguments right to left).  A pass that rebuilds a graph
    gate by gate walks it to keep that node numbering. *)

val foreach_gate : t -> (int -> unit) -> unit
(** Iterate {!topo_order} (snapshot taken before the first call, so the
    callback may rewrite the graph), skipping the gates that are dead when
    their turn comes. *)

val foreach_gate_n : t -> (int -> unit) -> int
(** {!foreach_gate}, returning the length of its snapshot: {!size} as it
    was when the call began. *)

(** {1 Mutation events}

    A single listener slot (one load-and-branch when absent) lets an analysis
    layer such as {!Mig_analysis} track the graph incrementally.  Events fire
    after the graph is consistent: [Gate_added] once the node is strashed and
    wired, [Gate_killed] with the dead node's fanin triple still readable,
    [Refanin] with a fresh copy of the superseded fanin triple (built only
    while a listener is installed), [Po_redirected]/[Po_added] after the
    output array is updated. *)

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

val check_store : t -> (unit, string) result
(** The node store's own bookkeeping, for tests: every node's live-user
    count matches its fanout array, and every fanin of a live gate has a
    back-pointer naming the gate's slot in that fanin's fanout array.  The
    error lists every violation. *)

val pp_stats : Format.formatter -> t -> unit
