(** And-Inverter Graphs.

    The substrate of the AIG-based RRAM-synthesis baseline [12] (Bürger et
    al., Reed-Muller 2013): two-input AND nodes with complemented edges,
    structurally hashed.  An AIG is a view of a {!Core.Mig.t} whose every
    gate is the majority M(0, a, b) = a·b, so node ids, signals (the same
    [2*node + complement] encoding, node 0 constant false) and structural
    hashing are the MIG store's, and simulation, levels and equivalence
    run on {!to_mig}.  The type is abstract so that every gate stays an
    AND: [Io.Aiger]'s writers and [Rram.Compile_aig] read the two
    operands only. *)

type t
type signal = int

val const0 : signal
val const1 : signal
val not_ : signal -> signal
val node_of : signal -> int
val is_compl : signal -> bool

val create : ?capacity:int -> unit -> t
(** [capacity] is {!Core.Mig.create}'s sizing hint: it changes no result. *)

val add_pi : t -> signal
val and_ : t -> signal -> signal -> signal
(** Structural hashing plus the standard one-level simplifications
    ([a·a = a], [a·¬a = 0], constants).  A pair that does not simplify
    becomes [Core.Mig.maj t a b const0], which numbers a new gate with
    the next node id. *)

val or_ : t -> signal -> signal -> signal
val xor_ : t -> signal -> signal -> signal
val mux : t -> signal -> signal -> signal -> signal
val maj3 : t -> signal -> signal -> signal -> signal
val add_po : t -> signal -> int

val of_network : Logic.Network.t -> t
(** {!Core.Mig_of_network.convert_with} these AND-based constructors
    ([maj3] for [Maj]): balanced n-ary folds, SOP tables as an OR of AND
    cubes.  The store is sized by the network's node count. *)

type kind = Const | Pi of int | And

val kind : t -> int -> kind
val fanins : t -> int -> signal * signal
val num_pis : t -> int
val num_pos : t -> int
val pi : t -> int -> signal
val pos : t -> signal array

val size : t -> int
(** AND nodes reachable from the outputs, by a traversal.  An AIG never
    substitutes, so this is its live AND count. *)

val to_mig : t -> Core.Mig.t
(** The underlying MIG, for simulation ({!Core.Mig_sim}), levels
    ({!Core.Mig_levels}), equivalence checking and traversals.  Read-only
    by contract: a rewrite of it can break the AND-only invariant. *)

val pp_stats : Format.formatter -> t -> unit
(** [pis=… pos=… ands=… depth=…]; the depth comes from
    {!Core.Mig_levels.compute_scratch}, so no analysis is attached. *)
