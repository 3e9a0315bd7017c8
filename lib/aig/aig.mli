(** And-Inverter Graphs.

    The substrate of the AIG-based RRAM-synthesis baseline [12] (Bürger et
    al., Reed-Muller 2013): two-input AND nodes with complemented edges,
    structurally hashed.  Signals follow the same encoding as {!Core.Mig}:
    [2*node + complement], node 0 is constant false. *)

type t
type signal = int

val const0 : signal
val const1 : signal
val not_ : signal -> signal
val node_of : signal -> int
val is_compl : signal -> bool
val signal_of : int -> bool -> signal

val create : unit -> t
val add_pi : t -> signal
val and_ : t -> signal -> signal -> signal
(** Structural hashing plus the standard one-level simplifications
    ([a·a = a], [a·¬a = 0], constants). *)

val or_ : t -> signal -> signal -> signal
val xor_ : t -> signal -> signal -> signal
val mux : t -> signal -> signal -> signal -> signal
val maj3 : t -> signal -> signal -> signal -> signal
val add_po : t -> signal -> int

type kind = Const | Pi of int | And

val kind : t -> int -> kind
val fanins : t -> int -> signal * signal
val num_pis : t -> int
val num_pos : t -> int
val pi : t -> int -> signal
val po : t -> int -> signal
val pos : t -> signal array

val topo_order : t -> int list
(** Live AND nodes reachable from the outputs, fanins first.  Maintained
    incrementally (the graph is append-only, so the reachable region only
    grows at {!add_po}); each call materializes the list in O(size) with an
    iterative, stack-safe traversal underneath. *)

val size : t -> int
(** Live AND-node count, O(1). *)

val levels : t -> int array * int
(** Per-node levels and the depth over outputs. *)

val simulate : t -> Logic.Bitvec.t array -> Logic.Bitvec.t array
(** One pattern set per primary input, one per output, on the
    {!Logic.Word_store} kernel.  All inputs must have the same width;
    otherwise raises [Invalid_argument "Aig.simulate: input width"]. *)

val eval : t -> bool array -> bool array
val truth_tables : t -> Logic.Truth_table.t array

val pp_stats : Format.formatter -> t -> unit
