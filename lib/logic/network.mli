(** Technology-independent combinational netlist.

    The common intermediate representation produced by every parser
    (BLIF, ISCAS-89 bench, PLA, AIGER) and consumed by the MIG, AIG and BDD
    builders.  Nodes are created in topological order: a gate's fanins must
    already exist.  Gates [And]/[Or]/[Xor] are n-ary (n ≥ 1); [Not]/[Buf]
    take one fanin; [Maj] and [Mux] take exactly three; [Table] evaluates a
    {!Sop.t} cover over its fanins. *)

type id = int

type kind =
  | Const of bool
  | Input of int  (** primary input, payload = input index *)
  | And
  | Or
  | Xor
  | Nand
  | Nor
  | Xnor
  | Not
  | Buf
  | Maj
  | Mux  (** fanins = [| sel; when_true; when_false |] *)
  | Table of Sop.t

type t

val create : unit -> t

val add_input : t -> string -> id
(** Declare a primary input with the given (unique) name. *)

val const : t -> bool -> id
val gate : t -> kind -> id array -> id
(** Add a gate.  Raises [Invalid_argument] on bad arity or dangling fanin. *)

val and2 : t -> id -> id -> id
val or2 : t -> id -> id -> id
val xor2 : t -> id -> id -> id
val not_ : t -> id -> id
val maj : t -> id -> id -> id -> id
val mux : t -> id -> id -> id -> id
(** Convenience builders. *)

val add_output : t -> string -> id -> unit
(** Declare a primary output driven by a node. *)

val num_nodes : t -> int
val num_inputs : t -> int
val num_outputs : t -> int
val num_gates : t -> int
(** Nodes that are neither inputs nor constants. *)

val kind : t -> id -> kind
val fanins : t -> id -> id array
val input_names : t -> string array
val outputs : t -> (string * id) list
val input_id : t -> int -> id
(** Node id of the i-th primary input. *)

val find_input : t -> string -> id option

val simulate : t -> Bitvec.t array -> Bitvec.t array
(** [simulate t ins] evaluates the network on one pattern set per input
    and returns one pattern set per output, in output declaration order,
    each of the inputs' width (1 when there are no inputs).

    Every input must have the same width: unequal widths raise
    [Invalid_argument "Network.simulate: input width"], and a wrong input
    count raises [Invalid_argument "Network.simulate: input count"].  The
    call runs on one {!Word_store} allocated for it, walking the nodes
    once per 512 lanes; the outputs are fresh vectors, never the inputs
    themselves. *)

val truth_tables : t -> Truth_table.t array
(** Exact output functions; only valid for ≤ {!Truth_table.max_vars}
    inputs. *)

val eval : t -> bool array -> bool array
(** Single-vector evaluation. *)

val extract_outputs : t -> int list -> t
(** [extract_outputs t which] copies the cones of the selected outputs
    (by output index) into a fresh network.  All primary inputs are kept,
    so input counts (and simulation vector shapes) are preserved. *)

val pp_stats : Format.formatter -> t -> unit
