(** Flat, unboxed lane storage for the bit-parallel simulators.

    {!Network.simulate}, [Core.Mig_sim.simulate] and [Aig_lib.Aig.simulate]
    share this kernel.  A store holds one slot of 64-bit words per graph
    node in a single [Bytes.t], read and written with
    [Bytes.get/set_int64_ne], so evaluating a gate allocates nothing.  The
    input width is swept in blocks of 8 words (512 lanes, one 64-byte
    cache line per slot): each block is one topological walk of the graph
    over the block's words of every slot.

    Operands are {e literals} [2·slot + complement], the encoding MIG and
    AIG signals already use; a network node [id] is the literal [2·id].
    Lanes past the width in the last word hold don't-care bits: every
    operation is lane-wise, and {!store} masks them off. *)

type t

val input_width : string -> Bitvec.t array -> int
(** [input_width who ins] is the common width of [ins], or 1 when there
    are none.  Raises [Invalid_argument (who ^ ": input width")] when two
    inputs differ in width. *)

val create : slots:int -> width:int -> t
(** A zeroed store of [slots] slots for patterns of [width] bits.  A slot
    is one block of words, or the whole width when it is narrower.
    Allocate one per simulation call; a store is not safe to share
    between domains. *)

val iter_blocks : t -> (unit -> unit) -> unit
(** [iter_blocks t f] makes each block of the width current in turn and
    calls [f] once per block.  Slots keep their words between blocks. *)

(** {1 Operations on the current block} *)

val fill : t -> int -> bool -> unit
(** [fill t slot b] sets every lane of [slot] to [b]. *)

val load : t -> int -> Bitvec.t -> unit
(** [load t slot bv] copies the block's words of [bv] into [slot]. *)

val store : t -> int -> Bitvec.t -> unit
(** [store t lit bv] writes literal [lit] into the block's words of [bv]. *)

val copy : t -> int -> int -> unit
(** [copy t slot a]: [slot := a].  [copy t s (2*s+1)] complements [s]. *)

val and_ : t -> int -> int -> unit
val or_ : t -> int -> int -> unit
val xor_ : t -> int -> int -> unit
(** [and_ t slot a]: [slot := slot ∧ a], and likewise. *)

val maj : t -> int -> int -> int -> int -> unit
(** [maj t slot a b c]: [slot := ⟨a b c⟩]. *)

val mux : t -> int -> int -> int -> int -> unit
(** [mux t slot s a b]: [slot := s ? a : b]. *)
