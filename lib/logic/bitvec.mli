(** Fixed-width bit vectors backed by [int64] words.

    Used as parallel simulation patterns (64 test vectors per word) and as
    the storage of truth tables.  All binary operations require operands of
    equal width; bits beyond [width] are kept zero as an invariant. *)

type t

val create : int -> t
(** [create width] is the all-zero vector of [width] bits. *)

val width : t -> int
(** Number of bits. *)

val copy : t -> t

val get : t -> int -> bool
val set : t -> int -> bool -> unit

val fill : t -> bool -> unit
(** Set every bit to the given value. *)

val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t
val bnot : t -> t

val maj3 : t -> t -> t -> t
(** Bitwise 3-input majority. *)

val mux : t -> t -> t -> t
(** [mux s a b] selects bitwise [a] where [s] is 1 and [b] where [s] is 0. *)

val equal : t -> t -> bool
val is_zero : t -> bool
val popcount : t -> int

val randomize : Prng.t -> t -> unit
(** Fill with pseudo-random bits from the generator. *)

val word : t -> int -> int64
(** [word t i] is the i-th backing word (for fast custom kernels). *)

val set_word : t -> int -> int64 -> unit
(** Set the i-th backing word; bits beyond [width] are masked off. *)

val num_words : t -> int

val to_string : t -> string
(** Bit [width-1] first, bit 0 last (conventional binary notation). *)

val of_string : string -> t
(** Inverse of {!to_string}; accepts only ['0'] and ['1']. *)

val pp : Format.formatter -> t -> unit
