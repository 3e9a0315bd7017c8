(** A map from int triples to non-negative ints, in flat arrays.

    The structural-hash tables of the graph store ([Core.Mig], which
    [Aig_lib.Aig] views) and of the MIG [strash] pass key on fanin
    triples and map them to node ids.  This table keeps keys and values in plain [int
    array]s and probes linearly from the triple's hash, so a lookup
    allocates nothing and compares ints only.  Removal leaves a tombstone
    (which a later insertion may reuse); the arrays are rebuilt, twice as
    large or at the same size when tombstones dominate, once live entries
    and tombstones reach half the slots.

    It is a pure map: there is no iteration, so no caller can depend on
    the order of the slots. *)

type t

val create : int -> t
(** [create n] is an empty table that holds [n] entries without being
    rebuilt. *)

val find : t -> int -> int -> int -> int
(** [find t a b c] is the value bound to [(a, b, c)], or [-1]. *)

val replace : t -> int -> int -> int -> int -> unit
(** [replace t a b c v] binds [(a, b, c)] to [v], replacing any previous
    binding.  Raises [Invalid_argument] when [v] is negative. *)

val remove : t -> int -> int -> int -> unit
(** Drop the binding of [(a, b, c)], if any. *)

val length : t -> int
(** Number of bindings. *)
