(** Cubes (product terms) over a fixed variable count.

    A cube assigns each variable one of three literals: positive, negative or
    don't-care.  This is the cube calculus used by PLA files and BLIF
    [.names] covers. *)

type literal = Pos | Neg | DC

type t

val create : int -> t
(** The universal cube (all don't-care) over [n] variables. *)

val num_vars : t -> int
val get : t -> int -> literal
val set : t -> int -> literal -> t
(** Functional update. *)

val of_string : string -> t
(** From PLA notation: ['1'] = positive, ['0'] = negative, ['-'] (or
    ['~'], ['2']) = DC.  Raises [Invalid_argument] on any other
    character. *)

val of_substring : string -> int -> int -> t
(** [of_substring s pos n]: {!of_string} of the [n] characters of [s]
    from [pos], without copying them out. *)

val to_string : t -> string

val eval : t -> bool array -> bool
(** Does the assignment satisfy the cube? *)

val contains : t -> t -> bool
(** [contains a b] iff every minterm of [b] is a minterm of [a]. *)

val intersects : t -> t -> bool
(** Do the two cubes share a minterm? *)

val literals : t -> (int * bool) list
(** Non-DC literals as [(var, positive?)] pairs, ascending by variable. *)

val num_literals : t -> int

val to_truth_table : t -> Truth_table.t

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
