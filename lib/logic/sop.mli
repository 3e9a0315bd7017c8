(** Sum-of-products covers (disjunctions of {!Cube.t}).

    The representation used by PLA files and BLIF [.names] tables, plus a few
    light optimizations (single-cube containment, merging of distance-1
    cubes) that keep parsed covers small before conversion to a graph. *)

type t

val create : int -> t
(** The empty (constant-false) cover over [n] variables. *)

val num_vars : t -> int
val cubes : t -> Cube.t list
val num_cubes : t -> int

val of_cubes : int -> Cube.t list -> t

val const : int -> bool -> t
(** Constant false (empty cover) or true (single universal cube). *)

val eval : t -> bool array -> bool

val to_truth_table : t -> Truth_table.t

val of_truth_table : Truth_table.t -> t
(** Exact cover by true minterms, then compacted with {!minimize}. *)

val minimize : t -> t
(** Cheap two-rule minimization: remove contained cubes and repeatedly merge
    pairs of cubes that differ in exactly one bound literal.  Sound (the
    function is unchanged) but not minimal. *)

val complement_naive : t -> t
(** De Morgan expansion; exponential in the worst case, only used for small
    covers (PLA [.type fr] handling and tests). *)

val num_literals : t -> int
val equal_semantics : t -> t -> bool
val pp : Format.formatter -> t -> unit
