(** The front end the [.bench] and BLIF readers share.

    {b Scanner.}  A line is a slice [\[a, b)] of a string: the whole text
    when parsing a string, one [input_line] when streaming a channel.  The
    helpers below find bounds, trim and compare by index, so scanning a
    line creates no substring.  {!intern} copies each distinct name once,
    the first time it sees it, into one byte buffer of all names; a string
    is made only when {!name} asks for one.

    {b Resolver.}  A definition binds a target name to its operand names.
    {!resolve} builds the network nodes a name depends on with an explicit
    int stack, leftmost operand first, so node numbering follows the
    recursive definition order and deep netlists cannot overflow the
    stack.

    Every rejection raises {!Error}; each reader re-raises it as its own
    [Parse_error]. *)

exception Error of int * string
(** [(line, message)]. *)

val fail : int -> string -> 'a
(** [fail line message] raises {!Error}. *)

(** Growable int vectors. *)
module Ints : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val push : t -> int -> unit
  val pop : t -> int
  val length : t -> int
  val get : t -> int -> int
end

(** {1 Lines} *)

val iter_string_lines : string -> (int -> string -> int -> int -> unit) -> unit
(** [iter_string_lines text f] calls [f line s a b] for every line of
    [text] (numbered from 1), [\[a, b)] its bounds in [s = text] without
    the ['\n'].  A text of [k] newlines has [k + 1] lines. *)

val iter_channel_lines : in_channel -> (int -> string -> int -> int -> unit) -> unit
(** The same, one [input_line] at a time: the channel is never read
    whole. *)

(** {1 Slices} *)

val skip_space : string -> int -> int -> int
(** First index in [\[a, b)] that is not [String.trim] whitespace, or
    [b]. *)

val trim_end : string -> int -> int -> int
(** The end of [\[a, b)] with trailing whitespace dropped. *)

val index : string -> int -> int -> char -> int
(** First index of the character in [\[a, b)], or [-1]. *)

val rindex : string -> int -> int -> char -> int
(** Last index of the character in [\[a, b)], or [-1]. *)

val has_prefix_ci : string -> int -> int -> string -> bool
(** Does [\[a, b)] start with the upper-case keyword, ignoring ASCII
    case? *)

val equal_ci : string -> int -> int -> string -> bool
(** Is [\[a, b)] the upper-case keyword, ignoring ASCII case? *)

val equal : string -> int -> int -> string -> bool
(** Is [\[a, b)] exactly the string? *)

(** {1 Names} *)

type names

val names : unit -> names
val intern : names -> string -> int -> int -> int
(** The dense id of the name [\[a, b)], numbered from 0 in order of first
    sight. *)

val name : names -> int -> string
(** A fresh copy of the name. *)

(** {1 Definitions and resolution} *)

type defs
(** Target, line and operand ids of each definition, numbered from 0 in
    the order they were added. *)

val defs : unit -> defs

val add_def : defs -> target:int -> line:int -> Ints.t -> int
(** Add a definition whose operands are the ids in the vector (copied)
    and return its number. *)

val line : defs -> int -> int
val arity : defs -> int -> int

type resolver

val resolver : names -> defs -> resolver
(** Start resolution once scanning is over: no name is bound yet, and a
    target defined more than once resolves to its last definition. *)

val bind : resolver -> int -> int -> unit
(** [bind r name node] makes [name] a leaf already in the network (a
    primary input); its definitions, if any, are never built. *)

val resolve : resolver -> emit:(int -> int) -> int -> int
(** The node of a name, building what it needs first: every unbound
    operand of a definition is resolved before [emit d] builds definition
    [d] and returns its node.  Fails at line 0 on an undefined signal and
    at the definition's line on a combinational cycle. *)

val fanins : resolver -> int -> int array
(** The nodes of definition [d]'s operands, as a fresh array, once
    [emit d] is called. *)

val add_input : Logic.Network.t -> line:int -> string -> int
(** [Network.add_input], failing at [line] on a name already declared. *)
