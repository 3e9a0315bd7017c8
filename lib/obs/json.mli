(** Minimal JSON tree, printer and parser.

    The observability layer emits two machine-readable artifacts — a Chrome
    trace-event file and a flat metrics file — and the test suite must be
    able to load them back without external dependencies, so this module
    provides both directions.  The printer emits standard JSON (UTF-8
    strings with the mandatory escapes, no trailing commas); the parser
    accepts standard JSON and is used by the round-trip tests. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

exception Parse_error of string
(** Raised by {!of_string} with a position-annotated message. *)

val to_string : ?pretty:bool -> t -> string
(** Non-finite floats are emitted as [null] (JSON has no representation for
    them). *)

val to_buffer : ?pretty:bool -> Buffer.t -> t -> unit
(** {!to_string}'s text, appended to a buffer. *)

val of_string : string -> t
(** @raise Parse_error on malformed input. *)

val member : string -> t -> t
(** [member key json] is the value bound to [key] in an [Assoc], or [Null]
    when absent or when [json] is not an object. *)

val to_list : t -> t list
(** The elements of a [List], or [[]] for any other constructor. *)

val to_float : t -> float
(** Numeric value of [Int] or [Float]; 0.0 otherwise. *)
