(** The one dispatcher over the five netlist formats — BLIF, ISCAS
    [.bench], PLA, ASCII ([aag]) and binary ([aig]) AIGER.  Every entry
    point that reads a circuit (the CLI, the daemon, the examples) goes
    through it and words its own errors: [None] means the format is not
    one of the five, and a reader's parse error surfaces as the single
    {!Parse_error}, whichever reader raised it. *)

exception Parse_error of int * string
(** [(line, message)] of the reader that rejected the input. *)

val expected : string
(** [".blif, .bench, .pla, .aag or .aig"], for error messages. *)

val parse_string : format:string -> string -> Logic.Network.t option
(** [format] is ["blif"], ["bench"], ["pla"], ["aag"] or ["aig"]. *)

val parse_file : string -> Logic.Network.t option
(** The reader is picked by the file extension.
    @raise Sys_error when the file cannot be read. *)
