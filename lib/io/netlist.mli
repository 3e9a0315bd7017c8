(** The one dispatcher over the five netlist formats — BLIF, ISCAS
    [.bench], PLA, ASCII ([aag]) and binary ([aig]) AIGER.  Every entry
    point that reads or writes a circuit (the CLI, the daemon, the
    examples) goes through it and words its own errors: [None] means the
    format is not one of the table's, and every reader raises the one
    {!Parse_error}.  A format is
    named by its file extension without the dot. *)

exception Parse_error of int * string
(** [(line, message)] of the reader that rejected the input.  It is
    {!Netlist_scan.Parse_error}, the exception every reader raises. *)

val formats : string list
(** The readable formats: [["blif"; "bench"; "pla"; "aag"; "aig"]]. *)

val expected : string
(** {!formats} as [".blif, .bench, .pla, .aag or .aig"], for error
    messages. *)

val output_formats : string list
(** The writable formats: {!formats} without [pla]. *)

val expected_output : string
(** {!output_formats} as [".blif, .bench, .aag or .aig"]. *)

val format_of_path : string -> string
(** The extension of [path] without its dot; [""] when it has none. *)

val parse_string : format:string -> string -> Logic.Network.t option
(** [format] is one of {!formats}. *)

val parse_file : string -> Logic.Network.t option
(** The reader is picked by {!format_of_path}.
    @raise Sys_error when the file cannot be read. *)

val write_string :
  ?model_name:string -> format:string -> Logic.Network.t -> string option
(** The network in [format], one of {!output_formats}; [model_name] names
    the BLIF model and is ignored by the other writers. *)
