(** BLIF (Berkeley Logic Interchange Format) reader and writer.

    Supports the combinational subset used by the LGsynth91 distribution:
    [.model], [.inputs], [.outputs], [.names] with SOP covers (both on-set
    and off-set covers, i.e. output column [1] or [0]), line continuations
    with [\ ], comments with [#], and [.end].  Latches are rejected with a
    clear error — the paper evaluates combinational profiles. *)

exception Parse_error of int * string
(** line number (0 for an undefined signal), message *)

val parse_string : string -> Logic.Network.t
val parse_file : string -> Logic.Network.t

val parse_sequential_string : string -> Logic.Seq.t
(** Accepts [.latch input output \[type ctrl\] \[init\]] lines (init 0/1;
    2/3 default to 0) and returns the registers explicitly.  The plain
    [parse_string] keeps rejecting latches so purely combinational flows
    fail loudly on sequential files. *)

val parse_sequential_file : string -> Logic.Seq.t

val write_string : ?model_name:string -> Logic.Network.t -> string
val write_file : ?model_name:string -> string -> Logic.Network.t -> unit
