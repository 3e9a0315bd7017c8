(** PLA (espresso) format reader and writer.

    Supports [.i], [.o], [.p], [.ilb], [.ob], [.type fd|fr|f] and cube lines
    [<input-plane> <output-plane>] with ['0' '1' '-'/'~'] input literals and
    ['1' '0' '-'] output literals.  With the default [fd] semantics a ['1']
    adds the cube to the output's on-set and ['0']/['-'] contribute nothing;
    with [fr] semantics ['0'] entries are checked for consistency against
    the on-set. *)

exception Parse_error of int * string
(** The offending line (0 for a missing [.i]/[.o]) and a message.
    Malformed input raises only this. *)

val parse_string : string -> Logic.Network.t
val parse_file : string -> Logic.Network.t

val write_string : Logic.Network.t -> string
(** Tabulates the network (inputs ≤ {!Logic.Truth_table.max_vars}) into a
    minimized two-level cover. *)

val write_file : string -> Logic.Network.t -> unit

val of_sops : ?input_names:string array -> ?output_names:string array -> Logic.Sop.t array -> Logic.Network.t
(** Wrap single-output covers sharing one input space into a network. *)
