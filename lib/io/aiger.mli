(** AIGER readers and writers: ASCII ([aag]) and binary ([aig]).

    Combinational subset: header [aag/aig M I L O A] with [L = 0] (latches
    are rejected), input literal lines (implicit in the binary format),
    output literal lines, and AND definitions — ASCII [lhs rhs0 rhs1] lines,
    or two 7-bit variable-length deltas per AND in the binary format.
    Literals follow the AIGER convention: [2*var + negation], variable 0 is
    constant false.

    Both readers build bit-identical networks for the same circuit, and both
    writers emit AND operands largest-literal first (the binary [rhs0 >=
    rhs1] normal form), so an [aag] file and its [aig] twin round-trip
    byte-stably through either path. *)

exception Parse_error of int * string
(** Position is a line number for ASCII input, a byte offset for binary.
    Malformed input of either format raises only this.  It is
    {!Netlist_scan.Parse_error}, the exception every reader raises. *)

val parse_string : string -> Logic.Network.t
val parse_file : string -> Logic.Network.t

val parse_binary_string : string -> Logic.Network.t
val parse_binary_file : string -> Logic.Network.t

val write_aig : Aig_lib.Aig.t -> string
(** Serialize an AIG directly (the natural producer), ASCII format. *)

val write_aig_binary : Aig_lib.Aig.t -> string
(** Serialize an AIG in the compact binary format. *)

val write_network : Logic.Network.t -> string
(** Convert through {!Aig_lib.Aig.of_network} first (ASCII). *)

val write_network_binary : Logic.Network.t -> string
(** Convert through {!Aig_lib.Aig.of_network} first (binary). *)
