(** ISCAS-89 [.bench] netlist reader and writer.

    Grammar: [INPUT(x)], [OUTPUT(x)], [y = GATE(a, b, ...)] with gates AND,
    OR, NAND, NOR, XOR, XNOR (one operand or more), NOT, BUF/BUFF (one),
    MUX, MAJ (three), plus the constants [y = gnd]/[y = vdd]; keywords
    ignore case, [#] starts a comment, and a target defined twice takes
    its last definition.  [DFF] gates are cut into a pseudo primary input
    (the Q pin) and a pseudo primary output (the D pin) — the combinational
    profile the ISCAS-89 comparison of the paper uses [17]. *)

exception Parse_error of int * string
(** [(line, message)]; line 0 for an undefined signal. *)

val parse_string : string -> Logic.Network.t
val parse_file : string -> Logic.Network.t

val parse_sequential_string : string -> Logic.Seq.t
(** Keep the registers explicit instead of only returning the cut network;
    initial state is all-zero (the ISCAS-89 convention). *)

val parse_sequential_file : string -> Logic.Seq.t

val write_string : Logic.Network.t -> string
val write_file : string -> Logic.Network.t -> unit
