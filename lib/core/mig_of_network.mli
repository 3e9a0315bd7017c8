(** Conversion of a {!Logic.Network.t} into a MIG.

    AND/OR become single majority nodes with a constant third fanin; XOR and
    MUX expand to three nodes; n-ary gates fold as balanced trees to keep the
    initial depth low; [Table] gates expand their SOP cover as a balanced
    OR-of-ANDs. *)

(** The gate constructors a conversion builds with.  Each takes the graph
    being built and may simplify instead of making a gate. *)
type gates = {
  and_ : Mig.t -> Mig.signal -> Mig.signal -> Mig.signal;
  or_ : Mig.t -> Mig.signal -> Mig.signal -> Mig.signal;
  xor_ : Mig.t -> Mig.signal -> Mig.signal -> Mig.signal;
  maj : Mig.t -> Mig.signal -> Mig.signal -> Mig.signal -> Mig.signal;
  mux : Mig.t -> Mig.signal -> Mig.signal -> Mig.signal -> Mig.signal;
}

val convert_with : gates -> capacity:int -> Logic.Network.t -> Mig.t
(** The network, node by node in id order, through [gates] into a fresh
    [Mig.create ~capacity] graph; [capacity] is a sizing hint that changes
    no result.  [Aig_lib.Aig.of_network] calls it with AND-only gates. *)

val convert : Logic.Network.t -> Mig.t
(** [convert_with] {!Mig}'s majority gates, sized by the constant node and
    the network nodes that make a gate (all but [Not], [Buf] and
    [Const]). *)

val of_truth_table : Logic.Truth_table.t -> Mig.t
(** Single-output MIG from a truth table via its minimized SOP cover
    (Shannon-style; intended for small functions and tests). *)
