(** End-to-end verification: a compiled RRAM program must compute the same
    function as its source representation, executed on the device
    simulator.  Exhaustive for small input counts, seeded random vectors
    above.

    The check is bit-sliced: vectors run in chunks of up to
    [Sys.int_size] (63), one per bit of a machine word — the program
    through {!Interp.run_lanes}, the reference through its bit-parallel
    simulator ({!Logic.Network.simulate}, {!Core.Mig_sim.simulate}) on the
    same chunk.  Exhaustive vectors are built from their index, never held
    as a list.  The verdict and its message are those of running every
    vector of {!vectors}, in order, through {!Interp.run} and the
    single-vector reference: the first mismatching vector is the lowest
    differing lane of the first differing chunk.  With observability
    enabled the ["rram.interp/*"] counters and histograms count the
    vectors checked, and there is one ["rram.interp/run"] span per chunk. *)

val exhaustive_limit : int
(** 12 inputs. *)

val vectors : ?seed:int -> ?random_count:int -> int -> bool array list
(** Test vectors for [n] inputs: all [2^n] if [n ≤ exhaustive_limit]
    (vector [m] has input [i] set iff bit [i] of [m] is), otherwise the
    all-zero and all-one corners followed by [random_count] (default 256)
    vectors drawn from the seeded generator ([seed] defaults to
    [0xBEEF]).  {!against_mig} and {!against_network} check exactly these
    vectors, in this order, with the default [random_count]. *)

val against_mig : ?seed:int -> Program.t -> Core.Mig.t -> (unit, string) result
(** [Error "input count mismatch"] when the input counts differ;
    otherwise [Ok ()], or [Error "mismatch on input I: program P,
    reference R"] naming the first vector on which the outputs differ
    (bits in input/output order).  A program with a different output
    count fails on the first vector. *)

val against_network :
  ?seed:int -> Program.t -> Logic.Network.t -> (unit, string) result
(** As {!against_mig}, against a netlist. *)
