(** BDD→RRAM synthesis — the baseline of [11] (Chakraborti et al., IDT 2014).

    Every BDD node is a 2:1 multiplexer [f = x·h + ¬x·l] realized with
    material implication.  After a two-step prologue that copies each used
    input variable into a device and computes its complement, each node
    costs one parallel load step plus five IMP steps:

    {v
      load: rA ← h, rB ← l, rC ← 0, rD ← 0
      s1:   rA ← x  IMP rA     (= x → h)
      s2:   rB ← ¬x IMP rB     (= ¬x → l)
      s3:   rC ← rB IMP rC     (= ¬rB)
      s4:   rC ← rA IMP rC     (= ¬rA ∨ ¬rB = ¬f)
      s5:   rD ← rC IMP rD     (= f)
    v}

    Two scheduling modes:
    - [`Sequential] — one node at a time, steps ≈ 6·nodes (the literal
      reading of [11]);
    - [`Levelized]  — all nodes of one variable level run in parallel,
      steps ≈ 6·(occupied levels), a stronger variant of the baseline.

    Either way the step count grows with the BDD (node count or variable
    count), while the MIG flow grows with MIG depth — the crossover the
    paper's Table III demonstrates. *)

type mode = [ `Sequential | `Levelized ]

type result = { program : Program.t; bdd_nodes : int }

val compile : ?mode:mode -> Bdd_lib.Bdd_of_network.result -> result
(** The program's inputs are the {e network's} inputs (the permutation is
    applied internally). *)
