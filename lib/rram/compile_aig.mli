(** AIG→RRAM synthesis — the baseline of [12] (Bürger et al., RM 2013).

    Every AND node is computed through its NAND with three implications:

    {v
      load: r1 ← 0, r2 ← 0  (plus operand staging)
      s1:   r1 ← vb IMP r1   (= ¬b)
      s2:   r1 ← va IMP r1   (= ¬a ∨ ¬b = ¬(a·b))
      s3:   r2 ← r1 IMP r2   (= a·b)
    v}

    A complemented fanin playing the [b] role is free ([¬b] is then just a
    copy of the source); a complemented [a] needs one extra inversion.  The
    compiler always assigns a complemented fanin to [b] when possible.
    Nodes run one at a time, ≈ 4–5 steps per node ([12]'s accounting). *)

type result = { program : Program.t; aig_nodes : int }

val compile : Aig_lib.Aig.t -> result
