(* In-memory adders: how MIG optimization turns a ripple-carry adder into a
   shallow structure, and what that does to RRAM latency.

   For each width the example builds both a ripple-carry and a
   carry-lookahead adder, optimizes each for steps, and reports the step
   counts of the MAJ-based realization.  The punchline is the paper's: step
   count follows MIG depth, so flattening the carry chain (which the MIG
   axioms do algebraically) is what makes in-memory addition fast. *)

let report name net =
  let mig = Core.Mig_of_network.convert net in
  let before = Core.Rram_cost.of_mig Core.Rram_cost.Maj mig in
  let optimized = Core.Mig_opt.steps ~effort:15 mig in
  assert (Core.Mig_equiv.equivalent_network optimized net);
  let maj = Rram.Compile_mig.compile Core.Rram_cost.Maj optimized in
  let imp = Rram.Compile_mig.compile Core.Rram_cost.Imp optimized in
  (match Rram.Verify.against_network maj.Rram.Compile_mig.program net with
  | Ok () -> ()
  | Error e -> failwith (name ^ ": " ^ e));
  Format.printf "%-14s | %5d -> %5d steps (MAJ) | %5d steps (IMP) | %5d RRAMs (MAJ)@."
    name before.Core.Rram_cost.steps maj.Rram.Compile_mig.cost.Core.Rram_cost.latency
    imp.Rram.Compile_mig.cost.Core.Rram_cost.latency
    maj.Rram.Compile_mig.cost.Core.Rram_cost.devices

let () =
  Format.printf "RRAM in-memory adders (steps before -> after step optimization)@.@.";
  List.iter
    (fun width ->
      report (Printf.sprintf "ripple %2d-bit" width) (Logic.Funcgen.ripple_adder width);
      report (Printf.sprintf "CLA    %2d-bit" width)
        (Logic.Funcgen.carry_lookahead_adder width))
    [ 4; 8; 16; 24 ];
  Format.printf
    "@.The optimizer flattens the ripple carry chain to near the CLA's depth:@.";
  Format.printf
    "latency on the crossbar is set by MIG depth (S = 3D + L), not gate count.@."
