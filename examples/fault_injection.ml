(* Functional yield under stuck-at device faults (extension).

   RRAM cells wear out and get stuck in the low- or high-resistance state.
   Each row below is one Monte-Carlo campaign (Exp.Montecarlo) on ideal
   devices where every cell is stuck with the given probability; all arms
   of a trial face the same broken silicon.

   Part 1 compares the two realizations of the same circuit run bare: the
   MAJ realization uses fewer devices and fewer pulses per gate, giving it
   a visibly smaller fault surface.

   Part 2 measures what the fault-tolerance mechanisms buy on the MAJ
   realization: the resilient detect-diagnose-remap-retry controller
   (Rram.Resilient, plain and wear-aware remapping) and triple modular
   redundancy voted with the paper's own MAJ primitive (Rram.Tmr). *)

let () =
  let trials = 200 in
  Format.printf "Functional yield under stuck-at faults (Monte-Carlo, %d trials)@.@." trials;
  let net = Logic.Funcgen.rd 5 3 in
  let config = { Exp.Montecarlo.default with trials; effort = 10 } in
  let mig = Core.Mig_opt.steps ~effort:10 (Core.Mig_of_network.convert net) in
  Format.printf "circuit: rd53 (%d gates after step optimization)@.@." (Core.Mig.size mig);
  let rates = [ 0.001; 0.003; 0.01; 0.03 ] in
  let campaigns =
    List.map
      (fun rate ->
        let t = Exp.Montecarlo.run ~config:(Exp.Montecarlo.stuck_at config rate) ~name:"rd53" net in
        let arms = (List.hd t.Exp.Montecarlo.points).Exp.Montecarlo.arms in
        (rate, List.map (fun a -> (a.Exp.Montecarlo.arm, a)) arms))
      rates
  in
  let arm name arms = List.assoc name arms in
  let yield name arms = (arm name arms).Exp.Montecarlo.estimate.Exp.Montecarlo.yield in
  let cells name = (arm name (snd (List.hd campaigns))).Exp.Montecarlo.cells in
  Format.printf "%-10s | %-16s | %-16s@." "fault rate"
    (Printf.sprintf "IMP (%d RRAMs)" (cells "imp"))
    (Printf.sprintf "MAJ (%d RRAMs)" (cells "maj"));
  List.iter
    (fun (rate, arms) ->
      Format.printf "%-10s | %16.3f | %16.3f@." (Printf.sprintf "%.3f" rate)
        (yield "imp" arms) (yield "maj" arms))
    campaigns;
  Format.printf
    "@.A stuck cell only matters if it is live during the computation; the MAJ@.";
  Format.printf
    "realization's smaller crossbar (and shorter programs) survives more faults.@.";

  (* ---- Part 2: fault-tolerance mechanisms on the MAJ realization ---- *)
  Format.printf "@.Protection (MAJ realization, %d RRAMs; TMR: %d RRAMs):@.@." (cells "maj")
    (cells "tmr");
  Format.printf "%-10s | %-8s | %-11s | %-10s | %-8s@." "fault rate" "baseline" "remap+retry"
    "wear-aware" "TMR";
  List.iter
    (fun (rate, arms) ->
      Format.printf "%-10s | %8.3f | %11.3f | %10.3f | %8.3f@." (Printf.sprintf "%.3f" rate)
        (yield "maj" arms) (yield "resilient" arms) (yield "wear" arms) (yield "tmr" arms))
    campaigns;
  Format.printf
    "@.Remapping routes the program around diagnosed dead cells onto spares, so it@.";
  Format.printf
    "repairs almost everything while spares last.  TMR pays ~3x devices to mask any@.";
  Format.printf
    "single-replica fault passively, and loses that bet once simultaneous faults in@.";
  Format.printf "two replicas become likely (the 0.03 row).@.";
  (* The headline check: protection must actually help at the 1%% rate. *)
  let at_001 = List.assoc 0.01 campaigns in
  assert (yield "tmr" at_001 > yield "maj" at_001);
  assert (yield "resilient" at_001 > yield "maj" at_001)
