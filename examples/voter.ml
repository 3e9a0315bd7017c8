(* Triple-modular-redundancy voter — the workload where MIGs are the native
   representation.  An n-bit TMR system compares three redundant copies of a
   word and votes bitwise; each vote IS a majority gate, so the MAJ-based
   RRAM realization executes it in its intrinsic switching operation.

   The example sweeps word widths, compares the IMP and MAJ realizations,
   and shows the constant step count (independent of width — all bit votes
   run in one level). *)

let voter width =
  let mig = Core.Mig.create () in
  let copy () = Array.init width (fun _ -> Core.Mig.add_pi mig) in
  let m0 = copy () and m1 = copy () and m2 = copy () in
  for i = 0 to width - 1 do
    ignore (Core.Mig.add_po mig (Core.Mig.maj mig m0.(i) m1.(i) m2.(i)))
  done;
  mig

(* A fault-detection variant: vote plus per-module disagreement flags
   (disagree_k = 1 iff module k differs from the voted word anywhere). *)
let voter_with_disagreement width =
  let mig = Core.Mig.create () in
  let copy () = Array.init width (fun _ -> Core.Mig.add_pi mig) in
  (* sequential lets: an array literal would evaluate right-to-left and
     scramble the input order *)
  let m0 = copy () in
  let m1 = copy () in
  let m2 = copy () in
  let modules = [| m0; m1; m2 |] in
  let voted =
    Array.init width (fun i ->
        Core.Mig.maj mig modules.(0).(i) modules.(1).(i) modules.(2).(i))
  in
  Array.iter (fun s -> ignore (Core.Mig.add_po mig s)) voted;
  Array.iter
    (fun m ->
      let differs =
        Array.to_list (Array.mapi (fun i bit -> Core.Mig.xor_ mig bit voted.(i)) m)
      in
      let any =
        List.fold_left (fun acc d -> Core.Mig.or_ mig acc d) Core.Mig.const0 differs
      in
      ignore (Core.Mig.add_po mig any))
    modules;
  mig

let () =
  Format.printf "TMR majority voter on an RRAM crossbar@.@.";
  Format.printf "width | IMP R  IMP S | MAJ R  MAJ S@.";
  List.iter
    (fun width ->
      let mig = voter width in
      let imp = Rram.Compile_mig.compile Core.Rram_cost.Imp mig in
      let maj = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
      Format.printf "%5d | %5d %6d | %5d %6d@." width
        imp.Rram.Compile_mig.cost.Core.Rram_cost.devices
        imp.Rram.Compile_mig.cost.Core.Rram_cost.latency
        maj.Rram.Compile_mig.cost.Core.Rram_cost.devices
        maj.Rram.Compile_mig.cost.Core.Rram_cost.latency;
      (match Rram.Verify.against_mig maj.Rram.Compile_mig.program mig with
      | Ok () -> ()
      | Error e -> Format.printf "  MAJ verification failed: %s@." e))
    [ 1; 4; 8; 16; 32 ];
  Format.printf
    "@.Steps are width-independent: every bit votes in the same level, and the@.";
  Format.printf "MAJ realization needs just 3 of them (1 load, 1 negate, 1 majority pulse).@.";

  Format.printf "@.Fault-detecting voter (vote + per-module disagreement flags), width 8:@.";
  let mig = voter_with_disagreement 8 in
  Format.printf "  initial: %a@." Core.Mig.pp_stats mig;
  let optimized = Core.Mig_opt.steps ~effort:10 mig in
  assert (Core.Mig_equiv.equivalent mig optimized);
  List.iter
    (fun realization ->
      let r = Rram.Compile_mig.compile realization optimized in
      Format.printf "  %a: %d RRAMs, %d steps (Table I: %a)@."
        Core.Rram_cost.pp_realization realization
        r.Rram.Compile_mig.cost.Core.Rram_cost.devices
        r.Rram.Compile_mig.cost.Core.Rram_cost.latency Core.Rram_cost.pp
        r.Rram.Compile_mig.analytic)
    [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ];
  (* inject a fault and watch the flags on the simulator *)
  let program = (Rram.Compile_mig.compile Core.Rram_cost.Maj optimized).Rram.Compile_mig.program in
  let word = [| true; false; true; true; false; false; true; false |] in
  let faulty = Array.copy word in
  faulty.(3) <- not faulty.(3);
  let inputs = Array.concat [ word; word; faulty ] in
  let out = Rram.Interp.run program inputs in
  let voted = Array.sub out 0 8 in
  Format.printf "  fault injected in module 2 bit 3: voted word correct = %b, flags = (%d %d %d)@."
    (voted = word)
    (Bool.to_int out.(8)) (Bool.to_int out.(9)) (Bool.to_int out.(10))
