(* Quickstart: build a full adder as a MIG, optimize it for step count,
   map it to both RRAM realizations, execute the compiled programs on the
   device simulator, and print the Table-I-style costs.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. Build the MIG directly from the public API: a full adder is one
     majority gate (the carry) plus a 3-input XOR (the sum). *)
  let mig = Core.Mig.create () in
  let a = Core.Mig.add_pi mig in
  let b = Core.Mig.add_pi mig in
  let cin = Core.Mig.add_pi mig in
  let carry = Core.Mig.maj mig a b cin in
  let sum = Core.Mig.xor_ mig (Core.Mig.xor_ mig a b) cin in
  ignore (Core.Mig.add_po mig sum);
  ignore (Core.Mig.add_po mig carry);
  Format.printf "initial MIG: %a@." Core.Mig.pp_stats mig;

  (* 2. Optimize for computational steps (Alg. 4 of the paper). *)
  let optimized = Core.Mig_opt.steps mig in
  Format.printf "after step optimization: %a@." Core.Mig.pp_stats optimized;
  assert (Core.Mig_equiv.equivalent mig optimized);

  (* 3. Map to RRAM programs: IMP-based and MAJ-based realizations. *)
  List.iter
    (fun realization ->
      let r = Rram.Compile_mig.compile realization optimized in
      Format.printf "@.%a realization: Table I cost %a; compiled program uses %d RRAMs, %d steps@."
        Core.Rram_cost.pp_realization realization Core.Rram_cost.pp
        r.Rram.Compile_mig.analytic r.Rram.Compile_mig.cost.Core.Rram_cost.devices
        r.Rram.Compile_mig.cost.Core.Rram_cost.latency;
      (* 4. Execute the program on the crossbar simulator for all 8 inputs. *)
      Format.printf "  a b c | sum carry@.";
      for m = 0 to 7 do
        let input = [| m land 1 <> 0; m land 2 <> 0; m land 4 <> 0 |] in
        let out = Rram.Interp.run r.Rram.Compile_mig.program input in
        Format.printf "  %d %d %d |  %d    %d@."
          (Bool.to_int input.(0)) (Bool.to_int input.(1)) (Bool.to_int input.(2))
          (Bool.to_int out.(0)) (Bool.to_int out.(1))
      done;
      match Rram.Verify.against_mig r.Rram.Compile_mig.program optimized with
      | Ok () -> Format.printf "  exhaustively verified against the MIG semantics@."
      | Error e -> Format.printf "  VERIFICATION FAILED: %s@." e)
    [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ]
