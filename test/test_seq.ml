(* Sequential circuits: the Seq wrapper, sequential parsing, the core
   compiled to a crossbar and clocked cycle by cycle, and fault injection. *)

open Logic

(* Deterministic random sequential machine: random combinational core over
   pis + regs inputs. *)
let random_seq seed ~pis ~regs ~pos =
  let name = Printf.sprintf "seq-%d" seed in
  let core =
    Io.Gen.random_network ~name ~inputs:(pis + regs) ~gates:30 ~outputs:(pos + regs) ()
  in
  let rng = Prng.create seed in
  Seq.create core ~num_pis:pis ~num_pos:pos ~init:(Array.init regs (fun _ -> Prng.bool rng))

(* Optimize the combinational profile (Alg. 4) and compile it once. *)
let compile_core ~effort realization seq =
  let mig =
    Core.Mig_opt.run ~effort Core.Mig_opt.Steps
      (Core.Mig_of_network.convert (Seq.combinational seq))
  in
  (Rram.Compile_mig.compile realization mig).Rram.Compile_mig.program

(* One program run per clock tick: feed [pis @ state], read back
   [pos @ next state] and latch the state. *)
let run_clocked program seq stream =
  let pos = Seq.num_pos seq in
  let state = ref (Seq.initial_state seq) in
  List.map
    (fun inputs ->
      let all = Rram.Interp.run program (Array.append inputs !state) in
      state := Array.sub all pos (Seq.num_regs seq);
      Array.sub all 0 pos)
    stream

(* The crossbar machine against Seq.simulate on a random input stream. *)
let matches_reference program seq ~cycles =
  let rng = Prng.create 0x5EC in
  let stream = List.init cycles (fun _ -> Array.init (Seq.num_pis seq) (fun _ -> Prng.bool rng)) in
  run_clocked program seq stream = Seq.simulate seq stream

let seq_tests =
  let open Alcotest in
  [
    test_case "create validates shapes" `Quick (fun () ->
        let net = Funcgen.full_adder () in
        (* 3 inputs, 2 outputs: pis=2/regs=1 works, pis=3/regs=1 does not *)
        (match Seq.create net ~num_pis:2 ~num_pos:1 ~init:[| false |] with
        | _ -> ()
        | exception Invalid_argument _ -> fail "should accept 2+1/1+1");
        match Seq.create net ~num_pis:3 ~num_pos:2 ~init:[| false |] with
        | exception Invalid_argument _ -> ()
        | _ -> fail "should reject mismatched shapes");
    test_case "toggle flip-flop semantics" `Quick (fun () ->
        (* next = q xor en; out = q *)
        let net = Network.create () in
        let en = Network.add_input net "en" in
        let q = Network.add_input net "q" in
        Network.add_output net "out" q;
        Network.add_output net "next" (Network.xor2 net en q);
        let seq = Seq.create net ~num_pis:1 ~num_pos:1 ~init:[| false |] in
        let outs = Seq.simulate seq (List.init 5 (fun _ -> [| true |])) in
        check (list bool) "toggles" [ false; true; false; true; false ]
          (List.map (fun o -> o.(0)) outs));
    test_case "initial state respected" `Quick (fun () ->
        let net = Network.create () in
        let _en = Network.add_input net "en" in
        let q = Network.add_input net "q" in
        Network.add_output net "out" q;
        Network.add_output net "next" q;
        let seq = Seq.create net ~num_pis:1 ~num_pos:1 ~init:[| true |] in
        let outs = Seq.simulate seq [ [| false |]; [| false |] ] in
        check (list bool) "holds one" [ true; true ] (List.map (fun o -> o.(0)) outs));
  ]

let parse_tests =
  let open Alcotest in
  [
    test_case "sequential BLIF with .latch" `Quick (fun () ->
        let text =
          ".model t\n.inputs en\n.outputs out\n.latch next q 1\n.names en q next\n10 1\n01 1\n.names q out\n1 1\n.end"
        in
        let seq = Io.Blif.parse_sequential_string text in
        check int "pis" 1 (Seq.num_pis seq);
        check int "pos" 1 (Seq.num_pos seq);
        check int "regs" 1 (Seq.num_regs seq);
        check (array bool) "init" [| true |] (Seq.initial_state seq);
        (* toggles down from 1 *)
        let outs = Seq.simulate seq (List.init 4 (fun _ -> [| true |])) in
        check (list bool) "toggle from 1" [ true; false; true; false ]
          (List.map (fun o -> o.(0)) outs));
    test_case "combinational parse still rejects .latch" `Quick (fun () ->
        match Io.Blif.parse_string ".model l\n.inputs a\n.outputs q\n.latch a q\n.end" with
        | exception Io.Blif.Parse_error _ -> ()
        | _ -> fail "expected Parse_error");
    test_case "sequential bench with DFF" `Quick (fun () ->
        let text = "INPUT(en)\nOUTPUT(out)\nq = DFF(next)\nnext = XOR(en, q)\nout = BUFF(q)\n" in
        let seq = Io.Bench_format.parse_sequential_string text in
        check int "regs" 1 (Seq.num_regs seq);
        let outs = Seq.simulate seq (List.init 4 (fun _ -> [| true |])) in
        check (list bool) "toggles" [ false; true; false; true ]
          (List.map (fun o -> o.(0)) outs));
  ]

let exec_tests =
  let open Alcotest in
  [
    test_case "crossbar FSM matches reference (both realizations)" `Quick (fun () ->
        let seq = random_seq 42 ~pis:3 ~regs:2 ~pos:2 in
        List.iter
          (fun realization ->
            let program = compile_core ~effort:4 realization seq in
            check bool "matches" true (matches_reference program seq ~cycles:64))
          [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ]);
    test_case "steps per cycle follows the cost model" `Quick (fun () ->
        (* toggle flip-flop: one XOR -> 3 MIG gates at depth 2-3 *)
        let net = Network.create () in
        let en = Network.add_input net "en" in
        let q = Network.add_input net "q" in
        Network.add_output net "out" q;
        Network.add_output net "next" (Network.xor2 net en q);
        let seq = Seq.create net ~num_pis:1 ~num_pos:1 ~init:[| false |] in
        let steps = Rram.Program.num_steps (compile_core ~effort:4 Core.Rram_cost.Maj seq) in
        check bool "positive" true (steps > 0);
        (* MAJ realization: S = 3D + L, so a depth-2 core stays under 10 *)
        check bool "small" true (steps <= 10));
  ]

let exec_props =
  [
    QCheck.Test.make ~name:"random FSMs: crossbar = reference" ~count:25
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let seq = random_seq seed ~pis:3 ~regs:3 ~pos:2 in
        matches_reference (compile_core ~effort:2 Core.Rram_cost.Maj seq) seq ~cycles:32);
  ]

let fault_tests =
  let open Alcotest in
  [
    test_case "a single stuck output register corrupts results" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig and b = Core.Mig.add_pi mig and c = Core.Mig.add_pi mig in
        ignore (Core.Mig.add_po mig (Core.Mig.maj mig a b c));
        let compiled = Rram.Compile_mig.compile Core.Rram_cost.Maj mig in
        let program = compiled.Rram.Compile_mig.program in
        (* find the output register and stick it at 0 *)
        let out_reg =
          match program.Rram.Program.outputs.(0) with
          | Rram.Isa.Reg r -> r
          | _ -> fail "expected register output"
        in
        check bool "corrupts" false
          (List.for_all
             (fun v ->
               Rram.Interp.run ~defects:[ (out_reg, Rram.Device.Stuck_0) ] program v
               = Core.Mig_sim.eval mig v)
             (Rram.Verify.vectors 3)));
  ]

let () =
  Alcotest.run "seq"
    [
      ("seq", seq_tests);
      ("parsing", parse_tests);
      ("exec", exec_tests);
      ("exec-props", List.map QCheck_alcotest.to_alcotest exec_props);
      ("faults", fault_tests);
    ]
