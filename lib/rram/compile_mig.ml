type result = {
  program : Program.t;
  analytic : Core.Rram_cost.cost;
  cost : Core.Rram_cost.triple;
}

let invert_micro realization ~src ~dst =
  match realization with
  | Core.Rram_cost.Imp -> Isa.Imp { src; dst }
  | Core.Rram_cost.Maj -> Isa.Maj_pulse { p = Isa.Const true; q = Isa.Reg src; dst }

let compile_serial realization mig =
  let lv = Core.Mig_levels.compute mig in
  let depth = lv.Core.Mig_levels.depth in
  let analytic = Core.Rram_cost.of_levels realization lv in
  let b = Program.Builder.create ~num_inputs:(Core.Mig.num_pis mig) in
  (* Gates grouped by level. *)
  let by_level = Array.make (depth + 1) [] in
  List.iter
    (fun g ->
      let l = lv.Core.Mig_levels.level.(g) in
      by_level.(l) <- g :: by_level.(l))
    lv.Core.Mig_levels.order;
  Array.iteri (fun i gates -> by_level.(i) <- List.rev gates) by_level;
  (* Liveness: a gate's result register is freed after the level of its last
     consumer has been emitted; outputs pin results to the readout stage. *)
  let nodes = Core.Mig.num_nodes mig in
  (* the highest level that reads each node, 0 when none does *)
  let last_use = Array.make nodes 0 in
  let note_use s l =
    let n = Core.Mig.node_of s in
    if l > last_use.(n) then last_use.(n) <- l
  in
  List.iter
    (fun g ->
      let l = lv.Core.Mig_levels.level.(g) in
      for i = 0 to 2 do
        note_use (Core.Mig.fanin mig g i) l
      done)
    lv.Core.Mig_levels.order;
  Array.iter (fun s -> note_use s (depth + 1)) (Core.Mig.pos mig);
  (* a result is freed after its last reader's level, or its own *)
  let release_level g l = if last_use.(g) = 0 then l else last_use.(g) in
  let free_after = Array.make (depth + 2) [] in
  let schedule_free l r =
    let l = min l (depth + 1) in
    free_after.(l) <- r :: free_after.(l)
  in
  let result_reg = Array.make nodes (-1) in
  (* Readout plan: complemented primary outputs need an inversion device
     whose FALSE preset rides along with the last level's data loading (the
     paper's "in parallel with the data loading step"), plus one shared
     readout-inversion step at the end. *)
  let po_presets = ref [] in
  let po_memo = Hashtbl.create 17 in
  let po_plans =
    Array.map
      (fun s ->
        match Hashtbl.find_opt po_memo s with
        | Some plan -> plan
        | None ->
            let n = Core.Mig.node_of s and c = Core.Mig.is_compl s in
            let plan =
              match Core.Mig.kind mig n with
              | Core.Mig.Const -> `Direct (Isa.Const c)
              | Core.Mig.Pi i ->
                  if not c then `Direct (Isa.Input i)
                  else begin
                    let h = Program.Builder.alloc b in
                    let inv = Program.Builder.alloc b in
                    po_presets :=
                      Isa.Load (h, Isa.Input i) :: Isa.Reset inv :: !po_presets;
                    `Inv_of_reg (h, inv)
                  end
              | Core.Mig.Gate ->
                  if not c then `Gate_result n
                  else begin
                    let inv = Program.Builder.alloc b in
                    po_presets := Isa.Reset inv :: !po_presets;
                    `Inv_of_gate (n, inv)
                  end
            in
            Hashtbl.replace po_memo s plan;
            plan)
      (Core.Mig.pos mig)
  in
  (* Emit levels. *)
  for l = 1 to depth do
    let load = ref [] and compl_ = ref [] in
    let gate_steps =
      match realization with Core.Rram_cost.Imp -> Array.make 9 [] | Core.Rram_cost.Maj -> Array.make 2 []
    in
    let add_gate_micro i m = gate_steps.(i) <- m :: gate_steps.(i) in
    let temps = ref [] in
    let temp r = temps := r :: !temps in
    (* Materialize one fanin operand into a dedicated device and return the
       register that will hold the operand value once the (optional)
       complement step has run.  Returns [None] when the operand is a
       constant rail (loaded directly, no complement cost). *)
    let operand_reg s =
      let n = Core.Mig.node_of s and c = Core.Mig.is_compl s in
      match Core.Mig.kind mig n with
      | Core.Mig.Const ->
          let r = Program.Builder.alloc b in
          temp r;
          load := Isa.Load (r, Isa.Const c) :: !load;
          (* signal 1 is ¬const0 = true *)
          r
      | Core.Mig.Pi i ->
          if not c then begin
            let r = Program.Builder.alloc b in
            temp r;
            load := Isa.Load (r, Isa.Input i) :: !load;
            r
          end
          else begin
            (* staging copy of the input, then an inversion device *)
            let h = Program.Builder.alloc b in
            let inv = Program.Builder.alloc b in
            temp h;
            temp inv;
            load := Isa.Load (h, Isa.Input i) :: Isa.Reset inv :: !load;
            compl_ := invert_micro realization ~src:h ~dst:inv :: !compl_;
            inv
          end
      | Core.Mig.Gate ->
          let src = result_reg.(n) in
          if not c then begin
            let r = Program.Builder.alloc b in
            temp r;
            load := Isa.Load (r, Isa.Reg src) :: !load;
            r
          end
          else begin
            let inv = Program.Builder.alloc b in
            temp inv;
            load := Isa.Reset inv :: !load;
            compl_ := invert_micro realization ~src ~dst:inv :: !compl_;
            inv
          end
    in
    List.iter
      (fun g ->
        let x = operand_reg (Core.Mig.fanin mig g 0) in
        let y = operand_reg (Core.Mig.fanin mig g 1) in
        let z = operand_reg (Core.Mig.fanin mig g 2) in
        match realization with
        | Core.Rram_cost.Imp ->
            (* registers A, B, C preset to 0 in the load step *)
            let a = Program.Builder.alloc b in
            let c = Program.Builder.alloc b in
            let d = Program.Builder.alloc b in
            load := Isa.Reset a :: Isa.Reset c :: Isa.Reset d :: !load;
            (* steps 02–10 of §III-A.1 (x=X, y=Y, z=Z, a=A, c=B, d=C) *)
            add_gate_micro 0 (Isa.Imp { src = x; dst = a });
            add_gate_micro 1 (Isa.Imp { src = y; dst = c });
            add_gate_micro 2 (Isa.Imp { src = a; dst = y });
            add_gate_micro 3 (Isa.Imp { src = x; dst = c });
            add_gate_micro 4 (Isa.Imp { src = y; dst = d });
            add_gate_micro 5 (Isa.Imp { src = z; dst = d });
            add_gate_micro 6 (Isa.Reset a);
            add_gate_micro 7 (Isa.Imp { src = c; dst = a });
            add_gate_micro 8 (Isa.Imp { src = d; dst = a });
            result_reg.(g) <- a;
            temp c;
            temp d;
            schedule_free (release_level g l) a
        | Core.Rram_cost.Maj ->
            let a = Program.Builder.alloc b in
            load := Isa.Reset a :: !load;
            (* step 02: A ← ¬y; step 03: Z ← M(x, y, z) *)
            add_gate_micro 0 (Isa.Maj_pulse { p = Isa.Const true; q = Isa.Reg y; dst = a });
            add_gate_micro 1 (Isa.Maj_pulse { p = Isa.Reg x; q = Isa.Reg a; dst = z });
            result_reg.(g) <- z;
            temp a;
            (* z doubles as the result: exclude it from the temps *)
            temps := List.filter (fun r -> r <> z) !temps;
            schedule_free (release_level g l) z)
      by_level.(l);
    (* The readout presets merge into the last level's load step for free. *)
    if l = depth && !po_presets <> [] then begin
      load := !po_presets @ !load;
      po_presets := []
    end;
    Program.Builder.push_step b (List.rev !load);
    Program.Builder.push_step b (List.rev !compl_);
    Array.iter (fun step -> Program.Builder.push_step b (List.rev step)) gate_steps;
    List.iter (Program.Builder.free b) !temps;
    List.iter (Program.Builder.free b) free_after.(l);
    free_after.(l) <- []
  done;
  (* Degenerate case: no gate level to merge the presets into. *)
  if !po_presets <> [] then Program.Builder.push_step b (List.rev !po_presets);
  let final_inv = ref [] in
  let outputs =
    Array.map
      (fun plan ->
        match plan with
        | `Direct o -> o
        | `Gate_result n -> Isa.Reg result_reg.(n)
        | `Inv_of_reg (h, inv) ->
            final_inv := invert_micro realization ~src:h ~dst:inv :: !final_inv;
            Isa.Reg inv
        | `Inv_of_gate (n, inv) ->
            let src = result_reg.(n) in
            final_inv := invert_micro realization ~src ~dst:inv :: !final_inv;
            Isa.Reg inv)
      po_plans
  in
  (* Deduplicate: a shared complemented output signal inverts once. *)
  let final_inv =
    List.sort_uniq compare !final_inv
  in
  Program.Builder.push_step b final_inv;
  let program = Program.Builder.finish b ~outputs in
  {
    program;
    analytic;
    cost =
      {
        Core.Rram_cost.devices = program.Program.num_regs;
        latency = Program.num_steps program;
        utilization = 1.0;
      };
  }

let compile ?(arch = Core.Rram_cost.Unbounded_serial) realization mig
    =
  match arch with
  | Core.Rram_cost.Unbounded_serial -> compile_serial realization mig
  | Core.Rram_cost.Crossbar _ -> (
      match Compile_crossbar.compile ~arch realization mig with
      | Error e -> invalid_arg e
      | Ok r ->
          {
            program = r.Compile_crossbar.program;
            analytic = r.Compile_crossbar.serial;
            cost = r.Compile_crossbar.measured;
          })
