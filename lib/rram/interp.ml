let crossbar ?physics ?(defects = []) num_regs =
  let devices =
    match physics with
    | Some phys ->
        if Array.length phys < num_regs then
          invalid_arg "Interp.crossbar: physics array too small";
        Array.init num_regs (fun i -> Device.create_phys phys.(i))
    | None -> Array.init num_regs (fun _ -> Device.create ())
  in
  List.iter
    (fun (r, d) -> if r >= 0 && r < num_regs then Device.set_defect devices.(r) d)
    defects;
  devices

(* Pulse accounting: one counter per voltage configuration, a write
   histogram per device, step-parallelism stats and wear gauges — all gated
   on the global observability switch, so the only cost on the (hot)
   default path is one boolean load per run. *)
let c_runs = Obs.counter "rram.interp/runs"
and c_steps = Obs.counter "rram.interp/steps"
and c_loads = Obs.counter "rram.interp/pulses.load"
and c_resets = Obs.counter "rram.interp/pulses.reset"
and c_imps = Obs.counter "rram.interp/pulses.imp"
and c_majs = Obs.counter "rram.interp/pulses.maj"

let h_step_width = Obs.histogram "rram.interp/micro_ops_per_step"
let h_writes = Obs.histogram "rram.interp/writes_per_device"
let g_wear_max = Obs.gauge "rram.interp/wear.max"
let g_wear_total = Obs.gauge "rram.interp/wear.total"

let run_on ~devices ?trace (program : Program.t) inputs =
  if Array.length inputs <> program.Program.num_inputs then
    invalid_arg "Interp.run: input count";
  if Array.length devices < program.Program.num_regs then
    invalid_arg "Interp.run_on: crossbar too small";
  let obs = Obs.enabled () in
  let t0 = if obs then Obs.now_ns () else 0L in
  let writes = if obs then Array.make (Array.length devices) 0 else [||] in
  let operand_value = function
    | Isa.Input i -> inputs.(i)
    | Isa.Reg r -> Device.read devices.(r)
    | Isa.Const b -> b
  in
  List.iteri
    (fun idx step ->
      if obs then begin
        Obs.incr c_steps;
        Obs.observe h_step_width (List.length step)
      end;
      (* Parallel semantics: latch all source values before any write. *)
      let actions =
        List.map
          (fun micro ->
            if obs then begin
              (match micro with
              | Isa.Load _ -> Obs.incr c_loads
              | Isa.Reset _ -> Obs.incr c_resets
              | Isa.Imp _ -> Obs.incr c_imps
              | Isa.Maj_pulse _ -> Obs.incr c_majs);
              let dst = Isa.micro_dst micro in
              writes.(dst) <- writes.(dst) + 1
            end;
            match micro with
            | Isa.Load (r, o) ->
                let v = operand_value o in
                fun () -> Device.write devices.(r) v
            | Isa.Reset r -> fun () -> Device.clear devices.(r)
            | Isa.Imp { src; dst } ->
                let p = Device.read devices.(src) in
                fun () -> Device.imp_apply ~p devices.(dst)
            | Isa.Maj_pulse { p; q; dst } ->
                let pv = operand_value p and qv = operand_value q in
                fun () -> Device.maj_pulse devices.(dst) ~p:pv ~q:qv)
          step
      in
      List.iter (fun act -> act ()) actions;
      (* The callback fires after every write of the step has landed; the
         states are the true post-step states (Device.observe, immune to
         read noise) for all devices of the crossbar. *)
      match trace with
      | Some f -> f (idx + 1) step (Array.map Device.observe devices)
      | None -> ())
    program.Program.steps;
  if obs then begin
    Obs.incr c_runs;
    Array.iteri
      (fun r w -> if r < program.Program.num_regs then Obs.observe h_writes w)
      writes;
    let wear_max = ref 0 and wear_total = ref 0 in
    Array.iter
      (fun d ->
        let w = Device.wear d in
        wear_total := !wear_total + w;
        if w > !wear_max then wear_max := w)
      devices;
    Obs.set_gauge g_wear_max (float_of_int !wear_max);
    Obs.set_gauge g_wear_total (float_of_int !wear_total);
    Obs.emit_span ~cat:"rram" "rram.interp/run" ~t0
      ~args:
        [
          ("steps", Obs.Json.Int (Program.num_steps program));
          ("regs", Obs.Json.Int program.Program.num_regs);
        ]
  end;
  Array.map
    (fun o ->
      match o with
      | Isa.Input i -> inputs.(i)
      | Isa.Reg r -> Device.read devices.(r)
      | Isa.Const b -> b)
    program.Program.outputs

let run ?defects ?trace (program : Program.t) inputs =
  let devices = crossbar ?defects program.Program.num_regs in
  run_on ~devices ?trace program inputs

(* Bit-sliced execution on an ideal crossbar.  The program is flattened once
   into parallel arrays: micro-op [k] of step [s] (for [step_start.(s) <= k <
   step_start.(s + 1)]) writes register [dst.(k)] from the value slots
   [src_a.(k)] / [src_b.(k)].  A slot names a register ([0, num_regs)), an
   input line ([num_regs + i]) or a constant rail (the last two slots), so
   every operand read is one array load. *)
type kind = K_load | K_reset | K_imp | K_maj

let run_lanes (program : Program.t) =
  let nr = program.Program.num_regs and ni = program.Program.num_inputs in
  let slot = function
    | Isa.Reg r ->
        if r < 0 || r >= nr then invalid_arg "Interp.run_lanes: register out of range";
        r
    | Isa.Input i ->
        if i < 0 || i >= ni then invalid_arg "Interp.run_lanes: input out of range";
        nr + i
    | Isa.Const b -> nr + ni + Bool.to_int b
  in
  let micros = Array.of_list (List.concat program.Program.steps) in
  let nsteps = List.length program.Program.steps in
  let step_start = Array.make (nsteps + 1) 0 in
  List.iteri
    (fun s step -> step_start.(s + 1) <- step_start.(s) + List.length step)
    program.Program.steps;
  let zero = slot (Isa.Const false) in
  let decoded =
    Array.map
      (function
        | Isa.Load (_, o) -> (K_load, slot o, zero)
        | Isa.Reset _ -> (K_reset, zero, zero)
        | Isa.Imp { src; _ } -> (K_imp, slot (Isa.Reg src), zero)
        | Isa.Maj_pulse { p; q; _ } -> (K_maj, slot p, slot q))
      micros
  in
  let kind = Array.map (fun (c, _, _) -> c) decoded in
  let src_a = Array.map (fun (_, a, _) -> a) decoded in
  let src_b = Array.map (fun (_, _, b) -> b) decoded in
  let dst = Array.map (fun m -> slot (Isa.Reg (Isa.micro_dst m))) micros in
  let pulses c = Array.fold_left (fun n k -> if k = c then n + 1 else n) 0 kind in
  let loads = pulses K_load and resets = pulses K_reset in
  let imps = pulses K_imp and majs = pulses K_maj in
  let width s = step_start.(s + 1) - step_start.(s) in
  let max_width = Array.fold_left max 0 (Array.init nsteps width) in
  let writes = Array.make nr 0 in
  Array.iter (fun d -> writes.(d) <- writes.(d) + 1) dst;
  let outputs = Array.map slot program.Program.outputs in
  fun ~lanes inputs ->
    if lanes < 1 || lanes > Sys.int_size then invalid_arg "Interp.run_lanes: lanes";
    if Array.length inputs <> ni then invalid_arg "Interp.run_lanes: input count";
    let obs = Obs.enabled () in
    let t0 = if obs then Obs.now_ns () else 0L in
    let vals = Array.make (nr + ni + 2) 0 in
    Array.blit inputs 0 vals nr ni;
    vals.(nr + ni + 1) <- -1;
    let la = Array.make max_width 0 and lb = Array.make max_width 0 in
    for s = 0 to nsteps - 1 do
      let lo = step_start.(s) and hi = step_start.(s + 1) in
      (* Parallel semantics: latch all source values before any write; the
         destination's own state is read when its write lands, in order. *)
      for k = lo to hi - 1 do
        la.(k - lo) <- vals.(src_a.(k));
        lb.(k - lo) <- vals.(src_b.(k))
      done;
      for k = lo to hi - 1 do
        let d = dst.(k) and p = la.(k - lo) in
        vals.(d) <-
          (match kind.(k) with
          | K_load -> p
          | K_reset -> 0
          | K_imp -> lnot p lor vals.(d)
          | K_maj ->
              let nq = lnot lb.(k - lo) and r = vals.(d) in
              (p land nq) lor ((p lor nq) land r))
      done
    done;
    if obs then begin
      (* Every counter and histogram reads as if the [lanes] vectors had run
         one by one through {!run}; the wear gauges stay with {!run_on}. *)
      Obs.incr ~by:lanes c_runs;
      Obs.incr ~by:(lanes * nsteps) c_steps;
      Obs.incr ~by:(lanes * loads) c_loads;
      Obs.incr ~by:(lanes * resets) c_resets;
      Obs.incr ~by:(lanes * imps) c_imps;
      Obs.incr ~by:(lanes * majs) c_majs;
      for s = 0 to nsteps - 1 do
        for _ = 1 to lanes do
          Obs.observe h_step_width (width s)
        done
      done;
      Array.iter
        (fun w ->
          for _ = 1 to lanes do
            Obs.observe h_writes w
          done)
        writes;
      Obs.emit_span ~cat:"rram" "rram.interp/run" ~t0
        ~args:
          [
            ("steps", Obs.Json.Int nsteps);
            ("regs", Obs.Json.Int nr);
            ("lanes", Obs.Json.Int lanes);
          ]
    end;
    let mask = if lanes = Sys.int_size then -1 else (1 lsl lanes) - 1 in
    Array.map (fun o -> vals.(o) land mask) outputs
