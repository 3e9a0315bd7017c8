open Logic

type t = {
  program : Program.t;
  num_pis : int;
  num_pos : int;
  init : bool array;
}

let compile ?(algorithm = Core.Mig_opt.Steps) ?effort ?arch realization seq =
  let mig =
    Core.Mig_opt.run ?effort algorithm (Core.Mig_of_network.convert (Seq.combinational seq))
  in
  let compiled = Compile_mig.compile ?arch realization mig in
  {
    program = compiled.Compile_mig.program;
    num_pis = Seq.num_pis seq;
    num_pos = Seq.num_pos seq;
    init = Seq.initial_state seq;
  }

let steps_per_cycle t = Program.num_steps t.program
let rrams t = t.program.Program.num_regs
let program t = t.program

let c_cycles = Obs.counter "rram.seq_exec/cycles"
let g_wear_max = Obs.gauge "rram.seq_exec/wear.max"
let g_wear_total = Obs.gauge "rram.seq_exec/wear.total"

let run ?defects t stream =
  let devices = Interp.crossbar ?defects t.program.Program.num_regs in
  let state = ref (Array.copy t.init) in
  Obs.with_span ~cat:"rram" "rram.seq_exec/run"
    ~args:[ ("cycles", Obs.Json.Int (List.length stream)) ]
    (fun () ->
      let outputs =
        List.map
          (fun inputs ->
            if Array.length inputs <> t.num_pis then
              invalid_arg "Seq_exec.run: input width";
            Obs.incr c_cycles;
            let all = Interp.run_on ~devices t.program (Array.append inputs !state) in
            state := Array.sub all t.num_pos (Array.length t.init);
            Array.sub all 0 t.num_pos)
          stream
      in
      (* Endurance accounting over the whole stream: the crossbar persists
         across cycles, so wear accumulates (unlike Interp's per-run
         gauges, these reflect the stream total). *)
      if Obs.enabled () then begin
        let wear_max = ref 0 and wear_total = ref 0 in
        Array.iter
          (fun d ->
            let w = Device.wear d in
            wear_total := !wear_total + w;
            if w > !wear_max then wear_max := w)
          devices;
        Obs.set_gauge g_wear_max (float_of_int !wear_max);
        Obs.set_gauge g_wear_total (float_of_int !wear_total)
      end;
      outputs)

let verify t seq ?(cycles = 64) ?(seed = 0x5EC) () =
  if Seq.num_pis seq <> t.num_pis then Error "input count mismatch"
  else begin
    let rng = Prng.create seed in
    let stream =
      List.init cycles (fun _ -> Array.init t.num_pis (fun _ -> Prng.bool rng))
    in
    let expect = Seq.simulate seq stream in
    let got = run t stream in
    if expect = got then Ok ()
    else Error "crossbar execution diverged from the sequential reference"
  end
