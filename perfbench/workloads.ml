(* The batch workloads' inputs and per-job pipelines.

   A job drives every layer only through that layer's public functions,
   each call wrapped in a [Trace.layer] span named after the layer.  The
   job returns the optimized MIG and the compiled cost numbers; quality is
   read off them outside the job's timed span. *)

type quality = {
  gates : int;
  depth : int;
  rrams : int;
  steps : int;
  devices : int;
  latency : int;
}

let zero_quality =
  { gates = 0; depth = 0; rrams = 0; steps = 0; devices = 0; latency = 0 }

let add_quality a b =
  {
    gates = a.gates + b.gates;
    depth = a.depth + b.depth;
    rrams = a.rrams + b.rrams;
    steps = a.steps + b.steps;
    devices = a.devices + b.devices;
    latency = a.latency + b.latency;
  }

(* What a finished job hands back: the optimized MIG, the Table I (R, S) of
   its program and the program's (devices, latency). *)
type done_job = {
  optimized : Core.Mig.t;
  table1 : Core.Rram_cost.cost;
  cost : Core.Rram_cost.triple;
}

let quality_of d =
  let gates, depth = Core.Mig_passes.size_and_depth d.optimized in
  {
    gates;
    depth;
    rrams = d.table1.Core.Rram_cost.rrams;
    steps = d.table1.Core.Rram_cost.steps;
    devices = d.cost.Core.Rram_cost.devices;
    latency = d.cost.Core.Rram_cost.latency;
  }

let quality_metrics q : Stats.metric list =
  [
    ("gates_total", float_of_int q.gates, "count");
    ("depth_total", float_of_int q.depth, "count");
    ("rrams_total", float_of_int q.rrams, "count");
    ("steps_total", float_of_int q.steps, "count");
    ("devices_total", float_of_int q.devices, "count");
    ("latency_total", float_of_int q.latency, "count");
  ]

let shuffle ~seed items =
  let a = Array.of_list items in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let script ~effort algorithm =
  match Core.Mig_flows.canonical_script ~effort algorithm with
  | Some s -> s
  | None -> invalid_arg ("perfbench: unknown algorithm " ^ algorithm)

let check what ok = if not ok then failwith (what ^ " failed")

let verify program net =
  Trace.add "rram.verify.vectors"
    (float_of_int
       (if Trace.enabled () then
          List.length (Rram.Verify.vectors (Logic.Network.num_inputs net))
        else 0));
  match Trace.layer "rram.verify" (fun () -> Rram.Verify.against_network program net) with
  | Ok () -> ()
  | Error msg -> failwith ("simulator check: " ^ msg)

(* ------------------------------------------------------------------ *)
(* paper: Table II at the paper's effort                              *)
(* ------------------------------------------------------------------ *)

let paper_effort = 40

(* Each Table II column with the realization the paper reports it in. *)
let paper_algorithms =
  Core.Rram_cost.
    [
      ("area", Imp);
      ("depth", Imp);
      ("rram-costs-imp", Imp);
      ("rram-costs-maj", Maj);
      ("steps", Maj);
    ]

type paper_job = {
  circuit : string;
  algorithm : string;
  realization : Core.Rram_cost.realization;
  bench : string;  (** the circuit as .bench text *)
}

let paper_inputs ~seed =
  Io.Benchmarks.table2
  |> List.concat_map (fun (e : Io.Benchmarks.entry) ->
         let bench = Io.Bench_format.write_string (e.build ()) in
         List.map
           (fun (algorithm, realization) ->
             { circuit = e.name; algorithm; realization; bench })
           paper_algorithms)
  |> shuffle ~seed

(* Start-up before job 1: parse the five canonical scripts. *)
let paper_flows () =
  List.map
    (fun (alg, _) -> (alg, Core.Mig_flows.parse_exn (script ~effort:paper_effort alg)))
    paper_algorithms

let run_paper flows job =
  Trace.add "io.read.bytes" (float_of_int (String.length job.bench));
  let net = Trace.layer "io.read" (fun () -> Io.Bench_format.parse_string job.bench) in
  let mig = Trace.layer "core.convert" (fun () -> Core.Mig_of_network.convert net) in
  Trace.add "flow.gates_in" (float_of_int (Core.Mig.num_gates mig));
  let flow = List.assoc job.algorithm flows in
  let optimized = Trace.layer "flow" (fun () -> Core.Mig_flows.run flow mig) in
  check "equivalence check"
    (Trace.layer "core.equiv" (fun () ->
         Core.Mig_equiv.equivalent_network optimized net));
  let r =
    Trace.layer "rram.compile" (fun () ->
        Rram.Compile_mig.compile job.realization optimized)
  in
  verify r.Rram.Compile_mig.program net;
  ignore
    (Trace.layer "io.write" (fun () ->
         Io.Bench_format.write_string (Core.Mig_to_network.export optimized)));
  { optimized; table1 = r.Rram.Compile_mig.analytic; cost = r.Rram.Compile_mig.cost }

(* ------------------------------------------------------------------ *)
(* scale: large seeded circuits on a fitted crossbar                  *)
(* ------------------------------------------------------------------ *)

let scale_effort = 2
let scale_gates = [ 10_000; 30_000 ]

type scale_job = { name : string; aig : string  (** binary AIGER bytes *) }

let scale_inputs ~seed =
  List.map
    (fun gates ->
      let name = Printf.sprintf "scale-s%d-g%d" seed gates in
      let net = Io.Gen.scale_network ~name ~gates () in
      { name; aig = Io.Aiger.write_network_binary net })
    scale_gates

let scale_flow () = Core.Mig_flows.parse_exn (script ~effort:scale_effort "area")

let run_scale flow job =
  Trace.add "io.read.bytes" (float_of_int (String.length job.aig));
  let net = Trace.layer "io.read" (fun () -> Io.Aiger.parse_binary_string job.aig) in
  let mig = Trace.layer "core.convert" (fun () -> Core.Mig_of_network.convert net) in
  Trace.add "flow.gates_in" (float_of_int (Core.Mig.num_gates mig));
  let optimized = Trace.layer "flow" (fun () -> Core.Mig_flows.run flow mig) in
  check "equivalence check"
    (Trace.layer "core.equiv" (fun () ->
         Core.Mig_equiv.equivalent_network optimized net));
  let arch, mapped =
    Trace.layer "rram.crossbar" (fun () ->
        let arch = Rram.Compile_crossbar.fit Core.Rram_cost.Maj optimized in
        (arch, Rram.Compile_crossbar.compile ~arch Core.Rram_cost.Maj optimized))
  in
  let mapped =
    match mapped with Ok m -> m | Error msg -> failwith ("crossbar mapping: " ^ msg)
  in
  (match arch with
  | Core.Rram_cost.Crossbar { rows; _ } ->
      Trace.add "rram.crossbar.rows_total" (float_of_int rows)
  | Core.Rram_cost.Unbounded_serial -> ());
  verify mapped.Rram.Compile_crossbar.program net;
  ignore
    (Trace.layer "io.write" (fun () ->
         Io.Aiger.write_network_binary (Core.Mig_to_network.export optimized)));
  {
    optimized;
    table1 = mapped.Rram.Compile_crossbar.serial;
    cost = mapped.Rram.Compile_crossbar.measured;
  }
