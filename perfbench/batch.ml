(* Run loop of the batch workloads ([paper], [scale]): whole passes over
   the seeded job list, one job at a time, until the run's time is spent.

   A timed run makes at least [min_passes] passes and keeps each job's
   best time over them, which drops most of the slowdowns other tenants
   of a shared host cause for a few seconds at a time. *)

type outcome = {
  metrics : Stats.metric list;
  attempted : int;
  failed : int;
  correct : bool;
}

(* Start-up takes microseconds, below what one CPU-clock reading resolves,
   so the run times groups of [setup_group] start-ups: [setup_groups]
   before the first job and one more before every job, so the samples
   spread over the run.  It reports the median group mean. *)
let setup_groups = 21
let setup_group = 25

let min_passes = 2

let run ~seconds ~trace ~spans_path ~startup ~run_job ~label inputs =
  let start () =
    let flows = startup () in
    (flows, Par.create ~jobs:1 ())
  in
  let setup_samples = ref [] in
  let sample_setup () =
    let t0 = Trace.now () in
    for _ = 1 to setup_group do
      let flows, pool = start () in
      Par.shutdown pool;
      ignore (Sys.opaque_identity flows)
    done;
    setup_samples :=
      (Stats.s_of_ns (Int64.sub (Trace.now ()) t0) /. float_of_int setup_group)
      :: !setup_samples
  in
  for _ = 1 to setup_groups do
    sample_setup ()
  done;
  let flows, pool = start () in
  let attempted = ref 0 and failed = ref 0 and next_id = ref 0 in
  let pass_quality = ref [] in
  let passes = ref 0 in
  let run_pass () =
    let t0 = Trace.now () in
    let quality = ref Workloads.zero_quality in
    let times =
      Array.of_list inputs
      |> Array.map (fun input ->
          sample_setup ();
          incr attempted;
          let id = !next_id in
          incr next_id;
          let r, ns =
            Trace.job id (fun () ->
                match Par.await (Par.submit pool (fun () -> run_job flows input)) with
                | d -> Ok d
                | exception e -> Error (Printexc.to_string e))
          in
          (match r with
          | Ok d -> quality := Workloads.add_quality !quality (Workloads.quality_of d)
          | Error msg ->
              incr failed;
              Printf.eprintf "perfbench: job %s failed: %s\n%!" (label input) msg);
          ns)
    in
    pass_quality := !quality :: !pass_quality;
    incr passes;
    Printf.eprintf "perfbench: pass %d: %d jobs in %.3f CPU s\n%!" !passes
      (Array.length times)
      (Stats.s_of_ns (Int64.sub (Trace.now ()) t0));
    times
  in
  (* Whole passes until [seconds] of wall time have gone by, at least
     [passes]; returns each pass's job times. *)
  let phase ~passes seconds =
    let t0 = Obs.now_ns () in
    let rec go acc =
      let acc = run_pass () :: acc in
      if List.length acc < passes || Stats.s_of_ns (Int64.sub (Obs.now_ns ()) t0) < seconds
      then go acc
      else acc
    in
    go []
  in
  let rate pass_times =
    let n = List.fold_left (fun n a -> n + Array.length a) 0 pass_times in
    let ns = List.fold_left (fun t a -> Array.fold_left Int64.add t a) 0L pass_times in
    float_of_int n /. Stats.s_of_ns ns
  in
  let metrics, trace_ok =
    if trace then begin
      let untraced = phase ~passes:1 (seconds /. 2.0) in
      Trace.set_enabled true;
      let traced = phase ~passes:1 (seconds /. 2.0) in
      Trace.set_enabled false;
      let spans = Trace.spans () in
      Option.iter (fun path -> Trace.write_jsonl path spans) spans_path;
      let b = Layers.breakdown spans in
      ( Layers.metrics b
          ~extra:
            [
              ("trace.overhead", rate untraced /. rate traced);
              ("fail_ratio", float_of_int !failed /. float_of_int !attempted);
            ],
        Layers.sums_to_job_time b )
    end
    else begin
      let best =
        match phase ~passes:min_passes seconds with
        | [] -> [||]
        | first :: rest -> List.fold_left (Array.map2 min) first rest
      in
      let best_ms = Array.to_list (Array.map Stats.ms_of_ns best) in
      ( [
          ("setup_s", Stats.median !setup_samples, "s");
          ("jobs_per_s", rate [ best ], "1/s");
          ("job_p50_ms", Stats.percentile 0.5 best_ms, "ms");
          ("job_p90_ms", Stats.percentile 0.9 best_ms, "ms");
          ("peak_rss_mb", Stats.peak_rss_mb "self", "MB");
        ]
        @ Workloads.quality_metrics (List.hd !pass_quality),
        true )
    end
  in
  Par.shutdown pool;
  (* Quality must repeat exactly from pass to pass. *)
  let repeatable =
    match !pass_quality with
    | [] -> false
    | q :: rest -> List.for_all (( = ) q) rest
  in
  if not repeatable then prerr_endline "perfbench: quality differs between passes";
  if not trace_ok then prerr_endline "perfbench: span self times do not sum to job time";
  {
    metrics;
    attempted = !attempted;
    failed = !failed;
    correct = !failed = 0 && repeatable && trace_ok;
  }
