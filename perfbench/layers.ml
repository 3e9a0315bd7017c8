(* Per-layer metrics from the recorded spans.

   Every workload reports the same per-layer set; a layer a workload does
   not reach reports zero calls and zero time. *)

let names =
  [
    "io.read";
    "io.write";
    "core.convert";
    "core.strash";
    "flow";
    "core.equiv";
    "rram.compile";
    "rram.crossbar";
    "rram.verify";
    "serve";
  ]

type breakdown = {
  self_ns : (string * int64) list;  (** per layer, in [names] order *)
  calls : (string * int) list;
  job_ns : int64;  (** summed over traced jobs *)
  unattributed_ns : int64;  (** the jobs' own self time *)
}

let breakdown spans =
  let self = Hashtbl.create 16 and calls = Hashtbl.create 16 in
  let total = ref 0L and unattributed = ref 0L in
  List.iter
    (fun ((s : Trace.span), self_ns) ->
      if s.name = "job" then begin
        total := Int64.add !total (Int64.sub s.stop_ns s.start_ns);
        unattributed := Int64.add !unattributed self_ns
      end
      else begin
        if not (List.mem s.name names) then
          failwith ("perfbench: span of unknown layer " ^ s.name);
        Hashtbl.replace self s.name
          (Int64.add self_ns (Option.value (Hashtbl.find_opt self s.name) ~default:0L));
        Hashtbl.replace calls s.name
          (1 + Option.value (Hashtbl.find_opt calls s.name) ~default:0)
      end)
    (Trace.self_times spans);
  {
    self_ns =
      List.map (fun n -> (n, Option.value (Hashtbl.find_opt self n) ~default:0L)) names;
    calls = List.map (fun n -> (n, Option.value (Hashtbl.find_opt calls n) ~default:0)) names;
    job_ns = !total;
    unattributed_ns = !unattributed;
  }

(* The self times of each job's spans must add up to the job's time;
   [Trace.self_times] makes that an identity, so a mismatch is a recorder
   bug (a span that escaped its job). *)
let sums_to_job_time b =
  Int64.add b.unattributed_ns (List.fold_left (fun acc (_, ns) -> Int64.add acc ns) 0L b.self_ns)
  = b.job_ns

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The metrics every workload's traced run prints.  [extra] supplies the
   workload-specific values (serve counters, latency splits); missing ones
   read zero. *)
let metrics b ~extra : Stats.metric list =
  let job = Int64.to_float b.job_ns in
  let get name = Option.value (List.assoc_opt name extra) ~default:0.0 in
  let per_layer =
    List.concat_map
      (fun n ->
        let self = Int64.to_float (List.assoc n b.self_ns) in
        [
          (n ^ ".self_ms", self /. 1e6, "ms");
          (n ^ ".share", ratio self job, "ratio");
          (n ^ ".calls", float_of_int (List.assoc n b.calls), "count");
        ])
      names
  in
  let read_s = Int64.to_float (List.assoc "io.read" b.self_ns) /. 1e9 in
  let verify_s = Int64.to_float (List.assoc "rram.verify" b.self_ns) /. 1e9 in
  per_layer
  @ [
      ("io.read.mb_per_s", ratio (Trace.count "io.read.bytes" /. 1e6) read_s, "MB/s");
      ("core.strash.merged", Trace.count "core.strash.merged", "count");
      ("flow.gates_in", Trace.count "flow.gates_in", "count");
      ("rram.crossbar.rows_total", Trace.count "rram.crossbar.rows_total", "count");
      ("rram.verify.vectors", Trace.count "rram.verify.vectors", "count");
      ("rram.verify.vectors_per_s", ratio (Trace.count "rram.verify.vectors") verify_s, "1/s");
      ("serve.cache.hit_ratio", get "serve.cache.hit_ratio", "ratio");
      ("serve.cache.evictions", get "serve.cache.evictions", "count");
      ("serve.cache.coalesced", get "serve.cache.coalesced", "count");
      ("serve.batches", get "serve.batches", "count");
      ("serve.max_batch", get "serve.max_batch", "count");
      ("serve.unattributed_ms", get "serve.unattributed_ms", "ms");
      ("serve.cpu_ms_per_request", get "serve.cpu_ms_per_request", "ms");
      ("hit_p90_ms", get "hit_p90_ms", "ms");
      ("miss_p90_ms", get "miss_p90_ms", "ms");
      ("unattributed.share", ratio (Int64.to_float b.unattributed_ns) job, "ratio");
      ("trace.overhead", get "trace.overhead", "ratio");
      ("fail_ratio", get "fail_ratio", "ratio");
    ]
