(* serve-mix: a forked [migsyn serve] daemon at its default configuration,
   driven by a closed loop over two connections from this process: each
   connection sends its next request only after the previous answer.

   About 80% of the requests repeat a working set of ~1000-gate Table II
   circuits x the five paper algorithms (hits once primed); the rest are
   unique seeded random circuits (misses), one miss class of six naming an
   xbar_* accept_if cost.  The daemon's own counters are checked against
   the closed form of the mix.

   A run sends a fixed number of requests, [requests_per_second] for each
   second of the run, so every run of a seed does the same work and the
   daemon's cache and memory end up the same size.

   Request latency is then measured on the CPU clock by an in-process
   replay of the same request lines through the daemon's public stages
   (decode, read, convert, canonical key, cache find/store, synthesis,
   encode); the traced run times that replay per layer.  From the daemon
   itself come its set-up CPU time, its peak memory, its answers and
   counters, and the client-side wall-clock latencies reported with the
   per-layer metrics. *)

module Json = Obs.Json
module P = Serve.Protocol

let requests_per_second = 60.0
let miss_percent = 20

(* Every run has at least this many misses; the quality counts sum the
   working set's answers and the first [min_misses] misses'. *)
let min_misses = 100
let setup_repeats = 15
let working_set = [ "apex1"; "apex5"; "seq"; "x3"; "table5"; "apex6" ]
let algorithms = List.map fst Workloads.paper_algorithms

(* Every request runs its flow at this moderate cycle effort, which keeps
   the untimed warm-up of the working set to seconds. *)
let effort = 10

(* Misses: random circuits of a few hundred gates. *)
let miss_gates = 300
let xbar_flow = "accept_if(xbar_weighted_maj){cycle(10){push_up; omega_i3; omega_i; push_up}}"
let xbar_arch = "64x64"

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let synth ?(flows = []) ?algorithm ?effort ?arch circuit =
  P.Synth
    {
      circuit;
      flows;
      algorithm;
      effort;
      jobs = None;
      cost = None;
      arch;
      realization = "maj";
      verify = true;
    }

let encode op = P.encode_request { P.id = None; op }

let class_lines () =
  working_set
  |> List.concat_map (fun name ->
         let e =
           match Io.Benchmarks.find name with
           | Some e -> e
           | None -> failwith ("perfbench: unknown benchmark " ^ name)
         in
         let source = Io.Bench_format.write_string (e.build ()) in
         List.map
           (fun algorithm ->
             encode (synth ~algorithm ~effort (P.Inline { format = "bench"; source })))
           algorithms)
  |> Array.of_list

let miss_line ~seed i =
  let name = Printf.sprintf "mix-s%d-%d" seed i in
  let net =
    Io.Gen.random_network ~name ~inputs:24 ~gates:miss_gates ~outputs:12 ()
  in
  let circuit =
    P.Inline { format = "blif"; source = Io.Blif.write_string ~model_name:name net }
  in
  let n = List.length algorithms in
  if i mod (n + 1) = n then encode (synth ~flows:[ xbar_flow ] ~arch:xbar_arch circuit)
  else
    encode (synth ~algorithm:(List.nth algorithms (i mod (n + 1))) ~effort circuit)

type kind = Hit of int  (** working-set class *) | Miss of int  (** miss index *)

(* At least [length] requests, exactly [miss_percent]% of them misses (and
   at least [min_misses]), in a seeded order.  Hits cycle through the
   classes, so every seed asks for each class equally often; misses are
   numbered in the order they are sent. *)
let mix ~seed ~length ~classes =
  let length = max length (min_misses * 100 / miss_percent) in
  let n_miss = length * miss_percent / 100 in
  let misses = ref 0 in
  List.init length (fun i -> if i < n_miss then None else Some ((i - n_miss) mod classes))
  |> Workloads.shuffle ~seed
  |> List.map (function
       | Some c -> Hit c
       | None ->
           incr misses;
           Miss (!misses - 1))
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable inflight : (int * int64) option;  (** slot, send time *)
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; inbuf = Buffer.create 65536; inflight = None }

let send c line =
  let s = line ^ "\n" in
  let len = String.length s in
  let rec go off = if off < len then go (off + Unix.write_substring c.fd s off (len - off)) in
  go 0

let chunk = Bytes.create 65536

(* Reads what is available; returns a complete line once one has arrived. *)
let poll_line c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "perfbench: daemon closed the connection";
  let before = Buffer.length c.inbuf in
  Buffer.add_subbytes c.inbuf chunk 0 n;
  match Bytes.index_opt chunk '\n' with
  | Some i when i < n ->
      let s = Buffer.contents c.inbuf in
      let stop = before + i in
      Buffer.clear c.inbuf;
      Buffer.add_string c.inbuf (String.sub s (stop + 1) (String.length s - stop - 1));
      Some (String.sub s 0 stop)
  | _ -> None

let rec recv c = match poll_line c with Some l -> l | None -> recv c

let rpc c line =
  send c line;
  Json.of_string (recv c)

let status j = match Json.member "status" j with Json.String s -> s | _ -> "?"

let int_at path j =
  match List.fold_left (fun j k -> Json.member k j) j path with
  | Json.Int n -> n
  | _ -> failwith ("perfbench: response lacks " ^ String.concat "." path)

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

(* Forks a daemon and returns (pid, connection, CPU ns the daemon spent
   until it answered its first ping).  Readiness comes from the daemon's
   on_listening callback through a pipe, so no connect-retry sleep enters
   the figure. *)
let start_daemon socket =
  let rd, wr = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let cfg = Serve.Server.default_config ~socket_path:socket in
      let on_listening () =
        ignore (Unix.write_substring wr "1" 0 1);
        Unix.close wr
      in
      let code =
        match Serve.Server.run { cfg with Serve.Server.on_listening } with
        | _ -> 0
        | exception _ -> 3
      in
      Unix._exit code
  | pid ->
      Unix.close wr;
      let b = Bytes.create 1 in
      let n = try Unix.read rd b 0 1 with Unix.Unix_error _ -> 0 in
      Unix.close rd;
      if n <> 1 then failwith "perfbench: daemon exited before listening";
      let c = connect socket in
      let pong = rpc c (encode P.Ping) in
      if status pong <> "ok" then failwith "perfbench: daemon did not answer ping";
      (* let the daemon block in select, so its CPU account is settled *)
      Unix.sleepf 0.005;
      (pid, c, Stats.process_cpu_ns pid)

let stop_daemon pid c =
  let ack = rpc c (encode P.Shutdown) in
  Unix.close c.fd;
  ignore (Unix.waitpid [] pid);
  if status ack <> "ok" then failwith "perfbench: daemon refused shutdown"

(* ------------------------------------------------------------------ *)
(* Closed loop                                                         *)
(* ------------------------------------------------------------------ *)

(* Sends every line over [conns], one request in flight per connection;
   calls [answer slot latency_ns line] for every response, after the
   connection's next request is on its way. *)
let closed_loop conns lines ~answer =
  let next = ref 0 in
  let dispatch c =
    if !next < Array.length lines then begin
      c.inflight <- Some (!next, Obs.now_ns ());
      send c lines.(!next);
      incr next
    end
  in
  List.iter dispatch conns;
  let busy () = List.filter (fun c -> c.inflight <> None) conns in
  let rec loop () =
    match busy () with
    | [] -> ()
    | waiting ->
        let ready, _, _ =
          try Unix.select (List.map (fun c -> c.fd) waiting) [] [] (-1.0)
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        List.iter
          (fun c ->
            if List.memq c.fd ready then
              match poll_line c with
              | None -> ()
              | Some line ->
                  let now = Obs.now_ns () in
                  let slot, sent = Option.get c.inflight in
                  c.inflight <- None;
                  dispatch c;
                  answer slot (Int64.sub now sent) line)
          waiting;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* In-process replay of the daemon's stages                            *)
(* ------------------------------------------------------------------ *)

let parse_circuit = function
  | P.Inline { format = "bench"; source } -> Io.Bench_format.parse_string source
  | P.Inline { format = "blif"; source } -> Io.Blif.parse_string source
  | _ -> failwith "perfbench: unexpected circuit encoding"

(* Flows naming an xbar_* cost read the process-global architecture, which
   the daemon sets before running them. *)
let uses_xbar text =
  let n = String.length text in
  let rec go i = i + 5 <= n && (String.sub text i 5 = "xbar_" || go (i + 1)) in
  go 0

let decode line =
  match P.decode_request line with
  | Ok { P.op = P.Synth s; _ } -> s
  | _ -> failwith "perfbench: replayed line is not a synth request"

type prepared = {
  net : Logic.Network.t;
  flow_text : string;
  flow : Core.Mig.t Flow.t;
  arch : Core.Rram_cost.arch;
  canon : Core.Mig.t;
  key : string;
}

(* The daemon's preparation of a synth request: read the circuit, parse the
   flow, convert and key the strash-canonical graph. *)
let prepare (s : P.synth) =
  Trace.add "io.read.bytes"
    (float_of_int
       (match s.P.circuit with P.Inline { source; _ } -> String.length source | P.File _ -> 0));
  let net = Trace.layer "io.read" (fun () -> parse_circuit s.P.circuit) in
  let flow_text =
    match (s.P.flows, s.P.algorithm) with
    | [ f ], None -> f
    | [], Some alg ->
        Workloads.script ~effort:(Option.value s.P.effort ~default:Core.Mig_opt.default_effort) alg
    | _ -> failwith "perfbench: unexpected flow request"
  in
  let arch =
    match Core.Rram_cost.parse_arch (Option.value s.P.arch ~default:"serial") with
    | Ok a -> a
    | Error e -> failwith e
  in
  let flow = Trace.layer "flow" (fun () -> Core.Mig_flows.parse_exn flow_text) in
  let mig = Trace.layer "core.convert" (fun () -> Core.Mig_of_network.convert net) in
  let canon, key =
    Trace.layer "core.strash" (fun () ->
        Serve.Cache.canonical_key ~flow:flow_text
          ~arch:(Core.Rram_cost.arch_to_string arch)
          ~realization:s.P.realization ~verify:s.P.verify mig)
  in
  Trace.add "core.strash.merged"
    (float_of_int (Core.Mig.num_gates mig - Core.Mig.num_gates canon));
  { net; flow_text; flow; arch; canon; key }

(* One request through the stages the daemon runs for it; returns whether
   the cache answered.  Mirrors Serve.Server's prepare/execute path. *)
let replay_one cache line =
  let s = Trace.layer "serve" (fun () -> decode line) in
  let { net; flow_text; flow; arch; canon; key } = prepare s in
  match Trace.layer "serve" (fun () -> Serve.Cache.find cache key) with
  | Some payload ->
      ignore
        (Trace.layer "serve" (fun () ->
             P.response_line (P.ok_response ~id:None ~cache:"hit" ~seconds:0.0 ~result:payload)));
      true
  | None ->
      let t0 = Obs.now_ns () in
      if uses_xbar flow_text then Core.Mig_flows.set_arch arch;
      let optimized = Trace.layer "flow" (fun () -> Core.Mig_flows.run ~name:"serve" flow canon) in
      if
        not
          (Trace.layer "core.equiv" (fun () ->
               Core.Mig_equiv.equivalent_network optimized net))
      then failwith "perfbench: replayed synthesis is not equivalent";
      let realization =
        if s.P.realization = "imp" then Core.Rram_cost.Imp else Core.Rram_cost.Maj
      in
      let r =
        Trace.layer "rram.compile" (fun () -> Rram.Compile_mig.compile ~arch realization optimized)
      in
      let blif =
        Trace.layer "io.write" (fun () ->
            Io.Blif.write_string ~model_name:"served" (Core.Mig_to_network.export optimized))
      in
      Trace.layer "serve" (fun () ->
          let size, depth = Core.Mig_passes.size_and_depth optimized in
          let c = r.Rram.Compile_mig.cost and t = r.Rram.Compile_mig.analytic in
          let payload =
            Json.Assoc
              [
                ("network", Json.Assoc [ ("format", Json.String "blif"); ("source", Json.String blif) ]);
                ("size", Json.Int size);
                ("depth", Json.Int depth);
                ( "cost",
                  Json.Assoc
                    [
                      ("devices", Json.Int c.Core.Rram_cost.devices);
                      ("latency", Json.Int c.Core.Rram_cost.latency);
                      ("utilization", Json.Float c.Core.Rram_cost.utilization);
                    ] );
                ( "table1",
                  Json.Assoc
                    [
                      ("rrams", Json.Int t.Core.Rram_cost.rrams);
                      ("steps", Json.Int t.Core.Rram_cost.steps);
                    ] );
                ("realization", Json.String s.P.realization);
                ("arch", Json.String (Core.Rram_cost.arch_to_string arch));
                ("flow", Json.String flow_text);
                ("verified", Json.Bool true);
                ("fingerprint", Json.String (Serve.Cache.fingerprint key));
              ]
          in
          Serve.Cache.store cache key payload;
          let seconds = Stats.s_of_ns (Int64.sub (Obs.now_ns ()) t0) in
          ignore (P.response_line (P.ok_response ~id:None ~cache:"miss" ~seconds ~result:payload)));
      false

(* A fresh cache holding the daemon's answers for the working set, under
   the keys the replay computes for them. *)
let primed_cache class_lines class_results =
  let cache = Serve.Cache.create () in
  Array.iteri
    (fun i line -> Serve.Cache.store cache (prepare (decode line)).key class_results.(i))
    class_lines;
  cache

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let run ~seconds ~trace ~spans_path ~seed : Batch.outcome =
  let socket k =
    Filename.concat "perfbench"
      (Filename.concat "_out" (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) k))
  in
  (* Set-up, repeated: throwaway daemons first, then the one under load.
     All fork before the mix exists, so no daemon inherits its heap. *)
  let throwaway =
    List.init (setup_repeats - 1) (fun k ->
        let pid, c, ns = start_daemon (socket k) in
        stop_daemon pid c;
        ns)
  in
  let pid, c0, ns = start_daemon (socket setup_repeats) in
  let setup_s = Stats.median (List.map Stats.s_of_ns (ns :: throwaway)) in
  let alive = ref true in
  Fun.protect
    ~finally:(fun () ->
      if !alive then begin
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      end)
  @@ fun () ->
  let c1 = connect (socket setup_repeats) in
  let conns = [ c0; c1 ] in
  (* The mix. *)
  let classes = class_lines () in
  let n_classes = Array.length classes in
  let kinds =
    mix ~seed ~length:(int_of_float (requests_per_second *. seconds)) ~classes:n_classes
  in
  let n_miss = Array.fold_left (fun n k -> match k with Miss _ -> n + 1 | Hit _ -> n) 0 kinds in
  let miss_lines = Array.init n_miss (miss_line ~seed) in
  let lines =
    Array.map (function Hit c -> classes.(c) | Miss m -> miss_lines.(m)) kinds
  in
  let failures = ref 0 and attempted = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr failures;
        prerr_endline ("perfbench: " ^ msg))
      fmt
  in
  let quality = ref Workloads.zero_quality in
  let add_quality r =
    quality :=
      Workloads.add_quality !quality
        {
          Workloads.gates = int_at [ "size" ] r;
          depth = int_at [ "depth" ] r;
          rrams = int_at [ "table1"; "rrams" ] r;
          steps = int_at [ "table1"; "steps" ] r;
          devices = int_at [ "cost"; "devices" ] r;
          latency = int_at [ "cost"; "latency" ] r;
        }
  in
  Printf.eprintf "perfbench: mix: %d requests generated\n%!" (Array.length lines);
  (* Warm-up, untimed: every working-set class misses exactly once. *)
  let class_refs = Array.make n_classes "" in
  let class_results = Array.make n_classes Json.Null in
  closed_loop conns classes ~answer:(fun i _ line ->
      incr attempted;
      let j = Json.of_string line in
      if status j <> "ok" then fail "class %d answered %s" i line
      else begin
        class_refs.(i) <- Json.to_string (P.strip_volatile j);
        class_results.(i) <- Json.member "result" j;
        add_quality class_results.(i)
      end);
  Printf.eprintf "perfbench: warm-up: %d working-set classes answered\n%!" n_classes;
  (* The load. *)
  let wall = Array.make (Array.length lines) 0L in
  let hits = ref 0 and misses = ref 0 in
  (* A hit answer, once checked, is compared byte for byte: every later hit
     of its class must render identically. *)
  let hit_lines = Array.make n_classes "" in
  let check_answer i line =
    let j = Json.of_string line in
    let tag = match Json.member "cache" j with Json.String t -> t | _ -> "?" in
    match kinds.(i) with
    | _ when status j <> "ok" -> fail "request %d answered %s" i line
    | Hit c ->
        if tag <> "hit" then fail "request %d (class %d) was a %s, not a hit" i c tag
        else if Json.to_string (P.strip_volatile j) <> class_refs.(c) then
          fail "request %d differs from the first answer of class %d" i c
        else hit_lines.(c) <- line
    | Miss m ->
        let r = Json.member "result" j in
        if tag <> "miss" then fail "request %d (miss %d) was a %s" i m tag
        else if Json.member "verified" r <> Json.Bool true then
          fail "request %d (miss %d) was not verified" i m
        else if m < min_misses then add_quality r
  in
  let cpu0 = Stats.process_cpu_ns pid in
  closed_loop conns lines ~answer:(fun i ns line ->
      incr attempted;
      wall.(i) <- ns;
      match kinds.(i) with
      | Hit c ->
          incr hits;
          if line <> hit_lines.(c) then check_answer i line
      | Miss _ ->
          incr misses;
          check_answer i line);
  let sent = Array.length lines in
  let load_cpu_s = Stats.s_of_ns (Int64.sub (Stats.process_cpu_ns pid) cpu0) in
  Printf.eprintf "perfbench: load: %d requests (%d hits, %d misses) in %.3f daemon CPU s\n%!"
    sent !hits !misses load_cpu_s;
  (* The daemon's counters must match the closed form of the mix. *)
  let result = Json.member "result" (rpc c0 (encode P.Metrics)) in
  let counter path = int_at path result in
  let expect what got want =
    if got <> want then fail "daemon %s = %d, expected %d" what got want
  in
  expect "cache.hits" (counter [ "cache"; "hits" ]) !hits;
  expect "cache.misses" (counter [ "cache"; "misses" ]) (n_classes + !misses);
  expect "cache.coalesced" (counter [ "cache"; "coalesced" ]) 0;
  expect "cache.evictions" (counter [ "cache"; "evictions" ]) 0;
  expect "requests.errors" (counter [ "requests"; "errors" ]) 0;
  let peak_rss_mb = Stats.peak_rss_mb (string_of_int pid) in
  Unix.close c1.fd;
  stop_daemon pid c0;
  alive := false;
  (* The replay: every load request again, in order, in this process, from
     a cache primed with the daemon's working-set answers. *)
  let replay traced =
    let cache = primed_cache classes class_results in
    Trace.set_enabled traced;
    let t0 = Trace.now () in
    let times =
      Array.init sent (fun i ->
          let was_hit, ns = Trace.job i (fun () -> replay_one cache lines.(i)) in
          let hit = match kinds.(i) with Hit _ -> true | Miss _ -> false in
          if was_hit <> hit then fail "replayed request %d classified differently" i;
          ns)
    in
    let cpu_s = Stats.s_of_ns (Int64.sub (Trace.now ()) t0) in
    Printf.eprintf "perfbench: replay%s: %d requests in %.6f CPU s\n%!"
      (if traced then " (traced)" else "") sent cpu_s;
    let rate = float_of_int sent /. cpu_s in
    Trace.set_enabled false;
    (times, rate)
  in
  let times, untraced_rate = replay false in
  let ms_of samples kind_ok =
    List.filter_map
      (fun i -> if kind_ok kinds.(i) then Some (Stats.ms_of_ns samples.(i)) else None)
      (List.init sent Fun.id)
  in
  let is_hit = function Hit _ -> true | Miss _ -> false in
  let metrics =
    if not trace then
      (* a second replay; each request keeps its better time, as the batch
         workloads keep each job's best pass *)
      let again, _ = replay false in
      let best = Array.map2 min times again in
      let all_ms = ms_of best (fun _ -> true) in
      [
        ("setup_s", setup_s, "s");
        ("jobs_per_s", float_of_int sent /. Stats.s_of_ns (Array.fold_left Int64.add 0L best), "1/s");
        ("job_p50_ms", Stats.percentile 0.5 all_ms, "ms");
        ("job_p90_ms", Stats.percentile 0.9 all_ms, "ms");
        ("peak_rss_mb", peak_rss_mb, "MB");
      ]
      @ Workloads.quality_metrics !quality
    else begin
      let traced_times, traced_rate = replay true in
      let spans = Trace.spans () in
      Option.iter (fun path -> Trace.write_jsonl path spans) spans_path;
      let b = Layers.breakdown spans in
      if not (Layers.sums_to_job_time b) then fail "span self times do not sum to job time";
      (* wall-clock latency at the client minus the replayed stages: the
         socket round trip, the select loop and batching *)
      let unattributed_ms =
        List.fold_left ( +. ) 0.0
          (List.init sent (fun i -> Stats.ms_of_ns (Int64.sub wall.(i) traced_times.(i))))
        /. float_of_int sent
      in
      Layers.metrics b
        ~extra:
          [
            ("serve.cache.hit_ratio", float_of_int !hits /. float_of_int sent);
            ("serve.cache.evictions", float_of_int (counter [ "cache"; "evictions" ]));
            ("serve.cache.coalesced", float_of_int (counter [ "cache"; "coalesced" ]));
            ("serve.batches", float_of_int (counter [ "requests"; "batches" ]));
            ("serve.max_batch", float_of_int (counter [ "requests"; "max_batch" ]));
            ("serve.unattributed_ms", unattributed_ms);
            ("serve.cpu_ms_per_request", 1e3 *. load_cpu_s /. float_of_int sent);
            ("hit_p90_ms", Stats.percentile 0.9 (ms_of wall is_hit));
            ("miss_p90_ms", Stats.percentile 0.9 (ms_of wall (fun k -> not (is_hit k))));
            ("trace.overhead", untraced_rate /. traced_rate);
            ("fail_ratio", float_of_int !failures /. float_of_int (max 1 !attempted));
          ]
    end
  in
  {
    Batch.metrics;
    attempted = !attempted;
    failed = !failures;
    correct = !failures = 0;
  }
