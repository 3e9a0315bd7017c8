(* The migsyn serve daemon: select loop, request batching, the strash
   result cache, and synthesis fan-out over a shared Par pool.  See
   server.mli and docs/PROTOCOL.md. *)

module Json = Obs.Json

type config = {
  socket_path : string;
  jobs : int;
  cache_budget_bytes : int;
  max_request_bytes : int;
  stop : unit -> bool;
  on_listening : unit -> unit;
}

let default_config ~socket_path =
  {
    socket_path;
    jobs = Par.recommended_jobs ();
    cache_budget_bytes = 256 * 1024 * 1024;
    max_request_bytes = 8 * 1024 * 1024;
    stop = (fun () -> false);
    on_listening = ignore;
  }

type summary = {
  requests : int;
  ok : int;
  errors : int;
  batches : int;
  max_batch : int;
  cache : Cache.stats;
}

(* Obs instruments (created at module init; recording is gated on enable). *)
let c_requests = Obs.counter "serve/requests"
let c_errors = Obs.counter "serve/errors"
let h_batch = Obs.histogram "serve.batch/requests"

(* ------------------------------------------------------------------ *)
(* Request preparation (main domain)                                   *)
(* ------------------------------------------------------------------ *)

exception Reject of Protocol.error_code * string

let reject code fmt =
  Printf.ksprintf (fun msg -> raise (Reject (code, msg))) fmt

let parse_inline ~format ~source =
  match Io.Netlist.parse_string ~format source with
  | Some net -> net
  | None -> reject Protocol.Bad_request "unknown circuit format %S" format
  | exception Io.Netlist.Parse_error (line, msg) ->
      reject Protocol.Bad_request "circuit:%d: %s" line msg
  | exception Failure msg -> reject Protocol.Bad_request "circuit: %s" msg

let parse_file path =
  match Io.Netlist.parse_file path with
  | Some net -> net
  | None ->
      reject Protocol.Io_error "%s: unsupported netlist extension %S (expected %s)" path
        (Filename.extension path) Io.Netlist.expected
  | exception Io.Netlist.Parse_error (line, msg) ->
      reject Protocol.Io_error "%s:%d: %s" path line msg
  | exception (Sys_error msg | Failure msg) -> reject Protocol.Io_error "%s" msg

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

type sjob = {
  sj_flows : (string * string) list;  (* (label, script) portfolio specs *)
  sj_single : Core.Mig.t Flow.t option;  (* parsed flow when one script *)
  sj_cost : string;
  sj_jobs : int;
  sj_canon : Core.Mig.t;
  sj_net : Logic.Network.t;
  sj_arch : Core.Rram_cost.arch;
  sj_realization : Core.Rram_cost.realization;
  sj_verify : bool;
  sj_flow_text : string;
  sj_fingerprint : string;
}

let uses_xbar job =
  List.exists (fun (_, s) -> contains_sub s "xbar_") job.sj_flows
  || contains_sub job.sj_cost "xbar_"

let prepare ~pool_jobs (synth : Protocol.synth) =
  let net =
    match synth.circuit with
    | Protocol.Inline { format; source } -> parse_inline ~format ~source
    | Protocol.File path -> parse_file path
  in
  let effort =
    Option.value synth.effort ~default:Core.Mig_opt.default_effort
  in
  let labeled =
    match (synth.flows, synth.algorithm) with
    | [], (None | Some "") -> [ ("steps", Option.get (Core.Mig_flows.canonical_script ~effort "steps")) ]
    | [], Some alg -> (
        match Core.Mig_flows.canonical_script ~effort alg with
        | Some s -> [ (alg, s) ]
        | None ->
            reject Protocol.Bad_request "unknown algorithm %S (expected %s)" alg
              (String.concat ", " Core.Mig_flows.canonical_names))
    | flows, None ->
        List.mapi (fun i s -> (Printf.sprintf "script%d" (i + 1), s)) flows
    | _ :: _, Some _ -> assert false (* the codec rejects this *)
  in
  let parsed =
    List.map
      (fun (label, s) ->
        match Core.Mig_flows.parse s with
        | Ok flow -> (label, s, flow)
        | Error e ->
            reject Protocol.Bad_request "flow %s: %s" label
              (Format.asprintf "%a" Flow.Script.pp_error e))
      labeled
  in
  let cost = Option.value synth.cost ~default:Core.Mig_flows.default_cost in
  if not (List.mem_assoc cost Core.Mig_flows.costs) then
    reject Protocol.Bad_request "unknown cost %S (expected one of %s)" cost
      (String.concat ", " (List.map fst Core.Mig_flows.costs));
  let arch =
    match synth.arch with
    | None -> Core.Rram_cost.Unbounded_serial
    | Some text -> (
        match Core.Rram_cost.parse_arch text with
        | Ok a -> a
        | Error e -> reject Protocol.Bad_request "%s" e)
  in
  let realization =
    match synth.realization with
    | "imp" -> Core.Rram_cost.Imp
    | _ -> Core.Rram_cost.Maj
  in
  let flow_text =
    match labeled with
    | [ (_, s) ] -> s
    | many ->
        Printf.sprintf "portfolio(%s){%s}" cost
          (String.concat " | " (List.map snd many))
  in
  let mig = Core.Mig_of_network.convert net in
  let canon, key =
    Cache.canonical_key ~flow:flow_text
      ~arch:(Core.Rram_cost.arch_to_string arch)
      ~realization:synth.realization ~verify:synth.verify mig
  in
  let job =
    {
      sj_flows = List.map (fun (l, s, _) -> (l, s)) parsed;
      sj_single =
        (match parsed with [ (_, _, flow) ] -> Some flow | _ -> None);
      sj_cost = cost;
      sj_jobs = min (Option.value synth.jobs ~default:1) pool_jobs;
      sj_canon = canon;
      sj_net = net;
      sj_arch = arch;
      sj_realization = realization;
      sj_verify = synth.verify;
      sj_flow_text = flow_text;
      sj_fingerprint = Cache.fingerprint key;
    }
  in
  (key, job)

(* ------------------------------------------------------------------ *)
(* Synthesis (worker domain, or main for xbar-cost flows)              *)
(* ------------------------------------------------------------------ *)

type outcome = (Json.t * float, Protocol.error_code * string) result

let execute job : outcome =
  let t0 = Obs.now_ns () in
  try
    let optimized =
      Obs.with_span ~cat:"serve" "serve/synth" (fun () ->
          match job.sj_single with
          | Some flow -> Core.Mig_flows.run ~name:"serve" flow job.sj_canon
          | None ->
              let winner, _ =
                Core.Mig_flows.portfolio ~jobs:job.sj_jobs ~cost:job.sj_cost
                  job.sj_flows job.sj_canon
              in
              winner)
    in
    if
      job.sj_verify
      && not (Core.Mig_equiv.equivalent_network optimized job.sj_net)
    then
      Error
        ( Protocol.Verification_failed,
          "optimized network is not equivalent to the request circuit" )
    else begin
      let r = Rram.Compile_mig.compile ~arch:job.sj_arch job.sj_realization optimized in
      let size, depth = Core.Mig_passes.size_and_depth optimized in
      let triple = r.Rram.Compile_mig.cost in
      let analytic = r.Rram.Compile_mig.analytic in
      let blif =
        Io.Blif.write_string ~model_name:"served"
          (Core.Mig_to_network.export optimized)
      in
      let payload =
        Json.Assoc
          [
            ( "network",
              Json.Assoc
                [ ("format", Json.String "blif"); ("source", Json.String blif) ]
            );
            ("size", Json.Int size);
            ("depth", Json.Int depth);
            ( "cost",
              Json.Assoc
                [
                  ("devices", Json.Int triple.Core.Rram_cost.devices);
                  ("latency", Json.Int triple.Core.Rram_cost.latency);
                  ("utilization", Json.Float triple.Core.Rram_cost.utilization);
                ] );
            ( "table1",
              Json.Assoc
                [
                  ("rrams", Json.Int analytic.Core.Rram_cost.rrams);
                  ("steps", Json.Int analytic.Core.Rram_cost.steps);
                ] );
            ( "realization",
              Json.String
                (match job.sj_realization with
                | Core.Rram_cost.Imp -> "imp"
                | Core.Rram_cost.Maj -> "maj") );
            ("arch", Json.String (Core.Rram_cost.arch_to_string job.sj_arch));
            ("flow", Json.String job.sj_flow_text);
            ( "verified",
              if job.sj_verify then Json.Bool true else Json.String "skipped" );
            ("fingerprint", Json.String job.sj_fingerprint);
          ]
      in
      let seconds = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9 in
      Ok (payload, seconds)
    end
  with
  | Invalid_argument msg | Failure msg -> Error (Protocol.Synthesis_failed, msg)

(* ------------------------------------------------------------------ *)
(* Connections and the select loop                                     *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  out : Buffer.t;
  mutable alive : bool;
  mutable close_after_flush : bool;
}

type state = {
  cfg : config;
  cache : Cache.t;
  pool : Par.t;
  started_ns : int64;
  read_buf : Bytes.t;  (* every [Unix.read] lands here, then in a conn's [inbuf] *)
  mutable conns : conn list;
  mutable stopping : bool;
  mutable requests : int;
  mutable ok : int;
  mutable errors : int;
  mutable batches : int;
  mutable max_batch : int;
}

let metrics_json state =
  Json.Assoc
    [
      ( "uptime_seconds",
        Json.Float
          (Int64.to_float (Int64.sub (Obs.now_ns ()) state.started_ns) /. 1e9) );
      ("jobs", Json.Int (Par.jobs state.pool));
      ( "requests",
        Json.Assoc
          [
            ("total", Json.Int state.requests);
            ("ok", Json.Int state.ok);
            ("errors", Json.Int state.errors);
            ("batches", Json.Int state.batches);
            ("max_batch", Json.Int state.max_batch);
          ] );
      ("cache", Cache.stats_json state.cache);
    ]

let enqueue conn json =
  if conn.alive then Buffer.add_string conn.out (Protocol.response_line json)

let flush_conn conn =
  if conn.alive && Buffer.length conn.out > 0 then begin
    let s = Buffer.contents conn.out in
    Buffer.clear conn.out;
    let len = String.length s in
    let pos = ref 0 in
    try
      while !pos < len do
        pos := !pos + Unix.write_substring conn.fd s !pos (len - !pos)
      done
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      conn.alive <- false
  end;
  if conn.close_after_flush then conn.alive <- false

let flush_writes state = List.iter flush_conn state.conns

(* ------------------------------------------------------------------ *)
(* Batch processing                                                    *)
(* ------------------------------------------------------------------ *)

type shared = {
  s_key : string;
  s_run : [ `Task of outcome Par.task | `Inline of unit -> outcome ];
  mutable s_outcome : outcome option;
}

type slot =
  | Ready of Json.t
  | Pending of { p_id : string option; p_tag : string; p_shared : shared }

let count_error state =
  state.errors <- state.errors + 1;
  Obs.incr c_errors

let count_request state =
  state.requests <- state.requests + 1;
  Obs.incr c_requests

(* Flows naming xbar_* accept_if costs read the process-global architecture
   (Core.Mig_flows.set_arch); to keep that sound under fan-out, such jobs
   run inline on the accept loop's domain, never on a pool worker. *)
let classify state inflight id (synth : Protocol.synth) =
  match prepare ~pool_jobs:(Par.jobs state.pool) synth with
  | exception Reject (code, msg) ->
      count_error state;
      Ready (Protocol.error_response ~id ~code msg)
  | key, job -> (
      match Cache.find state.cache key with
      | Some payload ->
          state.ok <- state.ok + 1;
          Ready (Protocol.ok_response ~id ~cache:"hit" ~seconds:0.0 ~result:payload)
      | None -> (
          match Hashtbl.find_opt inflight key with
          | Some shared ->
              Cache.note_coalesced state.cache;
              Pending { p_id = id; p_tag = "coalesced"; p_shared = shared }
          | None ->
              Cache.note_miss state.cache;
              let run =
                if uses_xbar job then
                  `Inline
                    (fun () ->
                      Core.Mig_flows.set_arch job.sj_arch;
                      execute job)
                else `Task (Par.submit state.pool (fun () -> execute job))
              in
              let shared = { s_key = key; s_run = run; s_outcome = None } in
              Hashtbl.add inflight key shared;
              Pending { p_id = id; p_tag = "miss"; p_shared = shared }))

let resolve state shared =
  match shared.s_outcome with
  | Some o -> o
  | None ->
      let o =
        try
          match shared.s_run with
          | `Task t -> Par.await t
          | `Inline f -> f ()
        with e ->
          Error
            ( Protocol.Synthesis_failed,
              "unexpected exception: " ^ Printexc.to_string e )
      in
      shared.s_outcome <- Some o;
      (match o with
      | Ok (payload, _) -> Cache.store state.cache shared.s_key payload
      | Error _ -> ());
      o

let process_batch state batch =
  state.batches <- state.batches + 1;
  let n = List.length batch in
  if n > state.max_batch then state.max_batch <- n;
  Obs.observe h_batch n;
  let inflight : (string, shared) Hashtbl.t = Hashtbl.create 8 in
  let slots =
    List.map
      (fun (conn, line) ->
        count_request state;
        let slot =
          match Protocol.decode_request line with
          | Error (code, msg) ->
              count_error state;
              Ready (Protocol.error_response ~id:None ~code msg)
          | Ok { Protocol.id; op } -> (
              match op with
              | Protocol.Ping ->
                  state.ok <- state.ok + 1;
                  Ready
                    (Protocol.ok_response ~id ~cache:"none" ~seconds:0.0
                       ~result:
                         (Json.Assoc
                            [
                              ("pong", Json.Bool true);
                              ( "schemas",
                                Json.List [ Json.String Protocol.schema ] );
                            ]))
              | Protocol.Metrics ->
                  state.ok <- state.ok + 1;
                  Ready
                    (Protocol.ok_response ~id ~cache:"none" ~seconds:0.0
                       ~result:(metrics_json state))
              | Protocol.Shutdown ->
                  state.ok <- state.ok + 1;
                  state.stopping <- true;
                  Ready
                    (Protocol.ok_response ~id ~cache:"none" ~seconds:0.0
                       ~result:(Json.Assoc [ ("stopping", Json.Bool true) ]))
              | Protocol.Synth synth -> classify state inflight id synth)
        in
        (conn, slot))
      batch
  in
  List.iter
    (fun (conn, slot) ->
      let json =
        match slot with
        | Ready j -> j
        | Pending { p_id; p_tag; p_shared } -> (
            match resolve state p_shared with
            | Ok (payload, seconds) ->
                state.ok <- state.ok + 1;
                Protocol.ok_response ~id:p_id ~cache:p_tag ~seconds
                  ~result:payload
            | Error (code, msg) ->
                count_error state;
                Protocol.error_response ~id:p_id ~code msg)
      in
      enqueue conn json)
    slots;
  flush_writes state

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let chunk_bytes = 65536

let trim_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* Does [buf] hold a newline in its first [n] bytes? *)
let has_newline buf n =
  let rec go i = i < n && (Bytes.unsafe_get buf i = '\n' || go (i + 1)) in
  go 0

let read_conn state conn batch =
  let buf = state.read_buf in
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      conn.alive <- false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | 0 -> conn.alive <- false
  | n ->
      Buffer.add_subbytes conn.inbuf buf 0 n;
      if has_newline buf n then begin
        let data = Buffer.contents conn.inbuf in
        Buffer.clear conn.inbuf;
        let rec go = function
          | [] -> ()
          | [ rest ] -> Buffer.add_string conn.inbuf rest
          | line :: tl ->
              let line = trim_cr line in
              (if line <> "" then
                 if String.length line > state.cfg.max_request_bytes then begin
                   count_request state;
                   count_error state;
                   enqueue conn
                     (Protocol.error_response ~id:None ~code:Protocol.Oversized
                        (Printf.sprintf
                           "request line of %d bytes exceeds the server cap of %d"
                           (String.length line) state.cfg.max_request_bytes))
                 end
                 else batch := (conn, line) :: !batch);
              go tl
        in
        go (String.split_on_char '\n' data)
      end;
      (* an unterminated line beyond the cap can never become a request;
         answer once and drop the connection (the stream cannot resync) *)
      if
        conn.alive
        && (not conn.close_after_flush)
        && Buffer.length conn.inbuf > state.cfg.max_request_bytes
      then begin
        count_request state;
        count_error state;
        enqueue conn
          (Protocol.error_response ~id:None ~code:Protocol.Oversized
             (Printf.sprintf
                "request line exceeds the server cap of %d bytes"
                state.cfg.max_request_bytes));
        conn.close_after_flush <- true
      end

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)
(* ------------------------------------------------------------------ *)

let accept_ready state srv =
  let rec go () =
    match Unix.accept srv with
    | fd, _ ->
        state.conns <-
          {
            fd;
            inbuf = Buffer.create 256;
            out = Buffer.create 256;
            alive = true;
            close_after_flush = false;
          }
          :: state.conns;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let round state srv =
  let fds = srv :: List.map (fun c -> c.fd) state.conns in
  match Unix.select fds [] [] 0.25 with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | ready, _, _ ->
      if List.memq srv ready then accept_ready state srv;
      let batch = ref [] in
      List.iter
        (fun conn ->
          if conn.alive && List.memq conn.fd ready then
            read_conn state conn batch)
        state.conns;
      let batch = List.rev !batch in
      if batch <> [] then process_batch state batch else flush_writes state;
      state.conns <-
        List.filter
          (fun c ->
            if c.alive then true
            else begin
              (try Unix.close c.fd with Unix.Unix_error _ -> ());
              false
            end)
          state.conns

let record_manifest state =
  if Obs.enabled () then begin
    Obs.Manifest.add_result "requests" (Json.Int state.requests);
    Obs.Manifest.add_result "ok" (Json.Int state.ok);
    Obs.Manifest.add_result "request_errors" (Json.Int state.errors);
    Obs.Manifest.add_result "batches" (Json.Int state.batches);
    Obs.Manifest.add_result "max_batch" (Json.Int state.max_batch);
    Obs.Manifest.add_result "cache" (Cache.stats_json state.cache)
  end

let summary_of state =
  {
    requests = state.requests;
    ok = state.ok;
    errors = state.errors;
    batches = state.batches;
    max_batch = state.max_batch;
    cache = Cache.stats state.cache;
  }

let run cfg =
  if cfg.jobs < 1 then invalid_arg "Serve.Server.run: jobs must be >= 1";
  if cfg.max_request_bytes < 1 then
    invalid_arg "Serve.Server.run: max_request_bytes must be positive";
  (* a client that vanished mid-write must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if Sys.file_exists cfg.socket_path then (
    try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cleanup_socket () =
    (try Unix.close srv with Unix.Unix_error _ -> ());
    try Unix.unlink cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ()
  in
  match
    Unix.bind srv (Unix.ADDR_UNIX cfg.socket_path);
    Unix.listen srv 64;
    Unix.set_nonblock srv
  with
  | exception e ->
      cleanup_socket ();
      raise e
  | () ->
      cfg.on_listening ();
      let state =
        {
          cfg;
          cache = Cache.create ~budget_bytes:cfg.cache_budget_bytes ();
          pool = Par.create ~jobs:cfg.jobs ();
          started_ns = Obs.now_ns ();
          read_buf = Bytes.create chunk_bytes;
          conns = [];
          stopping = false;
          requests = 0;
          ok = 0;
          errors = 0;
          batches = 0;
          max_batch = 0;
        }
      in
      let finish () =
        List.iter
          (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
          state.conns;
        state.conns <- [];
        Par.shutdown state.pool;
        cleanup_socket ();
        record_manifest state;
        summary_of state
      in
      (try
         while not (state.stopping || cfg.stop ()) do
           round state srv
         done
       with e ->
         ignore (finish ());
         raise e);
      finish ()
