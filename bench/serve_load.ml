(* Load driver for the migsyn serve daemon.

   Forks a daemon on a private socket, then replays a fixed, deterministic
   request mix against it from several concurrent client domains:

     prime    one request per class, sequential — every class is a cache
              miss exactly once, so the later counters are deterministic
     repeats  REQUESTS requests cycling over the classes — all cache hits
     unique   UNIQUE seeded one-off circuits — misses, one each
     errors   ERRBAD malformed / bad-schema / unknown-op lines — answered
              with structured error envelopes, daemon must survive

   The driver asserts the daemon's request and cache counters against the
   closed-form expectations (any drift is a caching or batching bug and
   exits 1), then writes a migsyn-serve-bench/2 document (default
   BENCH_serve.json) of deterministic mix counts and daemon counters that
   must reproduce bit-exactly.  It records no timings: perfbench's
   serve-mix workload is the daemon's latency and throughput benchmark.

   Usage: serve_load.exe [--socket PATH] [--json FILE] [--requests N]
                         [--clients N] [--jobs N] *)

module Json = Obs.Json

let arg_val name default parse =
  let rec scan = function
    | [] -> default
    | a :: v :: _ when a = name -> parse v
    | _ :: rest -> scan rest
  in
  scan (Array.to_list Sys.argv)

let int_arg name default =
  arg_val name default (fun v ->
      match int_of_string_opt v with
      | Some n when n >= 1 -> n
      | _ -> failwith (Printf.sprintf "serve_load: %s expects a positive integer" name))

let socket_path =
  arg_val "--socket"
    (Filename.concat (Filename.get_temp_dir_name ())
       (Printf.sprintf "migsyn-serve-load-%d.sock" (Unix.getpid ())))
    Fun.id

let json_path = arg_val "--json" "BENCH_serve.json" Fun.id
let requests = int_arg "--requests" 1000
let clients = int_arg "--clients" 4
let server_jobs = int_arg "--jobs" 2
let unique = 64
let err_per_kind = 8

(* ---------------- the request mix ---------------- *)

let effort = 2

let blif_of entry =
  Io.Blif.write_string ~model_name:entry.Io.Benchmarks.name
    (entry.Io.Benchmarks.build ())

let inline source = Serve.Protocol.Inline { format = "blif"; source }

let synth ?(flows = []) ?algorithm ?arch ?cost ?jobs ?(verify = true) circuit =
  Serve.Protocol.Synth
    {
      circuit;
      flows;
      algorithm;
      effort = Some effort;
      jobs;
      cost;
      arch;
      realization = "maj";
      verify;
    }

(* Twelve deterministic request classes over four paper benchmarks:
   canonical algorithms, explicit flow scripts, a portfolio, a crossbar
   target and a verify-off variant. *)
let classes () =
  let pick name =
    match Io.Benchmarks.find name with
    | Some e -> blif_of e
    | None -> failwith ("serve_load: unknown benchmark " ^ name)
  in
  let xor5 = pick "xor5_d" in
  let rd53 = pick "rd53f1" in
  let misex1 = pick "misex1" in
  let con1 = pick "con1f1" in
  [
    ("xor5_d/steps", synth ~algorithm:"steps" (inline xor5));
    ("rd53f1/steps", synth ~algorithm:"steps" (inline rd53));
    ("misex1/steps", synth ~algorithm:"steps" (inline misex1));
    ("con1f1/steps", synth ~algorithm:"steps" (inline con1));
    ("xor5_d/area", synth ~algorithm:"area" (inline xor5));
    ("rd53f1/area", synth ~algorithm:"area" (inline rd53));
    ("misex1/depth", synth ~algorithm:"depth" (inline misex1));
    ("con1f1/depth", synth ~algorithm:"depth" (inline con1));
    ( "xor5_d/script",
      synth ~flows:[ "push_up; omega_i; push_up" ] (inline xor5) );
    ( "rd53f1/portfolio",
      synth
        ~flows:[ "push_up"; "cycle(2){omega_i3; push_up}" ]
        ~cost:"weighted_maj" ~jobs:2 (inline rd53) );
    ( "misex1/xbar",
      synth ~algorithm:"steps" ~arch:"32x32" (inline misex1) );
    ("con1f1/noverify", synth ~algorithm:"steps" ~verify:false (inline con1));
  ]

let unique_request i =
  let name = Printf.sprintf "load%04d" i in
  let net = Io.Gen.random_network ~name ~inputs:8 ~gates:40 ~outputs:4 () in
  synth ~algorithm:"area"
    (inline (Io.Blif.write_string ~model_name:name net))

let bad_lines =
  [
    "{\"schema\":\"migsyn-serve/1\", truncated";
    "{\"schema\":\"migsyn-serve/9\",\"op\":\"ping\"}";
    "{\"schema\":\"migsyn-serve/1\",\"op\":\"dance\"}";
  ]

(* ---------------- helpers ---------------- *)

let encode op = Serve.Protocol.encode_request { Serve.Protocol.id = None; op }

let status json =
  match Json.member "status" json with Json.String s -> s | _ -> "?"

let check_ok label json =
  if status json <> "ok" then
    failwith
      (Printf.sprintf "serve_load: %s answered %s" label (Json.to_string json))

(* ---------------- the run ---------------- *)

let () =
  if Sys.file_exists socket_path then Sys.remove socket_path;
  let pid = Unix.fork () in
  if pid = 0 then begin
    (* the daemon child: defaults except the request mix's pool size *)
    let cfg = Serve.Server.default_config ~socket_path in
    ignore (Serve.Server.run { cfg with Serve.Server.jobs = server_jobs });
    exit 0
  end;
  let finished = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !finished then (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
  @@ fun () ->
  let classes = classes () in
  let n_classes = List.length classes in
  let class_lines = Array.of_list (List.map (fun (_, op) -> encode op) classes) in
  let class_names = Array.of_list (List.map fst classes) in

  (* prime: every class misses exactly once *)
  let c0 = Serve.Client.connect socket_path in
  List.iter
    (fun (label, op) -> check_ok label (Serve.Client.rpc c0 (Json.of_string (encode op))))
    classes;

  (* load: [clients] domains replay repeats + uniques + error lines *)
  let worker w =
    let conn = Serve.Client.connect socket_path in
    let by_class = Array.make n_classes 0 in
    (* repeats: global indices w, w+clients, ... -> class (i mod n_classes) *)
    let i = ref w in
    while !i < requests do
      let c = !i mod n_classes in
      check_ok class_names.(c) (Serve.Client.rpc conn (Json.of_string class_lines.(c)));
      by_class.(c) <- by_class.(c) + 1;
      i := !i + clients
    done;
    (* uniques: one-off circuits, each a miss *)
    let u = ref w in
    while !u < unique do
      let line = encode (unique_request !u) in
      check_ok (Printf.sprintf "load%04d" !u) (Serve.Client.rpc conn (Json.of_string line));
      u := !u + clients
    done;
    (* errors: the daemon must answer structured envelopes and stay up *)
    let e = ref w in
    while !e < err_per_kind * List.length bad_lines do
      let line = List.nth bad_lines (!e mod List.length bad_lines) in
      Serve.Client.send_line conn line;
      let resp = Json.of_string (Serve.Client.recv_line conn) in
      if status resp <> "error" then
        failwith
          (Printf.sprintf "serve_load: bad line answered %s" (Json.to_string resp));
      e := !e + clients
    done;
    Serve.Client.close conn;
    by_class
  in
  let domains = List.init clients (fun w -> Domain.spawn (fun () -> worker w)) in
  let results = List.map Domain.join domains in

  (* totals from the daemon, then shut it down *)
  let metrics =
    Serve.Client.rpc c0 (Json.of_string (encode Serve.Protocol.Metrics))
  in
  check_ok "metrics" metrics;
  check_ok "shutdown"
    (Serve.Client.rpc c0 (Json.of_string (encode Serve.Protocol.Shutdown)));
  Serve.Client.close c0;
  finished := true;
  ignore (Unix.waitpid [] pid);

  (* closed-form expectations: any drift is a caching/batching bug *)
  let result = Json.member "result" metrics in
  let counters = Json.member "requests" result in
  let cache = Json.member "cache" result in
  let geti j name =
    match Json.member name j with
    | Json.Int n -> n
    | _ -> failwith ("serve_load: metrics missing " ^ name)
  in
  let errors_sent = err_per_kind * List.length bad_lines in
  let expect label got want =
    if got <> want then
      failwith
        (Printf.sprintf "serve_load: %s = %d, expected %d" label got want)
  in
  expect "requests.total" (geti counters "total")
    (n_classes + requests + unique + errors_sent + 1);
  expect "requests.ok" (geti counters "ok") (n_classes + requests + unique + 1);
  expect "requests.errors" (geti counters "errors") errors_sent;
  expect "cache.hits" (geti cache "hits") requests;
  expect "cache.misses" (geti cache "misses") (n_classes + unique);
  expect "cache.coalesced" (geti cache "coalesced") 0;
  expect "cache.evictions" (geti cache "evictions") 0;

  let per_class c =
    Json.Assoc
      [
        ("class", Json.String class_names.(c));
        ("requests", Json.Int (List.fold_left (fun n by -> n + by.(c)) 0 results));
      ]
  in
  let doc =
    Json.Assoc
      [
        ("schema", Json.String "migsyn-serve-bench/2");
        ("classes", Json.Int n_classes);
        ("requests", Json.Int (geti counters "total"));
        ("repeats", Json.Int requests);
        ("unique", Json.Int unique);
        ("error_requests", Json.Int errors_sent);
        ("clients", Json.Int clients);
        ("effort", Json.Int effort);
        ( "totals",
          Json.Assoc
            [
              ("ok", Json.Int (geti counters "ok"));
              ("errors", Json.Int (geti counters "errors"));
              ("hits", Json.Int (geti cache "hits"));
              ("misses", Json.Int (geti cache "misses"));
              ("coalesced", Json.Int (geti cache "coalesced"));
              ("evictions", Json.Int (geti cache "evictions"));
            ] );
        ("mix", Json.List (List.init n_classes per_class));
      ]
  in
  Obs.write_json json_path doc;
  Printf.printf "serve_load: %d requests over %d clients (hits=%d misses=%d) -> %s\n"
    (requests + unique + errors_sent)
    clients (geti cache "hits") (geti cache "misses") json_path
