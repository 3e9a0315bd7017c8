module Json = Json

let enabled_flag = ref false
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag
external now_ns : unit -> (int64[@unboxed]) = "migsyn_now_ns_byte" "migsyn_now_ns"
  [@@noalloc]

(* Trace timestamps are reported relative to this origin so they stay small
   and readable in trace viewers. *)
let epoch = ref (now_ns ())

(* ------------------------------------------------------------------ *)
(* Instruments                                                         *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; mutable c_count : int }
type gauge = { g_name : string; mutable g_value : float; mutable g_set : bool }

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  h_buckets : (int, int) Hashtbl.t;
}

type series = {
  s_name : string;
  (* most recent first; each sample keeps its monotonic timestamp so it can
     be exported as a Chrome counter event *)
  mutable s_samples : (int64 * (string * float) list) list;
}

type span_event = {
  e_name : string;
  e_cat : string;
  e_tid : int;  (* owning domain id *)
  e_path : string list;  (* root-first enclosing spans, [e_name] last *)
  e_start : int64;
  e_dur : int64;
  e_args : (string * Json.t) list;
}

(* All instrument state lives in a per-domain [store].  The main domain owns
   the process-global registry that [reset]/export operate on; every other
   domain (a Par worker) records into a domain-local store reachable through
   DLS, which Par hands back to the pool owner at shutdown for merging.
   Handles created at module-initialization time on the main domain are
   shared records, so mutation entry points re-route by instrument *name*
   when running off the main domain — a worker never writes to main-domain
   state, and no lock is needed anywhere on the recording path. *)
type store = {
  counters_tbl : (string, counter) Hashtbl.t;
  gauges_tbl : (string, gauge) Hashtbl.t;
  histograms_tbl : (string, histogram) Hashtbl.t;
  series_tbl : (string, series) Hashtbl.t;
  mutable events : span_event list;
  (* innermost-first names of the spans currently open on this domain *)
  mutable span_stack : string list;
}

let fresh_store () =
  {
    counters_tbl = Hashtbl.create 64;
    gauges_tbl = Hashtbl.create 16;
    histograms_tbl = Hashtbl.create 16;
    series_tbl = Hashtbl.create 16;
    events = [];
    span_stack = [];
  }

let global_store = fresh_store ()
let local_key = Domain.DLS.new_key fresh_store

let store () =
  if Domain.is_main_domain () then global_store else Domain.DLS.get local_key

let registered tbl make name =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
      let v = make name in
      Hashtbl.replace tbl name v;
      v

let make_counter name = { c_name = name; c_count = 0 }
let make_gauge name = { g_name = name; g_value = 0.0; g_set = false }

let make_histogram name =
  {
    h_name = name;
    h_count = 0;
    h_sum = 0;
    h_min = max_int;
    h_max = min_int;
    h_buckets = Hashtbl.create 16;
  }

let make_series name = { s_name = name; s_samples = [] }
let counter name = registered (store ()).counters_tbl make_counter name
let gauge name = registered (store ()).gauges_tbl make_gauge name
let histogram name = registered (store ()).histograms_tbl make_histogram name
let series name = registered (store ()).series_tbl make_series name

(* Route a (possibly main-domain) handle to the calling domain's twin. *)
let own_counter c = if Domain.is_main_domain () then c else counter c.c_name
let own_gauge g = if Domain.is_main_domain () then g else gauge g.g_name
let own_histogram h = if Domain.is_main_domain () then h else histogram h.h_name
let own_series s = if Domain.is_main_domain () then s else series s.s_name

let incr ?(by = 1) c =
  if !enabled_flag then begin
    let c = own_counter c in
    c.c_count <- c.c_count + by
  end

let count c = c.c_count

let set_gauge g v =
  if !enabled_flag then begin
    let g = own_gauge g in
    g.g_value <- v;
    g.g_set <- true
  end

let gauge_value g = g.g_value

let observe_into h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  Hashtbl.replace h.h_buckets v
    (1 + Option.value ~default:0 (Hashtbl.find_opt h.h_buckets v))

let observe h v = if !enabled_flag then observe_into (own_histogram h) v
let histogram_count h = h.h_count

let histogram_buckets h =
  Hashtbl.fold (fun v c acc -> (v, c) :: acc) h.h_buckets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Exact nearest-rank percentile over the per-value buckets: the smallest
   observed value whose cumulative count reaches ceil(p/100 * n). *)
let histogram_percentile h p =
  if h.h_count = 0 then 0.0
  else begin
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank =
      max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.h_count)))
    in
    let rec walk cum = function
      | [] -> float_of_int h.h_max
      | (v, c) :: rest -> if cum + c >= rank then float_of_int v else walk (cum + c) rest
    in
    walk 0 (histogram_buckets h)
  end

let sample s fields =
  if !enabled_flag then begin
    let s = own_series s in
    s.s_samples <- (now_ns (), fields) :: s.s_samples
  end

let samples s = List.rev_map snd s.s_samples

let emit_span ?(cat = "") ?(args = []) name ~t0 =
  if !enabled_flag then begin
    let t1 = now_ns () in
    let st = store () in
    st.events <-
      {
        e_name = name;
        e_cat = cat;
        e_tid = (Domain.self () :> int);
        e_path = List.rev (name :: st.span_stack);
        e_start = t0;
        e_dur = Int64.sub t1 t0;
        e_args = args;
      }
      :: st.events
  end

let with_span ?cat ?args name f =
  if not !enabled_flag then f ()
  else begin
    let st = store () in
    let t0 = now_ns () in
    st.span_stack <- name :: st.span_stack;
    let pop () =
      (* the event's own path is stack + name, so pop before emitting *)
      match st.span_stack with
      | top :: rest when top == name -> st.span_stack <- rest
      | stack ->
          (* a nested reset dropped the stack; don't corrupt what's left *)
          st.span_stack <- stack
    in
    match f () with
    | v ->
        pop ();
        emit_span ?cat ?args name ~t0;
        v
    | exception e ->
        pop ();
        emit_span ?cat ?args name ~t0;
        raise e
  end

(* Run [f] with the calling domain's span stack cleared, so the spans it
   records are rooted at top level no matter where the call site sits.  The
   [Par] pool wraps every task in this: a task inlined on the main domain
   (jobs = 1) and the same task on a worker then record identical paths,
   which is what makes the collapsed-stack export identical for every
   [--jobs]. *)
let with_task_root f =
  if not !enabled_flag then f ()
  else begin
    let st = store () in
    let saved = st.span_stack in
    st.span_stack <- [];
    Fun.protect ~finally:(fun () -> (store ()).span_stack <- saved) f
  end

let reset () =
  let st = store () in
  Hashtbl.iter (fun _ c -> c.c_count <- 0) st.counters_tbl;
  Hashtbl.iter
    (fun _ g ->
      g.g_value <- 0.0;
      g.g_set <- false)
    st.gauges_tbl;
  Hashtbl.iter
    (fun _ h ->
      h.h_count <- 0;
      h.h_sum <- 0;
      h.h_min <- max_int;
      h.h_max <- min_int;
      Hashtbl.reset h.h_buckets)
    st.histograms_tbl;
  Hashtbl.iter (fun _ s -> s.s_samples <- []) st.series_tbl;
  st.events <- [];
  st.span_stack <- [];
  epoch := now_ns ()

(* ------------------------------------------------------------------ *)
(* Worker-domain buffers                                               *)
(* ------------------------------------------------------------------ *)

module Worker = struct
  type snapshot = store

  let capture () =
    if Domain.is_main_domain () then fresh_store ()
    else begin
      let s = Domain.DLS.get local_key in
      Domain.DLS.set local_key (fresh_store ());
      s
    end

  let merge snap =
    let dst = store () in
    Hashtbl.iter
      (fun name (c : counter) ->
        let d = registered dst.counters_tbl make_counter name in
        d.c_count <- d.c_count + c.c_count)
      snap.counters_tbl;
    Hashtbl.iter
      (fun name (g : gauge) ->
        if g.g_set then begin
          let d = registered dst.gauges_tbl make_gauge name in
          d.g_value <- g.g_value;
          d.g_set <- true
        end)
      snap.gauges_tbl;
    Hashtbl.iter
      (fun name (h : histogram) ->
        let d = registered dst.histograms_tbl make_histogram name in
        Hashtbl.iter
          (fun v n ->
            Hashtbl.replace d.h_buckets v
              (n + Option.value ~default:0 (Hashtbl.find_opt d.h_buckets v)))
          h.h_buckets;
        d.h_count <- d.h_count + h.h_count;
        d.h_sum <- d.h_sum + h.h_sum;
        if h.h_count > 0 then begin
          d.h_min <- min d.h_min h.h_min;
          d.h_max <- max d.h_max h.h_max
        end)
      snap.histograms_tbl;
    Hashtbl.iter
      (fun name (s : series) ->
        if s.s_samples <> [] then begin
          let d = registered dst.series_tbl make_series name in
          (* keep the newest-first invariant across the interleaved domains *)
          d.s_samples <-
            List.sort
              (fun (a, _) (b, _) -> Int64.compare b a)
              (s.s_samples @ d.s_samples)
        end)
      snap.series_tbl;
    dst.events <- snap.events @ dst.events
end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let sorted_names tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let counters () =
  let st = store () in
  List.map
    (fun n -> (n, (Hashtbl.find st.counters_tbl n).c_count))
    (sorted_names st.counters_tbl)

(* ------------------------------------------------------------------ *)
(* Span tree                                                           *)
(* ------------------------------------------------------------------ *)

type span_node = {
  sn_name : string;
  sn_path : string list;
  sn_count : int;
  sn_total_ns : int64;  (* inclusive: wall time with children *)
  sn_self_ns : int64;  (* exclusive: inclusive minus direct children *)
  sn_children : span_node list;  (* sorted by name *)
}

let parent_path path =
  match List.rev path with [] | [ _ ] -> None | _ :: rev -> Some (List.rev rev)

(* Aggregate the recorded events into a forest keyed by full span path.
   Implicit nodes (a prefix that never completed as an event of its own,
   e.g. a span still open at export time) get count 0 and inherit their
   children's total, so inclusive >= exclusive holds everywhere. *)
let span_tree () =
  let agg : (string list, int * int64) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let c, t = Option.value ~default:(0, 0L) (Hashtbl.find_opt agg e.e_path) in
      Hashtbl.replace agg e.e_path (c + 1, Int64.add t e.e_dur))
    (store ()).events;
  (* prefix-close the path set and record parent -> children edges *)
  let known : (string list, unit) Hashtbl.t = Hashtbl.create 64 in
  let children : (string list, string list list) Hashtbl.t = Hashtbl.create 64 in
  let rec close path =
    if not (Hashtbl.mem known path) then begin
      Hashtbl.replace known path ();
      match parent_path path with
      | None -> ()
      | Some parent ->
          Hashtbl.replace children parent
            (path :: Option.value ~default:[] (Hashtbl.find_opt children parent));
          close parent
    end
  in
  Hashtbl.iter (fun path _ -> close path) agg;
  let rec build path =
    let count, total = Option.value ~default:(0, 0L) (Hashtbl.find_opt agg path) in
    let kids =
      Option.value ~default:[] (Hashtbl.find_opt children path)
      |> List.sort_uniq compare |> List.map build
    in
    let kids_total =
      List.fold_left (fun acc k -> Int64.add acc k.sn_total_ns) 0L kids
    in
    let total = if count = 0 then kids_total else total in
    {
      sn_name = (match List.rev path with n :: _ -> n | [] -> "");
      sn_path = path;
      sn_count = count;
      sn_total_ns = total;
      sn_self_ns = Int64.max 0L (Int64.sub total kids_total);
      sn_children = kids;
    }
  in
  Hashtbl.fold (fun path _ acc -> match path with [ _ ] -> path :: acc | _ -> acc) known []
  |> List.sort_uniq compare |> List.map build

let rec fold_span_tree f acc node =
  List.fold_left (fold_span_tree f) (f acc node) node.sn_children

(* flamegraph.pl-compatible collapsed stacks: one "a;b;c WEIGHT" line per
   path, lexicographically sorted.  [`Calls] weights by call count and is
   fully deterministic for a deterministic workload — byte-identical for
   every --jobs (the CI pins this); [`Time_us] weights by exclusive self
   time in microseconds, the usual flame-graph view. *)
let collapsed_stacks ?(weight = `Time_us) () =
  let lines =
    List.fold_left
      (fun acc root ->
        fold_span_tree
          (fun acc n ->
            let w =
              match weight with
              | `Calls -> n.sn_count
              | `Time_us -> Int64.to_int (Int64.div n.sn_self_ns 1_000L)
            in
            if w <= 0 then acc
            else Printf.sprintf "%s %d" (String.concat ";" n.sn_path) w :: acc)
          acc root)
      [] (span_tree ())
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    (List.sort compare lines);
  Buffer.contents buf

let rec span_node_json n =
  Json.Assoc
    (("name", Json.String n.sn_name)
     :: ("count", Json.Int n.sn_count)
     :: ("total_ns", Json.Int (Int64.to_int n.sn_total_ns))
     :: ("self_ns", Json.Int (Int64.to_int n.sn_self_ns))
     ::
     (if n.sn_children = [] then []
      else [ ("children", Json.List (List.map span_node_json n.sn_children)) ]))

let span_tree_json () = Json.List (List.map span_node_json (span_tree ()))

type span_stat = { st_count : int; st_total : int64; st_self : int64 }

(* Flat per-name aggregates (metrics export): totals by event,
   self time by summing the tree nodes that end in the name. *)
let span_stats () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let prev =
        Option.value
          ~default:{ st_count = 0; st_total = 0L; st_self = 0L }
          (Hashtbl.find_opt tbl e.e_name)
      in
      Hashtbl.replace tbl e.e_name
        {
          prev with
          st_count = prev.st_count + 1;
          st_total = Int64.add prev.st_total e.e_dur;
        })
    (store ()).events;
  List.iter
    (fun root ->
      fold_span_tree
        (fun () n ->
          match Hashtbl.find_opt tbl n.sn_name with
          | None -> ()
          | Some prev ->
              Hashtbl.replace tbl n.sn_name
                { prev with st_self = Int64.add prev.st_self n.sn_self_ns })
        () root)
    (span_tree ());
  Hashtbl.fold (fun name st acc -> (name, st) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b.st_total a.st_total)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let histogram_summary_json h =
  let mean = if h.h_count = 0 then 0.0 else float_of_int h.h_sum /. float_of_int h.h_count in
  [
    ("count", Json.Int h.h_count);
    ("sum", Json.Int h.h_sum);
    ("min", Json.Int (if h.h_count = 0 then 0 else h.h_min));
    ("max", Json.Int (if h.h_count = 0 then 0 else h.h_max));
    ("mean", Json.Float mean);
    ("p50", Json.Float (histogram_percentile h 50.0));
    ("p90", Json.Float (histogram_percentile h 90.0));
    ("p99", Json.Float (histogram_percentile h 99.0));
  ]

let histogram_json h =
  Json.Assoc
    (histogram_summary_json h
    @ [
        ( "buckets",
          Json.List
            (List.map
               (fun (v, c) -> Json.List [ Json.Int v; Json.Int c ])
               (histogram_buckets h)) );
      ])

let metrics_json () =
  let st = store () in
  let counters_json =
    Json.Assoc (List.map (fun (n, c) -> (n, Json.Int c)) (counters ()))
  in
  let gauges_json =
    Json.Assoc
      (List.filter_map
         (fun n ->
           let g = Hashtbl.find st.gauges_tbl n in
           if g.g_set then Some (n, Json.Float g.g_value) else None)
         (sorted_names st.gauges_tbl))
  in
  let histograms_json =
    Json.Assoc
      (List.map
         (fun n -> (n, histogram_json (Hashtbl.find st.histograms_tbl n)))
         (sorted_names st.histograms_tbl))
  in
  let series_json =
    Json.Assoc
      (List.map
         (fun n ->
           let s = Hashtbl.find st.series_tbl n in
           ( n,
             Json.List
               (List.map
                  (fun fields ->
                    Json.Assoc (List.map (fun (k, v) -> (k, Json.Float v)) fields))
                  (samples s)) ))
         (sorted_names st.series_tbl))
  in
  let spans_json =
    Json.Assoc
      (List.map
         (fun (name, st) ->
           ( name,
             Json.Assoc
               [
                 ("count", Json.Int st.st_count);
                 ("total_ns", Json.Int (Int64.to_int st.st_total));
                 ("self_ns", Json.Int (Int64.to_int st.st_self));
                 ( "mean_ns",
                   Json.Float
                     (if st.st_count = 0 then 0.0
                      else Int64.to_float st.st_total /. float_of_int st.st_count) );
               ] ))
         (span_stats ()))
  in
  Json.Assoc
    [
      ("counters", counters_json);
      ("gauges", gauges_json);
      ("histograms", histograms_json);
      ("series", series_json);
      ("spans", spans_json);
    ]

let us_since_epoch ts = Int64.to_float (Int64.sub ts !epoch) /. 1_000.0

let chrome_trace_json () =
  let st = store () in
  let common name cat tid ts =
    [
      ("name", Json.String name);
      ("cat", Json.String (if cat = "" then "default" else cat));
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("ts", Json.Float (us_since_epoch ts));
    ]
  in
  let complete_events =
    List.rev_map
      (fun e ->
        Json.Assoc
          (common e.e_name e.e_cat (e.e_tid + 1) e.e_start
          @ [
              ("ph", Json.String "X");
              ("dur", Json.Float (Int64.to_float e.e_dur /. 1_000.0));
            ]
          @ if e.e_args = [] then [] else [ ("args", Json.Assoc e.e_args) ]))
      st.events
  in
  let counter_events =
    List.concat_map
      (fun n ->
        let s = Hashtbl.find st.series_tbl n in
        List.rev_map
          (fun (ts, fields) ->
            Json.Assoc
              (common s.s_name "series" 1 ts
              @ [
                  ("ph", Json.String "C");
                  ( "args",
                    Json.Assoc (List.map (fun (k, v) -> (k, Json.Float v)) fields) );
                ]))
          s.s_samples)
      (sorted_names st.series_tbl)
  in
  let metadata =
    Json.Assoc
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Assoc [ ("name", Json.String "migsyn") ]);
      ]
  in
  Json.Assoc
    [
      ("displayTimeUnit", Json.String "ms");
      ("traceEvents", Json.List ((metadata :: complete_events) @ counter_events));
    ]

let write_json path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~pretty:true json);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Run manifests and the on-disk ledger                                *)
(* ------------------------------------------------------------------ *)

module Manifest = struct
  type state = {
    mutable m_tool : string;
    mutable m_sub : string;
    mutable m_argv : string list;
    mutable m_t0 : int64;
    mutable m_context : (string * Json.t) list;  (* reversed *)
    mutable m_results : (string * Json.t) list;  (* reversed *)
  }

  let state =
    { m_tool = "migsyn"; m_sub = ""; m_argv = []; m_t0 = 0L; m_context = []; m_results = [] }

  let start ~tool ~subcommand ?(argv = []) () =
    state.m_tool <- tool;
    state.m_sub <- subcommand;
    state.m_argv <- argv;
    state.m_t0 <- now_ns ();
    state.m_context <- [];
    state.m_results <- []

  let add_context key json = state.m_context <- (key, json) :: state.m_context
  let add_result key json = state.m_results <- (key, json) :: state.m_results

  let finish () =
    let st = store () in
    let wall =
      Int64.to_float (Int64.sub (now_ns ()) state.m_t0) /. 1e9
    in
    let counters_json =
      Json.Assoc
        (List.filter_map
           (fun (n, c) -> if c = 0 then None else Some (n, Json.Int c))
           (counters ()))
    in
    let histograms_json =
      Json.Assoc
        (List.filter_map
           (fun n ->
             let h = Hashtbl.find st.histograms_tbl n in
             if h.h_count = 0 then None
             else Some (n, Json.Assoc (histogram_summary_json h)))
           (sorted_names st.histograms_tbl))
    in
    Json.Assoc
      [
        ("schema", Json.String "migsyn-run/1");
        ("tool", Json.String state.m_tool);
        ("subcommand", Json.String state.m_sub);
        ("argv", Json.List (List.map (fun a -> Json.String a) state.m_argv));
        ("wall_seconds", Json.Float wall);
        ("context", Json.Assoc (List.rev state.m_context));
        ("results", Json.Assoc (List.rev state.m_results));
        ("spans", span_tree_json ());
        ("counters", counters_json);
        ("histograms", histograms_json);
      ]
end

module Ledger = struct
  let append path json =
    let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Json.to_string ~pretty:false json);
        output_char oc '\n')

  let load path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec loop lineno acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line when String.trim line = "" -> loop (lineno + 1) acc
          | line -> (
              match Json.of_string line with
              | json -> loop (lineno + 1) (json :: acc)
              | exception Json.Parse_error msg ->
                  failwith (Printf.sprintf "%s:%d: %s" path lineno msg))
        in
        loop 1 [])
end
