(* Regression analysis over run ledgers, run manifests and the committed
   baseline documents.  See report.mli for the comparison semantics. *)

module Json = Obs.Json

type value = Num of float | Text of string

type row = { r_key : string list; r_metrics : (string * value) list }

type source = {
  src_path : string;
  src_schema : string;
  src_runs : int;
  src_rows : row list;
}

(* A wall-time measurement (threshold comparison) rather than a
   deterministic quantity (exact comparison). *)
let noisy_metric name =
  String.ends_with ~suffix:"seconds" name || String.ends_with ~suffix:"_ns" name

(* ------------------------------------------------------------------ *)
(* Flattening documents into keyed rows                                *)
(* ------------------------------------------------------------------ *)

let str_member key json =
  match Json.member key json with Json.String s -> s | _ -> ""

let num_member key json =
  match Json.member key json with
  | Json.Int n -> Some (Num (float_of_int n))
  | Json.Float f -> Some (Num f)
  | _ -> None

(* Collect the named members that are present, numbers as [Num]. *)
let pick_metrics names json =
  List.filter_map
    (fun name ->
      match Json.member name json with
      | Json.Int n -> Some (name, Num (float_of_int n))
      | Json.Float f -> Some (name, Num f)
      | Json.String s -> Some (name, Text s)
      | Json.Bool b -> Some (name, Text (string_of_bool b))
      | _ -> None)
    names

(* A Table I cost object [{rrams, steps}] under [label] becomes the
   metrics [label_rrams] and [label_steps]. *)
let cost_metrics label json =
  List.filter_map
    (fun key ->
      Option.map (fun v -> (label ^ "_" ^ key, v)) (num_member key (Json.member label json)))
    [ "rrams"; "steps" ]

let bench_opt_rows json =
  let head = { r_key = [ "bench-opt" ]; r_metrics = pick_metrics [ "effort" ] json } in
  let rows =
    List.map
      (fun r ->
        {
          r_key = [ "bench-opt"; str_member "circuit" r; str_member "algorithm" r ];
          r_metrics =
            pick_metrics [ "gates"; "size"; "depth"; "devices"; "latency" ] r
            @ cost_metrics "imp" r @ cost_metrics "maj" r;
        })
      (Json.to_list (Json.member "rows" json))
  in
  head :: rows

(* [wall_seconds] is skipped: it is the campaign's only non-deterministic
   field and the committed golden file does not carry it, so extracting it
   would turn every golden comparison into a missing-metric regression. *)
let montecarlo_rows json =
  let bench = str_member "benchmark" json in
  let head =
    {
      r_key = [ "montecarlo"; bench ];
      r_metrics =
        pick_metrics [ "realization"; "trials"; "seed"; "universe"; "vectors" ] json;
    }
  in
  let arm_rows =
    List.concat_map
      (fun point ->
        let sigma = Printf.sprintf "sigma=%g" (Json.to_float (Json.member "sigma" point)) in
        List.map
          (fun a ->
            let ci =
              match Json.to_list (Json.member "ci95" a) with
              | [ lo; hi ] ->
                  [ ("ci95_lo", Num (Json.to_float lo)); ("ci95_hi", Num (Json.to_float hi)) ]
              | _ -> []
            in
            {
              r_key = [ "montecarlo"; bench; sigma; str_member "arm" a ];
              r_metrics =
                pick_metrics [ "cells"; "successes"; "yield"; "outcomes" ] a @ ci;
            })
          (Json.to_list (Json.member "arms" point)))
      (Json.to_list (Json.member "points" json))
  in
  head :: arm_rows

(* [wall_seconds] is skipped for the same reason as the Monte-Carlo rows:
   golden comparisons must not regress on wall-clock noise. *)
let crossbar_rows json =
  let head =
    {
      r_key = [ "crossbar" ];
      r_metrics = pick_metrics [ "effort"; "realization" ] json;
    }
  in
  let rows =
    List.concat_map
      (fun r ->
        let name = str_member "name" r in
        let bench_row =
          {
            r_key = [ "crossbar"; name ];
            r_metrics =
              pick_metrics [ "inputs"; "exact" ] r
              @ List.filter_map
                  (fun key ->
                    Option.map
                      (fun v -> ("serial_" ^ key, v))
                      (num_member key (Json.member "serial" r)))
                  [ "rrams"; "steps"; "analytic_rrams"; "analytic_steps" ];
          }
        in
        let point_rows =
          List.map
            (fun p ->
              {
                r_key = [ "crossbar"; name; str_member "arch" p ];
                r_metrics =
                  pick_metrics
                    [
                      "rows";
                      "columns";
                      "devices";
                      "latency";
                      "utilization";
                      "analytic_latency";
                      "waves";
                      "verified";
                      "pareto";
                    ]
                    p;
              })
            (Json.to_list (Json.member "points" r))
        in
        bench_row :: point_rows)
      (Json.to_list (Json.member "rows" json))
  in
  head :: rows

let bench_rows json =
  let head = { r_key = [ "bench" ]; r_metrics = pick_metrics [ "effort" ] json } in
  let rows =
    List.concat_map
      (fun b ->
        let name = str_member "name" b in
        let initial = Json.member "initial" b in
        let bench_row =
          {
            r_key = [ "bench"; name ];
            r_metrics =
              pick_metrics [ "inputs"; "exact" ] b
              @ List.filter_map
                  (fun (label, key) ->
                    Option.map (fun v -> (label, v)) (num_member key initial))
                  [ ("initial_size", "size"); ("initial_depth", "depth") ];
          }
        in
        let alg_rows =
          List.map
            (fun a ->
              {
                r_key = [ "bench"; name; str_member "algorithm" a ];
                r_metrics =
                  pick_metrics [ "size"; "depth" ] a @ cost_metrics "imp" a
                  @ cost_metrics "maj" a;
              })
            (Json.to_list (Json.member "algorithms" b))
        in
        bench_row :: alg_rows)
      (Json.to_list (Json.member "benchmarks" json))
  in
  head :: rows

let serve_bench_rows json =
  let head =
    {
      r_key = [ "serve-bench" ];
      r_metrics =
        pick_metrics
          [
            "classes";
            "requests";
            "repeats";
            "unique";
            "error_requests";
            "clients";
            "effort";
          ]
          json;
    }
  in
  let totals =
    {
      r_key = [ "serve-bench"; "totals" ];
      r_metrics =
        pick_metrics
          [ "ok"; "errors"; "hits"; "misses"; "coalesced"; "evictions" ]
          (Json.member "totals" json);
    }
  in
  let mix =
    List.map
      (fun m ->
        {
          r_key = [ "serve-bench"; str_member "class" m ];
          r_metrics = pick_metrics [ "requests" ] m;
        })
      (Json.to_list (Json.member "mix" json))
  in
  head :: totals :: mix

(* Scalars become metrics under dotted names; structured values are kept
   as their compact JSON text so they still compare exactly. *)
let rec flatten_json prefix json =
  match json with
  | Json.Int n -> [ (prefix, Num (float_of_int n)) ]
  | Json.Float f -> [ (prefix, Num f) ]
  | Json.String s -> [ (prefix, Text s) ]
  | Json.Bool b -> [ (prefix, Text (string_of_bool b)) ]
  | Json.Null -> []
  | Json.Assoc kvs ->
      List.concat_map (fun (k, v) -> flatten_json (prefix ^ "." ^ k) v) kvs
  | Json.List _ -> [ (prefix, Text (Json.to_string json)) ]

let run_rows json =
  (* The key distinguishes runs of the same subcommand by their salient
     context (which circuit, which algorithm) so a ledger holding a sweep
     keeps one row per configuration, not just the last run. *)
  let context = Json.member "context" json in
  let discriminators =
    List.filter_map
      (fun key ->
        match Json.member key context with
        | Json.String "" -> None
        | Json.String s -> Some (if key = "input" then Filename.basename s else s)
        | _ -> None)
      [ "input"; "algorithm" ]
  in
  let base =
    [ "run"; str_member "tool" json; str_member "subcommand" json ]
    @ discriminators
  in
  let head =
    {
      r_key = base;
      r_metrics =
        pick_metrics [ "wall_seconds" ] json
        @ List.concat_map
            (fun (prefix, member) ->
              match Json.member member json with
              | Json.Assoc kvs ->
                  List.concat_map (fun (k, v) -> flatten_json (prefix ^ k) v) kvs
              | _ -> [])
            [ ("ctx.", "context"); ("res.", "results") ];
    }
  in
  let rec span_rows path node =
    let path = path @ [ str_member "name" node ] in
    {
      r_key = (base @ ("span" :: path));
      r_metrics = pick_metrics [ "count"; "total_ns"; "self_ns" ] node;
    }
    :: List.concat_map (span_rows path) (Json.to_list (Json.member "children" node))
  in
  let spans = List.concat_map (span_rows []) (Json.to_list (Json.member "spans" json)) in
  let counters =
    match Json.member "counters" json with
    | Json.Assoc ((_ :: _) as kvs) ->
        [
          {
            r_key = base @ [ "counters" ];
            r_metrics =
              List.filter_map
                (fun (k, v) ->
                  match v with
                  | Json.Int n -> Some (k, Num (float_of_int n))
                  | _ -> None)
                kvs;
          };
        ]
    | _ -> []
  in
  let histograms =
    match Json.member "histograms" json with
    | Json.Assoc kvs ->
        List.map
          (fun (k, v) ->
            {
              r_key = base @ [ "hist"; k ];
              r_metrics =
                pick_metrics [ "count"; "sum"; "min"; "max"; "p50"; "p90"; "p99" ] v;
            })
          kvs
    | _ -> []
  in
  (head :: spans) @ counters @ histograms

let rows_of_json ~path json =
  let schema = str_member "schema" json in
  let rows =
    match schema with
    | "migsyn-bench-opt/2" -> bench_opt_rows json
    | "migsyn-montecarlo/1" -> montecarlo_rows json
    | "migsyn-crossbar/1" -> crossbar_rows json
    | "migsyn-bench/3" -> bench_rows json
    | "migsyn-serve-bench/2" -> serve_bench_rows json
    | "migsyn-run/1" -> run_rows json
    | "" -> failwith (path ^ ": no \"schema\" member; not a comparable document")
    | s -> failwith (path ^ ": unsupported schema " ^ s)
  in
  { src_path = path; src_schema = schema; src_runs = 1; src_rows = rows }

(* Later records supersede earlier ones row-by-row; output sorted by key
   so the comparison (and the report) is independent of file order. *)
let merge_runs ~path sources =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun src -> List.iter (fun r -> Hashtbl.replace tbl r.r_key r) src.src_rows)
    sources;
  let rows = Hashtbl.fold (fun _ r acc -> r :: acc) tbl [] in
  {
    src_path = path;
    src_schema = "migsyn-ledger";
    src_runs = List.length sources;
    src_rows = List.sort (fun a b -> compare a.r_key b.r_key) rows;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  let text = read_file path in
  match Json.of_string text with
  | json -> rows_of_json ~path json
  | exception Json.Parse_error _ -> (
      match Obs.Ledger.load path with
      | [] -> failwith (path ^ ": empty ledger")
      | records -> merge_runs ~path (List.map (rows_of_json ~path) records))

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

type kind =
  | Exact_mismatch
  | Slower
  | Faster
  | Missing_metric
  | Missing_row
  | Added_row

type finding = {
  f_key : string list;
  f_metric : string;
  f_baseline : value option;
  f_current : value option;
  f_delta_pct : float option;
  f_kind : kind;
}

type t = {
  rp_baseline : source;
  rp_current : source;
  rp_threshold : float;
  rp_min_time : float;
  rp_ignored : string list;
  rp_regressions : finding list;
  rp_improvements : finding list;
  rp_added : finding list;
  rp_matched : int;
  rp_unchanged : int;
}

let delta_pct base cur =
  if base <> 0.0 then Some ((cur -. base) /. Float.abs base *. 100.0) else None

let compare_metric ~threshold ~min_time key name base cur =
  let finding kind dpct =
    {
      f_key = key;
      f_metric = name;
      f_baseline = Some base;
      f_current = Some cur;
      f_delta_pct = dpct;
      f_kind = kind;
    }
  in
  match (base, cur) with
  | Num b, Num c when noisy_metric name ->
      let floor =
        if String.ends_with ~suffix:"_ns" name then min_time *. 1e9 else min_time
      in
      let delta = c -. b in
      if delta > (Float.abs b *. threshold) && delta > floor then
        `Regression (finding Slower (delta_pct b c))
      else if -.delta > (Float.abs b *. threshold) && -.delta > floor then
        `Improvement (finding Faster (delta_pct b c))
      else `Unchanged
  | Num b, Num c ->
      if b = c then `Unchanged else `Regression (finding Exact_mismatch (delta_pct b c))
  | Text b, Text c ->
      if String.equal b c then `Unchanged else `Regression (finding Exact_mismatch None)
  | _ -> `Regression (finding Exact_mismatch None)

(* Worst first: row-level and exact findings ahead of threshold breaches,
   then by |delta|, then by key so ties are stable. *)
let severity f =
  match f.f_delta_pct with
  | Some d when f.f_kind = Slower || f.f_kind = Faster -> -.Float.abs d
  | _ -> Float.neg_infinity

let sort_findings fs =
  List.sort
    (fun a b ->
      match Float.compare (severity a) (severity b) with
      | 0 -> compare (a.f_key, a.f_metric) (b.f_key, b.f_metric)
      | c -> c)
    fs

let compare ?(threshold = 0.25) ?(min_time = 0.005) ?(ignore_metrics = [])
    ~baseline ~current () =
  if not (Float.is_finite threshold) || threshold < 0.0 then
    invalid_arg "Report.compare: threshold must be finite and non-negative";
  if not (Float.is_finite min_time) || min_time < 0.0 then
    invalid_arg "Report.compare: min_time must be finite and non-negative";
  let cur_tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace cur_tbl r.r_key r) current.src_rows;
  let base_keys = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace base_keys r.r_key ()) baseline.src_rows;
  let regressions = ref [] in
  let improvements = ref [] in
  let matched = ref 0 in
  let unchanged = ref 0 in
  List.iter
    (fun brow ->
      match Hashtbl.find_opt cur_tbl brow.r_key with
      | None ->
          regressions :=
            {
              f_key = brow.r_key;
              f_metric = "";
              f_baseline = None;
              f_current = None;
              f_delta_pct = None;
              f_kind = Missing_row;
            }
            :: !regressions
      | Some crow ->
          incr matched;
          List.iter
            (fun (name, bval) ->
              if not (List.mem name ignore_metrics) then
                match List.assoc_opt name crow.r_metrics with
                | None ->
                    regressions :=
                      {
                        f_key = brow.r_key;
                        f_metric = name;
                        f_baseline = Some bval;
                        f_current = None;
                        f_delta_pct = None;
                        f_kind = Missing_metric;
                      }
                      :: !regressions
                | Some cval -> (
                    match
                      compare_metric ~threshold ~min_time brow.r_key name bval cval
                    with
                    | `Unchanged -> incr unchanged
                    | `Regression f -> regressions := f :: !regressions
                    | `Improvement f -> improvements := f :: !improvements))
            brow.r_metrics)
    baseline.src_rows;
  let added =
    List.filter_map
      (fun crow ->
        if Hashtbl.mem base_keys crow.r_key then None
        else
          Some
            {
              f_key = crow.r_key;
              f_metric = "";
              f_baseline = None;
              f_current = None;
              f_delta_pct = None;
              f_kind = Added_row;
            })
      current.src_rows
  in
  {
    rp_baseline = baseline;
    rp_current = current;
    rp_threshold = threshold;
    rp_min_time = min_time;
    rp_ignored = ignore_metrics;
    rp_regressions = sort_findings !regressions;
    rp_improvements = sort_findings !improvements;
    rp_added = sort_findings added;
    rp_matched = !matched;
    rp_unchanged = !unchanged;
  }

let regressed t = t.rp_regressions <> []
let exit_code t = if regressed t then 2 else 0

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let value_text = function
  | Some (Num f) ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.0f" f
      else Printf.sprintf "%g" f
  | Some (Text s) ->
      if String.length s > 32 then String.sub s 0 29 ^ "..." else s
  | None -> "-"

let kind_text = function
  | Exact_mismatch -> "exact mismatch"
  | Slower -> "slower"
  | Faster -> "faster"
  | Missing_metric -> "missing metric"
  | Missing_row -> "missing row"
  | Added_row -> "added row"

let kind_tag = function
  | Exact_mismatch -> "exact_mismatch"
  | Slower -> "slower"
  | Faster -> "faster"
  | Missing_metric -> "missing_metric"
  | Missing_row -> "missing_row"
  | Added_row -> "added_row"

let key_text key = String.concat " > " key

let max_table_rows = 50

let md_section buf title findings =
  Printf.bprintf buf "## %s (%d)\n\n" title (List.length findings);
  if findings = [] then Buffer.add_string buf "None.\n\n"
  else begin
    Buffer.add_string buf "| key | metric | baseline | current | delta | kind |\n";
    Buffer.add_string buf "|---|---|---:|---:|---:|---|\n";
    let shown = ref 0 in
    List.iter
      (fun f ->
        if !shown < max_table_rows then begin
          incr shown;
          let delta =
            match f.f_delta_pct with
            | Some d -> Printf.sprintf "%+.1f%%" d
            | None -> "-"
          in
          Printf.bprintf buf "| %s | %s | %s | %s | %s | %s |\n" (key_text f.f_key)
            (if f.f_metric = "" then "-" else f.f_metric)
            (value_text f.f_baseline) (value_text f.f_current) delta
            (kind_text f.f_kind)
        end)
      findings;
    let hidden = List.length findings - !shown in
    if hidden > 0 then Printf.bprintf buf "\n... and %d more.\n" hidden;
    Buffer.add_char buf '\n'
  end

let md_source buf role src =
  Printf.bprintf buf "- %s: `%s` (%s, %d run%s, %d rows)\n" role src.src_path
    src.src_schema src.src_runs
    (if src.src_runs = 1 then "" else "s")
    (List.length src.src_rows)

let to_markdown t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# migsyn report\n\n";
  md_source buf "baseline" t.rp_baseline;
  md_source buf "current" t.rp_current;
  Printf.bprintf buf
    "- noise threshold: %.0f%% relative on wall-time metrics, absolute floor %g s\n"
    (t.rp_threshold *. 100.0) t.rp_min_time;
  if t.rp_ignored <> [] then
    Printf.bprintf buf "- ignored metrics: %s\n" (String.concat ", " t.rp_ignored);
  Printf.bprintf buf "- matched rows: %d; metrics equal or within noise: %d\n\n"
    t.rp_matched t.rp_unchanged;
  Printf.bprintf buf "**Verdict: %s**\n\n"
    (if regressed t then "REGRESSED" else "OK");
  md_section buf "Regressions" t.rp_regressions;
  md_section buf "Improvements" t.rp_improvements;
  md_section buf "New rows" t.rp_added;
  Buffer.contents buf

let value_json = function
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then Json.Int (int_of_float f)
      else Json.Float f
  | Text s -> Json.String s

let finding_json f =
  let opt name = function Some v -> [ (name, value_json v) ] | None -> [] in
  Json.Assoc
    ([
       ("key", Json.List (List.map (fun k -> Json.String k) f.f_key));
       ("metric", Json.String f.f_metric);
       ("kind", Json.String (kind_tag f.f_kind));
     ]
    @ opt "baseline" f.f_baseline @ opt "current" f.f_current
    @
    match f.f_delta_pct with
    | Some d -> [ ("delta_pct", Json.Float d) ]
    | None -> [])

let source_json src =
  Json.Assoc
    [
      ("path", Json.String src.src_path);
      ("schema", Json.String src.src_schema);
      ("runs", Json.Int src.src_runs);
      ("rows", Json.Int (List.length src.src_rows));
    ]

let to_json t =
  Json.Assoc
    [
      ("schema", Json.String "migsyn-report/1");
      ("verdict", Json.String (if regressed t then "regressed" else "ok"));
      ("baseline", source_json t.rp_baseline);
      ("current", source_json t.rp_current);
      ("threshold", Json.Float t.rp_threshold);
      ("min_time", Json.Float t.rp_min_time);
      ("ignored", Json.List (List.map (fun m -> Json.String m) t.rp_ignored));
      ("matched_rows", Json.Int t.rp_matched);
      ("unchanged_metrics", Json.Int t.rp_unchanged);
      ("regressions", Json.List (List.map finding_json t.rp_regressions));
      ("improvements", Json.List (List.map finding_json t.rp_improvements));
      ("added", Json.List (List.map finding_json t.rp_added));
    ]
