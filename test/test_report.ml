(* The regression-analysis engine (lib/exp/report.ml): source loading for
   every supported schema (single documents and JSON-lines ledgers), noisy
   vs exact metric classification, threshold + floor semantics, missing /
   added rows, the ignore list, exit codes and report rendering. *)

module Json = Obs.Json
module Report = Exp.Report

let write_tmp ?(suffix = ".json") text =
  let path = Filename.temp_file "migsyn_report" suffix in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  path

let with_tmp ?suffix text f =
  let path = write_tmp ?suffix text in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* A migsyn-bench-opt/2 quality golden: two flow cells and one crossbar
   cell of one circuit, every column deterministic. *)
let bench_opt_doc ?(gates = 143) ?(maj_steps = 57) () =
  let cost rrams steps = Json.Assoc [ ("rrams", Json.Int rrams); ("steps", Json.Int steps) ] in
  let cell algorithm columns =
    Json.Assoc
      ([
         ("circuit", Json.String "alu4");
         ("gates", Json.Int gates);
         ("algorithm", Json.String algorithm);
       ]
      @ columns)
  in
  let flow_cell algorithm ~size ~depth ~imp ~maj =
    cell algorithm
      [ ("size", Json.Int size); ("depth", Json.Int depth); ("imp", imp); ("maj", maj) ]
  in
  Json.to_string
    (Json.Assoc
       [
         ("schema", Json.String "migsyn-bench-opt/2");
         ("effort", Json.Int 40);
         ( "rows",
           Json.List
             [
               flow_cell "steps" ~size:150 ~depth:12 ~imp:(cost 170 97)
                 ~maj:(cost 160 maj_steps);
               flow_cell "area" ~size:120 ~depth:18 ~imp:(cost 140 130)
                 ~maj:(cost 130 80);
               cell "crossbar-maj" [ ("devices", Json.Int 96); ("latency", Json.Int 75) ];
             ] );
       ])

(* A migsyn-run/1 manifest with one timed span: its [total_ns] is the
   noisy metric the threshold and floor tests move. *)
let run_doc ~total_ns =
  Json.to_string
    (Json.Assoc
       [
         ("schema", Json.String "migsyn-run/1");
         ("tool", Json.String "bench");
         ("subcommand", Json.String "harness");
         ( "spans",
           Json.List
             [
               Json.Assoc
                 [
                   ("name", Json.String "flow/steps");
                   ("count", Json.Int 3);
                   ("total_ns", Json.Int total_ns);
                 ];
             ] );
       ])

let montecarlo_doc ?(yield_ = 0.9) () =
  Json.to_string
    (Json.Assoc
       [
         ("schema", Json.String "migsyn-montecarlo/1");
         ("benchmark", Json.String "c17.bench");
         ("realization", Json.String "MAJ");
         ("trials", Json.Int 10);
         ("seed", Json.Int 7);
         ("universe", Json.Int 20);
         ("vectors", Json.Int 8);
         ( "points",
           Json.List
             [
               Json.Assoc
                 [
                   ("sigma", Json.Float 0.5);
                   ( "arms",
                     Json.List
                       [
                         Json.Assoc
                           [
                             ("arm", Json.String "maj");
                             ("cells", Json.Int 15);
                             ("successes", Json.Int 9);
                             ("yield", Json.Float yield_);
                             ("ci95", Json.List [ Json.Float 0.6; Json.Float 0.98 ]);
                             ("outcomes", Json.String "1111111110");
                           ];
                       ] );
                 ];
             ] );
         ("wall_seconds", Json.Float 0.123);
       ])

let load_str text = with_tmp text Report.load

let compare_docs ?threshold ?min_time ?ignore_metrics base cur =
  Report.compare ?threshold ?min_time ?ignore_metrics ~baseline:(load_str base)
    ~current:(load_str cur) ()

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let load_tests =
  [
    Alcotest.test_case "bench-opt rows keyed by circuit x algorithm" `Quick
      (fun () ->
        let src = load_str (bench_opt_doc ()) in
        Alcotest.(check string) "schema" "migsyn-bench-opt/2" src.Report.src_schema;
        Alcotest.(check int) "head + 3 rows" 4 (List.length src.Report.src_rows);
        let row alg =
          (List.find
             (fun r -> r.Report.r_key = [ "bench-opt"; "alu4"; alg ])
             src.Report.src_rows)
            .Report.r_metrics
        in
        Alcotest.(check bool)
          "gates exact metric" true
          (List.assoc "gates" (row "steps") = Report.Num 143.0);
        Alcotest.(check (list string))
          "flow cell quality columns"
          [ "gates"; "size"; "depth"; "imp_rrams"; "imp_steps"; "maj_rrams"; "maj_steps" ]
          (List.map fst (row "steps"));
        Alcotest.(check (list string))
          "crossbar cell columns" [ "gates"; "devices"; "latency" ]
          (List.map fst (row "crossbar-maj")));
    Alcotest.test_case "montecarlo rows skip wall_seconds" `Quick (fun () ->
        let src = load_str (montecarlo_doc ()) in
        List.iter
          (fun r ->
            Alcotest.(check bool)
              "no wall_seconds anywhere" true
              (not (List.mem_assoc "wall_seconds" r.Report.r_metrics)))
          src.Report.src_rows;
        let arm =
          List.find
            (fun r ->
              r.Report.r_key = [ "montecarlo"; "c17.bench"; "sigma=0.5"; "maj" ])
            src.Report.src_rows
        in
        Alcotest.(check bool)
          "outcomes string kept (exact)" true
          (List.assoc "outcomes" arm.Report.r_metrics = Report.Text "1111111110"));
    Alcotest.test_case "run manifests flatten context, results and spans" `Quick
      (fun () ->
        Obs.reset ();
        Obs.set_enabled true;
        Fun.protect ~finally:(fun () ->
            Obs.set_enabled false;
            Obs.reset ())
        @@ fun () ->
        Obs.Manifest.start ~tool:"migsyn" ~subcommand:"optimize" ();
        Obs.with_span "test/outer" (fun () ->
            Obs.with_span "test/inner" (fun () -> ()));
        Obs.Manifest.add_context "input" (Json.String "/tmp/alu4.blif");
        Obs.Manifest.add_context "algorithm" (Json.String "steps");
        Obs.Manifest.add_result "gates" (Json.Int 99);
        let src = load_str (Json.to_string (Obs.Manifest.finish ())) in
        Alcotest.(check string) "schema" "migsyn-run/1" src.Report.src_schema;
        let base = [ "run"; "migsyn"; "optimize"; "alu4.blif"; "steps" ] in
        let head =
          List.find (fun r -> r.Report.r_key = base) src.Report.src_rows
        in
        Alcotest.(check bool)
          "results flattened" true
          (List.assoc "res.gates" head.Report.r_metrics = Report.Num 99.0);
        Alcotest.(check bool)
          "span rows present" true
          (List.exists
             (fun r ->
               r.Report.r_key = base @ [ "span"; "test/outer"; "test/inner" ])
             src.Report.src_rows));
    Alcotest.test_case "a ledger merges records, last run wins per key" `Quick
      (fun () ->
        let record n =
          Json.to_string
            (Json.Assoc
               [
                 ("schema", Json.String "migsyn-run/1");
                 ("tool", Json.String "migsyn");
                 ("subcommand", Json.String "optimize");
                 ("context", Json.Assoc [ ("algorithm", Json.String "steps") ]);
                 ("results", Json.Assoc [ ("gates", Json.Int n) ]);
               ])
        in
        let text = record 10 ^ "\n" ^ record 7 ^ "\n" in
        let src = with_tmp ~suffix:".jsonl" text Report.load in
        Alcotest.(check string) "ledger schema" "migsyn-ledger" src.Report.src_schema;
        Alcotest.(check int) "two records folded" 2 src.Report.src_runs;
        let row = List.hd src.Report.src_rows in
        Alcotest.(check bool)
          "last record wins" true
          (List.assoc "res.gates" row.Report.r_metrics = Report.Num 7.0));
    Alcotest.test_case "unsupported input is a Failure" `Quick (fun () ->
        List.iter
          (fun text ->
            match load_str text with
            | exception Failure _ -> ()
            | _ -> Alcotest.failf "accepted %S" text)
          [ "{\"schema\": \"bogus/9\"}"; "{\"rows\": []}"; "" ]);
    Alcotest.test_case "bench-opt/1 is an unsupported schema" `Quick (fun () ->
        let v1 =
          Json.to_string
            (Json.Assoc
               [
                 ("schema", Json.String "migsyn-bench-opt/1");
                 ("effort", Json.Int 40);
                 ( "rows",
                   Json.List
                     [
                       Json.Assoc
                         [
                           ("circuit", Json.String "alu4");
                           ("gates", Json.Int 143);
                           ("algorithm", Json.String "steps");
                           ("seconds", Json.Float 0.02);
                         ];
                     ] );
               ])
        in
        match load_str v1 with
        | exception Failure msg ->
            Alcotest.(check bool)
              "names the schema" true
              (String.ends_with ~suffix:"unsupported schema migsyn-bench-opt/1" msg)
        | _ -> Alcotest.fail "accepted migsyn-bench-opt/1");
  ]

(* ------------------------------------------------------------------ *)
(* Comparison semantics                                                *)
(* ------------------------------------------------------------------ *)

let kinds report = List.map (fun f -> f.Report.f_kind) report.Report.rp_regressions

let compare_tests =
  [
    Alcotest.test_case "identical sources are clean, exit 0" `Quick (fun () ->
        let r = compare_docs (bench_opt_doc ()) (bench_opt_doc ()) in
        Alcotest.(check bool) "no regressions" false (Report.regressed r);
        Alcotest.(check int) "exit 0" 0 (Report.exit_code r);
        Alcotest.(check int) "all rows matched" 4 r.Report.rp_matched);
    Alcotest.test_case "a slowed pass regresses, exit 2" `Quick (fun () ->
        let r =
          compare_docs ~threshold:0.25
            (run_doc ~total_ns:20_000_000)
            (run_doc ~total_ns:200_000_000)
        in
        Alcotest.(check int) "exit 2" 2 (Report.exit_code r);
        Alcotest.(check bool) "kind slower" true (List.mem Report.Slower (kinds r)));
    Alcotest.test_case "within threshold or floor is noise" `Quick (fun () ->
        (* +20% < 25% threshold *)
        let r =
          compare_docs ~threshold:0.25
            (run_doc ~total_ns:50_000_000)
            (run_doc ~total_ns:60_000_000)
        in
        Alcotest.(check int) "relative noise" 0 (Report.exit_code r);
        (* +900% but only +0.9 ms, under the 5 ms floor scaled to ns *)
        let r =
          compare_docs ~threshold:0.25
            (run_doc ~total_ns:100_000)
            (run_doc ~total_ns:1_000_000)
        in
        Alcotest.(check int) "absolute floor" 0 (Report.exit_code r));
    Alcotest.test_case "exact metrics flag any change, both directions" `Quick
      (fun () ->
        List.iter
          (fun gates ->
            let r =
              compare_docs (bench_opt_doc ~gates:143 ()) (bench_opt_doc ~gates ())
            in
            Alcotest.(check int) "exit 2" 2 (Report.exit_code r);
            Alcotest.(check bool)
              "exact mismatch" true
              (List.mem Report.Exact_mismatch (kinds r)))
          [ 150; 120 ]);
    Alcotest.test_case "a bench-opt/2 quality column change is an exact mismatch"
      `Quick (fun () ->
        let r = compare_docs (bench_opt_doc ()) (bench_opt_doc ~maj_steps:56 ()) in
        Alcotest.(check int) "exit 2" 2 (Report.exit_code r);
        match r.Report.rp_regressions with
        | [ f ] ->
            Alcotest.(check bool) "exact mismatch" true (f.Report.f_kind = Report.Exact_mismatch);
            Alcotest.(check string) "metric" "maj_steps" f.Report.f_metric;
            Alcotest.(check (list string))
              "cell" [ "bench-opt"; "alu4"; "steps" ] f.Report.f_key
        | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
    Alcotest.test_case "faster wall time is an improvement, not a regression"
      `Quick (fun () ->
        let r =
          compare_docs (run_doc ~total_ns:200_000_000) (run_doc ~total_ns:20_000_000)
        in
        Alcotest.(check int) "exit 0" 0 (Report.exit_code r);
        Alcotest.(check bool)
          "recorded as improvement" true
          (List.exists
             (fun f -> f.Report.f_kind = Report.Faster)
             r.Report.rp_improvements));
    Alcotest.test_case "missing baseline rows regress; new rows inform" `Quick
      (fun () ->
        let r = compare_docs (bench_opt_doc ()) (montecarlo_doc ()) in
        Alcotest.(check int) "exit 2" 2 (Report.exit_code r);
        Alcotest.(check bool)
          "missing rows" true
          (List.mem Report.Missing_row (kinds r));
        Alcotest.(check bool)
          "added rows informational" true
          (List.for_all
             (fun f -> f.Report.f_kind = Report.Added_row)
             r.Report.rp_added
          && r.Report.rp_added <> []));
    Alcotest.test_case "--ignore drops a metric from the comparison" `Quick
      (fun () ->
        let r =
          compare_docs ~ignore_metrics:[ "gates" ]
            (bench_opt_doc ~gates:143 ())
            (bench_opt_doc ~gates:150 ())
        in
        Alcotest.(check int) "exit 0 with gates ignored" 0 (Report.exit_code r));
    Alcotest.test_case "montecarlo yields compare exactly" `Quick (fun () ->
        let r =
          compare_docs (montecarlo_doc ~yield_:0.9 ()) (montecarlo_doc ~yield_:0.8 ())
        in
        Alcotest.(check int) "exit 2" 2 (Report.exit_code r);
        let f = List.hd r.Report.rp_regressions in
        Alcotest.(check string) "metric" "yield" f.Report.f_metric);
    Alcotest.test_case "invalid thresholds are rejected" `Quick (fun () ->
        let b = load_str (bench_opt_doc ()) in
        List.iter
          (fun (threshold, min_time) ->
            match
              Report.compare ~threshold ~min_time ~baseline:b ~current:b ()
            with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "accepted threshold=%g min_time=%g" threshold min_time)
          [ (-0.1, 0.005); (Float.nan, 0.005); (0.25, -1.0); (0.25, Float.infinity) ]);
  ]

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_tests =
  [
    Alcotest.test_case "markdown states the verdict and findings" `Quick
      (fun () ->
        let contains md needle =
          let n = String.length needle and h = String.length md in
          let rec go i = i + n <= h && (String.sub md i n = needle || go (i + 1)) in
          go 0
        in
        let md =
          Report.to_markdown
            (compare_docs (bench_opt_doc ~gates:143 ()) (bench_opt_doc ~gates:150 ()))
        in
        Alcotest.(check bool) "verdict" true (contains md "**Verdict: REGRESSED**");
        Alcotest.(check bool) "key rendered" true (contains md "bench-opt > alu4 > steps");
        Alcotest.(check bool) "kind rendered" true (contains md "exact mismatch");
        let slow =
          Report.to_markdown
            (compare_docs (run_doc ~total_ns:20_000_000) (run_doc ~total_ns:200_000_000))
        in
        Alcotest.(check bool)
          "span key rendered" true
          (contains slow "run > bench > harness > span > flow/steps");
        Alcotest.(check bool)
          "slower rendered with its delta" true
          (contains slow "| total_ns | 20000000 | 200000000 | +900.0% | slower |");
        let clean = Report.to_markdown (compare_docs (bench_opt_doc ()) (bench_opt_doc ())) in
        Alcotest.(check bool) "clean verdict" true (contains clean "**Verdict: OK**"));
    Alcotest.test_case "json report round-trips with every finding" `Quick
      (fun () ->
        let r =
          compare_docs (run_doc ~total_ns:20_000_000) (run_doc ~total_ns:200_000_000)
        in
        let doc = Report.to_json r in
        let parsed = Json.of_string (Json.to_string ~pretty:true doc) in
        Alcotest.(check bool) "round-trips" true (parsed = doc);
        Alcotest.(check bool)
          "schema" true
          (Json.member "schema" parsed = Json.String "migsyn-report/1");
        Alcotest.(check bool)
          "verdict" true
          (Json.member "verdict" parsed = Json.String "regressed");
        Alcotest.(check int)
          "findings serialized"
          (List.length r.Report.rp_regressions)
          (List.length (Json.to_list (Json.member "regressions" parsed))));
  ]

let () =
  Alcotest.run "report"
    [
      ("load", load_tests); ("compare", compare_tests); ("render", render_tests);
    ]
