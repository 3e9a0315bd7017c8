(* The observability layer (lib/obs): JSON round-trips, disabled-mode
   silence, determinism of the recorded counters/histograms/series across
   identical seeded workloads, Chrome trace export, and the optimizer
   trajectory invariant (Alg. 1 never grows the graph). *)

module Json = Obs.Json

(* ------------------------------------------------------------------ *)
(* A fixed seeded workload touching every instrumented layer            *)
(* ------------------------------------------------------------------ *)

let run_workload () =
  let net = Logic.Funcgen.full_adder () in
  let mig = Core.Mig_of_network.convert net in
  let optimized = Core.Mig_opt.area ~effort:4 mig in
  let compiled = Rram.Compile_mig.compile Core.Rram_cost.Maj optimized in
  let program = compiled.Rram.Compile_mig.program in
  List.iter
    (fun v -> ignore (Rram.Interp.run program v))
    (Rram.Verify.vectors program.Rram.Program.num_inputs)

(* Every test leaves the registry disabled and empty so the other suites
   (and later tests in this file) start from a clean slate. *)
let with_obs_enabled f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* ------------------------------------------------------------------ *)
(* JSON printer / parser                                                *)
(* ------------------------------------------------------------------ *)

let sample_doc =
  Json.Assoc
    [
      ("null", Json.Null);
      ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
      ("ints", Json.List [ Json.Int 0; Json.Int (-42); Json.Int 1_000_000_007 ]);
      ("floats", Json.List [ Json.Float 1.5; Json.Float (-0.25); Json.Float 1e-9 ]);
      ("escapes", Json.String "a\"b\\c\nd\te\r\x0c\x08 unicode: \xc3\xa9");
      ("empty_list", Json.List []);
      ("empty_obj", Json.Assoc []);
      ("nested", Json.Assoc [ ("k", Json.List [ Json.Assoc [ ("x", Json.Int 1) ] ]) ]);
    ]

let json_tests =
  [
    Alcotest.test_case "printer/parser round-trip" `Quick (fun () ->
        List.iter
          (fun pretty ->
            let s = Json.to_string ~pretty sample_doc in
            Alcotest.(check bool)
              (Printf.sprintf "round-trip pretty:%b" pretty)
              true
              (Json.of_string s = sample_doc))
          [ true; false ]);
    Alcotest.test_case "parser accepts standard syntax" `Quick (fun () ->
        Alcotest.(check bool)
          "whitespace + \\u escapes" true
          (Json.of_string " { \"k\" : [ 1 , 2.5 , \"\\u00e9\\n\" , true ] } "
          = Json.Assoc
              [
                ( "k",
                  Json.List
                    [ Json.Int 1; Json.Float 2.5; Json.String "\xc3\xa9\n"; Json.Bool true ]
                );
              ]));
    Alcotest.test_case "parse errors are reported" `Quick (fun () ->
        List.iter
          (fun bad ->
            match Json.of_string bad with
            | exception Json.Parse_error _ -> ()
            | _ -> Alcotest.failf "parser accepted %S" bad)
          [ "{"; "[1,]"; "nul"; "\"unterminated"; "{} trailing"; "" ]);
    Alcotest.test_case "non-finite floats print as null" `Quick (fun () ->
        List.iter
          (fun f ->
            Alcotest.(check string) "null" "null" (Json.to_string (Json.Float f)))
          [ Float.nan; Float.infinity; Float.neg_infinity ]);
    Alcotest.test_case "accessors" `Quick (fun () ->
        let j = Json.of_string "{\"a\": [1, 2], \"b\": 3.5}" in
        Alcotest.(check int) "member+to_list" 2 (List.length (Json.to_list (Json.member "a" j)));
        Alcotest.(check (float 0.0)) "to_float" 3.5 (Json.to_float (Json.member "b" j));
        Alcotest.(check bool) "missing member is Null" true (Json.member "zz" j = Json.Null));
  ]

(* The printer's escaper as it was first written, one byte at a time: the
   run-copying escaper must produce the same bytes. *)
let reference_escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* [Json.encoded_length] is the length of the printed text. *)
let measures json = Json.encoded_length json = String.length (Json.to_string json)

(* [s] printed as a string and as an object key matches the reference, is
   measured exactly, and parses back to itself. *)
let codec_agrees s =
  let printed = Json.to_string (Json.String s) in
  printed = reference_escape s
  && Json.to_string (Json.Assoc [ (s, Json.Null) ]) = "{" ^ reference_escape s ^ ":null}"
  && measures (Json.String s)
  && measures (Json.Assoc [ (s, Json.String s); ("k", Json.List [ Json.String s ]) ])
  && Json.of_string printed = Json.String s
  && Json.of_string ("[" ^ printed ^ "," ^ printed ^ "]") = Json.List [ Json.String s; Json.String s ]

(* Byte strings where escapes fall at run boundaries: runs of plain bytes
   separated by bytes that need escaping, and any byte at all. *)
let byte_string_gen =
  let open QCheck.Gen in
  let special = oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\x00'; '\x01'; '\x1f'; '\x7f' ] in
  let byte = map Char.chr (int_bound 255) in
  let piece =
    frequency
      [
        (3, string_size ~gen:(map Char.chr (int_range 0x20 0x7e)) (int_bound 12));
        (2, map (String.make 1) special);
        (2, map (String.make 1) byte);
      ]
  in
  map (String.concat "") (list_size (int_bound 40) piece)

let codec_props =
  [
    QCheck.Test.make ~name:"escaper matches the reference and round-trips" ~count:500
      (QCheck.make ~print:(Printf.sprintf "%S") byte_string_gen)
      codec_agrees;
  ]

let codec_tests =
  let check_agrees name s = Alcotest.(check bool) name true (codec_agrees s) in
  [
    Alcotest.test_case "every byte value, alone and at run boundaries" `Quick (fun () ->
        check_agrees "all 256 bytes in order" (String.init 256 Char.chr);
        for b = 0 to 255 do
          let c = String.make 1 (Char.chr b) in
          List.iter
            (fun s -> check_agrees (Printf.sprintf "byte %d in %S" b s) s)
            [ c; c ^ c; "ab" ^ c; c ^ "yz"; "ab" ^ c ^ "yz"; "a" ^ c ^ "\n" ^ c ^ "z" ]
        done);
    Alcotest.test_case "\\u escapes" `Quick (fun () ->
        Alcotest.(check string)
          "control bytes print as lowercase \\u00XX" "\"a\\u0001\\u001fb\\u0000\""
          (Json.to_string (Json.String "a\x01\x1fb\x00"));
        List.iter
          (fun (text, want) ->
            Alcotest.(check bool) text true (Json.of_string text = Json.String want))
          [
            ("\"\\u0041\"", "A");
            ("\"x\\u0000y\"", "x\x00y");
            ("\"\\u00e9\"", "\xc3\xa9");
            ("\"\\u20AC!\"", "\xe2\x82\xac!");
            ("\"\\u001F\\u001f\"", "\x1f\x1f");
            ("\"ab\\/cd\\b\\f\"", "ab/cd\b\012");
          ]);
    Alcotest.test_case "strings of 64 KB and more" `Quick (fun () ->
        let rng = Random.State.make [| 28 |] in
        let random n = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
        check_agrees "random 70000 bytes" (random 70_000);
        check_agrees "one plain run of 65536 bytes" (String.make 65_536 'x');
        check_agrees "escapes only at both ends" ("\n" ^ String.make 65_536 'y' ^ "\"");
        check_agrees "a BLIF-like payload"
          (String.concat "\n" (List.init 4_000 (fun i -> Printf.sprintf ".names n%d n%d y%d\n11 1" i (i + 1) i))));
    Alcotest.test_case "encoded_length of numbers, floats and trees" `Quick (fun () ->
        let check name json = Alcotest.(check bool) name true (measures json) in
        List.iter
          (fun i -> check (string_of_int i) (Json.Int i))
          [ 0; 1; 9; 10; 99; 100; -1; -9; -10; -11; 123456789; max_int; min_int; min_int + 1 ];
        List.iter
          (fun f -> check (Printf.sprintf "%h" f) (Json.Float f))
          [ 0.0; -0.0; 1.0; 3.0; 0.1; -2.5; 1e300; 1e-300; 123456.789; Float.nan; Float.infinity;
            Float.neg_infinity; Float.pi; max_float; min_float ];
        check "null" Json.Null;
        check "true" (Json.Bool true);
        check "false" (Json.Bool false);
        check "empty containers" (Json.List [ Json.List []; Json.Assoc []; Json.List [ Json.Assoc [] ] ]);
        let payload = String.init 70_000 (fun i -> Char.chr (i * 7 mod 256)) in
        check "a nested 70 KB payload"
          (Json.Assoc
             [
               ("ok", Json.Bool true);
               ("result", Json.Assoc [ ("blif", Json.String payload); ("size", Json.Int 798) ]);
               ("costs", Json.List [ Json.Float 1.5; Json.Int (-3); Json.Null; Json.String "\x01\"" ]);
             ]));
  ]

(* ------------------------------------------------------------------ *)
(* The Obs registry                                                     *)
(* ------------------------------------------------------------------ *)

let obs_tests =
  [
    Alcotest.test_case "disabled mode records nothing" `Quick (fun () ->
        Obs.reset ();
        Obs.set_enabled false;
        run_workload ();
        ignore (Obs.with_span "test/should-not-record" (fun () -> 42));
        Alcotest.(check bool)
          "all counters zero" true
          (List.for_all (fun (_, n) -> n = 0) (Obs.counters ()));
        Alcotest.(check int)
          "write histogram empty" 0
          (Obs.histogram_count (Obs.histogram "rram.interp/writes_per_device"));
        Alcotest.(check bool)
          "trajectory empty" true
          (Obs.samples (Obs.series "mig.opt/area/trajectory") = []);
        Alcotest.(check bool)
          "no spans in metrics" true
          (Json.member "spans" (Obs.metrics_json ()) = Json.Assoc []));
    Alcotest.test_case "identical workloads record identical data" `Quick (fun () ->
        with_obs_enabled @@ fun () ->
        let snapshot () =
          ( Obs.counters (),
            Obs.histogram_buckets (Obs.histogram "rram.interp/writes_per_device"),
            Obs.histogram_buckets (Obs.histogram "rram.interp/micro_ops_per_step"),
            Obs.samples (Obs.series "mig.opt/area/trajectory") )
        in
        run_workload ();
        let first = snapshot () in
        Obs.reset ();
        run_workload ();
        Alcotest.(check bool) "snapshots equal" true (snapshot () = first);
        let counters, writes, widths, traj = first in
        Alcotest.(check bool)
          "rule counters moved" true
          (List.exists (fun (n, c) -> c > 0 && String.length n > 9 && String.sub n 0 9 = "mig.rule/") counters);
        Alcotest.(check bool) "write histogram populated" true (writes <> []);
        Alcotest.(check bool) "step-width histogram populated" true (widths <> []);
        Alcotest.(check bool) "trajectory recorded" true (traj <> []));
    Alcotest.test_case "chrome trace JSON round-trips" `Quick (fun () ->
        with_obs_enabled @@ fun () ->
        run_workload ();
        let doc = Obs.chrome_trace_json () in
        let s = Json.to_string ~pretty:true doc in
        let parsed = Json.of_string s in
        Alcotest.(check bool) "parses back to the same tree" true (parsed = doc);
        let events = Json.to_list (Json.member "traceEvents" parsed) in
        Alcotest.(check bool) "has events" true (events <> []);
        let phases =
          List.filter_map
            (fun e -> match Json.member "ph" e with Json.String p -> Some p | _ -> None)
            events
        in
        Alcotest.(check int) "every event has a phase" (List.length events) (List.length phases);
        Alcotest.(check bool) "has complete events" true (List.mem "X" phases);
        Alcotest.(check bool) "has counter events" true (List.mem "C" phases);
        List.iter
          (fun e ->
            if Json.member "ph" e = Json.String "X" then begin
              (match Json.member "name" e with
              | Json.String _ -> ()
              | _ -> Alcotest.fail "X event without a name");
              if Json.to_float (Json.member "dur" e) < 0.0 then
                Alcotest.fail "negative duration";
              if Json.to_float (Json.member "ts" e) < 0.0 then
                Alcotest.fail "negative timestamp"
            end)
          events);
    Alcotest.test_case "metrics JSON round-trips and is complete" `Quick (fun () ->
        with_obs_enabled @@ fun () ->
        run_workload ();
        let doc = Obs.metrics_json () in
        let parsed = Json.of_string (Json.to_string ~pretty:true doc) in
        Alcotest.(check bool) "parses back" true (parsed = doc);
        List.iter
          (fun key ->
            Alcotest.(check bool)
              (key ^ " present and non-empty") true
              (match Json.member key parsed with
              | Json.Assoc l -> l <> []
              | Json.List l -> l <> []
              | _ -> false))
          [ "counters"; "histograms"; "series"; "spans" ]);
    Alcotest.test_case "area trajectory is monotone non-increasing" `Quick (fun () ->
        with_obs_enabled @@ fun () ->
        List.iter
          (fun net ->
            Obs.reset ();
            ignore (Core.Mig_opt.area ~effort:6 (Core.Mig_of_network.convert net));
            let traj = Obs.samples (Obs.series "mig.opt/area/trajectory") in
            Alcotest.(check bool) "at least initial + one cycle" true (List.length traj >= 2);
            let sizes = List.map (fun s -> List.assoc "size" s) traj in
            let rec non_increasing = function
              | a :: (b :: _ as rest) -> a >= b && non_increasing rest
              | _ -> true
            in
            Alcotest.(check bool) "sizes never grow" true (non_increasing sizes))
          [ Logic.Funcgen.clip (); Logic.Funcgen.rd 5 3; Logic.Funcgen.full_adder () ]);
    Alcotest.test_case "span records on exception" `Quick (fun () ->
        with_obs_enabled @@ fun () ->
        (try Obs.with_span "test/raising" (fun () -> failwith "boom")
         with Failure _ -> ());
        let spans = Json.member "spans" (Obs.metrics_json ()) in
        Alcotest.(check bool)
          "raising span present" true
          (Json.member "count" (Json.member "test/raising" spans) = Json.Int 1));
    Alcotest.test_case "reset keeps handles live" `Quick (fun () ->
        with_obs_enabled @@ fun () ->
        let c = Obs.counter "test/reset-counter" in
        Obs.incr ~by:3 c;
        Alcotest.(check int) "before reset" 3 (Obs.count c);
        Obs.reset ();
        Alcotest.(check int) "zeroed in place" 0 (Obs.count c);
        Obs.incr c;
        Alcotest.(check int) "still records" 1 (Obs.count c));
    Alcotest.test_case "histogram percentiles are exact nearest-rank" `Quick
      (fun () ->
        with_obs_enabled @@ fun () ->
        let h = Obs.histogram "test/percentiles" in
        Alcotest.(check (float 0.0)) "empty -> 0" 0.0 (Obs.histogram_percentile h 50.0);
        List.iter (fun v -> Obs.observe h v) [ 5; 1; 3; 2; 4; 3; 3; 2; 1; 5 ];
        (* sorted: 1 1 2 2 3 3 3 4 5 5 *)
        Alcotest.(check (float 0.0)) "p50" 3.0 (Obs.histogram_percentile h 50.0);
        Alcotest.(check (float 0.0)) "p90" 5.0 (Obs.histogram_percentile h 90.0);
        Alcotest.(check (float 0.0)) "p99" 5.0 (Obs.histogram_percentile h 99.0);
        Alcotest.(check (float 0.0)) "p0 clamps to min" 1.0 (Obs.histogram_percentile h 0.0);
        Alcotest.(check (float 0.0)) "p100 is max" 5.0 (Obs.histogram_percentile h 100.0);
        Alcotest.(check (float 0.0)) "p10 lands on rank 1" 1.0 (Obs.histogram_percentile h 10.0);
        let summary = Json.member "test/percentiles" (Json.member "histograms" (Obs.metrics_json ())) in
        Alcotest.(check (float 0.0)) "p50 exported" 3.0 (Json.to_float (Json.member "p50" summary));
        Alcotest.(check (float 0.0)) "p99 exported" 5.0 (Json.to_float (Json.member "p99" summary)));
  ]

(* ------------------------------------------------------------------ *)
(* Span trees, collapsed stacks, manifests and the run ledger           *)
(* ------------------------------------------------------------------ *)

let rec check_node_invariants (n : Obs.span_node) =
  Alcotest.(check bool)
    (String.concat ";" n.Obs.sn_path ^ ": self >= 0")
    true
    (Int64.compare n.Obs.sn_self_ns 0L >= 0);
  Alcotest.(check bool)
    (String.concat ";" n.Obs.sn_path ^ ": inclusive >= exclusive")
    true
    (Int64.compare n.Obs.sn_total_ns n.Obs.sn_self_ns >= 0);
  let kids_total =
    List.fold_left
      (fun acc k -> Int64.add acc k.Obs.sn_total_ns)
      0L n.Obs.sn_children
  in
  Alcotest.(check bool)
    (String.concat ";" n.Obs.sn_path ^ ": parent covers children")
    true
    (Int64.compare n.Obs.sn_total_ns kids_total >= 0);
  List.iter check_node_invariants n.Obs.sn_children

let span_tests =
  [
    Alcotest.test_case "span tree aggregates by path with invariants" `Quick
      (fun () ->
        with_obs_enabled @@ fun () ->
        for _ = 1 to 2 do
          Obs.with_span "test/a" (fun () ->
              Obs.with_span "test/b" (fun () -> ());
              Obs.with_span "test/b" (fun () -> ());
              Obs.with_span "test/c" (fun () -> ()))
        done;
        let roots = Obs.span_tree () in
        Alcotest.(check int) "one root" 1 (List.length roots);
        let a = List.hd roots in
        Alcotest.(check string) "root name" "test/a" a.Obs.sn_name;
        Alcotest.(check int) "root count" 2 a.Obs.sn_count;
        Alcotest.(check int) "two children" 2 (List.length a.Obs.sn_children);
        let b = List.find (fun n -> n.Obs.sn_name = "test/b") a.Obs.sn_children in
        let c = List.find (fun n -> n.Obs.sn_name = "test/c") a.Obs.sn_children in
        Alcotest.(check int) "b count" 4 b.Obs.sn_count;
        Alcotest.(check int) "c count" 2 c.Obs.sn_count;
        List.iter check_node_invariants roots;
        (* the per-name aggregate view also carries self time *)
        let stats = Json.member "spans" (Obs.metrics_json ()) in
        Alcotest.(check bool)
          "self_ns exported" true
          (Json.member "self_ns" (Json.member "test/a" stats) <> Json.Null));
    Alcotest.test_case "span stack is clean after an exception" `Quick (fun () ->
        with_obs_enabled @@ fun () ->
        (try Obs.with_span "test/raiser" (fun () -> failwith "boom")
         with Failure _ -> ());
        Obs.with_span "test/after" (fun () -> ());
        let roots = List.map (fun n -> n.Obs.sn_name) (Obs.span_tree ()) in
        Alcotest.(check (list string))
          "both spans are roots" [ "test/after"; "test/raiser" ] roots);
    Alcotest.test_case "collapsed stacks identical for jobs 1/2/8" `Quick
      (fun () ->
        let stacks jobs =
          with_obs_enabled @@ fun () ->
          ignore
            (Par.map ~jobs
               (fun i ->
                 Obs.with_span "test/task" (fun () ->
                     Obs.with_span
                       (if i mod 2 = 0 then "test/even" else "test/odd")
                       (fun () -> i * i)))
               [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
          Obs.collapsed_stacks ~weight:`Calls ()
        in
        let s1 = stacks 1 in
        Alcotest.(check string) "jobs 2 = jobs 1" s1 (stacks 2);
        Alcotest.(check string) "jobs 8 = jobs 1" s1 (stacks 8);
        Alcotest.(check bool)
          "even branch counted" true
          (List.mem "test/task;test/even 4" (String.split_on_char '\n' s1));
        Alcotest.(check bool)
          "task root counted" true
          (List.mem "test/task 8" (String.split_on_char '\n' s1)));
    Alcotest.test_case "time-weighted collapsed stacks drop zero weights" `Quick
      (fun () ->
        with_obs_enabled @@ fun () ->
        Obs.with_span "test/alone" (fun () -> ());
        String.split_on_char '\n' (Obs.collapsed_stacks ~weight:`Time_us ())
        |> List.iter (fun line ->
               if line <> "" then
                 match String.rindex_opt line ' ' with
                 | None -> Alcotest.failf "malformed line %S" line
                 | Some i ->
                     let w =
                       int_of_string
                         (String.sub line (i + 1) (String.length line - i - 1))
                     in
                     if w <= 0 then Alcotest.failf "non-positive weight in %S" line));
    Alcotest.test_case "manifest is a self-describing run record" `Quick
      (fun () ->
        with_obs_enabled @@ fun () ->
        Obs.Manifest.start ~tool:"test" ~subcommand:"unit"
          ~argv:[ "test"; "unit"; "--flag" ] ();
        Obs.with_span "test/work" (fun () -> Obs.incr (Obs.counter "test/count"));
        Obs.Manifest.add_context "seed" (Json.Int 42);
        Obs.Manifest.add_result "gates" (Json.Int 7);
        let m = Obs.Manifest.finish () in
        let m' = Json.of_string (Json.to_string m) in
        Alcotest.(check bool) "round-trips" true (m = m');
        Alcotest.(check bool)
          "schema" true
          (Json.member "schema" m = Json.String "migsyn-run/1");
        Alcotest.(check bool)
          "subcommand" true
          (Json.member "subcommand" m = Json.String "unit");
        Alcotest.(check int) "argv kept" 3 (List.length (Json.to_list (Json.member "argv" m)));
        Alcotest.(check bool)
          "context" true
          (Json.member "seed" (Json.member "context" m) = Json.Int 42);
        Alcotest.(check bool)
          "results" true
          (Json.member "gates" (Json.member "results" m) = Json.Int 7);
        Alcotest.(check bool)
          "span tree embedded" true
          (Json.to_list (Json.member "spans" m) <> []);
        Alcotest.(check bool)
          "wall time non-negative" true
          (Json.to_float (Json.member "wall_seconds" m) >= 0.0));
    Alcotest.test_case "ledger appends and loads records in order" `Quick
      (fun () ->
        let path = Filename.temp_file "migsyn_ledger" ".jsonl" in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        Sys.remove path;
        let r1 = Json.Assoc [ ("schema", Json.String "migsyn-run/1"); ("n", Json.Int 1) ] in
        let r2 = Json.Assoc [ ("schema", Json.String "migsyn-run/1"); ("n", Json.Int 2) ] in
        Obs.Ledger.append path r1;
        Obs.Ledger.append path r2;
        Alcotest.(check bool) "round-trip" true (Obs.Ledger.load path = [ r1; r2 ]);
        let oc = open_out_gen [ Open_append ] 0o644 path in
        output_string oc "not json\n";
        close_out oc;
        match Obs.Ledger.load path with
        | exception Failure msg ->
            Alcotest.(check bool)
              "error names file and line" true
              (String.length msg > String.length path
              && String.sub msg 0 (String.length path) = path)
        | _ -> Alcotest.fail "malformed line accepted");
  ]

(* ------------------------------------------------------------------ *)
(* The monotonic clock                                                  *)
(* ------------------------------------------------------------------ *)

(* Whether [n] consecutive reads of [Obs.now_ns] never go backwards. *)
let monotone_reads n =
  let prev = ref (Obs.now_ns ()) in
  let ok = ref true in
  for _ = 1 to n do
    let t = Obs.now_ns () in
    if Int64.compare t !prev < 0 then ok := false;
    prev := t
  done;
  !ok

let clock_tests =
  [
    Alcotest.test_case "now_ns never decreases, main domain and pool worker" `Quick
      (fun () ->
        Alcotest.(check bool) "main domain" true (monotone_reads 100_000);
        Alcotest.(check (list bool))
          "pool worker" [ true ]
          (Par.map ~jobs:2 monotone_reads [ 100_000 ]));
    Alcotest.test_case "a span around a 10 ms sleep records >= 10^7 ns" `Quick
      (fun () ->
        with_obs_enabled @@ fun () ->
        Obs.with_span "test/sleep" (fun () -> Unix.sleepf 0.01);
        match Obs.span_tree () with
        | [ n ] ->
            Alcotest.(check bool)
              "total_ns >= 10^7" true
              (Int64.compare n.Obs.sn_total_ns 10_000_000L >= 0)
        | _ -> Alcotest.fail "expected one root span");
  ]

let () =
  Alcotest.run "obs"
    [
      ("json", json_tests);
      ("codec", codec_tests @ List.map QCheck_alcotest.to_alcotest codec_props);
      ("obs", obs_tests);
      ("spans", span_tests);
      ("clock", clock_tests);
    ]
