open Logic

let equal_networks a b =
  Network.num_inputs a = Network.num_inputs b
  && Network.num_outputs a = Network.num_outputs b
  &&
  if Network.num_inputs a <= 12 then
    Array.for_all2 Truth_table.equal (Network.truth_tables a) (Network.truth_tables b)
  else begin
    let rng = Prng.create 77 in
    List.for_all
      (fun _ ->
        let ins =
          Array.init (Network.num_inputs a) (fun _ ->
              let bv = Bitvec.create 64 in
              Bitvec.randomize rng bv;
              bv)
        in
        let oa = Network.simulate a ins and ob = Network.simulate b ins in
        Array.for_all2 Bitvec.equal oa ob)
      (List.init 16 (fun i -> i))
  end

let sample_nets () =
  [
    ("full_adder", Funcgen.full_adder ());
    ("ripple4", Funcgen.ripple_adder 4);
    ("rd53", Funcgen.rd 5 3);
    ("parity9", Funcgen.parity 9);
    ("mux3", Funcgen.mux_tree 3);
    ("clip", Funcgen.clip ());
    ("comparator5", Funcgen.comparator 5);
    ("alu4", Funcgen.alu4 ());
  ]

let blif_tests =
  let open Alcotest in
  [
    test_case "parse a hand-written model" `Quick (fun () ->
        let text =
          {|# a full adder
.model fa
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end|}
        in
        let net = Io.Blif.parse_string text in
        check bool "equals reference" true (equal_networks net (Funcgen.full_adder ())));
    test_case "off-set cover (output 0)" `Quick (fun () ->
        let text =
          {|.model inv
.inputs a
.outputs y
.names a y
1 0
.end|}
        in
        let net = Io.Blif.parse_string text in
        let tt = (Network.truth_tables net).(0) in
        check string "y = not a" "10" (Truth_table.to_bits tt));
    test_case "constant covers" `Quick (fun () ->
        let text = ".model c\n.inputs a\n.outputs one zero\n.names one\n1\n.names zero\n.end" in
        let net = Io.Blif.parse_string text in
        let tts = Network.truth_tables net in
        check string "one" "11" (Truth_table.to_bits tts.(0));
        check string "zero" "00" (Truth_table.to_bits tts.(1)));
    test_case "out-of-order definitions" `Quick (fun () ->
        let text =
          ".model o\n.inputs a b\n.outputs y\n.names t y\n1 1\n.names a b t\n11 1\n.end"
        in
        let net = Io.Blif.parse_string text in
        check string "and" "0001" (Truth_table.to_bits (Network.truth_tables net).(0)));
    test_case "latch rejected" `Quick (fun () ->
        match Io.Blif.parse_string ".model l\n.inputs a\n.outputs q\n.latch a q\n.end" with
        | exception Io.Blif.Parse_error _ -> ()
        | _ -> fail "expected Parse_error");
    test_case "continuation lines" `Quick (fun () ->
        let text = ".model k\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end" in
        let net = Io.Blif.parse_string text in
        check int "two inputs" 2 (Network.num_inputs net));
  ]
  @ List.map
      (fun (name, net) ->
        Alcotest.test_case ("round-trip " ^ name) `Quick (fun () ->
            let text = Io.Blif.write_string net in
            let back = Io.Blif.parse_string text in
            Alcotest.(check bool) "same function" true (equal_networks net back)))
      (sample_nets ())

let bench_tests =
  let open Alcotest in
  [
    test_case "parse ISCAS-89 style netlist" `Quick (fun () ->
        let text =
          {|# tiny
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(s)
OUTPUT(co)
x1 = XOR(a, b)
s = XOR(x1, c)
a1 = AND(a, b)
a2 = AND(x1, c)
co = OR(a1, a2)|}
        in
        let net = Io.Bench_format.parse_string text in
        check bool "full adder" true (equal_networks net (Funcgen.full_adder ())));
    test_case "DFF is cut into pseudo PI/PO" `Quick (fun () ->
        let text = "INPUT(a)\nOUTPUT(y)\nq = DFF(d)\nd = AND(a, q)\ny = NOT(q)\n" in
        let net = Io.Bench_format.parse_string text in
        check int "inputs" 2 (Network.num_inputs net);
        check int "outputs" 2 (Network.num_outputs net));
    test_case "constants" `Quick (fun () ->
        let net = Io.Bench_format.parse_string "OUTPUT(y)\nk = vdd\ny = NOT(k)\n" in
        check string "y" "0" (Truth_table.to_bits (Network.truth_tables net).(0)));
  ]
  @ List.map
      (fun (name, net) ->
        Alcotest.test_case ("round-trip " ^ name) `Quick (fun () ->
            let text = Io.Bench_format.write_string net in
            let back = Io.Bench_format.parse_string text in
            Alcotest.(check bool) "same function" true (equal_networks net back)))
      (sample_nets ())

let pla_tests =
  let open Alcotest in
  [
    test_case "parse espresso file" `Quick (fun () ->
        let text = ".i 3\n.o 2\n.p 3\n11- 10\n--1 01\n111 11\n.e\n" in
        let net = Io.Pla.parse_string text in
        let tts = Network.truth_tables net in
        let a = Truth_table.var 3 0 and b = Truth_table.var 3 1 and c = Truth_table.var 3 2 in
        check bool "y0 = a&b" true (Truth_table.equal tts.(0) (Truth_table.band a b));
        check bool "y1 = c" true (Truth_table.equal tts.(1) c));
    test_case "ilb/ob names" `Quick (fun () ->
        let text = ".i 2\n.o 1\n.ilb p q\n.ob f\n11 1\n.e\n" in
        let net = Io.Pla.parse_string text in
        check (array string) "names" [| "p"; "q" |] (Network.input_names net));
  ]
  @ List.filter_map
      (fun (name, net) ->
        if Network.num_inputs net > 10 then None
        else
          Some
            (Alcotest.test_case ("round-trip " ^ name) `Quick (fun () ->
                 let text = Io.Pla.write_string net in
                 let back = Io.Pla.parse_string text in
                 Alcotest.(check bool) "same function" true (equal_networks net back))))
      (sample_nets ())

let aiger_tests =
  let open Alcotest in
  [
    test_case "parse aag" `Quick (fun () ->
        (* and of two inputs, output negated: aag 3 2 0 1 1 *)
        let text = "aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n" in
        let net = Io.Aiger.parse_string text in
        check string "nand" "1110" (Truth_table.to_bits (Network.truth_tables net).(0)));
    test_case "latches rejected" `Quick (fun () ->
        match Io.Aiger.parse_string "aag 1 0 1 0 0\n2 3\n" with
        | exception Io.Aiger.Parse_error _ -> ()
        | _ -> fail "expected Parse_error");
    test_case "binary: latches rejected" `Quick (fun () ->
        match Io.Aiger.parse_binary_string "aig 1 0 1 0 0\n2\n" with
        | exception Io.Aiger.Parse_error _ -> ()
        | _ -> fail "expected Parse_error");
    test_case "binary: truncated deltas rejected" `Quick (fun () ->
        match Io.Aiger.parse_binary_string "aig 3 2 0 1 1\n6\n\x82" with
        | exception Io.Aiger.Parse_error (pos, _) ->
            check bool "byte offset past header" true (pos > 0)
        | _ -> fail "expected Parse_error");
  ]
  @ List.concat_map
      (fun (name, net) ->
        [
          Alcotest.test_case ("round-trip " ^ name) `Quick (fun () ->
              let aig = Aig_lib.Aig.of_network net in
              let text = Io.Aiger.write_aig aig in
              let back = Io.Aiger.parse_string text in
              Alcotest.(check bool) "same function" true (equal_networks net back));
          Alcotest.test_case ("binary round-trip " ^ name) `Quick (fun () ->
              let aig = Aig_lib.Aig.of_network net in
              let bin = Io.Aiger.write_aig_binary aig in
              let back = Io.Aiger.parse_binary_string bin in
              Alcotest.(check bool) "same function" true (equal_networks net back));
          Alcotest.test_case ("aag/aig twins byte-stable " ^ name) `Quick (fun () ->
              (* The ASCII file and its binary twin must describe the same
                 circuit so precisely that re-serializing either parse
                 reproduces both byte streams. *)
              let aig = Aig_lib.Aig.of_network net in
              let ascii = Io.Aiger.write_aig aig in
              let bin = Io.Aiger.write_aig_binary aig in
              let via_ascii = Aig_lib.Aig.of_network (Io.Aiger.parse_string ascii) in
              let via_bin = Aig_lib.Aig.of_network (Io.Aiger.parse_binary_string bin) in
              Alcotest.(check string) "ascii via ascii" ascii (Io.Aiger.write_aig via_ascii);
              Alcotest.(check string) "ascii via binary" ascii (Io.Aiger.write_aig via_bin);
              Alcotest.(check string) "binary via ascii" bin (Io.Aiger.write_aig_binary via_ascii);
              Alcotest.(check string) "binary via binary" bin (Io.Aiger.write_aig_binary via_bin));
        ])
      (sample_nets ())

let gen_tests =
  let open Alcotest in
  [
    test_case "random_network is deterministic" `Quick (fun () ->
        let a = Io.Gen.random_network ~name:"z" ~inputs:10 ~gates:50 ~outputs:5 () in
        let b = Io.Gen.random_network ~name:"z" ~inputs:10 ~gates:50 ~outputs:5 () in
        check bool "equal" true (equal_networks a b));
    test_case "different names differ" `Quick (fun () ->
        let a = Io.Gen.random_network ~name:"z1" ~inputs:8 ~gates:40 ~outputs:4 () in
        let b = Io.Gen.random_network ~name:"z2" ~inputs:8 ~gates:40 ~outputs:4 () in
        check bool "not equal" false (equal_networks a b));
    test_case "layered_network shape" `Quick (fun () ->
        let net = Io.Gen.layered_network ~name:"l" ~inputs:12 ~width:20 ~depth:5 ~outputs:6 () in
        check int "inputs" 12 (Network.num_inputs net);
        check int "outputs" 6 (Network.num_outputs net);
        check bool "gates" true (Network.num_gates net >= 5 * 20));
    test_case "scale_network is deterministic and full-sized" `Quick (fun () ->
        let a = Io.Gen.scale_network ~name:"tier" ~gates:2000 () in
        let b = Io.Gen.scale_network ~name:"tier" ~gates:2000 () in
        check bool "equal" true (equal_networks a b);
        check bool "at least the requested gates" true (Network.num_gates a >= 2000);
        (* every gate is live: the MIG conversion keeps ~ the nominal size *)
        let mig = Core.Mig_of_network.convert a in
        check bool "conversion keeps the tier live" true
          (Core.Mig.size mig > 2000 * 3 / 4));
  ]

(* ------------------------------------------------------------------ *)
(* Scale: 10^5-node structures through every traversal that used to    *)
(* recurse (parsers, extract_outputs, conversion, cleanup)             *)
(* ------------------------------------------------------------------ *)

let scale_tests =
  let open Alcotest in
  let deep = 100_000 in
  [
    test_case "100k-deep bench chain parses and copies" `Slow (fun () ->
        (* A single AND chain: resolving output "g<deep>" walks the whole
           chain; so does the extract_outputs cone copy. *)
        let buf = Buffer.create (16 * deep) in
        Buffer.add_string buf "INPUT(x)\nINPUT(y)\n";
        Buffer.add_string buf (Printf.sprintf "OUTPUT(g%d)\n" deep);
        Buffer.add_string buf "g1 = AND(x, y)\n";
        for i = 2 to deep do
          Buffer.add_string buf (Printf.sprintf "g%d = AND(g%d, x)\n" i (i - 1))
        done;
        let net = Io.Bench_format.parse_string (Buffer.contents buf) in
        check int "gates" deep (Network.num_gates net);
        let cone = Network.extract_outputs net [ 0 ] in
        check int "copied cone" deep (Network.num_gates cone);
        let mig = Core.Mig_of_network.convert net in
        check int "mig size" deep (Core.Mig.size mig);
        check int "cleanup keeps it" deep (Core.Mig.size (Core.Mig.cleanup mig)));
    test_case "100k-deep blif chain parses" `Slow (fun () ->
        let buf = Buffer.create (16 * deep) in
        Buffer.add_string buf ".model chain\n.inputs x y\n";
        Buffer.add_string buf (Printf.sprintf ".outputs g%d\n" deep);
        Buffer.add_string buf ".names x y g1\n11 1\n";
        for i = 2 to deep do
          Buffer.add_string buf (Printf.sprintf ".names g%d x g%d\n11 1\n" (i - 1) i)
        done;
        Buffer.add_string buf ".end\n";
        let net = Io.Blif.parse_string (Buffer.contents buf) in
        check int "outputs" 1 (Network.num_outputs net));
    test_case "100k-gate tier generates, serializes, and strashes" `Slow (fun () ->
        let net = Io.Gen.scale_network ~name:"smoke100k" ~gates:deep () in
        check bool "nominal size" true (Network.num_gates net >= deep);
        let bin = Io.Aiger.write_network_binary net in
        let back = Io.Aiger.parse_binary_string bin in
        let mig = Core.Mig_of_network.convert back in
        check bool "live size tracks the tier" true (Core.Mig.size mig > deep);
        let strashed, _ = Core.Mig_passes.strash mig in
        check int "strash preserves reachable size" (Core.Mig.size mig)
          (Core.Mig.size strashed));
  ]

let benchmark_tests =
  let open Alcotest in
  [
    test_case "suite sizes" `Quick (fun () ->
        check int "table2" 25 (List.length Io.Benchmarks.table2);
        check int "table3" 25 (List.length Io.Benchmarks.table3_aig));
    test_case "input counts match the paper" `Quick (fun () ->
        List.iter
          (fun e ->
            let net = e.Io.Benchmarks.build () in
            check int e.Io.Benchmarks.name e.Io.Benchmarks.inputs (Network.num_inputs net))
          Io.Benchmarks.all);
    test_case "every benchmark converts to an equivalent MIG" `Quick (fun () ->
        List.iter
          (fun e ->
            let net = e.Io.Benchmarks.build () in
            let mig = Core.Mig_of_network.convert net in
            check bool
              (e.Io.Benchmarks.name ^ " equivalent")
              true
              (Core.Mig_equiv.equivalent_network ~rounds:8 mig net))
          Io.Benchmarks.all);
    test_case "exact flags" `Quick (fun () ->
        let exact = List.filter (fun e -> e.Io.Benchmarks.exact) Io.Benchmarks.all in
        check bool "at least 20 exact entries" true (List.length exact >= 20));
    test_case "rd53f1 is the parity slice" `Quick (fun () ->
        match Io.Benchmarks.find "rd53f1" with
        | None -> fail "missing"
        | Some e ->
            let net = e.Io.Benchmarks.build () in
            let tt = (Network.truth_tables net).(0) in
            let expect =
              Truth_table.of_function 5 (fun a ->
                  Array.fold_left (fun acc b -> acc <> b) false a)
            in
            check bool "parity" true (Truth_table.equal tt expect));
  ]

let error_tests =
  let open Alcotest in
  let blif_fails text =
    match Io.Blif.parse_string text with
    | exception Io.Blif.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  let bench_fails text =
    match Io.Bench_format.parse_string text with
    | exception Io.Bench_format.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  let pla_fails text =
    match Io.Pla.parse_string text with
    | exception Io.Pla.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  [
    test_case "blif: cube width mismatch" `Quick (fun () ->
        blif_fails ".model m\n.inputs a b\n.outputs y\n.names a b y\n111 1\n.end");
    test_case "blif: undefined signal" `Quick (fun () ->
        blif_fails ".model m\n.inputs a\n.outputs y\n.names ghost y\n1 1\n.end");
    test_case "blif: combinational cycle" `Quick (fun () ->
        blif_fails
          ".model m\n.inputs a\n.outputs y\n.names y2 y\n1 1\n.names y y2\n1 1\n.end");
    test_case "blif: mixed cover polarities" `Quick (fun () ->
        blif_fails ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end");
    test_case "blif: unknown directive" `Quick (fun () ->
        blif_fails ".model m\n.wavelength 42\n.end");
    test_case "bench: unknown gate" `Quick (fun () ->
        bench_fails "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n");
    test_case "bench: cycle" `Quick (fun () ->
        bench_fails "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n");
    test_case "bench: missing assignment" `Quick (fun () ->
        bench_fails "INPUT(a)\nOUTPUT(y)\njust some words\n");
    test_case "pla: cube before header" `Quick (fun () -> pla_fails "11 1\n.i 2\n.o 1\n");
    test_case "pla: wrong input plane width" `Quick (fun () ->
        pla_fails ".i 3\n.o 1\n11 1\n.e");
    test_case "pla: wrong output plane width" `Quick (fun () ->
        pla_fails ".i 2\n.o 2\n11 1\n.e");
    test_case "aiger: truncated file" `Quick (fun () ->
        match Io.Aiger.parse_string "aag 3 2 0 1 1\n2\n4\n" with
        | exception Io.Aiger.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected Parse_error");
    test_case "aiger: bad header" `Quick (fun () ->
        match Io.Aiger.parse_string "aig 1 1 0 0 0\n" with
        | exception Io.Aiger.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected Parse_error");
  ]

let export_tests =
  let open Alcotest in
  [
    test_case "mig dot output well-formed" `Quick (fun () ->
        let mig = Core.Mig_of_network.convert (Funcgen.full_adder ()) in
        let dot = Io.Export.mig_to_dot mig in
        check bool "digraph" true (String.length dot > 20 && String.sub dot 0 7 = "digraph");
        (* one node line per gate *)
        let count_occurrences needle hay =
          let n = String.length needle in
          let rec go i acc =
            if i + n > String.length hay then acc
            else if String.sub hay i n = needle then go (i + 1) (acc + 1)
            else go (i + 1) acc
          in
          go 0 0
        in
        check int "gates drawn" (Core.Mig.size mig)
          (count_occurrences "shape=circle" dot));
    test_case "mig verilog references all ports" `Quick (fun () ->
        let mig = Core.Mig_of_network.convert (Funcgen.rd 5 3) in
        let v = Io.Export.mig_to_verilog mig in
        let contains needle =
          let n = String.length needle in
          let rec go i =
            i + n <= String.length v && (String.sub v i n = needle || go (i + 1))
          in
          go 0
        in
        check bool "module" true (contains "module mig(");
        check bool "inputs" true (contains "input  x4");
        check bool "outputs" true (contains "assign y2");
        check bool "endmodule" true (contains "endmodule"));
    test_case "network dot output well-formed" `Quick (fun () ->
        let dot = Io.Export.network_to_dot (Funcgen.full_adder ()) in
        check bool "digraph" true (String.sub dot 0 7 = "digraph"));
    test_case "verilog semantics via blif comparison" `Quick (fun () ->
        (* the Verilog writer mirrors the MIG exactly; compare through the
           BLIF export of the same graph *)
        let mig = Core.Mig_of_network.convert (Funcgen.comparator 3) in
        let back = Io.Blif.parse_string (Io.Blif.write_string (Core.Mig_to_network.export mig)) in
        check bool "blif export preserves function" true
          (Core.Mig_equiv.equivalent_network mig back));
    test_case "netlist format table: each writer round-trips" `Quick (fun () ->
        let net = Funcgen.full_adder () in
        let mig = Core.Mig_of_network.convert net in
        List.iter
          (fun format ->
            let text = Option.get (Io.Netlist.write_string ~format net) in
            let back = Option.get (Io.Netlist.parse_string ~format text) in
            check bool format true (Core.Mig_equiv.equivalent_network mig back))
          Io.Netlist.output_formats;
        check bool "no pla writer" true
          (Io.Netlist.write_string ~format:"pla" net = None);
        check string "expected" ".blif, .bench, .pla, .aag or .aig" Io.Netlist.expected;
        check string "expected_output" ".blif, .bench, .aag or .aig"
          Io.Netlist.expected_output;
        check string "format_of_path" "aag" (Io.Netlist.format_of_path "dir.x/c.aag");
        check string "no extension" "" (Io.Netlist.format_of_path "dir.x/c"));
  ]

(* ------------------------------------------------------------------ *)
(* Reader pins: node ids, fingerprints and every (line, message) of    *)
(* the .bench and BLIF readers                                         *)
(* ------------------------------------------------------------------ *)

let md5 s = Digest.to_hex (Digest.string s)

let local_file name =
  if Sys.file_exists name then name else Filename.concat "test" name

let example_file name =
  let up = Filename.concat "../examples" name in
  if Sys.file_exists up then up else Filename.concat "examples" name

(* [reader_digests.txt] rows: source, format, md5 of the reparsed
   network's write_string (for [aag]/[aig], the AIGER network writer of
   that format), md5 of its MIG fingerprint. *)
let reader_digest_rows () =
  In_channel.with_open_bin (local_file "reader_digests.txt") In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match String.split_on_char ' ' l with
         | [ source; format; written; fingerprint ] -> (source, format, written, fingerprint)
         | _ -> failwith ("reader_digests.txt: bad row " ^ l))

let reparse_digests format text =
  let net, written =
    match format with
    | "bench" ->
        let net = Io.Bench_format.parse_string text in
        (net, Io.Bench_format.write_string net)
    | "aag" ->
        let net = Io.Aiger.parse_string text in
        (net, Io.Aiger.write_network net)
    | "aig" ->
        let net = Io.Aiger.parse_binary_string text in
        (net, Io.Aiger.write_network_binary net)
    | _ ->
        let net = Io.Blif.parse_string text in
        (net, Io.Blif.write_string net)
  in
  (md5 written, md5 (Core.Mig.fingerprint (Core.Mig_of_network.convert net)))

(* What a reader makes of [source] (the text, or with [~file] a path to
   it): ["ok <md5>"] (of write_string, and for the sequential entry
   points the register profile too) or ["<line>: <message>"] of its
   Parse_error. *)
let reader_outcome ?(file = false) reader source =
  let seq write s =
    Printf.sprintf "pis=%d pos=%d init=%s %s" (Seq.num_pis s) (Seq.num_pos s)
      (String.concat ""
         (List.map (fun b -> if b then "1" else "0") (Array.to_list (Seq.initial_state s))))
      (md5 (write (Seq.combinational s)))
  in
  let pick of_string of_file = if file then of_file source else of_string source in
  match
    match reader with
    | "bench" ->
        md5 (Io.Bench_format.write_string (pick Io.Bench_format.parse_string Io.Bench_format.parse_file))
    | "blif" -> md5 (Io.Blif.write_string (pick Io.Blif.parse_string Io.Blif.parse_file))
    | "bench-seq" ->
        seq Io.Bench_format.write_string
          (pick Io.Bench_format.parse_sequential_string Io.Bench_format.parse_sequential_file)
    | _ ->
        seq
          (fun n -> Io.Blif.write_string n)
          (pick Io.Blif.parse_sequential_string Io.Blif.parse_sequential_file)
  with
  | s -> "ok " ^ s
  | exception (Io.Bench_format.Parse_error (l, m) | Io.Blif.Parse_error (l, m)) ->
      Printf.sprintf "%d: %s" l m

(* Every existing error message, CRLF endings, lowercase keywords,
   comments, blank lines, continuations, DFFs, latches and redefined
   targets (the last definition wins). *)
let reader_transcript =
  [
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n",
     "3: unknown gate FROB");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n",
     "3: combinational cycle at y");
    ("bench", "INPUT(a)\nOUTPUT(y)\njust some words\n",
     "3: expected assignment");
    ("bench", "INPUT(a\n",
     "1: expected (...)");
    ("bench", "OUTPUT)y(\n",
     "1: expected assignment");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = AND(a\n",
     "3: unbalanced parentheses");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = DFF(a, a)\n",
     "3: DFF takes one operand");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = DFF()\n",
     "3: DFF takes one operand");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n",
     "0: undefined signal ghost");
    ("bench", "OUTPUT(y)\ny = FROB(ghost)\n",
     "0: undefined signal ghost");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = (a)\n",
     "3: unknown gate ");
    ("bench", "INPUT (a)\n",
     "1: expected assignment");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = AND(a, # b)\n",
     "3: unbalanced parentheses");
    ("bench", "INPUT(a)\nOUTPUT(y)\n= AND(a)\n",
     "0: undefined signal y");
    ("bench", "INPUT(a)\nOUTPUT(a)\nq = DFF(ghost)\n",
     "0: undefined signal ghost");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = AND(a, t)\nt = OR(u, a)\nu = XOR(a, y)\n",
     "3: combinational cycle at y");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = and(a, b)\nb = frob(a)\n",
     "4: unknown gate FROB");
    ("bench", "INPUT(a)\r\nINPUT(b)\r\nOUTPUT(y)\r\ny = NAND(a, b)\r\n",
     "ok 277a1eac6c2e398080e6855284d363eb");
    ("bench", "input(a)\ninput(b)\noutput(y)\noutput(z)\ny = nand(a, b)\nz = buff(y)\nw = Dff(z)\n",
     "ok 25cc687326693c76730f34846f995417");
    ("bench", "# header\n\nINPUT(a) # first\n  \nINPUT(b)\nOUTPUT(y)   # out\ny = XOR(a, b) # gate\n\n",
     "ok 175aa529a33b92c8cdc0197a003f0196");
    ("bench", "INPUT(a)\nOUTPUT(y)\nq = DFF(y)\ny = AND(a, q)\n",
     "ok 766d7b103008ccc55f09f4c66094e7b4");
    ("bench", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ny = OR(a, b)\n",
     "ok b35f2180b89ba5fec8a80ea9cd21aa85");
    ("bench", "OUTPUT(y)\nOUTPUT(z)\ny = gnd\nz = vdd\n",
     "ok cf712a0cc87f55d39853399b74b1f278");
    ("bench", "INPUT(a)\nOUTPUT(y)\nt = NOT(a)\ny = GND(t)\n",
     "ok d2240fe3598b6b30f18c37e0345f275b");
    ("bench", "INPUT(a b)\nOUTPUT(y)\ny = NOT( a b )\n",
     "ok 2664f3bfd305a6eda145164405852cfc");
    ("bench", "INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(m)\nOUTPUT(j)\nOUTPUT(k)\nOUTPUT(n)\nOUTPUT(o)\nm = MUX(s, a, b)\nj = MAJ(s, a, b)\nk = XNOR(a, b, s)\nn = NOR(a, b)\no = BUF(k)\n",
     "ok c4259af21984abb34b412ac4a0a744b9");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = AND(a, , a)\n",
     "ok 29905bd8c0b0ea557f3d84f6630fa8e1");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = AND(a)junk\n",
     "ok 015c557c1c0d4d24bdc859c3b4cdd919");
    ("bench", "OUTPUT(y)\ny = DFF(y)\n",
     "ok 3f12b0f51620e3d52fbc8230c65e73f9");
    ("bench", "",
     "ok d41d8cd98f00b204e9800998ecf8427e");
    ("bench", "INPUT(a)\nOUTPUT(a)\n",
     "ok 9a174b0ed14ed2e4968e485082d37027");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = AND(a, a)   \t\n",
     "ok 29905bd8c0b0ea557f3d84f6630fa8e1");
    ("bench", "INPUT(\ta\t)\nINPUT(a=b)\nOUTPUT(y)\ny = AND(a, a=b) = b\n",
     "ok 4dbf560550cd2ffd2cd63e13e8cc617e");
    ("bench", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(f(a), b)\nf(a) = NOT(a)\n",
     "ok 69b7d0a0c11272b9bdf5e7b2fd6898a5");
    ("bench", "INPUT(a)\nOUTPUT(y)\nOUTPUT(y)\nOUTPUT(z)\ny = NOT(a)\nz = NOT(a)\nq = DFF(z)\nr = DFF(q)\n",
     "ok 44157795742d58636698d10189f08409");
    ("bench", "INPUT(q)\nOUTPUT(q)\nq = DFF(q)\n",
     "ok 0d958a68ada4aa9e70f535e593397622");
    ("bench", "INPUT(x)\nOUTPUT(y)\ny = AND(x, x)\ny = FROB(x)\n",
     "4: unknown gate FROB");
    ("bench", "INPUT(x)\nOUTPUT(y)\ny = FROB(x)\ny = AND(x, x)\n",
     "ok 446543610fdbb5151dab7e3aaea92054");
    ("bench", "INPUT(x)\nOUTPUT(y)\nz = FROB(x)\ny = NOT(x)\n",
     "ok 8b5355c6481e4c089873968b9e22893a");
    ("bench", "INPUT(x)\nOUTPUT(x)\nx = NOT(x)\n",
     "ok ac8c39105968974bb921550062074deb");
    ("bench", "\012INPUT(a)\012\nOUTPUT(a)\n",
     "ok 9a174b0ed14ed2e4968e485082d37027");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)))\n",
     "0: undefined signal a))");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = NOT)a(\n",
     "3: unbalanced parentheses");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = \n",
     "3: unknown gate ");
    ("bench", "INPUT()\nOUTPUT()\n",
     "ok 2b82d121748dc39b0d7500bad64dcfa7");
    ("blif", ".model m\n.inputs a b\n.outputs y\n.names a b y\n111 1\n.end",
     "5: cube width does not match .names inputs");
    ("blif", ".model m\n.inputs a\n.outputs y\n.names ghost y\n1 1\n.end",
     "0: undefined signal ghost");
    ("blif", ".model m\n.inputs a\n.outputs y\n.names y2 y\n1 1\n.names y y2\n1 1\n.end",
     "4: combinational cycle at y");
    ("blif", ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end",
     "4: mixed output polarities in one cover");
    ("blif", ".model m\n.wavelength 42\n.end",
     "2: unknown directive .wavelength");
    ("blif", ".model m\n.names\n",
     "2: .names needs a target");
    ("blif", ".model m\n.inputs a\n.outputs b\n.latch a b 0\n.end",
     "4: sequential BLIF (.latch) is not supported here; use parse_sequential");
    ("blif", "11 1\n",
     "1: cube line outside of .names");
    ("blif", ".model m\n.outputs y\n.names y\n11\n",
     "4: bad constant cover");
    ("blif", ".model m\n.inputs a\n.outputs y\n.names a y\n1 11\n",
     "5: bad output column");
    ("blif", ".model m\n.inputs a\n.outputs y\n.names a y\n1 1 1\n",
     "5: malformed cover line");
    ("blif", ".model m\n.inputs a\n.outputs y\n.names a y\n1\n",
     "5: malformed cover line");
    ("blif", ".model m\n.inputs a\n.outputs y\n.names a y\n1 2\n",
     "4: mixed output polarities in one cover");
    ("blif", ".model m\n.inputs a\n.outputs y\n.names y\n1 1\n",
     "5: cube width does not match .names inputs");
    ("blif", ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n11 1\n",
     "7: cube line outside of .names");
    ("blif", ".model m\r\n.inputs a b\r\n.outputs y\r\n.names a b y\r\n11 1\r\n.end\r\n",
     "ok a7e71ce8569d867676a4b98640cb80a0");
    ("blif", "# lead\n\n.model m # name\n.inputs a \\\n b\n.outputs y\n\n.names a \\\n b y # and\n11 1\n.end\n",
     "ok a7e71ce8569d867676a4b98640cb80a0");
    ("blif", ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.names a b y\n00 1\n.end\n",
     "ok c6dde6d8ecb85192607ff04c2f0f41d3");
    ("blif", ".model m\n.outputs y z\n.names y\n1\n.names z\n.end\n",
     "ok ba9fb466baca5a4923ac7431501ba981");
    ("blif", ".model m\n.inputs a b\n.outputs y\n.names a b y\n1- 0\n-1 0\n.end\n",
     "ok 90ef52d1efe531a5c67675b905c13335");
    ("blif", ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.exdc\n.names a y\n0 1\n.end\n",
     "ok 1d8a168c35d16e72d6629f13e39b4266");
    ("blif", ".model m\n.inputs a\n.outputs y\n.names a y \\",
     "ok d268195061fd861f4e6bb191a13256df");
    ("blif", ".model m\n.inputs a \\\n# c\n.outputs y\n.names a y\n1 1\n",
     "ok 38fbea0883420379ec6101e8e1fb0f47");
    ("blif", ".model m\n.inputs a\tb\n.outputs y\n.names a\tb y\n1 1\n",
     "ok fb63583baa6e13b90114a0db82e3e6f4");
    ("blif", ".model m\n.inputs a b c\n.outputs y\n.names a b c y\n~2- 1\n-1~ 1\n",
     "ok e794dd0c02a4b2c33236ef31e7aa5df1");
    ("blif", ".model m\n.inputs a b\n.outputs y\n.names a b u\n11 1\n00 0\n.names a y\n1 1\n",
     "ok 05281fd3baf6382b1e188c1cb604e35a");
    ("blif", ".model m\n.inputs a\n.outputs a\n.end\n",
     "ok 4e6d5fc964b1190a890ddbdc908282df");
    ("blif", ".MODEL m\n.inputs a\n",
     "1: unknown directive .MODEL");
    ("blif", ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.names y z\n.names z q\n1 1\n",
     "ok 38fbea0883420379ec6101e8e1fb0f47");
    ("blif", ".model m\n.inputs a b\n.outputs y\n.names a b t\n11 1\n.names t a y\n1- 1\n-1 1\n.end\n",
     "ok b1366eca90f7fc86ed5f16ee4eae44d8");
    ("blif", "\\\n\\\n.model m\n",
     "ok 65cec7c69db7ecb54f9a6142abdcf6a1");
    ("blif", ".model m \\\n\\\n.inputs a\n.outputs a\n",
     "0: undefined signal a");
    ("blif", ".model m\n.inputs a\n.outputs y\n  .names   a    y   \n  1   1  \n",
     "ok 38fbea0883420379ec6101e8e1fb0f47");
    ("blif", ".model m\n.inputs a\n.outputs y\n.names a y\n.names a y\n1 1\n",
     "ok 38fbea0883420379ec6101e8e1fb0f47");
    ("blif", ".model m\n.inputs a\n.outputs y\n.names a y\n1 0\n1 0\n",
     "ok 9adbc1bde4ff91439daeb12b3444b265");
    ("blif", ".model m\n.inputs a\n.outputs y\n.names a y\n",
     "ok d268195061fd861f4e6bb191a13256df");
    ("blif", ".inputs a\n.outputs y\n.names a a a y\n111 1\n",
     "ok 779e8ac53f2b2b4370f87eae94111cb8");
    ("bench-seq", "INPUT(a)\nOUTPUT(y)\nq = DFF(y)\ny = AND(a, q)\n",
     "ok pis=1 pos=1 init=0 766d7b103008ccc55f09f4c66094e7b4");
    ("bench-seq", "INPUT(a)\nOUTPUT(y)\nq = DFF(r)\nr = DFF(q)\ny = OR(q, r)\n",
     "ok pis=1 pos=1 init=00 474672c700f56dee09f1d3667158fc38");
    ("bench-seq", "INPUT(a)\nOUTPUT(a)\nq = DFF(ghost)\n",
     "0: undefined signal ghost");
    ("blif-seq", ".model m\n.inputs a\n.outputs y\n.latch y q 1\n.names a q y\n11 1\n.end\n",
     "ok pis=1 pos=1 init=1 efbf134ec5236035e9c5bf75c24234b3");
    ("blif-seq", ".model m\n.inputs a\n.outputs y\n.latch y q re clk 1\n.latch q r 2\n.latch r s 3\n.latch s t 0\n.names t y\n1 1\n.end\n",
     "ok pis=1 pos=1 init=1000 356d9e50aa671c8c960a093eaf9c0085");
    ("blif-seq", ".model m\n.latch a\n",
     "2: .latch needs input and output");
    ("blif-seq", ".model m\n.inputs a\n.outputs a\n.latch ghost q\n",
     "0: undefined signal ghost");
    ("blif-seq", ".model m\n.inputs a\n.outputs a\n.latch a q re\n",
     "ok pis=1 pos=1 init=0 bf2a3cf62418b76e049bca3838aa67e3");
  ]

(* Inputs that raised an uncaught Invalid_argument out of the readers
   (duplicate inputs, wrong operand counts, bad cube characters) and are
   rejected at the offending line now.  A definition nothing references
   is never built, so its operand count is never checked. *)
let reader_fixes =
  [
    ("bench", "INPUT(a)\nINPUT(a)\nOUTPUT(a)\n", "2: duplicate input a");
    ("bench", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n", "4: NOT takes one operand");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = BUFF(a, a)\n", "3: BUFF takes one operand");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = NOT\n", "3: NOT takes one operand");
    ("bench", "OUTPUT(y)\ny = AND()\n", "2: AND takes at least one operand");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a)\n", "3: MAJ takes three operands");
    ("bench", "INPUT(a)\nOUTPUT(y)\ny = MUX(a)\n", "3: MUX takes three operands");
    ("bench", "INPUT(a)\nOUTPUT(a)\ny = NOT(a, a)\n", "ok 9a174b0ed14ed2e4968e485082d37027");
    ("bench", "INPUT(q_q)\nOUTPUT(q)\nq = DFF(q_q)\n", "3: duplicate input q_q");
    ("bench", "INPUT(a)\nOUTPUT(a)\nq = DFF(a)\nq = DFF(a)\n", "4: duplicate input q_q");
    ("blif", ".model m\n.inputs a a\n.outputs a\n.end\n", "2: duplicate input a");
    ("blif", ".model m\n.inputs a\n.inputs b a\n", "3: duplicate input a");
    ("blif", ".model m\n.inputs a b\n.outputs y\n.names a b y\n1x 1\n.end\n",
     "5: bad cube character 'x'");
    ("blif", ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n0\t 1\n.end\n",
     "6: bad cube character '\\t'");
    ("blif-seq", ".model m\n.inputs a\n.outputs a\n.latch a a\n", "4: duplicate input a");
  ]

let pin_tests =
  let open Alcotest in
  [
    test_case "reparsed networks and MIG fingerprints are pinned" `Quick (fun () ->
        let texts = Hashtbl.create 64 in
        List.iter
          (fun e ->
            let net = e.Io.Benchmarks.build () in
            Hashtbl.replace texts (e.Io.Benchmarks.name, "bench") (Io.Bench_format.write_string net);
            Hashtbl.replace texts (e.Io.Benchmarks.name, "blif") (Io.Blif.write_string net))
          Io.Benchmarks.all;
        List.iter
          (fun e ->
            let net = e.Io.Benchmarks.build () in
            Hashtbl.replace texts (e.Io.Benchmarks.name, "aag") (Io.Aiger.write_network net);
            Hashtbl.replace texts (e.Io.Benchmarks.name, "aig") (Io.Aiger.write_network_binary net))
          Io.Benchmarks.table2;
        let read name = In_channel.with_open_bin (example_file name) In_channel.input_all in
        Hashtbl.replace texts ("c17.bench", "bench") (read "c17.bench");
        Hashtbl.replace texts ("c17_opt.blif", "blif") (read "c17_opt.blif");
        let rows = reader_digest_rows () in
        check int "one row per source and format" (Hashtbl.length texts) (List.length rows);
        List.iter
          (fun (source, format, written, fingerprint) ->
            let w, f = reparse_digests format (Hashtbl.find texts (source, format)) in
            check string (source ^ " " ^ format ^ " write_string") written w;
            check string (source ^ " " ^ format ^ " fingerprint") fingerprint f)
          rows);
    test_case "error lines and messages are pinned" `Quick (fun () ->
        List.iter
          (fun (reader, text, expected) ->
            check string (reader ^ " " ^ String.escaped text) expected
              (reader_outcome reader text))
          reader_transcript);
    test_case "bad operand counts and duplicate inputs fail at their line" `Quick (fun () ->
        List.iter
          (fun (reader, text, expected) ->
            check string (reader ^ " " ^ String.escaped text) expected
              (reader_outcome reader text))
          reader_fixes);
    test_case "parse_file streams to what parse_string reads" `Quick (fun () ->
        let file = Filename.temp_file "reader" ".net" in
        Fun.protect
          ~finally:(fun () -> Sys.remove file)
          (fun () ->
            List.iter
              (fun (reader, text, _) ->
                Out_channel.with_open_bin file (fun oc -> output_string oc text);
                check string (reader ^ " " ^ String.escaped text) (reader_outcome reader text)
                  (reader_outcome ~file:true reader file))
              (reader_transcript @ reader_fixes)));
  ]

(* Mutation fuzz: flip, truncate and splice bytes of the pinned corpus;
   whatever the readers make of the result, only Parse_error escapes. *)
let fuzz_corpus =
  lazy
    (let read name = In_channel.with_open_bin (example_file name) In_channel.input_all in
     let net = Funcgen.alu4 () in
     Array.of_list
       (read "c17.bench" :: read "c17_opt.blif" :: Io.Bench_format.write_string net
       :: Io.Blif.write_string net
       :: List.map (fun (_, text, _) -> text) (reader_transcript @ reader_fixes)))

let mutant ?(corpus = fuzz_corpus) ?(special = "()=,#.\\ \n\r\t01-~2xaAIN") seed =
  let corpus = Lazy.force corpus in
  let rng = Prng.create seed in
  let pick () = corpus.(Prng.int rng (Array.length corpus)) in
  let text = ref (pick ()) in
  for _ = 0 to Prng.int rng 4 do
    let s = !text and n = String.length !text in
    text :=
      match Prng.int rng 3 with
      | 0 when n > 0 ->
          let b = Bytes.of_string s in
          let c =
            if Prng.int rng 2 = 0 then special.[Prng.int rng (String.length special)]
            else Char.chr (Prng.int rng 256)
          in
          Bytes.set b (Prng.int rng n) c;
          Bytes.to_string b
      | 1 -> String.sub s 0 (Prng.int rng (n + 1))
      | _ ->
          let other = pick () in
          let j = Prng.int rng (String.length other + 1) in
          String.sub s 0 (Prng.int rng (n + 1)) ^ String.sub other j (String.length other - j)
  done;
  !text

let only_parse_errors text =
  List.for_all
    (fun parse ->
      match parse text with
      | () -> true
      | exception (Io.Bench_format.Parse_error _ | Io.Blif.Parse_error _) -> true
      | exception _ -> false)
    [
      (fun t -> ignore (Io.Bench_format.parse_string t));
      (fun t -> ignore (Io.Bench_format.parse_sequential_string t));
      (fun t -> ignore (Io.Blif.parse_string t));
      (fun t -> ignore (Io.Blif.parse_sequential_string t));
    ]

(* The same mutations over PLA texts of the full adder and rd53 and AIGER
   (ASCII and binary) texts of the full adder and alu4, through the three
   readers of those formats. *)
let pla_aiger_corpus =
  lazy
    (let adder = Funcgen.full_adder () and alu4 = Funcgen.alu4 () in
     Array.of_list
       (Io.Pla.write_string adder :: Io.Pla.write_string (Funcgen.rd 5 3)
       :: List.concat_map
            (fun net -> [ Io.Aiger.write_network net; Io.Aiger.write_network_binary net ])
            [ adder; alu4 ]
       @ [
           ".i 2\n.o 1\n.ilb a b\n.ob y\n.p 2\n1- 1\n-1 1\n.e\n";
           ".i 0\n.o 2\n10\n.e\n";
           "aag 7 2 0 2 3\n2\n4\n6\n15\n6 2 4\n12 3 5\n14 12 7\n";
           "aag 20 1 0 1 0\n40\n41\n";
         ]))

let only_pla_aiger_errors text =
  List.for_all
    (fun parse ->
      match parse text with
      | () -> true
      | exception (Io.Pla.Parse_error _ | Io.Aiger.Parse_error _) -> true
      | exception _ -> false)
    [
      (fun t -> ignore (Io.Pla.parse_string t));
      (fun t -> ignore (Io.Aiger.parse_string t));
      (fun t -> ignore (Io.Aiger.parse_binary_string t));
    ]

let fuzz_tests =
  let pla_aiger_mutant = mutant ~corpus:pla_aiger_corpus ~special:".io \n\r\t01-~234xag#" in
  [
    QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand:(Random.State.make [| 24 |])
      (QCheck.Test.make ~name:"mutated .bench/BLIF raise only Parse_error" ~count:3000
         (QCheck.make ~print:(fun seed -> String.escaped (mutant seed))
            QCheck.Gen.(int_bound 1_000_000_000))
         (fun seed -> only_parse_errors (mutant seed)));
    QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand:(Random.State.make [| 25 |])
      (QCheck.Test.make ~name:"mutated PLA/AIGER raise only Parse_error" ~count:3000
         (QCheck.make ~print:(fun seed -> String.escaped (pla_aiger_mutant seed))
            QCheck.Gen.(int_bound 1_000_000_000))
         (fun seed -> only_pla_aiger_errors (pla_aiger_mutant seed)));
  ]

let () =
  Alcotest.run "io"
    [
      ("blif", blif_tests);
      ("bench-format", bench_tests);
      ("pla", pla_tests);
      ("aiger", aiger_tests);
      ("gen", gen_tests);
      ("scale", scale_tests);
      ("benchmarks", benchmark_tests);
      ("export", export_tests);
      ("errors", error_tests);
      ("pins", pin_tests);
      ("fuzz", fuzz_tests);
    ]
