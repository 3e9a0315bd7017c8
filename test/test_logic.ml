open Logic

let bitvec_tests =
  let open Alcotest in
  [
    test_case "create zero" `Quick (fun () ->
        let v = Bitvec.create 100 in
        check bool "is_zero" true (Bitvec.is_zero v);
        check int "width" 100 (Bitvec.width v));
    test_case "set/get round-trip" `Quick (fun () ->
        let v = Bitvec.create 130 in
        Bitvec.set v 0 true;
        Bitvec.set v 64 true;
        Bitvec.set v 129 true;
        Alcotest.(check bool) "bit 0" true (Bitvec.get v 0);
        Alcotest.(check bool) "bit 64" true (Bitvec.get v 64);
        Alcotest.(check bool) "bit 129" true (Bitvec.get v 129);
        Alcotest.(check bool) "bit 1" false (Bitvec.get v 1);
        Alcotest.(check int) "popcount" 3 (Bitvec.popcount v));
    test_case "bnot keeps padding clear" `Quick (fun () ->
        let v = Bitvec.create 70 in
        let n = Bitvec.bnot v in
        check int "popcount" 70 (Bitvec.popcount n));
    test_case "maj3 truth" `Quick (fun () ->
        let mk bits = Bitvec.of_string bits in
        (* columns are the 8 input combinations of (a, b, c) *)
        let a = mk "11110000" and b = mk "11001100" and c = mk "10101010" in
        let expect = mk "11101000" in
        check bool "maj" true (Bitvec.equal (Bitvec.maj3 a b c) expect));
    test_case "mux truth" `Quick (fun () ->
        let mk = Bitvec.of_string in
        let s = mk "1100" and a = mk "1010" and b = mk "0110" in
        check bool "mux" true (Bitvec.equal (Bitvec.mux s a b) (mk "1010")));
    test_case "string round-trip" `Quick (fun () ->
        let s = "1011001110001" in
        check string "round" s (Bitvec.to_string (Bitvec.of_string s)));
  ]

let bitvec_props =
  let gen_width = QCheck.Gen.int_range 1 200 in
  let arb =
    QCheck.make
      QCheck.Gen.(
        gen_width >>= fun w ->
        int >>= fun seed ->
        return (w, seed))
  in
  let vec (w, seed) =
    let v = Bitvec.create w in
    Bitvec.randomize (Prng.create seed) v;
    v
  in
  [
    QCheck.Test.make ~name:"double negation" ~count:200 arb (fun p ->
        let v = vec p in
        Bitvec.equal v (Bitvec.bnot (Bitvec.bnot v)));
    QCheck.Test.make ~name:"xor self is zero" ~count:200 arb (fun p ->
        let v = vec p in
        Bitvec.is_zero (Bitvec.bxor v v));
    QCheck.Test.make ~name:"maj(a,a,b) = a" ~count:200 arb (fun (w, seed) ->
        let rng = Prng.create seed in
        let a = Bitvec.create w and b = Bitvec.create w in
        Bitvec.randomize rng a;
        Bitvec.randomize rng b;
        Bitvec.equal (Bitvec.maj3 a a b) a);
    QCheck.Test.make ~name:"maj(a,~a,b) = b" ~count:200 arb (fun (w, seed) ->
        let rng = Prng.create seed in
        let a = Bitvec.create w and b = Bitvec.create w in
        Bitvec.randomize rng a;
        Bitvec.randomize rng b;
        Bitvec.equal (Bitvec.maj3 a (Bitvec.bnot a) b) b);
  ]

let tt_tests =
  let open Alcotest in
  [
    test_case "var projections" `Quick (fun () ->
        let t = Truth_table.var 3 1 in
        (* variable 1 is true on minterms with bit 1 set *)
        List.iter
          (fun m -> check bool (string_of_int m) (m land 2 <> 0) (Truth_table.get t m))
          [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
    test_case "var beyond word boundary" `Quick (fun () ->
        let t = Truth_table.var 8 7 in
        check bool "m=127" false (Truth_table.get t 127);
        check bool "m=128" true (Truth_table.get t 128));
    test_case "cofactor removes dependence" `Quick (fun () ->
        let x = Truth_table.var 3 0 and y = Truth_table.var 3 1 in
        let f = Truth_table.band x y in
        let c = Truth_table.cofactor f 0 true in
        check bool "depends" false (Truth_table.depends_on c 0);
        check bool "equals y" true (Truth_table.equal c y));
    test_case "of_function majority" `Quick (fun () ->
        let f =
          Truth_table.of_function 3 (fun a ->
              (if a.(0) then 1 else 0) + (if a.(1) then 1 else 0) + (if a.(2) then 1 else 0)
              >= 2)
        in
        let g =
          Truth_table.maj3 (Truth_table.var 3 0) (Truth_table.var 3 1) (Truth_table.var 3 2)
        in
        check bool "equal" true (Truth_table.equal f g));
    test_case "bits round-trip" `Quick (fun () ->
        let s = "0110100110010110" in
        check string "round" s (Truth_table.to_bits (Truth_table.of_bits s)));
  ]

let cube_sop_tests =
  let open Alcotest in
  [
    test_case "cube parse/print" `Quick (fun () ->
        check string "round" "1-0" (Cube.to_string (Cube.of_string "1-0")));
    test_case "cube eval" `Quick (fun () ->
        let c = Cube.of_string "1-0" in
        check bool "101" false (Cube.eval c [| true; false; true |]);
        check bool "100" true (Cube.eval c [| true; false; false |]);
        check bool "110" true (Cube.eval c [| true; true; false |]));
    test_case "cube containment" `Quick (fun () ->
        let big = Cube.of_string "1--" and small = Cube.of_string "1-0" in
        check bool "big contains small" true (Cube.contains big small);
        check bool "small contains big" false (Cube.contains small big));
    test_case "sop of/to truth table" `Quick (fun () ->
        let tt =
          Truth_table.bxor (Truth_table.var 4 0)
            (Truth_table.band (Truth_table.var 4 1) (Truth_table.var 4 2))
        in
        let sop = Sop.of_truth_table tt in
        check bool "semantics" true (Truth_table.equal tt (Sop.to_truth_table sop)));
    test_case "minimize merges distance-1" `Quick (fun () ->
        let sop = Sop.of_cubes 2 [ Cube.of_string "10"; Cube.of_string "11" ] in
        let m = Sop.minimize sop in
        check int "cubes" 1 (Sop.num_cubes m);
        check bool "same function" true (Sop.equal_semantics sop m));
    test_case "complement of xor" `Quick (fun () ->
        let tt = Truth_table.bxor (Truth_table.var 2 0) (Truth_table.var 2 1) in
        let sop = Sop.of_truth_table tt in
        let comp = Sop.complement_naive sop in
        check bool "complement semantics" true
          (Truth_table.equal (Truth_table.bnot tt) (Sop.to_truth_table comp)));
  ]

let sop_props =
  let arb_tt n =
    QCheck.make
      QCheck.Gen.(
        int >>= fun seed ->
        return
          (Truth_table.of_function n (fun a ->
               let h = ref seed in
               Array.iter (fun b -> h := (!h * 31) + if b then 7 else 3) a;
               !h land 8 = 0)))
  in
  [
    QCheck.Test.make ~name:"sop round-trip preserves function" ~count:100 (arb_tt 5)
      (fun tt ->
        Truth_table.equal tt (Sop.to_truth_table (Sop.of_truth_table tt)));
    QCheck.Test.make ~name:"minimize preserves function" ~count:100 (arb_tt 5) (fun tt ->
        let sop = Sop.of_truth_table tt in
        Sop.equal_semantics sop (Sop.minimize sop));
    QCheck.Test.make ~name:"complement_naive correct" ~count:50 (arb_tt 4) (fun tt ->
        let sop = Sop.of_truth_table tt in
        Truth_table.equal (Truth_table.bnot tt)
          (Sop.to_truth_table (Sop.complement_naive sop)));
  ]

let network_tests =
  let open Alcotest in
  [
    test_case "full adder truth" `Quick (fun () ->
        let net = Funcgen.full_adder () in
        for m = 0 to 7 do
          let a = [| m land 1 <> 0; m land 2 <> 0; m land 4 <> 0 |] in
          let outs = Network.eval net a in
          let ones = Array.fold_left (fun acc b -> acc + if b then 1 else 0) 0 a in
          check bool "sum" (ones land 1 = 1) outs.(0);
          check bool "carry" (ones >= 2) outs.(1)
        done);
    test_case "ripple = CLA" `Quick (fun () ->
        let r = Funcgen.ripple_adder 5 and c = Funcgen.carry_lookahead_adder 5 in
        let tr = Network.truth_tables r and tc = Network.truth_tables c in
        check int "outputs" (Array.length tr) (Array.length tc);
        Array.iteri
          (fun i t -> check bool (Printf.sprintf "out%d" i) true (Truth_table.equal t tc.(i)))
          tr);
    test_case "multiplier small" `Quick (fun () ->
        let net = Funcgen.multiplier 3 in
        for a = 0 to 7 do
          for b = 0 to 7 do
            let ins = Array.init 6 (fun i -> if i < 3 then a land (1 lsl i) <> 0 else b land (1 lsl (i - 3)) <> 0) in
            let outs = Network.eval net ins in
            let p = ref 0 in
            Array.iteri (fun i v -> if v then p := !p lor (1 lsl i)) outs;
            check int (Printf.sprintf "%d*%d" a b) (a * b) !p
          done
        done);
    test_case "comparator" `Quick (fun () ->
        let net = Funcgen.comparator 4 in
        for a = 0 to 15 do
          for b = 0 to 15 do
            let ins = Array.init 8 (fun i -> if i < 4 then a land (1 lsl i) <> 0 else b land (1 lsl (i - 4)) <> 0) in
            let outs = Network.eval net ins in
            check bool "lt" (a < b) outs.(0);
            check bool "eq" (a = b) outs.(1);
            check bool "gt" (a > b) outs.(2)
          done
        done);
    test_case "rd53 counts ones" `Quick (fun () ->
        let net = Funcgen.rd 5 3 in
        for m = 0 to 31 do
          let ins = Array.init 5 (fun i -> m land (1 lsl i) <> 0) in
          let outs = Network.eval net ins in
          let ones = Array.fold_left (fun acc b -> acc + if b then 1 else 0) 0 ins in
          let v = ref 0 in
          Array.iteri (fun i b -> if b then v := !v lor (1 lsl i)) outs;
          check int (Printf.sprintf "m=%d" m) ones !v
        done);
    test_case "9sym symmetric window" `Quick (fun () ->
        let net = Funcgen.sym_range 9 3 6 in
        let rng = Prng.create 42 in
        for _ = 1 to 200 do
          let ins = Array.init 9 (fun _ -> Prng.bool rng) in
          let ones = Array.fold_left (fun acc b -> acc + if b then 1 else 0) 0 ins in
          let outs = Network.eval net ins in
          Alcotest.(check bool) "sym" (ones >= 3 && ones <= 6) outs.(0)
        done);
    test_case "mux_tree selects" `Quick (fun () ->
        let net = Funcgen.mux_tree 3 in
        let rng = Prng.create 7 in
        for _ = 1 to 100 do
          let sel = Prng.int rng 8 in
          let data = Array.init 8 (fun _ -> Prng.bool rng) in
          let ins = Array.init 12 (fun i ->
              if i < 3 then sel land (1 lsl i) <> 0
              else if i < 11 then data.(i - 3)
              else true)
          in
          let outs = Network.eval net ins in
          Alcotest.(check bool) "mux" data.(sel) outs.(0)
        done);
    test_case "parity" `Quick (fun () ->
        let net = Funcgen.parity 7 in
        let tts = Network.truth_tables net in
        let expect =
          Truth_table.of_function 7 (fun a ->
              Array.fold_left (fun acc b -> acc <> b) false a)
        in
        check bool "parity tt" true (Truth_table.equal tts.(0) expect));
    test_case "majority_n = popcount ge" `Quick (fun () ->
        let net = Funcgen.majority_n 7 in
        let rng = Prng.create 99 in
        for _ = 1 to 200 do
          let ins = Array.init 7 (fun _ -> Prng.bool rng) in
          let ones = Array.fold_left (fun acc b -> acc + if b then 1 else 0) 0 ins in
          Alcotest.(check bool) "maj" (ones >= 4) (Network.eval net ins).(0)
        done);
    test_case "alu4 logic mode AND" `Quick (fun () ->
        let net = Funcgen.alu4 () in
        (* m=1, s=1000 (s3=1 others 0): f_i = s[2a+b] = a AND b *)
        let rng = Prng.create 5 in
        for _ = 1 to 100 do
          let a = Prng.int rng 16 and b = Prng.int rng 16 in
          let ins =
            Array.concat
              [
                [| true |];
                [| false; false; false; true |];
                Array.init 4 (fun i -> a land (1 lsl i) <> 0);
                Array.init 4 (fun i -> b land (1 lsl i) <> 0);
                [| false |];
              ]
          in
          let outs = Network.eval net ins in
          for i = 0 to 3 do
            Alcotest.(check bool) "and bit"
              (a land b land (1 lsl i) <> 0)
              outs.(i)
          done
        done);
    test_case "alu4 arithmetic add" `Quick (fun () ->
        let net = Funcgen.alu4 () in
        (* m=0, s1=s0=1 selects op2 = b and s3=s2=0 keeps a' = a: f = a+b *)
        let rng = Prng.create 6 in
        for _ = 1 to 100 do
          let a = Prng.int rng 16 and b = Prng.int rng 16 in
          let ins =
            Array.concat
              [
                [| false |];
                [| true; true; false; false |];
                Array.init 4 (fun i -> a land (1 lsl i) <> 0);
                Array.init 4 (fun i -> b land (1 lsl i) <> 0);
                [| false |];
              ]
          in
          let outs = Network.eval net ins in
          let sum = a + b in
          for i = 0 to 3 do
            Alcotest.(check bool) "sum bit" (sum land (1 lsl i) <> 0) outs.(i)
          done;
          Alcotest.(check bool) "cout" (sum >= 16) outs.(4)
        done);
    test_case "square low bits" `Quick (fun () ->
        let net = Funcgen.square 7 10 in
        for v = 0 to 127 do
          let ins = Array.init 7 (fun i -> v land (1 lsl i) <> 0) in
          let outs = Network.eval net ins in
          let p = ref 0 in
          Array.iteri (fun i b -> if b then p := !p lor (1 lsl i)) outs;
          Alcotest.(check int) (Printf.sprintf "%d^2" v) (v * v mod 1024) !p
        done);
    test_case "cordic stage adds and subtracts" `Quick (fun () ->
        let net = Funcgen.cordic_stage 11 2 in
        let rng = Prng.create 12 in
        for _ = 1 to 200 do
          let x = Prng.int rng 2048 and y = Prng.int rng 2048 in
          let d = Prng.bool rng in
          let ins =
            Array.concat
              [
                Array.init 11 (fun i -> x land (1 lsl i) <> 0);
                Array.init 11 (fun i -> y land (1 lsl i) <> 0);
                [| d |];
              ]
          in
          let outs = Network.eval net ins in
          let r = ref 0 in
          Array.iteri (fun i b -> if b then r := !r lor (1 lsl i)) (Array.sub outs 0 11);
          (* arithmetic shift of the unsigned-held two's complement value *)
          let z = (y asr 2) lor (if y land 0x400 <> 0 then 0x700 else 0) in
          let expect = (if d then x + z else x - z) land 0x7FF in
          Alcotest.(check int) "rotate" expect !r
        done);
    test_case "t481 substitute is deterministic" `Quick (fun () ->
        let t1 = Network.truth_tables (Funcgen.t481 ()) in
        let t2 = Network.truth_tables (Funcgen.t481 ()) in
        Alcotest.(check bool) "same" true (Truth_table.equal t1.(0) t2.(0)));
    test_case "clip saturates" `Quick (fun () ->
        let net = Funcgen.clip () in
        let eval_signed x =
          let ux = x land 0x1FF in
          let ins = Array.init 9 (fun i -> ux land (1 lsl i) <> 0) in
          let outs = Network.eval net ins in
          let v = ref 0 in
          Array.iteri (fun i b -> if b then v := !v lor (1 lsl i)) outs;
          if !v >= 16 then !v - 32 else !v
        in
        Alcotest.(check int) "in range" 7 (eval_signed 7);
        Alcotest.(check int) "in range neg" (-9) (eval_signed (-9));
        Alcotest.(check int) "saturate high" 15 (eval_signed 100);
        Alcotest.(check int) "saturate low" (-16) (eval_signed (-200)));
    test_case "unequal input widths are rejected" `Quick (fun () ->
        let net = Funcgen.full_adder () in
        let ins = [| Bitvec.create 64; Bitvec.create 65; Bitvec.create 64 |] in
        check_raises "width" (Invalid_argument "Network.simulate: input width") (fun () ->
            ignore (Network.simulate net ins)));
  ]

(* Per-vector reference semantics of every node kind, written against the
   node array alone: it shares no code with [Network.simulate] (nor with
   [Network.eval], which goes through it). *)
let eval_network_ref net v =
  let value = Array.make (Network.num_nodes net) false in
  for i = 0 to Network.num_nodes net - 1 do
    let f = Array.map (fun j -> value.(j)) (Network.fanins net i) in
    let ones = Array.fold_left (fun c b -> if b then c + 1 else c) 0 f in
    let all = ones = Array.length f and any = ones > 0 and odd = ones land 1 = 1 in
    value.(i) <-
      (match Network.kind net i with
      | Network.Const b -> b
      | Input k -> v.(k)
      | And -> all
      | Or -> any
      | Xor -> odd
      | Nand -> not all
      | Nor -> not any
      | Xnor -> not odd
      | Not -> not f.(0)
      | Buf -> f.(0)
      | Maj -> ones >= 2
      | Mux -> if f.(0) then f.(1) else f.(2)
      | Table sop ->
          List.exists
            (fun cube -> List.for_all (fun (var, pos) -> f.(var) = pos) (Cube.literals cube))
            (Sop.cubes sop))
  done;
  Array.of_list (List.map (fun (_, id) -> value.(id)) (Network.outputs net))

(* A random network over every node kind: n-ary gates of arity 1 to 5,
   constants, buffers and Table covers with empty, universal and random
   cubes; outputs on random nodes, always including a constant and an
   input. *)
let random_network rng =
  let net = Network.create () in
  let inputs = 1 + Prng.int rng 6 in
  for i = 0 to inputs - 1 do
    ignore (Network.add_input net (Printf.sprintf "i%d" i))
  done;
  let c = Network.const net (Prng.bool rng) in
  let pick () = Prng.int rng (Network.num_nodes net) in
  let fanins k = Array.init k (fun _ -> pick ()) in
  for _ = 1 to 10 + Prng.int rng 30 do
    let nary = 1 + Prng.int rng 5 in
    ignore
      (match Prng.int rng 13 with
      | 0 -> Network.const net (Prng.bool rng)
      | 1 -> Network.gate net Network.And (fanins nary)
      | 2 -> Network.gate net Network.Or (fanins nary)
      | 3 -> Network.gate net Network.Xor (fanins nary)
      | 4 -> Network.gate net Network.Nand (fanins nary)
      | 5 -> Network.gate net Network.Nor (fanins nary)
      | 6 -> Network.gate net Network.Xnor (fanins nary)
      | 7 -> Network.gate net Network.Not (fanins 1)
      | 8 -> Network.gate net Network.Buf (fanins 1)
      | 9 -> Network.gate net Network.Maj (fanins 3)
      | 10 -> Network.gate net Network.Mux (fanins 3)
      | _ ->
          let vars = Prng.int rng 5 in
          let cube () =
            let c = ref (Cube.create vars) in
            for v = 0 to vars - 1 do
              c := Cube.set !c v (Prng.pick rng [| Cube.Pos; Cube.Neg; Cube.DC |])
            done;
            !c
          in
          let cubes = List.init (Prng.int rng 4) (fun _ -> cube ()) in
          let cubes = if Prng.int rng 4 = 0 then Cube.create vars :: cubes else cubes in
          Network.gate net (Network.Table (Sop.of_cubes vars cubes)) (fanins vars))
  done;
  Network.add_output net "const" c;
  Network.add_output net "input" (Network.input_id net 0);
  for o = 0 to Prng.int rng 5 do
    Network.add_output net (Printf.sprintf "o%d" o) (pick ())
  done;
  net

let sim_widths = [ 1; 63; 64; 65; 511; 512; 513; 4097 ]

(* Every lane of every output against the reference, and bit-for-bit equal
   to the pattern rebuilt from those lanes (so padding bits stay zero). *)
let network_sim_props =
  List.map
    (fun width ->
      QCheck.Test.make ~count:30
        ~name:(Printf.sprintf "width %d: lanes = reference" width)
        QCheck.small_nat
        (fun seed ->
          let rng = Prng.create seed in
          let net = random_network rng in
          let ins =
            Array.init (Network.num_inputs net) (fun _ ->
                let bv = Bitvec.create width in
                Bitvec.randomize rng bv;
                bv)
          in
          let outs = Network.simulate net ins in
          let want = Array.map (fun _ -> Bitvec.create width) outs in
          for lane = 0 to width - 1 do
            let r = eval_network_ref net (Array.map (fun bv -> Bitvec.get bv lane) ins) in
            Array.iteri (fun o b -> Bitvec.set want.(o) lane b) r
          done;
          Array.for_all2 Bitvec.equal outs want))
    sim_widths

let prng_tests =
  let open Alcotest in
  [
    test_case "determinism" `Quick (fun () ->
        let a = Prng.create 1 and b = Prng.create 1 in
        for _ = 1 to 100 do
          check int64 "same stream" (Prng.next64 a) (Prng.next64 b)
        done);
    test_case "of_string differs by name" `Quick (fun () ->
        let a = Prng.of_string "apex1" and b = Prng.of_string "apex2" in
        check bool "different" true (Prng.next64 a <> Prng.next64 b));
    test_case "int bounds" `Quick (fun () ->
        let rng = Prng.create 3 in
        for _ = 1 to 1000 do
          let v = Prng.int rng 17 in
          check bool "in range" true (v >= 0 && v < 17)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Triple_table against Hashtbl                                         *)
(* ------------------------------------------------------------------ *)

(* Keys from a 5x5x5 domain (negative components included) and long
   operation sequences from an empty table: probes collide, removals leave
   tombstones that later insertions reuse, and the arrays are rebuilt both
   larger and at the same size. *)
let triple_props =
  [
    QCheck.Test.make ~count:200 ~name:"Triple_table = Hashtbl model"
      QCheck.(pair small_nat (int_range 1 600))
      (fun (seed, ops) ->
        let rng = Prng.create seed in
        let t = Triple_table.create 0 and model = Hashtbl.create 16 in
        let key () = (Prng.int rng 5 - 2, Prng.int rng 5 - 2, Prng.int rng 5 - 2) in
        let agrees (a, b, c) =
          Triple_table.find t a b c
          = Option.value ~default:(-1) (Hashtbl.find_opt model (a, b, c))
        in
        (* insertions outnumber removals in some cases, not in others *)
        let inserts = 2 + Prng.int rng 5 in
        let ok = ref true in
        for _ = 1 to ops do
          let ((a, b, c) as k) = key () in
          let r = Prng.int rng 8 in
          if r < inserts then begin
            let v = Prng.int rng 1000 in
            Triple_table.replace t a b c v;
            Hashtbl.replace model k v
          end
          else if r < 7 then begin
            Triple_table.remove t a b c;
            Hashtbl.remove model k
          end;
          if not (agrees k && Triple_table.length t = Hashtbl.length model) then ok := false
        done;
        for a = -2 to 2 do
          for b = -2 to 2 do
            for c = -2 to 2 do
              if not (agrees (a, b, c)) then ok := false
            done
          done
        done;
        !ok);
  ]

let () =
  Alcotest.run "logic"
    [
      ("bitvec", bitvec_tests);
      ("bitvec-props", List.map QCheck_alcotest.to_alcotest bitvec_props);
      ("truth-table", tt_tests);
      ("cube-sop", cube_sop_tests);
      ("sop-props", List.map QCheck_alcotest.to_alcotest sop_props);
      ("network", network_tests);
      ("netsim-props", List.map QCheck_alcotest.to_alcotest network_sim_props);
      ("prng", prng_tests);
      ("triple-props", List.map QCheck_alcotest.to_alcotest triple_props);
    ]
