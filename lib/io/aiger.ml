open Logic

exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

(* ------------------------------------------------------------------ *)
(* Shared network construction                                         *)
(* ------------------------------------------------------------------ *)

(* Both readers decode to the same intermediate — output literals plus
   [(lhs, rhs0, rhs1)] AND definitions in file order — and feed it here, so
   an [aag] file and its binary twin build bit-identical networks (same
   node-creation order, same lazily shared negation nodes).
   Variables live in slots: [slot v] is the slot of a variable the file
   defines, or -1, and [node_of_slot] holds each slot's network node (-1
   until defined).  Arrays are sized by the definitions the file holds,
   never by the header's M alone. *)
let build_network ~fail net ~slot node_of_slot ~m ~output_lits ~and_defs =
  (* Network node of each slot's negation, made on first use. *)
  let negations = Array.make (Array.length node_of_slot) (-1) in
  let literal lit =
    let v = lit / 2 in
    if lit < 0 || v > m then fail "literal out of range";
    let s = slot v in
    let base = if s < 0 then -1 else node_of_slot.(s) in
    if base < 0 then fail (Printf.sprintf "undefined variable %d" v);
    if lit land 1 = 0 then base
    else begin
      if negations.(s) < 0 then negations.(s) <- Network.not_ net base;
      negations.(s)
    end
  in
  (* AIGER files are topologically sorted (lhs > rhs), so one pass works. *)
  Array.iter
    (fun (lhs, r0, r1) ->
      let id = Network.and2 net (literal r0) (literal r1) in
      node_of_slot.(slot (lhs / 2)) <- id)
    and_defs;
  Array.iteri
    (fun k lit -> Network.add_output net (Printf.sprintf "o%d" k) (literal lit))
    output_lits;
  net

(* ------------------------------------------------------------------ *)
(* ASCII reader                                                        *)
(* ------------------------------------------------------------------ *)

(* The five header counts, each a non-negative integer. *)
let header_counts ~tag fields =
  match fields with
  | [ t; m; i; l; o; a ] when t = tag -> (
      match List.map int_of_string_opt [ m; i; l; o; a ] with
      | [ Some m; Some i; Some l; Some o; Some a ]
        when m >= 0 && i >= 0 && l >= 0 && o >= 0 && a >= 0 ->
          Some (m, i, l, o, a)
      | _ -> None)
  | _ -> None

(* Every malformed line is a [Parse_error] at that line.  The body is read
   before the network is built, so every array is sized by what the file
   defines, never by a header count alone. *)
let parse_string text =
  let lines = String.split_on_char '\n' text |> Array.of_list in
  if Array.length lines = 0 then fail 1 "empty file";
  let header =
    String.split_on_char ' ' (String.trim lines.(0)) |> List.filter (fun s -> s <> "")
  in
  let m, i, l, o, a =
    match header_counts ~tag:"aag" header with
    | Some counts -> counts
    | None -> fail 1 "expected 'aag M I L O A' header"
  in
  if l <> 0 then fail 1 "latches are not supported (combinational subset)";
  let line_no = ref 1 in
  let next_line () =
    incr line_no;
    if !line_no - 1 >= Array.length lines then fail !line_no "unexpected end of file";
    String.trim lines.(!line_no - 1)
  in
  let ints what =
    match
      String.split_on_char ' ' (next_line ())
      |> List.filter (fun x -> x <> "")
      |> List.map int_of_string_opt
    with
    | fields when List.for_all Option.is_some fields -> List.map Option.get fields
    | _ -> fail !line_no ("bad " ^ what ^ " line")
  in
  (* a defined literal: positive, variable in 0..M *)
  let defined what lit =
    if lit land 1 = 1 then fail !line_no ("negated " ^ what ^ " definition");
    if lit < 0 || lit / 2 > m then fail !line_no "literal out of range";
    lit / 2
  in
  let input_vars =
    List.init i (fun _ ->
        match ints "input" with [ v ] -> defined "input" v | _ -> fail !line_no "bad input line")
  in
  (* outputs (literals resolved after ANDs are read) *)
  let output_lits =
    List.init o (fun _ -> match ints "output" with [ v ] -> v | _ -> fail !line_no "bad output line")
  in
  let and_defs =
    List.init a (fun _ ->
        match ints "AND" with
        | [ lhs; r0; r1 ] ->
            ignore (defined "AND" lhs);
            (lhs, r0, r1)
        | _ -> fail !line_no "bad AND line")
  in
  (* ASCII variables need not be consecutive: number the defined ones *)
  let slots = Hashtbl.create 64 in
  let define v = if not (Hashtbl.mem slots v) then Hashtbl.add slots v (Hashtbl.length slots) in
  define 0;
  List.iter define input_vars;
  List.iter (fun (lhs, _, _) -> define (lhs / 2)) and_defs;
  let slot v = Option.value (Hashtbl.find_opt slots v) ~default:(-1) in
  let net = Network.create () in
  let node_of_slot = Array.make (Hashtbl.length slots) (-1) in
  node_of_slot.(0) <- Network.const net false;
  List.iteri
    (fun k v -> node_of_slot.(slot v) <- Network.add_input net (Printf.sprintf "i%d" k))
    input_vars;
  build_network ~fail:(fail 0) net ~slot node_of_slot ~m
    ~output_lits:(Array.of_list output_lits) ~and_defs:(Array.of_list and_defs)

(* ------------------------------------------------------------------ *)
(* Binary reader                                                       *)
(* ------------------------------------------------------------------ *)

(* Binary AIGER: same header with tag [aig], inputs implicit (variables
   1..I), ASCII output lines, then A AND definitions as two 7-bit
   variable-length deltas each — [lhs - rhs0] and [rhs0 - rhs1] with
   [lhs = 2*(I+L+k+1)] for the k-th AND and [lhs > rhs0 >= rhs1].  Parse
   errors report the byte offset instead of a line number. *)
let parse_binary_string text =
  let len = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let read_line () =
    if !pos >= len then fail "unexpected end of file";
    let start = !pos in
    let stop = try String.index_from text start '\n' with Not_found -> len in
    pos := min len (stop + 1);
    String.sub text start (stop - start)
  in
  let header =
    String.split_on_char ' ' (String.trim (read_line ()))
    |> List.filter (fun s -> s <> "")
  in
  let m, i, l, o, a =
    match header_counts ~tag:"aig" header with
    | Some counts -> counts
    | None -> fail "expected 'aig M I L O A' header"
  in
  if l <> 0 then fail "latches are not supported (combinational subset)";
  if m >= Sys.max_array_length then fail "header M too large";
  if i > m || a > m - i then fail "header M smaller than I + A";
  let net = Network.create () in
  (* inputs are variables 1..I and ANDs I+1..I+A, whatever M says *)
  let node_of_slot = Array.make (i + a + 1) (-1) in
  let slot v = if v < Array.length node_of_slot then v else -1 in
  node_of_slot.(0) <- Network.const net false;
  for k = 0 to i - 1 do
    node_of_slot.(k + 1) <- Network.add_input net (Printf.sprintf "i%d" k)
  done;
  let output_lits =
    List.init o (fun _ ->
        match int_of_string_opt (String.trim (read_line ())) with
        | Some v -> v
        | None -> fail "bad output line")
    |> Array.of_list
  in
  let read_delta () =
    let x = ref 0 and shift = ref 0 and fin = ref false in
    while not !fin do
      if !pos >= len then fail "truncated AND delta";
      if !shift > 62 then fail "AND delta overflows";
      let b = Char.code text.[!pos] in
      incr pos;
      x := !x lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      if b < 0x80 then fin := true
    done;
    !x
  in
  let and_defs =
    List.init a (fun k ->
        let lhs = 2 * (i + k + 1) in
        let rhs0 = lhs - read_delta () in
        if rhs0 < 0 then fail "AND delta out of range";
        let rhs1 = rhs0 - read_delta () in
        if rhs1 < 0 then fail "AND delta out of range";
        (lhs, rhs0, rhs1))
    |> Array.of_list
  in
  build_network ~fail net ~slot node_of_slot ~m ~output_lits ~and_defs

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path = parse_string (read_file path)
let parse_binary_file path = parse_binary_string (read_file path)

(* ------------------------------------------------------------------ *)
(* Writers                                                             *)
(* ------------------------------------------------------------------ *)

(* Shared variable numbering: inputs first, then ANDs in topological
   order — the layout the binary format mandates, reused for ASCII so the
   two writers emit the same circuit description. *)
let number_vars aig =
  let open Aig_lib in
  let order = Aig.topo_order aig in
  let pi k = Aig.node_of (Aig.pi aig k) in
  let top = ref 0 in
  for k = 0 to Aig.num_pis aig - 1 do
    top := max !top (pi k)
  done;
  List.iter (fun n -> top := max !top n) order;
  let var_of = Array.make (!top + 1) (-1) in
  var_of.(0) <- 0;
  let next = ref 1 in
  for k = 0 to Aig.num_pis aig - 1 do
    var_of.(pi k) <- !next;
    incr next
  done;
  List.iter
    (fun n ->
      var_of.(n) <- !next;
      incr next)
    order;
  let lit s =
    let v = var_of.(Aig.node_of s) in
    (2 * v) + if Aig.is_compl s then 1 else 0
  in
  (order, var_of, lit, !next - 1)

let write_aig aig =
  let open Aig_lib in
  let order, var_of, lit, m = number_vars aig in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "aag %d %d 0 %d %d\n" m (Aig.num_pis aig) (Aig.num_pos aig)
       (List.length order));
  for k = 0 to Aig.num_pis aig - 1 do
    Buffer.add_string buf (Printf.sprintf "%d\n" (lit (Aig.pi aig k)))
  done;
  Array.iter (fun s -> Buffer.add_string buf (Printf.sprintf "%d\n" (lit s))) (Aig.pos aig);
  (* Operands largest-literal first — the binary format's [rhs0 >= rhs1]
     normal form — so an [aag] file and its [aig] twin decode to identical
     AND definitions and round-trip byte-stably through either reader. *)
  List.iter
    (fun n ->
      let f0, f1 = Aig.fanins aig n in
      let a = lit f0 and b = lit f1 in
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d\n" (2 * var_of.(n)) (max a b) (min a b)))
    order;
  Buffer.contents buf

let encode_delta buf x =
  let x = ref x in
  while !x >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!x land 0x7f)));
    x := !x lsr 7
  done;
  Buffer.add_char buf (Char.chr !x)

let write_aig_binary aig =
  let open Aig_lib in
  let order, var_of, lit, m = number_vars aig in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "aig %d %d 0 %d %d\n" m (Aig.num_pis aig) (Aig.num_pos aig)
       (List.length order));
  Array.iter (fun s -> Buffer.add_string buf (Printf.sprintf "%d\n" (lit s))) (Aig.pos aig);
  List.iter
    (fun n ->
      let f0, f1 = Aig.fanins aig n in
      let a = lit f0 and b = lit f1 in
      let lhs = 2 * var_of.(n) in
      let rhs0 = max a b and rhs1 = min a b in
      encode_delta buf (lhs - rhs0);
      encode_delta buf (rhs0 - rhs1))
    order;
  Buffer.contents buf

let write_network net = write_aig (Aig_lib.Aig_of_network.convert net)
let write_network_binary net = write_aig_binary (Aig_lib.Aig_of_network.convert net)

let write_file path aig =
  let oc = open_out path in
  output_string oc (write_aig aig);
  close_out oc

let write_binary_file path aig =
  let oc = open_out_bin path in
  output_string oc (write_aig_binary aig);
  close_out oc
