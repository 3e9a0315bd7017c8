open Logic
module S = Netlist_scan

exception Parse_error of int * string

type gate = Gate of Network.kind | Const of bool | Dff

(* Keywords, matched ignoring case; a definition stores its index. *)
let keywords =
  [|
    ("AND", Gate Network.And);
    ("OR", Gate Network.Or);
    ("NAND", Gate Network.Nand);
    ("NOR", Gate Network.Nor);
    ("XOR", Gate Network.Xor);
    ("XNOR", Gate Network.Xnor);
    ("NOT", Gate Network.Not);
    ("BUF", Gate Network.Buf);
    ("BUFF", Gate Network.Buf);
    ("GND", Const false);
    ("VDD", Const true);
    ("MUX", Gate Network.Mux);
    ("MAJ", Gate Network.Maj);
    ("DFF", Dff);
  |]

let keyword s a b =
  let i = ref 0 in
  while !i < Array.length keywords && not (S.equal_ci s a b (fst keywords.(!i))) do
    incr i
  done;
  if !i < Array.length keywords then !i else -1

let arity_error kind n =
  match kind with
  | Network.Not | Network.Buf -> if n <> 1 then Some "takes one operand" else None
  | Network.Maj | Network.Mux -> if n <> 3 then Some "takes three operands" else None
  | _ -> if n < 1 then Some "takes at least one operand" else None

(* The name inside [KEYWORD( ... )]: from the first '(' to the last ')'. *)
let paren_arg names n s a b =
  let l = S.index s a b '(' and r = S.rindex s a b ')' in
  if l < 0 || r <= l then S.fail n "expected (...)";
  let na = S.skip_space s (l + 1) r in
  S.intern names s na (S.trim_end s na r)

(* One pass over the lines fills the name table, the gate definitions
   and the DFF list; a second walk builds the network from the outputs
   (then the DFF data pins) down.  [iter_lines] hands over one line at a
   time, so a file parse reads straight off the channel. *)
let parse_internal iter_lines =
  let names = S.names () and defs = S.defs () in
  let inputs = S.Ints.create () and input_lines = S.Ints.create () in
  let outputs = S.Ints.create () in
  let kinds = S.Ints.create () (* per definition: keyword index, or -1 *) in
  let unknown = Hashtbl.create 1 (* definition -> its unknown keyword *) in
  let dff_target = S.Ints.create () and dff_data = S.Ints.create () in
  let dff_line = S.Ints.create () in
  let args = S.Ints.create () in
  iter_lines (fun n s a b ->
      let b = match S.index s a b '#' with -1 -> b | j -> j in
      let a = S.skip_space s a b in
      let b = S.trim_end s a b in
      if a < b then begin
        if S.has_prefix_ci s a b "INPUT(" then begin
          S.Ints.push inputs (paren_arg names n s a b);
          S.Ints.push input_lines n
        end
        else if S.has_prefix_ci s a b "OUTPUT(" then
          S.Ints.push outputs (paren_arg names n s a b)
        else begin
          let eq = S.index s a b '=' in
          if eq < 0 then S.fail n "expected assignment";
          let target = S.intern names s a (S.trim_end s a eq) in
          let ra = S.skip_space s (eq + 1) b in
          let l = S.index s ra b '(' in
          S.Ints.clear args;
          let kind_end =
            if l < 0 then b
            else begin
              let r = S.rindex s ra b ')' in
              if r <= l then S.fail n "unbalanced parentheses";
              (* comma-separated operands, trimmed, empty ones dropped *)
              let i = ref (l + 1) in
              while !i <= r do
                let j = match S.index s !i r ',' with -1 -> r | j -> j in
                let oa = S.skip_space s !i j in
                if oa < j then S.Ints.push args (S.intern names s oa (S.trim_end s oa j));
                i := j + 1
              done;
              S.trim_end s ra l
            end
          in
          let k = keyword s ra kind_end in
          if k >= 0 && snd keywords.(k) = Dff then begin
            if S.Ints.length args <> 1 then S.fail n "DFF takes one operand";
            S.Ints.push dff_target target;
            S.Ints.push dff_data (S.Ints.get args 0);
            S.Ints.push dff_line n
          end
          else begin
            let d = S.add_def defs ~target ~line:n args in
            S.Ints.push kinds k;
            if k < 0 then
              Hashtbl.replace unknown d
                (String.uppercase_ascii (String.sub s ra (kind_end - ra)))
          end
        end
      end);
  let net = Network.create () in
  let r = S.resolver names defs in
  for i = 0 to S.Ints.length inputs - 1 do
    let id = S.Ints.get inputs i in
    S.bind r id (S.add_input net ~line:(S.Ints.get input_lines i) (S.name names id))
  done;
  (* DFF outputs become pseudo primary inputs. *)
  let dffs = S.Ints.length dff_target in
  for i = 0 to dffs - 1 do
    let target = S.Ints.get dff_target i in
    S.bind r target
      (S.add_input net ~line:(S.Ints.get dff_line i) (S.name names target ^ "_q"))
  done;
  let emit d =
    let k = S.Ints.get kinds d in
    if k < 0 then S.fail (S.line defs d) ("unknown gate " ^ Hashtbl.find unknown d);
    match keywords.(k) with
    | _, Const b -> Network.const net b
    | word, Gate kind -> (
        match arity_error kind (S.arity defs d) with
        | Some msg -> S.fail (S.line defs d) (word ^ " " ^ msg)
        | None -> Network.gate net kind (S.fanins r d))
    | _, Dff -> assert false
  in
  for i = 0 to S.Ints.length outputs - 1 do
    let o = S.Ints.get outputs i in
    Network.add_output net (S.name names o) (S.resolve r ~emit o)
  done;
  (* DFF inputs become pseudo primary outputs. *)
  for i = 0 to dffs - 1 do
    let target = S.Ints.get dff_target i in
    Network.add_output net (S.name names target ^ "_d")
      (S.resolve r ~emit (S.Ints.get dff_data i))
  done;
  (net, S.Ints.length inputs, S.Ints.length outputs, dffs)

let parse iter_lines =
  try parse_internal iter_lines with S.Error (line, msg) -> raise (Parse_error (line, msg))

let parse_string text =
  let net, _, _, _ = parse (S.iter_string_lines text) in
  net

let parse_sequential_string text =
  let net, pis, pos, dffs = parse (S.iter_string_lines text) in
  Seq.create net ~num_pis:pis ~num_pos:pos ~init:(Array.make dffs false)

let with_file path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let parse_file path =
  with_file path (fun ic ->
      let net, _, _, _ = parse (S.iter_channel_lines ic) in
      net)

let parse_sequential_file path =
  with_file path (fun ic ->
      let net, pis, pos, dffs = parse (S.iter_channel_lines ic) in
      Seq.create net ~num_pis:pis ~num_pos:pos ~init:(Array.make dffs false))

let write_string net =
  let buf = Buffer.create 4096 in
  let input_names = Network.input_names net in
  let name_of = Hashtbl.create 97 in
  let gate_name id =
    match Hashtbl.find_opt name_of id with
    | Some n -> n
    | None ->
        let n = Printf.sprintf "n%d" id in
        Hashtbl.replace name_of id n;
        n
  in
  Array.iter (fun n -> Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" n)) input_names;
  List.iter
    (fun (n, _) -> Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" n))
    (Network.outputs net);
  let emit target kind operands =
    Buffer.add_string buf
      (Printf.sprintf "%s = %s(%s)\n" target kind (String.concat ", " operands))
  in
  for id = 0 to Network.num_nodes net - 1 do
    let deps () = Array.to_list (Array.map gate_name (Network.fanins net id)) in
    match Network.kind net id with
    | Network.Input i -> Hashtbl.replace name_of id input_names.(i)
    | Network.Const b ->
        Buffer.add_string buf (Printf.sprintf "%s = %s\n" (gate_name id) (if b then "vdd" else "gnd"))
    | Network.And -> emit (gate_name id) "AND" (deps ())
    | Network.Or -> emit (gate_name id) "OR" (deps ())
    | Network.Nand -> emit (gate_name id) "NAND" (deps ())
    | Network.Nor -> emit (gate_name id) "NOR" (deps ())
    | Network.Xor -> emit (gate_name id) "XOR" (deps ())
    | Network.Xnor -> emit (gate_name id) "XNOR" (deps ())
    | Network.Not -> emit (gate_name id) "NOT" (deps ())
    | Network.Buf -> emit (gate_name id) "BUFF" (deps ())
    | Network.Maj -> emit (gate_name id) "MAJ" (deps ())
    | Network.Mux -> emit (gate_name id) "MUX" (deps ())
    | Network.Table sop ->
        (* .bench has no table construct: expand the cover as OR of ANDs. *)
        let deps = deps () in
        let counter = ref 0 in
        let cube_names =
          List.map
            (fun cube ->
              let lits =
                List.map
                  (fun (v, positive) ->
                    if positive then List.nth deps v
                    else begin
                      incr counter;
                      let inv = Printf.sprintf "%s_i%d" (gate_name id) !counter in
                      emit inv "NOT" [ List.nth deps v ];
                      inv
                    end)
                  (Cube.literals cube)
              in
              match lits with
              | [] ->
                  incr counter;
                  let c = Printf.sprintf "%s_c%d" (gate_name id) !counter in
                  Buffer.add_string buf (Printf.sprintf "%s = vdd\n" c);
                  c
              | [ single ] -> single
              | _ ->
                  incr counter;
                  let c = Printf.sprintf "%s_c%d" (gate_name id) !counter in
                  emit c "AND" lits;
                  c)
            (Sop.cubes sop)
        in
        (match cube_names with
        | [] -> Buffer.add_string buf (Printf.sprintf "%s = gnd\n" (gate_name id))
        | [ single ] -> emit (gate_name id) "BUFF" [ single ]
        | _ -> emit (gate_name id) "OR" cube_names)
  done;
  List.iter
    (fun (name, id) ->
      let inner = gate_name id in
      if inner <> name then emit name "BUFF" [ inner ])
    (Network.outputs net);
  Buffer.contents buf

let write_file path net =
  let oc = open_out path in
  output_string oc (write_string net);
  close_out oc
