open Logic
module S = Netlist_scan

exception Parse_error of int * string

(* BLIF tokens are separated by spaces only. *)
let token_start s i b =
  let i = ref i in
  while !i < b && String.unsafe_get s !i = ' ' do
    incr i
  done;
  !i

let token_end s i b = match S.index s i b ' ' with -1 -> b | j -> j

(* Physical lines -> logical lines (comments cut, continuations joined
   with a space), each tagged with its starting line number.  A line that
   continues nothing and is not continued is handed over in place; only a
   continued line is copied, into [pending]. *)
let iter_logical_lines iter_lines k =
  let pending = Buffer.create 64 and continued = ref false and pending_line = ref 0 in
  iter_lines (fun n s a b ->
      let b = match S.index s a b '#' with -1 -> b | j -> j in
      let a = S.skip_space s a b in
      let b = S.trim_end s a b in
      if not !continued then begin
        if b > a && s.[b - 1] = '\\' then begin
          Buffer.clear pending;
          Buffer.add_substring pending s a (b - a - 1);
          continued := true;
          pending_line := n
        end
        else if a < b then k n s a b
      end
      else begin
        Buffer.add_char pending ' ';
        Buffer.add_substring pending s a (b - a);
        let len = Buffer.length pending in
        if Buffer.nth pending (len - 1) = '\\' then Buffer.truncate pending (len - 1)
        else begin
          continued := false;
          let joined = Buffer.contents pending in
          if S.skip_space joined 0 len < len then k !pending_line joined 0 len
        end
      end);
  if !continued then begin
    let joined = Buffer.contents pending in
    k !pending_line joined 0 (String.length joined)
  end

(* One pass over the logical lines fills the name table, the .names
   blocks (a definition each, its cover lines numbered in file order) and
   the latches; a second walk builds the network from the outputs (then
   the latch data pins) down. *)
let parse_internal ~sequential iter_lines =
  let names = S.names () and defs = S.defs () in
  let inputs = S.Ints.create () and input_lines = S.Ints.create () in
  let outputs = S.Ints.create () in
  let latch_data = S.Ints.create () and latch_out = S.Ints.create () in
  let latch_init = S.Ints.create () and latch_line = S.Ints.create () in
  (* per block: its first cover; per cover: line, output column and the
     offset of its cube in [cube_text] (width = the block's arity) *)
  let first_cover = S.Ints.create () in
  let cover_line = S.Ints.create () and cover_out = S.Ints.create () in
  let cover_pos = S.Ints.create () in
  let cube_text = Buffer.create 4096 in
  let current = ref (-1) in
  let operands = S.Ints.create () in
  let add_cover n s pos width out =
    S.Ints.push cover_line n;
    S.Ints.push cover_out (Char.code out);
    S.Ints.push cover_pos (Buffer.length cube_text);
    Buffer.add_substring cube_text s pos width
  in
  iter_logical_lines iter_lines (fun n s a b ->
      let t0 = token_start s a b in
      if t0 < b then begin
        let e0 = token_end s t0 b in
        (* [f] on the id of each token after the first *)
        let iter_rest f =
          let i = ref (token_start s e0 b) in
          while !i < b do
            let e = token_end s !i b in
            f (S.intern names s !i e);
            i := token_start s e b
          done
        in
        let intern_rest into = iter_rest (S.Ints.push into) in
        if s.[t0] = '.' then begin
          current := -1;
          let is = S.equal s t0 e0 in
          if is ".model" || is ".end" || is ".exdc" then ()
          else if is ".inputs" then
            iter_rest (fun id ->
                S.Ints.push inputs id;
                S.Ints.push input_lines n)
          else if is ".outputs" then intern_rest outputs
          else if is ".names" then begin
            S.Ints.clear operands;
            intern_rest operands;
            if S.Ints.length operands = 0 then S.fail n ".names needs a target";
            let target = S.Ints.pop operands in
            current := S.add_def defs ~target ~line:n operands;
            S.Ints.push first_cover (S.Ints.length cover_line)
          end
          else if is ".latch" then begin
            if not sequential then
              S.fail n "sequential BLIF (.latch) is not supported here; use parse_sequential";
            S.Ints.clear operands;
            intern_rest operands;
            let count = S.Ints.length operands in
            if count < 2 then S.fail n ".latch needs input and output";
            S.Ints.push latch_data (S.Ints.get operands 0);
            S.Ints.push latch_out (S.Ints.get operands 1);
            S.Ints.push latch_init
              (if count > 2 && S.name names (S.Ints.get operands (count - 1)) = "1" then 1
               else 0);
            S.Ints.push latch_line n
          end
          else S.fail n ("unknown directive " ^ String.sub s t0 (e0 - t0))
        end
        else begin
          if !current < 0 then S.fail n "cube line outside of .names";
          let width = S.arity defs !current in
          let t1 = token_start s e0 b in
          if t1 = b then begin
            if width <> 0 then S.fail n "malformed cover line";
            if e0 - t0 <> 1 then S.fail n "bad constant cover";
            add_cover n s t0 0 s.[t0]
          end
          else begin
            let e1 = token_end s t1 b in
            if token_start s e1 b < b then S.fail n "malformed cover line";
            if e0 - t0 <> width then S.fail n "cube width does not match .names inputs";
            if e1 - t1 <> 1 then S.fail n "bad output column";
            add_cover n s t0 width s.[t1]
          end
        end
      end);
  S.Ints.push first_cover (S.Ints.length cover_line);
  let cubes = Buffer.contents cube_text in
  let net = Network.create () in
  let r = S.resolver names defs in
  for i = 0 to S.Ints.length inputs - 1 do
    let id = S.Ints.get inputs i in
    S.bind r id (S.add_input net ~line:(S.Ints.get input_lines i) (S.name names id))
  done;
  (* latch outputs are pseudo primary inputs of the combinational core *)
  let latches = S.Ints.length latch_out in
  for i = 0 to latches - 1 do
    let out = S.Ints.get latch_out i in
    S.bind r out (S.add_input net ~line:(S.Ints.get latch_line i) (S.name names out))
  done;
  let emit d =
    let c0 = S.Ints.get first_cover d and c1 = S.Ints.get first_cover (d + 1) in
    let width = S.arity defs d in
    let ones = ref false and zeros = ref false and others = ref false in
    for c = c0 to c1 - 1 do
      match Char.chr (S.Ints.get cover_out c) with
      | '1' -> ones := true
      | '0' -> zeros := true
      | _ -> others := true
    done;
    if !others || (!ones && !zeros) then
      S.fail (S.line defs d) "mixed output polarities in one cover";
    for c = c0 to c1 - 1 do
      let pos = S.Ints.get cover_pos c in
      for i = pos to pos + width - 1 do
        match cubes.[i] with
        | '0' | '1' | '-' | '~' | '2' -> ()
        | ch -> S.fail (S.Ints.get cover_line c) (Printf.sprintf "bad cube character %C" ch)
      done
    done;
    let cover = ref [] in
    for c = c1 - 1 downto c0 do
      cover := Cube.of_substring cubes (S.Ints.get cover_pos c) width :: !cover
    done;
    let table = Network.gate net (Network.Table (Sop.of_cubes width !cover)) (S.fanins r d) in
    if !zeros then Network.not_ net table else table
  in
  for i = 0 to S.Ints.length outputs - 1 do
    let o = S.Ints.get outputs i in
    Network.add_output net (S.name names o) (S.resolve r ~emit o)
  done;
  (* latch data pins are pseudo primary outputs *)
  for i = 0 to latches - 1 do
    Network.add_output net
      (S.name names (S.Ints.get latch_out i) ^ "_next")
      (S.resolve r ~emit (S.Ints.get latch_data i))
  done;
  ( net,
    S.Ints.length inputs,
    S.Ints.length outputs,
    Array.init latches (fun i -> S.Ints.get latch_init i = 1) )

let parse ~sequential iter_lines =
  try parse_internal ~sequential iter_lines
  with S.Error (line, msg) -> raise (Parse_error (line, msg))

let parse_string text =
  let net, _, _, _ = parse ~sequential:false (S.iter_string_lines text) in
  net

let parse_sequential_string text =
  let net, pis, pos, init = parse ~sequential:true (S.iter_string_lines text) in
  Seq.create net ~num_pis:pis ~num_pos:pos ~init

let with_file path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let parse_file path =
  with_file path (fun ic ->
      let net, _, _, _ = parse ~sequential:false (S.iter_channel_lines ic) in
      net)

let parse_sequential_file path =
  with_file path (fun ic ->
      let net, pis, pos, init = parse ~sequential:true (S.iter_channel_lines ic) in
      Seq.create net ~num_pis:pis ~num_pos:pos ~init)

(* ------------------------------------------------------------------ *)
(* Writer                                                               *)
(* ------------------------------------------------------------------ *)

let write_string ?(model_name = "network") net =
  let buf = Buffer.create 4096 in
  let name_of = Hashtbl.create 97 in
  let input_names = Network.input_names net in
  let gate_name id =
    match Hashtbl.find_opt name_of id with
    | Some n -> n
    | None ->
        let n = Printf.sprintf "n%d" id in
        Hashtbl.replace name_of id n;
        n
  in
  Buffer.add_string buf (Printf.sprintf ".model %s\n" model_name);
  Buffer.add_string buf ".inputs";
  Array.iter (fun n -> Buffer.add_string buf (" " ^ n)) input_names;
  Buffer.add_string buf "\n.outputs";
  List.iter (fun (n, _) -> Buffer.add_string buf (" " ^ n)) (Network.outputs net);
  Buffer.add_string buf "\n";
  let emit_names deps target lines =
    Buffer.add_string buf ".names";
    List.iter (fun d -> Buffer.add_string buf (" " ^ d)) deps;
    Buffer.add_string buf (" " ^ target ^ "\n");
    List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) lines
  in
  let dashes k i ch =
    String.init k (fun j -> if j = i then ch else '-')
  in
  for id = 0 to Network.num_nodes net - 1 do
    let deps () =
      Array.to_list (Array.map gate_name (Network.fanins net id))
    in
    let k = Array.length (Network.fanins net id) in
    match Network.kind net id with
    | Network.Input i -> Hashtbl.replace name_of id input_names.(i)
    | Network.Const b -> emit_names [] (gate_name id) (if b then [ "1" ] else [])
    | Network.And -> emit_names (deps ()) (gate_name id) [ String.make k '1' ^ " 1" ]
    | Network.Nand -> emit_names (deps ()) (gate_name id) [ String.make k '1' ^ " 0" ]
    | Network.Or ->
        emit_names (deps ()) (gate_name id) (List.init k (fun i -> dashes k i '1' ^ " 1"))
    | Network.Nor ->
        emit_names (deps ()) (gate_name id) (List.init k (fun i -> dashes k i '1' ^ " 0"))
    | Network.Not -> emit_names (deps ()) (gate_name id) [ "0 1" ]
    | Network.Buf -> emit_names (deps ()) (gate_name id) [ "1 1" ]
    | Network.Maj -> emit_names (deps ()) (gate_name id) [ "11- 1"; "1-1 1"; "-11 1" ]
    | Network.Mux -> emit_names (deps ()) (gate_name id) [ "11- 1"; "0-1 1" ]
    | Network.Xor | Network.Xnor ->
        (* Wide parities are decomposed into a chain of 2-input XORs with
           intermediate names; enumerating 2^k cubes is kept for small k. *)
        let base = match Network.kind net id with Network.Xor -> false | _ -> true in
        let dep_names = deps () in
        if k <= 4 then begin
          let lines = ref [] in
          for m = 0 to (1 lsl k) - 1 do
            let ones = ref 0 in
            let cube =
              String.init k (fun i ->
                  if m land (1 lsl i) <> 0 then begin
                    incr ones;
                    '1'
                  end
                  else '0')
            in
            if (!ones land 1 = 1) <> base then lines := (cube ^ " 1") :: !lines
          done;
          emit_names dep_names (gate_name id) (List.rev !lines)
        end
        else begin
          let counter = ref 0 in
          let rec chain = function
            | [] -> assert false
            | [ x ] -> x
            | x :: y :: rest ->
                incr counter;
                let tmp = Printf.sprintf "%s_x%d" (gate_name id) !counter in
                emit_names [ x; y ] tmp [ "10 1"; "01 1" ];
                chain (tmp :: rest)
          in
          let all = chain dep_names in
          emit_names [ all ] (gate_name id) [ (if base then "0 1" else "1 1") ]
        end
    | Network.Table sop ->
        emit_names (deps ()) (gate_name id)
          (List.map (fun c -> Cube.to_string c ^ " 1") (Sop.cubes sop))
  done;
  (* Output aliases: a .names buffer when the output name differs. *)
  List.iter
    (fun (name, id) ->
      let inner = gate_name id in
      if inner <> name then emit_names [ inner ] name [ "1 1" ])
    (Network.outputs net);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let write_file ?model_name path net =
  let oc = open_out path in
  output_string oc (write_string ?model_name net);
  close_out oc
