type id = int

type kind =
  | Const of bool
  | Input of int
  | And
  | Or
  | Xor
  | Nand
  | Nor
  | Xnor
  | Not
  | Buf
  | Maj
  | Mux
  | Table of Sop.t

type node = { kind : kind; fanins : id array }

type t = {
  mutable nodes : node array;
  mutable n : int;
  (* Growable array of input ids in declaration order, so [input_id] is O(1)
     (it used to rebuild the whole array from a reversed list per call,
     which made name resolution quadratic on wide netlists). *)
  mutable inputs : id array;
  mutable input_count : int;
  names : (string, id) Hashtbl.t;
  mutable input_names_rev : string list;
  mutable outputs_rev : (string * id) list;
}

let create () =
  {
    nodes = Array.make 64 { kind = Const false; fanins = [||] };
    n = 0;
    inputs = Array.make 8 0;
    input_count = 0;
    names = Hashtbl.create 97;
    input_names_rev = [];
    outputs_rev = [];
  }

let ensure_capacity t =
  if t.n >= Array.length t.nodes then begin
    let bigger = Array.make (2 * Array.length t.nodes) t.nodes.(0) in
    Array.blit t.nodes 0 bigger 0 t.n;
    t.nodes <- bigger
  end

let push t node =
  ensure_capacity t;
  t.nodes.(t.n) <- node;
  t.n <- t.n + 1;
  t.n - 1

let add_input t name =
  if Hashtbl.mem t.names name then invalid_arg ("Network.add_input: duplicate input " ^ name);
  let id = push t { kind = Input t.input_count; fanins = [||] } in
  if t.input_count >= Array.length t.inputs then begin
    let bigger = Array.make (2 * Array.length t.inputs) 0 in
    Array.blit t.inputs 0 bigger 0 t.input_count;
    t.inputs <- bigger
  end;
  t.inputs.(t.input_count) <- id;
  t.input_count <- t.input_count + 1;
  t.input_names_rev <- name :: t.input_names_rev;
  Hashtbl.add t.names name id;
  id

let const t b = push t { kind = Const b; fanins = [||] }

let arity_ok kind n =
  match kind with
  | Const _ | Input _ -> n = 0
  | Not | Buf -> n = 1
  | Maj | Mux -> n = 3
  | And | Or | Xor | Nand | Nor | Xnor -> n >= 1
  | Table sop -> Sop.num_vars sop = n

let gate t kind fanins =
  if not (arity_ok kind (Array.length fanins)) then
    invalid_arg "Network.gate: bad arity";
  Array.iter
    (fun f -> if f < 0 || f >= t.n then invalid_arg "Network.gate: dangling fanin")
    fanins;
  push t { kind; fanins = Array.copy fanins }

let and2 t a b = gate t And [| a; b |]
let or2 t a b = gate t Or [| a; b |]
let xor2 t a b = gate t Xor [| a; b |]
let not_ t a = gate t Not [| a |]
let maj t a b c = gate t Maj [| a; b; c |]
let mux t s a b = gate t Mux [| s; a; b |]

let add_output t name id =
  if id < 0 || id >= t.n then invalid_arg "Network.add_output: dangling driver";
  t.outputs_rev <- (name, id) :: t.outputs_rev

let num_nodes t = t.n
let num_inputs t = t.input_count
let num_outputs t = List.length t.outputs_rev

let num_gates t =
  let count = ref 0 in
  for i = 0 to t.n - 1 do
    match t.nodes.(i).kind with Const _ | Input _ -> () | _ -> incr count
  done;
  !count

let kind t id = t.nodes.(id).kind
let fanins t id = t.nodes.(id).fanins
let input_names t = Array.of_list (List.rev t.input_names_rev)
let outputs t = List.rev t.outputs_rev

let input_id t i =
  if i < 0 || i >= t.input_count then invalid_arg "Network.input_id: out of range";
  t.inputs.(i)

let find_input t name = Hashtbl.find_opt t.names name

(* Table covers are flattened to literal arrays once per call, so the walk
   of each block allocates nothing. *)
let simulate t ins =
  if Array.length ins <> t.input_count then invalid_arg "Network.simulate: input count";
  let width = Word_store.input_width "Network.simulate" ins in
  (* Slot [t.n] is the scratch term of a Table cover. *)
  let st = Word_store.create ~slots:(t.n + 1) ~width in
  let term = t.n in
  let covers =
    Array.init t.n (fun i ->
        let node = t.nodes.(i) in
        match node.kind with
        | Table sop ->
            Array.of_list
              (List.map
                 (fun cube ->
                   Array.of_list
                     (List.map
                        (fun (var, pos) -> (node.fanins.(var) lsl 1) lor if pos then 0 else 1)
                        (Cube.literals cube)))
                 (Sop.cubes sop))
        | _ -> [||])
  in
  let outs = Array.of_list (List.rev_map (fun (_, id) -> (id, Bitvec.create width)) t.outputs_rev) in
  let reduce op i f =
    Word_store.copy st i (f.(0) lsl 1);
    for j = 1 to Array.length f - 1 do
      op st i (f.(j) lsl 1)
    done
  in
  let negate i = Word_store.copy st i ((i lsl 1) lor 1) in
  Word_store.iter_blocks st (fun () ->
      for i = 0 to t.n - 1 do
        let f = t.nodes.(i).fanins in
        match t.nodes.(i).kind with
        | Const b -> Word_store.fill st i b
        | Input k -> Word_store.load st i ins.(k)
        | And -> reduce Word_store.and_ i f
        | Or -> reduce Word_store.or_ i f
        | Xor -> reduce Word_store.xor_ i f
        | Nand -> reduce Word_store.and_ i f; negate i
        | Nor -> reduce Word_store.or_ i f; negate i
        | Xnor -> reduce Word_store.xor_ i f; negate i
        | Not -> Word_store.copy st i ((f.(0) lsl 1) lor 1)
        | Buf -> Word_store.copy st i (f.(0) lsl 1)
        | Maj -> Word_store.maj st i (f.(0) lsl 1) (f.(1) lsl 1) (f.(2) lsl 1)
        | Mux -> Word_store.mux st i (f.(0) lsl 1) (f.(1) lsl 1) (f.(2) lsl 1)
        | Table _ ->
            let cover = covers.(i) in
            Word_store.fill st i false;
            for c = 0 to Array.length cover - 1 do
              let cube = cover.(c) in
              Word_store.fill st term true;
              for l = 0 to Array.length cube - 1 do
                Word_store.and_ st term cube.(l)
              done;
              Word_store.or_ st i (term lsl 1)
            done
      done;
      for o = 0 to Array.length outs - 1 do
        let id, bv = outs.(o) in
        Word_store.store st (id lsl 1) bv
      done);
  Array.map snd outs

let truth_tables t =
  let n = t.input_count in
  if n > Truth_table.max_vars then invalid_arg "Network.truth_tables: too many inputs";
  let ins = Array.init n (fun i -> Truth_table.bitvec (Truth_table.var n i)) in
  simulate t ins
  |> Array.map (fun bv ->
         let tt = Truth_table.create n in
         for w = 0 to Bitvec.num_words bv - 1 do
           Bitvec.set_word (Truth_table.bitvec tt) w (Bitvec.word bv w)
         done;
         tt)

let eval t a =
  let ins =
    Array.init t.input_count (fun i ->
        let bv = Bitvec.create 1 in
        Bitvec.set bv 0 a.(i);
        bv)
  in
  Array.map (fun bv -> Bitvec.get bv 0) (simulate t ins)

let extract_outputs t which =
  let fresh = create () in
  let map = Array.make t.n (-1) in
  Array.iter
    (fun name -> ignore (add_input fresh name))
    (input_names t);
  (* Iterative DFS copy (stack-safe on 10^5-node-deep netlists).  Entries
     are [2*id + phase]: phase 0 visits the node (expanding unresolved
     fanins on top of a deferred phase-1 entry), phase 1 emits it once every
     fanin is mapped.  Fanins are pushed in reverse so the leftmost resolves
     first — the recursive copy's order, which fixes fresh-graph ids. *)
  let copy root =
    let stack = ref [ root lsl 1 ] in
    while !stack <> [] do
      let v = List.hd !stack in
      stack := List.tl !stack;
      let id = v lsr 1 in
      if v land 1 = 1 then
        let node = t.nodes.(id) in
        map.(id) <- gate fresh node.kind (Array.map (fun f -> map.(f)) node.fanins)
      else if map.(id) < 0 then begin
        let node = t.nodes.(id) in
        match node.kind with
        | Input k -> map.(id) <- input_id fresh k
        | Const b -> map.(id) <- const fresh b
        | _ ->
            stack := ((id lsl 1) lor 1) :: !stack;
            for i = Array.length node.fanins - 1 downto 0 do
              stack := (node.fanins.(i) lsl 1) :: !stack
            done
      end
    done;
    map.(root)
  in
  let outs = Array.of_list (outputs t) in
  List.iter
    (fun o ->
      let name, id = outs.(o) in
      add_output fresh name (copy id))
    which;
  fresh

let pp_stats ppf t =
  Format.fprintf ppf "inputs=%d outputs=%d gates=%d nodes=%d" (num_inputs t)
    (num_outputs t) (num_gates t) (num_nodes t)
