open Logic

type signal = int
type kind = Const | Pi of int | And

type node = { kind : kind; f0 : signal; f1 : signal }

type t = {
  mutable nodes : node array;
  mutable n : int;
  mutable pis : int array;
  mutable npis : int;
  mutable pout : signal array;
  mutable npos : int;
  strash : Triple_table.t;  (* keyed on (f0, f1, 0) *)
  (* The graph is append-only, so the PO-reachable region only grows and the
     topological order of already-reached nodes never changes: [order] is a
     postorder buffer extended at [add_po], [reached] the visited marks, and
     [nord] doubles as the O(1) live AND count. *)
  mutable reached : bool array;
  mutable order : int array;
  mutable nord : int;
  mutable dstack : int array;
}

let const0 = 0
let const1 = 1
let not_ s = s lxor 1
let node_of s = s lsr 1
let is_compl s = s land 1 = 1
let signal_of n c = (n lsl 1) lor if c then 1 else 0

let dummy = { kind = Const; f0 = 0; f1 = 0 }

let create () =
  let t =
    {
      nodes = Array.make 64 dummy;
      n = 1;
      pis = Array.make 8 0;
      npis = 0;
      pout = Array.make 8 0;
      npos = 0;
      strash = Triple_table.create 64;
      reached = Array.make 64 false;
      order = Array.make 64 0;
      nord = 0;
      dstack = Array.make 64 0;
    }
  in
  t.nodes.(0) <- dummy;
  t

let grow arr n default =
  if n >= Array.length arr then begin
    let bigger = Array.make (2 * Array.length arr) default in
    Array.blit arr 0 bigger 0 n;
    bigger
  end
  else arr

let push t node =
  t.nodes <- grow t.nodes t.n dummy;
  t.nodes.(t.n) <- node;
  t.n <- t.n + 1;
  t.n - 1

let add_pi t =
  let id = push t { kind = Pi t.npis; f0 = 0; f1 = 0 } in
  t.pis <- grow t.pis t.npis 0;
  t.pis.(t.npis) <- id;
  t.npis <- t.npis + 1;
  signal_of id false

let and_ t x y =
  let a = if x <= y then x else y and b = if x <= y then y else x in
  if a = const0 then const0
  else if a = const1 then b
  else if a = b then a
  else if a lxor b = 1 then const0
  else
    let n = Triple_table.find t.strash a b 0 in
    if n >= 0 then signal_of n false
    else begin
      let id = push t { kind = And; f0 = a; f1 = b } in
      Triple_table.replace t.strash a b 0 id;
      signal_of id false
    end

let or_ t a b = not_ (and_ t (not_ a) (not_ b))
let xor_ t a b = or_ t (and_ t a (not_ b)) (and_ t (not_ a) b)
let mux t s a b = or_ t (and_ t s a) (and_ t (not_ s) b)
let maj3 t a b c = or_ t (and_ t a b) (or_ t (and_ t a c) (and_ t b c))

let ensure_reached t =
  if Array.length t.reached < t.n then begin
    let r = Array.make (max t.n (2 * Array.length t.reached)) false in
    Array.blit t.reached 0 r 0 (Array.length t.reached);
    t.reached <- r
  end

let stack_push t sp v =
  if sp >= Array.length t.dstack then begin
    let bigger = Array.make (2 * Array.length t.dstack) 0 in
    Array.blit t.dstack 0 bigger 0 sp;
    t.dstack <- bigger
  end;
  t.dstack.(sp) <- v

let emit t n =
  t.order <- grow t.order t.nord 0;
  t.order.(t.nord) <- n;
  t.nord <- t.nord + 1

(* Iterative postorder DFS from [n0] extending the maintained order; visits
   [f0] before [f1], the same emission sequence as a recursive traversal.
   Stack states pack [node * 4 + next_child_index]. *)
let reach t n0 =
  ensure_reached t;
  if not t.reached.(n0) then begin
    t.reached.(n0) <- true;
    match t.nodes.(n0).kind with
    | Const | Pi _ -> ()
    | And ->
        stack_push t 0 (n0 * 4);
        let sp = ref 1 in
        while !sp > 0 do
          let v = t.dstack.(!sp - 1) in
          let n = v lsr 2 and idx = v land 3 in
          if idx = 2 then begin
            decr sp;
            emit t n
          end
          else begin
            t.dstack.(!sp - 1) <- v + 1;
            let node = t.nodes.(n) in
            let m = node_of (if idx = 0 then node.f0 else node.f1) in
            if not t.reached.(m) then begin
              t.reached.(m) <- true;
              if t.nodes.(m).kind = And then begin
                stack_push t !sp (m * 4);
                incr sp
              end
            end
          end
        done
  end

let add_po t s =
  t.pout <- grow t.pout t.npos 0;
  t.pout.(t.npos) <- s;
  t.npos <- t.npos + 1;
  reach t (node_of s);
  t.npos - 1

let kind t n = t.nodes.(n).kind
let fanins t n = (t.nodes.(n).f0, t.nodes.(n).f1)
let num_pis t = t.npis
let num_pos t = t.npos
let pi t i = signal_of t.pis.(i) false
let po t i = t.pout.(i)
let pos t = Array.sub t.pout 0 t.npos

let topo_order t =
  let rec build i acc = if i < 0 then acc else build (i - 1) (t.order.(i) :: acc) in
  build (t.nord - 1) []

let size t = t.nord

let levels t =
  let level = Array.make t.n 0 in
  List.iter
    (fun n ->
      let node = t.nodes.(n) in
      level.(n) <- 1 + max level.(node_of node.f0) level.(node_of node.f1))
    (topo_order t);
  let depth =
    Array.fold_left (fun acc s -> max acc level.(node_of s)) 0 (pos t)
  in
  (level, depth)

let simulate t ins =
  if Array.length ins <> t.npis then invalid_arg "Aig.simulate: input count";
  let width = Word_store.input_width "Aig.simulate" ins in
  let st = Word_store.create ~slots:t.n ~width in
  let outs = Array.init t.npos (fun _ -> Bitvec.create width) in
  Word_store.iter_blocks st (fun () ->
      for i = 0 to t.npis - 1 do
        Word_store.load st t.pis.(i) ins.(i)
      done;
      for k = 0 to t.nord - 1 do
        let n = t.order.(k) in
        Word_store.copy st n t.nodes.(n).f0;
        Word_store.and_ st n t.nodes.(n).f1
      done;
      for o = 0 to t.npos - 1 do
        Word_store.store st t.pout.(o) outs.(o)
      done);
  outs

let eval t a =
  let ins =
    Array.init t.npis (fun i ->
        let bv = Bitvec.create 1 in
        Bitvec.set bv 0 a.(i);
        bv)
  in
  Array.map (fun bv -> Bitvec.get bv 0) (simulate t ins)

let truth_tables t =
  let n = t.npis in
  if n > Truth_table.max_vars then invalid_arg "Aig.truth_tables";
  let ins = Array.init n (fun i -> Truth_table.bitvec (Truth_table.var n i)) in
  simulate t ins
  |> Array.map (fun bv ->
         let tt = Truth_table.create n in
         for w = 0 to Bitvec.num_words bv - 1 do
           Bitvec.set_word (Truth_table.bitvec tt) w (Bitvec.word bv w)
         done;
         tt)

let pp_stats ppf t =
  let _, depth = levels t in
  Format.fprintf ppf "pis=%d pos=%d ands=%d depth=%d" t.npis t.npos (size t) depth
