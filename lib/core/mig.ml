type signal = int
type kind = Const | Pi of int | Gate

type node = {
  mutable kind : kind;
  mutable fanin : signal array;
  (* Counted fanout: the first [nfo] entries of [fanout] are the users, in
     insertion order (oldest first) with removals tombstoned as [-1], so a
     detach is O(1) instead of an order-preserving shift (which made heavy
     substitution cascades quadratic on high-fanout nodes — the constant
     node fans out to every AND/OR gate).  Holes are squeezed out, order
     preserved, when an append finds the array at least half empty.  The
     public view ({!fanout}) presents live users newest-first to preserve
     the historical cons-list order that level-balancing heuristics
     iterate. *)
  mutable fanout : int array;
  mutable nfo : int;
  mutable nlive : int;
  (* For a gate, [fo_slot.(i)] is the index of this gate inside
     [fanin.(i)]'s fanout array — the back-pointers that make tombstoning
     O(1).  Kept current by compaction; [[||]] for constants and inputs. *)
  mutable fo_slot : int array;
  mutable dead : bool;
}

(* Mutation events, emitted after the graph is consistent again so a
   listener can read the post-state (fanins, fanouts, outputs).  [Refanin]
   hands over the pre-rewrite fanin array (ownership transferred: the node
   now holds a fresh array). *)
type event =
  | Gate_added of int
  | Gate_killed of int
  | Refanin of { node : int; old_fanins : signal array }
  | Po_added of int
  | Po_redirected of { index : int; old_po : signal }

type attachment = ..

type t = {
  mutable nodes : node array;
  mutable n : int;
  mutable pis : int array;
  mutable npis : int;
  mutable pout : signal array;
  mutable npos : int;
  strash : (int * int * int, int) Hashtbl.t;
  mutable porefs : int array;
  mutable ngates : int;
  mutable listener : (event -> unit) option;
  mutable attachment : attachment option;
  (* Reusable DFS scratch: epoch-marked visited array plus an explicit stack
     of packed [node * 4 + next_fanin_index] states, so traversals allocate
     nothing steady-state and never overflow the OCaml stack. *)
  mutable mark : int array;
  mutable epoch : int;
  mutable dfs_stack : int array;
}

let const0 = 0
let const1 = 1
let not_ s = s lxor 1
let node_of s = s lsr 1
let is_compl s = s land 1 = 1
let signal_of n c = (n lsl 1) lor if c then 1 else 0

let fresh_node kind =
  { kind; fanin = [||]; fanout = [||]; nfo = 0; nlive = 0; fo_slot = [||]; dead = false }

let create () =
  let t =
    {
      nodes = Array.make 64 (fresh_node Const);
      n = 0;
      pis = Array.make 8 0;
      npis = 0;
      pout = Array.make 8 0;
      npos = 0;
      strash = Hashtbl.create 997;
      porefs = Array.make 64 0;
      ngates = 0;
      listener = None;
      attachment = None;
      mark = Array.make 64 0;
      epoch = 0;
      dfs_stack = Array.make 64 0;
    }
  in
  (* node 0 is the constant-false node *)
  t.nodes.(0) <- fresh_node Const;
  t.n <- 1;
  t

let[@inline] emit t e = match t.listener with None -> () | Some f -> f e
let on_event t f = t.listener <- f
let attachment t = t.attachment
let set_attachment t a = t.attachment <- a

let grow arr n default =
  if n >= Array.length arr then begin
    let bigger = Array.make (2 * Array.length arr) default in
    Array.blit arr 0 bigger 0 n;
    bigger
  end
  else arr

let push_node t node =
  t.nodes <- grow t.nodes t.n (fresh_node Const);
  t.porefs <- grow t.porefs t.n 0;
  t.nodes.(t.n) <- node;
  t.porefs.(t.n) <- 0;
  t.n <- t.n + 1;
  t.n - 1

let add_pi t =
  let id = push_node t (fresh_node (Pi t.npis)) in
  t.pis <- grow t.pis t.npis 0;
  t.pis.(t.npis) <- id;
  t.npis <- t.npis + 1;
  signal_of id false

let sort3 a b c =
  let a, b = if a <= b then (a, b) else (b, a) in
  let b, c = if b <= c then (b, c) else (c, b) in
  let a, b = if a <= b then (a, b) else (b, a) in
  (a, b, c)

(* Ω.M on a sorted triple: either the triple simplifies to a signal, or it is
   a genuine gate over three distinct nodes.  Complementary signals of the
   same node are adjacent integers, so checking the two adjacent pairs
   suffices. *)
let simplify3 a b c =
  if a = b then Some a
  else if b = c then Some b
  else if a lxor b = 1 then Some c
  else if b lxor c = 1 then Some a
  else None

(* Squeeze the tombstones out of [n]'s fanout array in place, preserving the
   order of the live entries, and re-aim the survivors' back-pointers (each
   survivor is a gate with [n] as exactly one of its three distinct fanins). *)
let compact_fanout t n =
  let node = t.nodes.(n) in
  let w = ref 0 in
  for r = 0 to node.nfo - 1 do
    let g = node.fanout.(r) in
    if g >= 0 then begin
      node.fanout.(!w) <- g;
      let gn = t.nodes.(g) in
      let fi = gn.fanin in
      if node_of fi.(0) = n then gn.fo_slot.(0) <- !w
      else if node_of fi.(1) = n then gn.fo_slot.(1) <- !w
      else gn.fo_slot.(2) <- !w;
      incr w
    end
  done;
  node.nfo <- !w

(* [add_fanout t n f i] appends user [f] to [n]'s fanout and records the slot
   in [f]'s back-pointer for fanin position [i].  When the append needs room
   and at least half the occupied prefix is tombstones, compact instead of
   growing — amortized O(1) and the array never exceeds ~2x the live count. *)
let add_fanout t n f i =
  let node = t.nodes.(n) in
  if node.nfo >= Array.length node.fanout then begin
    if node.nfo >= 8 && 2 * node.nlive <= node.nfo then compact_fanout t n
    else begin
      let bigger = Array.make (max 4 (2 * Array.length node.fanout)) 0 in
      Array.blit node.fanout 0 bigger 0 node.nfo;
      node.fanout <- bigger
    end
  end;
  node.fanout.(node.nfo) <- f;
  t.nodes.(f).fo_slot.(i) <- node.nfo;
  node.nfo <- node.nfo + 1;
  node.nlive <- node.nlive + 1

(* A gate's three fanins are distinct nodes (the sorted triple survived Ω.M),
   so a user appears at most once; its back-pointer names the slot and removal
   is an O(1) tombstone.  The slot is validated before writing: [substitute]
   detaches a whole fanout array at once, which leaves the back-pointers of
   the captured users stale until the cascade rewrites them. *)
let remove_fanout t n f slot =
  let node = t.nodes.(n) in
  if slot < node.nfo && node.fanout.(slot) = f then begin
    node.fanout.(slot) <- -1;
    node.nlive <- node.nlive - 1
  end

let lookup t a b c =
  let a, b, c = sort3 a b c in
  match simplify3 a b c with
  | Some s -> Some s
  | None -> (
      match Hashtbl.find_opt t.strash (a, b, c) with
      | Some n when not t.nodes.(n).dead -> Some (signal_of n false)
      | _ -> None)

(* Ω.M fires eagerly on node creation (see the module doc of Mig_algebra);
   counting it here covers every construction and rewrite path. *)
let c_omega_m_hit = Obs.counter "mig.rule/omega_m.hits"

let maj t a b c =
  let a, b, c = sort3 a b c in
  match simplify3 a b c with
  | Some s ->
      Obs.incr c_omega_m_hit;
      s
  | None -> (
      match Hashtbl.find_opt t.strash (a, b, c) with
      | Some n when not t.nodes.(n).dead -> signal_of n false
      | _ ->
          let node = fresh_node Gate in
          node.fanin <- [| a; b; c |];
          node.fo_slot <- Array.make 3 0;
          let id = push_node t node in
          Hashtbl.replace t.strash (a, b, c) id;
          add_fanout t (node_of a) id 0;
          add_fanout t (node_of b) id 1;
          add_fanout t (node_of c) id 2;
          t.ngates <- t.ngates + 1;
          emit t (Gate_added id);
          signal_of id false)

let and_ t a b = maj t a b const0
let or_ t a b = maj t a b const1

let xor_ t a b =
  let nand = not_ (and_ t a b) in
  let both = or_ t a b in
  and_ t nand both

let mux t s a b =
  let when_true = and_ t s a in
  let when_false = and_ t (not_ s) b in
  or_ t when_true when_false

let add_po t s =
  t.pout <- grow t.pout t.npos 0;
  t.pout.(t.npos) <- s;
  t.npos <- t.npos + 1;
  t.porefs.(node_of s) <- t.porefs.(node_of s) + 1;
  let i = t.npos - 1 in
  emit t (Po_added i);
  i

let kind t n = t.nodes.(n).kind
let num_pis t = t.npis
let num_pos t = t.npos
let num_nodes t = t.n
let num_gates t = t.ngates
let pi t i = signal_of t.pis.(i) false
let po t i = t.pout.(i)

let set_po t i s =
  let old = t.pout.(i) in
  if old <> s then begin
    t.pout.(i) <- s;
    t.porefs.(node_of old) <- t.porefs.(node_of old) - 1;
    t.porefs.(node_of s) <- t.porefs.(node_of s) + 1;
    emit t (Po_redirected { index = i; old_po = old })
  end

let pos t = Array.sub t.pout 0 t.npos
let fanins t n = t.nodes.(n).fanin

let fanout t n =
  let node = t.nodes.(n) in
  let acc = ref [] in
  for i = 0 to node.nfo - 1 do
    let f = node.fanout.(i) in
    if f >= 0 && not t.nodes.(f).dead then acc := f :: !acc
  done;
  !acc

let fanout_size t n = t.nodes.(n).nlive

let fanout_iter t n f =
  let node = t.nodes.(n) in
  for i = 0 to node.nfo - 1 do
    let g = node.fanout.(i) in
    if g >= 0 && not t.nodes.(g).dead then f g
  done

let is_dead t n = t.nodes.(n).dead
let po_refs t n = t.porefs.(n)

let strash_key t n =
  let f = t.nodes.(n).fanin in
  (f.(0), f.(1), f.(2))

let unregister t n =
  match Hashtbl.find_opt t.strash (strash_key t n) with
  | Some m when m = n -> Hashtbl.remove t.strash (strash_key t n)
  | _ -> ()

(* Kill a gate node: drop its strash entry and detach it from its fanins'
   fanout lists.  The fanout list of [n] itself is the caller's business.
   Inputs and constants are never killed: substituting one merely redirects
   its users while the node itself stays alive.  The [Gate_killed] event
   fires with the fanin array still intact so listeners can walk it. *)
let kill t n =
  let node = t.nodes.(n) in
  if node.kind = Gate && not node.dead then begin
    unregister t n;
    Array.iteri
      (fun i s -> remove_fanout t (node_of s) n node.fo_slot.(i))
      node.fanin;
    node.dead <- true;
    t.ngates <- t.ngates - 1;
    emit t (Gate_killed n)
  end

let rec substitute t n s =
  let node = t.nodes.(n) in
  if not node.dead then begin
    assert (node_of s <> n);
    (* The maintained PO reference count gates the output scan: substitution
       runs thousands of times per sweep and scanning every output each time
       was an O(gates * outputs) term at the 10^5 tier. *)
    if t.porefs.(n) > 0 then
      for i = 0 to t.npos - 1 do
        if node_of t.pout.(i) = n then begin
          let old = t.pout.(i) in
          t.pout.(i) <- s lxor (old land 1);
          t.porefs.(n) <- t.porefs.(n) - 1;
          let m = node_of t.pout.(i) in
          t.porefs.(m) <- t.porefs.(m) + 1;
          emit t (Po_redirected { index = i; old_po = old })
        end
      done;
    let fos = node.fanout in
    let nfos = node.nfo in
    node.fanout <- [||];
    node.nfo <- 0;
    node.nlive <- 0;
    kill t n;
    (* The historical fanout order was a cons list (newest first); iterate
       the array back-to-front, skipping tombstones, to keep the cascade
       order bit-identical. *)
    for i = nfos - 1 downto 0 do
      let f = fos.(i) in
      if f >= 0 && not t.nodes.(f).dead then refanin t f n s
    done
  end

(* Rewrite fanout node [f] after its fanin node [n] was replaced by [s]:
   recompute the fanin triple, re-simplify (the replacement may collapse the
   gate) and re-hash (the new triple may collide with an existing gate); both
   cases cascade into a further substitution of [f] itself. *)
and refanin t f n s =
  let fnode = t.nodes.(f) in
  let updated =
    Array.map (fun g -> if node_of g = n then s lxor (g land 1) else g) fnode.fanin
  in
  let a, b, c = sort3 updated.(0) updated.(1) updated.(2) in
  match simplify3 a b c with
  | Some r -> substitute t f r
  | None -> (
      match Hashtbl.find_opt t.strash (a, b, c) with
      | Some g when g <> f && not t.nodes.(g).dead -> substitute t f (signal_of g false)
      | _ ->
          unregister t f;
          Array.iteri
            (fun i g ->
              if node_of g <> n then remove_fanout t (node_of g) f fnode.fo_slot.(i))
            fnode.fanin;
          let old_fanins = fnode.fanin in
          fnode.fanin <- [| a; b; c |];
          Hashtbl.replace t.strash (a, b, c) f;
          Array.iteri (fun i g -> add_fanout t (node_of g) f i) fnode.fanin;
          emit t (Refanin { node = f; old_fanins }))

(* Iterative post-order DFS from the outputs over the reusable scratch; calls
   [f] on each reachable live gate, fanins first.  Identical visit order to
   the recursive formulation (children explored in fanin order, emitted on
   completion), so consumers relying on the historical order are safe.
   [rev_fanins] explores fanin 2 before 0 — the order the historical
   recursive [cleanup] produced via right-to-left argument evaluation, which
   pins fresh-graph node numbering (and hence signal sort order downstream). *)
let iter_topo_gen t ~rev_fanins f =
  if Array.length t.mark < t.n then begin
    let bigger = Array.make (max t.n (2 * Array.length t.mark)) 0 in
    Array.blit t.mark 0 bigger 0 (Array.length t.mark);
    t.mark <- bigger
  end;
  t.epoch <- t.epoch + 1;
  let ep = t.epoch in
  let mark = t.mark in
  let sp = ref 0 in
  let push v =
    if !sp >= Array.length t.dfs_stack then begin
      let bigger = Array.make (2 * Array.length t.dfs_stack) 0 in
      Array.blit t.dfs_stack 0 bigger 0 !sp;
      t.dfs_stack <- bigger
    end;
    t.dfs_stack.(!sp) <- v;
    incr sp
  in
  for i = 0 to t.npos - 1 do
    let root = node_of t.pout.(i) in
    if mark.(root) <> ep then begin
      mark.(root) <- ep;
      (match t.nodes.(root).kind with
      | Const | Pi _ -> ()
      | Gate -> push (root * 4));
      while !sp > 0 do
        let v = t.dfs_stack.(!sp - 1) in
        let n = v lsr 2 and idx = v land 3 in
        if idx = 3 then begin
          decr sp;
          f n
        end
        else begin
          t.dfs_stack.(!sp - 1) <- v + 1;
          let idx = if rev_fanins then 2 - idx else idx in
          let m = node_of t.nodes.(n).fanin.(idx) in
          if mark.(m) <> ep then begin
            mark.(m) <- ep;
            match t.nodes.(m).kind with Const | Pi _ -> () | Gate -> push (m * 4)
          end
        end
      done
    end
  done

let iter_topo t f = iter_topo_gen t ~rev_fanins:false f

let topo_order t =
  let acc = ref [] in
  iter_topo t (fun n -> acc := n :: !acc);
  List.rev !acc

let size t =
  let count = ref 0 in
  iter_topo t (fun _ -> incr count);
  !count

let foreach_gate t f =
  let order = topo_order t in
  List.iter (fun n -> if not t.nodes.(n).dead then f n) order

let cleanup t =
  let fresh = create () in
  let map = Array.make t.n (-1) in
  map.(0) <- 0;
  for i = 0 to t.npis - 1 do
    map.(t.pis.(i)) <- node_of (add_pi fresh)
  done;
  iter_topo_gen t ~rev_fanins:true (fun n ->
      let node = t.nodes.(n) in
      let f s = signal_of map.(node_of s) (is_compl s) in
      let s = maj fresh (f node.fanin.(0)) (f node.fanin.(1)) (f node.fanin.(2)) in
      (* A live gate triple cannot simplify, and strashing in the fresh graph
         only merges identical gates, so the copy is a positive signal. *)
      assert (not (is_compl s));
      map.(n) <- node_of s);
  for i = 0 to t.npos - 1 do
    let s = t.pout.(i) in
    ignore (add_po fresh (signal_of map.(node_of s) (is_compl s)))
  done;
  fresh

(* Varint stream of the node store: node count, output count, one tagged
   record per node in id order (input, dead gate, or live gate followed by
   its fanin triple), then the output signals.  Every field is
   length-determined, so equal strings mean equal stores; an input's index
   is its rank among the input records. *)
let fingerprint t =
  let b = Buffer.create (4 * t.n + 16) in
  let rec varint x =
    if x < 0x80 then Buffer.add_char b (Char.unsafe_chr x)
    else begin
      Buffer.add_char b (Char.unsafe_chr (x land 0x7f lor 0x80));
      varint (x lsr 7)
    end
  in
  varint t.n;
  varint t.npos;
  for i = 1 to t.n - 1 do
    let node = t.nodes.(i) in
    match node.kind with
    | Const | Pi _ -> varint 0
    | Gate when node.dead -> varint 1
    | Gate ->
        varint 2;
        Array.iter varint node.fanin
  done;
  for i = 0 to t.npos - 1 do
    varint t.pout.(i)
  done;
  Buffer.contents b

let pp_stats ppf t =
  Format.fprintf ppf "pis=%d pos=%d gates=%d" t.npis t.npos (size t)
