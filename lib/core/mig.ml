type signal = int
type kind = Const | Pi of int | Gate

(* The node store is a struct of arrays indexed by node id, with no block
   per node besides its fanout array.  Slots [3n], [3n+1] and [3n+2] of
   [fanin] hold gate [n]'s sorted fanin triple, and the same slots of
   [fo_slot] its back-pointers: the index of [n] inside each fanin's
   fanout array, which make a detach an O(1) tombstone.  Both are
   meaningless for constants and inputs.

   Counted fanout: the first [nfo.(n)] entries of [fanouts.(n)] are the
   users, in insertion order (oldest first) with removals tombstoned as
   [-1], so a detach is O(1) instead of an order-preserving shift (which
   made heavy substitution cascades quadratic on high-fanout nodes — the
   constant node fans out to every AND/OR gate).  [nlive.(n)] counts the
   live entries.  Holes are squeezed out, order preserved, when an append
   finds the array at least half empty.  The public view ({!fanout})
   presents live users newest-first to preserve the historical cons-list
   order that level-balancing heuristics iterate.

   Every per-node array has the same capacity; ids are never reused, so a
   slot past [n] still holds its initial value. *)

(* Mutation events, emitted after the graph is consistent again so a
   listener can read the post-state (fanins, fanouts, outputs).  [Refanin]
   hands over a fresh copy of the pre-rewrite fanin triple, built only when
   a listener is installed. *)
type event =
  | Gate_added of int
  | Gate_killed of int
  | Refanin of { node : int; old_fanins : signal array }
  | Po_added of int
  | Po_redirected of { index : int; old_po : signal }

type attachment = ..

type t = {
  mutable kinds : kind array;
  mutable fanin : signal array;
  mutable fo_slot : int array;
  mutable fanouts : int array array;
  mutable nfo : int array;
  mutable nlive : int array;
  mutable dead : Bytes.t;
  mutable porefs : int array;
  mutable n : int;
  mutable pis : int array;
  mutable npis : int;
  mutable pout : signal array;
  mutable npos : int;
  strash : Logic.Triple_table.t;
  mutable ngates : int;
  mutable listener : (event -> unit) option;
  mutable attachment : attachment option;
}

let const0 = 0
let const1 = 1
let not_ s = s lxor 1
let node_of s = s lsr 1
let is_compl s = s land 1 = 1
let signal_of n c = (n lsl 1) lor if c then 1 else 0

let no_users : int array = [||]

(* A store with room for [cap] nodes, [npis] inputs and [npos] outputs and
   a strash table sized for [ngates] gates; node 0 is the constant-false
   node. *)
let alloc ~cap ~npis ~npos ~ngates =
  {
    kinds = Array.make cap Const;
    fanin = Array.make (3 * cap) 0;
    fo_slot = Array.make (3 * cap) 0;
    fanouts = Array.make cap no_users;
    nfo = Array.make cap 0;
    nlive = Array.make cap 0;
    dead = Bytes.make cap '\000';
    porefs = Array.make cap 0;
    n = 1;
    pis = Array.make npis 0;
    npis = 0;
    pout = Array.make npos 0;
    npos = 0;
    strash = Logic.Triple_table.create ngates;
    ngates = 0;
    listener = None;
    attachment = None;
  }

let create ?(capacity = 64) () =
  let cap = max 2 capacity in
  alloc ~cap ~npis:8 ~npos:8 ~ngates:cap

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

(* Double every per-node array at once, so they keep one capacity. *)
let grow_nodes t =
  let cap = Array.length t.kinds in
  let widen arr default =
    let bigger = Array.make (2 * Array.length arr) default in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  in
  t.kinds <- widen t.kinds Const;
  t.fanin <- widen t.fanin 0;
  t.fo_slot <- widen t.fo_slot 0;
  t.fanouts <- widen t.fanouts no_users;
  t.nfo <- widen t.nfo 0;
  t.nlive <- widen t.nlive 0;
  t.porefs <- widen t.porefs 0;
  let dead = Bytes.make (2 * cap) '\000' in
  Bytes.blit t.dead 0 dead 0 cap;
  t.dead <- dead

let push_node t kind =
  if t.n >= Array.length t.kinds then grow_nodes t;
  let id = t.n in
  t.kinds.(id) <- kind;
  t.n <- id + 1;
  id

let add_pi t =
  let id = push_node t (Pi t.npis) in
  t.pis <- grow t.pis t.npis 0;
  t.pis.(t.npis) <- id;
  t.npis <- t.npis + 1;
  signal_of id false

let[@inline] is_dead t n = Bytes.get t.dead n <> '\000'
let[@inline] fanin t n i = t.fanin.((3 * n) + i)

(* The sorted fanin triple, one component at a time so that sorting
   allocates nothing. *)
let[@inline] imin (x : int) y = if x <= y then x else y
let[@inline] imax (x : int) y = if x <= y then y else x
let[@inline] lo3 a b c = imin (imin a b) c
let[@inline] mid3 a b c = imax (imin a b) (imin (imax a b) c)
let[@inline] hi3 a b c = imax (imax a b) c

(* Ω.M on a sorted triple: either the triple simplifies to a signal, or it is
   a genuine gate over three distinct nodes ([-1]).  Complementary signals
   of the same node are adjacent integers, so checking the two adjacent
   pairs suffices. *)
let[@inline] simplify3 a b c =
  if a = b then a
  else if b = c then b
  else if a lxor b = 1 then c
  else if b lxor c = 1 then a
  else -1

(* Squeeze the tombstones out of [n]'s fanout array in place, preserving the
   order of the live entries, and re-aim the survivors' back-pointers (each
   survivor is a gate with [n] as exactly one of its three distinct fanins). *)
let compact_fanout t n =
  let fo = t.fanouts.(n) in
  let w = ref 0 in
  for r = 0 to t.nfo.(n) - 1 do
    let g = fo.(r) in
    if g >= 0 then begin
      fo.(!w) <- g;
      let b = 3 * g in
      if node_of t.fanin.(b) = n then t.fo_slot.(b) <- !w
      else if node_of t.fanin.(b + 1) = n then t.fo_slot.(b + 1) <- !w
      else t.fo_slot.(b + 2) <- !w;
      incr w
    end
  done;
  t.nfo.(n) <- !w

(* [add_fanout t n f i] appends user [f] to [n]'s fanout and records the slot
   in [f]'s back-pointer for fanin position [i].  When the append needs room
   and at least half the occupied prefix is tombstones, compact instead of
   growing — amortized O(1) and the array never exceeds ~2x the live count. *)
let add_fanout t n f i =
  let k = t.nfo.(n) in
  let fo = t.fanouts.(n) in
  if k >= Array.length fo then begin
    (* The first array is a literal: an inline allocation, not a call. *)
    if Array.length fo = 0 then t.fanouts.(n) <- [| 0; 0; 0; 0 |]
    else if k >= 8 && 2 * t.nlive.(n) <= k then compact_fanout t n
    else begin
      let bigger = Array.make (2 * Array.length fo) 0 in
      Array.blit fo 0 bigger 0 k;
      t.fanouts.(n) <- bigger
    end
  end;
  let k = t.nfo.(n) in
  t.fanouts.(n).(k) <- f;
  t.fo_slot.((3 * f) + i) <- k;
  t.nfo.(n) <- k + 1;
  t.nlive.(n) <- t.nlive.(n) + 1

(* A gate's three fanins are distinct nodes (the sorted triple survived Ω.M),
   so a user appears at most once; its back-pointer names the slot and removal
   is an O(1) tombstone.  The slot is validated before writing: [substitute]
   detaches a whole fanout array at once, which leaves the back-pointers of
   the captured users stale until the cascade rewrites them. *)
let remove_fanout t n f slot =
  let fo = t.fanouts.(n) in
  if slot < t.nfo.(n) && fo.(slot) = f then begin
    fo.(slot) <- -1;
    t.nlive.(n) <- t.nlive.(n) - 1
  end

(* The live gate strashed under a sorted triple, or [-1]. *)
let find_gate t a b c =
  let n = Logic.Triple_table.find t.strash a b c in
  if n >= 0 && not (is_dead t n) then n else -1

let lookup t a b c =
  let a = lo3 a b c and b = mid3 a b c and c = hi3 a b c in
  let s = simplify3 a b c in
  if s >= 0 then Some s
  else
    let n = find_gate t a b c in
    if n >= 0 then Some (signal_of n false) else None

(* Ω.M fires eagerly on node creation (see the module doc of Mig_algebra);
   counting it here covers every construction and rewrite path. *)
let c_omega_m_hit = Obs.counter "mig.rule/omega_m.hits"

(* Store [a <= b <= c] as gate [g]'s fanin triple, strash it and append [g]
   to the three fanins' fanout arrays. *)
let wire t g a b c =
  let base = 3 * g in
  t.fanin.(base) <- a;
  t.fanin.(base + 1) <- b;
  t.fanin.(base + 2) <- c;
  Logic.Triple_table.replace t.strash a b c g;
  add_fanout t (node_of a) g 0;
  add_fanout t (node_of b) g 1;
  add_fanout t (node_of c) g 2

let maj t a b c =
  let a = lo3 a b c and b = mid3 a b c and c = hi3 a b c in
  let s = simplify3 a b c in
  if s >= 0 then begin
    Obs.incr c_omega_m_hit;
    s
  end
  else
    let n = find_gate t a b c in
    if n >= 0 then signal_of n false
    else begin
      let id = push_node t Gate in
      wire t id a b c;
      t.ngates <- t.ngates + 1;
      emit t (Gate_added id);
      signal_of id false
    end

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

let kind t n = t.kinds.(n)
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

let fanins t n =
  match t.kinds.(n) with
  | Gate -> Array.sub t.fanin (3 * n) 3
  | Const | Pi _ -> [||]

let fanout t n =
  let fo = t.fanouts.(n) in
  let acc = ref [] in
  for i = 0 to t.nfo.(n) - 1 do
    let f = fo.(i) in
    if f >= 0 && not (is_dead t f) then acc := f :: !acc
  done;
  !acc

let fanout_size t n = t.nlive.(n)
let uses t n = t.nlive.(n) + t.porefs.(n)
let is_gate t n = match t.kinds.(n) with Gate -> true | Const | Pi _ -> false

let fanout_iter t n f =
  let fo = t.fanouts.(n) in
  for i = 0 to t.nfo.(n) - 1 do
    let g = fo.(i) in
    if g >= 0 && not (is_dead t g) then f g
  done

let po_refs t n = t.porefs.(n)

let unregister t n =
  let base = 3 * n in
  let a = t.fanin.(base) and b = t.fanin.(base + 1) and c = t.fanin.(base + 2) in
  if Logic.Triple_table.find t.strash a b c = n then
    Logic.Triple_table.remove t.strash a b c

(* Kill a gate node: drop its strash entry and detach it from its fanins'
   fanout lists.  The fanout list of [n] itself is the caller's business.
   Inputs and constants are never killed: substituting one merely redirects
   its users while the node itself stays alive.  The [Gate_killed] event
   fires with the fanin triple still intact so listeners can walk it. *)
let kill t n =
  match t.kinds.(n) with
  | Const | Pi _ -> ()
  | Gate when is_dead t n -> ()
  | Gate ->
      unregister t n;
      for i = 0 to 2 do
        remove_fanout t (node_of (fanin t n i)) n t.fo_slot.((3 * n) + i)
      done;
      Bytes.set t.dead n '\001';
      t.ngates <- t.ngates - 1;
      emit t (Gate_killed n)

(* Fanin [g] with node [n] replaced by signal [s], keeping [g]'s polarity. *)
let[@inline] rewire n s g = if node_of g = n then s lxor (g land 1) else g

let rec substitute t n s =
  if not (is_dead t n) then begin
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
    let fos = t.fanouts.(n) in
    let nfos = t.nfo.(n) in
    t.fanouts.(n) <- no_users;
    t.nfo.(n) <- 0;
    t.nlive.(n) <- 0;
    kill t n;
    (* The historical fanout order was a cons list (newest first); iterate
       the array back-to-front, skipping tombstones, to keep the cascade
       order bit-identical. *)
    for i = nfos - 1 downto 0 do
      let f = fos.(i) in
      if f >= 0 && not (is_dead t f) then refanin t f n s
    done
  end

(* Rewrite fanout node [f] after its fanin node [n] was replaced by [s]:
   recompute the fanin triple, re-simplify (the replacement may collapse the
   gate) and re-hash (the new triple may collide with an existing gate); both
   cases cascade into a further substitution of [f] itself. *)
and refanin t f n s =
  let base = 3 * f in
  let o0 = t.fanin.(base) and o1 = t.fanin.(base + 1) and o2 = t.fanin.(base + 2) in
  let u0 = rewire n s o0 and u1 = rewire n s o1 and u2 = rewire n s o2 in
  let a = lo3 u0 u1 u2 and b = mid3 u0 u1 u2 and c = hi3 u0 u1 u2 in
  let r = simplify3 a b c in
  if r >= 0 then substitute t f r
  else
    let g = find_gate t a b c in
    if g >= 0 && g <> f then substitute t f (signal_of g false)
    else begin
      unregister t f;
      if node_of o0 <> n then remove_fanout t (node_of o0) f t.fo_slot.(base);
      if node_of o1 <> n then remove_fanout t (node_of o1) f t.fo_slot.(base + 1);
      if node_of o2 <> n then remove_fanout t (node_of o2) f t.fo_slot.(base + 2);
      wire t f a b c;
      match t.listener with
      | None -> ()
      | Some l -> l (Refanin { node = f; old_fanins = [| o0; o1; o2 |] })
    end

(* Iterative post-order DFS from the outputs; calls [f] on each reachable
   live gate, fanins first.  The visited set and the explicit stack of packed
   [node * 4 + next_fanin_index] states are allocated per call, so concurrent
   traversals of one graph share no mutable state, and deep graphs never
   overflow the OCaml stack.  Identical visit order to the recursive
   formulation (children explored in fanin order, emitted on completion), so
   consumers relying on the historical order are safe.  [rev_fanins] explores
   fanin 2 before 0 — the order the historical recursive [cleanup] produced
   via right-to-left argument evaluation, which pins fresh-graph node
   numbering (and hence signal sort order downstream). *)
let iter_topo_gen t ~rev_fanins f =
  let seen = Bytes.make t.n '\000' in
  let stack = ref (Array.make 64 0) in
  let sp = ref 0 in
  let push v =
    if !sp >= Array.length !stack then begin
      let bigger = Array.make (2 * !sp) 0 in
      Array.blit !stack 0 bigger 0 !sp;
      stack := bigger
    end;
    !stack.(!sp) <- v;
    incr sp
  in
  for i = 0 to t.npos - 1 do
    let root = node_of t.pout.(i) in
    if Bytes.get seen root = '\000' then begin
      Bytes.set seen root '\001';
      (match t.kinds.(root) with Const | Pi _ -> () | Gate -> push (root * 4));
      while !sp > 0 do
        let v = !stack.(!sp - 1) in
        let n = v lsr 2 and idx = v land 3 in
        if idx = 3 then begin
          decr sp;
          f n
        end
        else begin
          !stack.(!sp - 1) <- v + 1;
          let idx = if rev_fanins then 2 - idx else idx in
          let m = node_of (fanin t n idx) in
          if Bytes.get seen m = '\000' then begin
            Bytes.set seen m '\001';
            match t.kinds.(m) with Const | Pi _ -> () | Gate -> push (m * 4)
          end
        end
      done
    end
  done

let iter_topo t f = iter_topo_gen t ~rev_fanins:false f
let iter_topo_rev t f = iter_topo_gen t ~rev_fanins:true f

let topo_order t =
  let acc = ref [] in
  iter_topo t (fun n -> acc := n :: !acc);
  List.rev !acc

let size t =
  let count = ref 0 in
  iter_topo t (fun _ -> incr count);
  !count

(* The snapshot goes into an [int array] that each domain keeps for its
   next call: a sweep allocates nothing in steady state, where a fresh
   array per call would be a major-heap block per sweep.  The buffer is
   taken for the duration of the call, so a nested call (from [f]) or a
   call that raises makes a fresh one.  It doubles as the traversal
   needs, so it stays within twice the largest reachable count; sized
   from [ngates], which counts the unreachable gates rewriting leaves
   behind, it would hold several times that. *)
let snapshot_buffer = Domain.DLS.new_key (fun () -> [||])

let foreach_gate_n t f =
  let buf = Domain.DLS.get snapshot_buffer in
  Domain.DLS.set snapshot_buffer [||];
  let order = ref (if Array.length buf > 0 then buf else Array.make 64 0) in
  let k = ref 0 in
  iter_topo t (fun n ->
      if !k = Array.length !order then begin
        let bigger = Array.make (2 * !k) 0 in
        Array.blit !order 0 bigger 0 !k;
        order := bigger
      end;
      !order.(!k) <- n;
      incr k);
  let order = !order in
  for i = 0 to !k - 1 do
    let n = order.(i) in
    if not (is_dead t n) then f n
  done;
  Domain.DLS.set snapshot_buffer order;
  !k

let foreach_gate t f = ignore (foreach_gate_n t f)

(* The store is sized once, from the number of gates the copy keeps, so
   the copy allocates no per-node blocks besides fanout arrays.  [ngates]
   would be a cheaper bound, but it counts the unreachable gates rewriting
   leaves behind, often several times the reachable ones.  A caller that
   already holds that count passes it as [size] and saves the DFS. *)
let cleanup ?size:kept t =
  let kept = match kept with Some k -> k | None -> size t in
  let fresh =
    alloc ~cap:(1 + t.npis + kept) ~npis:(max 8 t.npis) ~npos:(max 8 t.npos)
      ~ngates:(max 64 kept)
  in
  let map = Array.make t.n (-1) in
  map.(0) <- 0;
  for i = 0 to t.npis - 1 do
    map.(t.pis.(i)) <- node_of (add_pi fresh)
  done;
  let[@inline] copy s = signal_of map.(node_of s) (is_compl s) in
  iter_topo_rev t (fun n ->
      let s = maj fresh (copy (fanin t n 0)) (copy (fanin t n 1)) (copy (fanin t n 2)) in
      (* A live gate triple cannot simplify, and strashing in the fresh graph
         only merges identical gates, so the copy is a positive signal. *)
      assert (not (is_compl s));
      map.(n) <- node_of s);
  for i = 0 to t.npos - 1 do
    ignore (add_po fresh (copy t.pout.(i)))
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
    match t.kinds.(i) with
    | Const | Pi _ -> varint 0
    | Gate when is_dead t i -> varint 1
    | Gate ->
        varint 2;
        varint (fanin t i 0);
        varint (fanin t i 1);
        varint (fanin t i 2)
  done;
  for i = 0 to t.npos - 1 do
    varint t.pout.(i)
  done;
  Buffer.contents b

let check_store t =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun e -> errors := e :: !errors) fmt in
  for n = 0 to t.n - 1 do
    let fo = t.fanouts.(n) and k = t.nfo.(n) in
    if k > Array.length fo then fail "node %d: %d fanout entries in %d slots" n k (Array.length fo)
    else begin
      let live = ref 0 in
      for r = 0 to k - 1 do
        if fo.(r) >= 0 then incr live
      done;
      if !live <> t.nlive.(n) then
        fail "node %d: %d untombstoned fanout entries, count %d" n !live t.nlive.(n)
    end;
    match t.kinds.(n) with
    | Gate when not (is_dead t n) ->
        for i = 0 to 2 do
          let m = node_of (fanin t n i) and slot = t.fo_slot.((3 * n) + i) in
          if not (slot < t.nfo.(m) && t.fanouts.(m).(slot) = n) then
            fail "gate %d: fanin %d (node %d) back-pointer %d is not its slot" n i m slot
        done
    | Const | Pi _ | Gate -> ()
  done;
  match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))

let pp_stats ppf t =
  Format.fprintf ppf "pis=%d pos=%d gates=%d" t.npis t.npos (size t)
