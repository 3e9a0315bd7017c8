(* Incremental MIG analysis: reference-counted reachability plus lazily
   repaired levels and per-level Table I statistics.

   Invariants (at quiescence, i.e. whenever a query returns):
   - refs.(n)  = #(counted gates with a fanin edge to n) + Mig.po_refs n
   - cnt.(n)   ⟺ n is a live gate with refs.(n) > 0
                ⟺ n is a live gate reachable from the outputs (DAG)
   - every counted gate with [inb] has its (level, compl-fanins) contribution
     in exactly one slot of the per-level buckets; dirty gates are out of the
     buckets and sit in the FIFO worklist until the next flush
   - lvl.(n) of a counted gate = 1 + max fanin level after the flush;
     uncounted gates' entries are scratch (recomputed on demand)

   When the dirty frontier outgrows the graph (or a flush fails to settle
   within a linear work budget), the whole state is rebuilt from scratch —
   the incremental path is an optimization, never a semantic dependency. *)

let c_rebuilds = Obs.counter "mig.analysis/rebuilds"
and c_flush_pops = Obs.counter "mig.analysis/flush.pops"

type t = {
  mig : Mig.t;
  mutable refs : int array;
  mutable cnt : bool array;
  mutable lvl : int array;
  mutable cmp : int array; (* complemented non-constant fanins of a gate *)
  mutable inb : bool array; (* bucket membership *)
  mutable queued : bool array;
  mutable gpl : int array; (* counted gates per level *)
  mutable cpl : int array; (* complemented fanin edges per level *)
  mutable nsize : int; (* counted gates *)
  (* dirty FIFO ring *)
  mutable q : int array;
  mutable qhead : int;
  mutable qlen : int;
  mutable invalid : bool;
  (* reusable scratch for the counting / level DFS (packed node*4+idx) *)
  mutable stk : int array;
  mutable vmark : int array;
  mutable vepoch : int;
  mutable ustale : bool;
      (* whether uncounted-level scratch (epoch [vepoch]) predates a
         mutation and must be recomputed *)
}

type Mig.attachment += Analysis of t

let grow_to arr len fill =
  if Array.length arr >= len then arr
  else begin
    let bigger = Array.make (max len (2 * Array.length arr)) fill in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

let ensure_nodes a =
  let n = Mig.num_nodes a.mig in
  if Array.length a.refs < n then begin
    a.refs <- grow_to a.refs n 0;
    a.cnt <- grow_to a.cnt n false;
    a.lvl <- grow_to a.lvl n 0;
    a.cmp <- grow_to a.cmp n 0;
    a.inb <- grow_to a.inb n false;
    a.queued <- grow_to a.queued n false;
    a.vmark <- grow_to a.vmark n 0
  end

let ensure_level a l =
  if l >= Array.length a.gpl then begin
    a.gpl <- grow_to a.gpl (l + 1) 0;
    a.cpl <- grow_to a.cpl (l + 1) 0
  end

let compl_fanins mig g =
  let count = ref 0 in
  for i = 0 to 2 do
    let s = Mig.fanin mig g i in
    if Mig.is_compl s && Mig.node_of s <> 0 then incr count
  done;
  !count

let bucket_add a n =
  let l = a.lvl.(n) in
  ensure_level a l;
  a.gpl.(l) <- a.gpl.(l) + 1;
  a.cpl.(l) <- a.cpl.(l) + a.cmp.(n);
  a.inb.(n) <- true

let bucket_remove a n =
  let l = a.lvl.(n) in
  a.gpl.(l) <- a.gpl.(l) - 1;
  a.cpl.(l) <- a.cpl.(l) - a.cmp.(n);
  a.inb.(n) <- false

(* ---- dirty worklist ---- *)

let ring_push a n =
  if a.qlen >= Array.length a.q then begin
    let bigger = Array.make (max 64 (2 * Array.length a.q)) 0 in
    for i = 0 to a.qlen - 1 do
      bigger.(i) <- a.q.((a.qhead + i) mod Array.length a.q)
    done;
    a.q <- bigger;
    a.qhead <- 0
  end;
  a.q.((a.qhead + a.qlen) mod Array.length a.q) <- n;
  a.qlen <- a.qlen + 1

let ring_pop a =
  let n = a.q.(a.qhead) in
  a.qhead <- (a.qhead + 1) mod Array.length a.q;
  a.qlen <- a.qlen - 1;
  n

let dirty_cap a = max 64 (a.nsize / 2)

(* Take a counted gate out of the buckets and schedule its level for
   recomputation at the next flush. *)
let mark_dirty a n =
  if a.inb.(n) then bucket_remove a n;
  if not a.queued.(n) then begin
    a.queued.(n) <- true;
    ring_push a n;
    if a.qlen > dirty_cap a then a.invalid <- true
  end

(* ---- reference counting ---- *)

let fanin_level a mig s =
  match Mig.kind mig (Mig.node_of s) with
  | Mig.Const | Mig.Pi _ -> 0
  | Mig.Gate -> a.lvl.(Mig.node_of s)

let stk_push a sp v =
  if sp >= Array.length a.stk then a.stk <- grow_to a.stk (sp + 1) 0;
  a.stk.(sp) <- v

(* Make the whole uncounted cone under [n0] counted: set flags, bump refs
   along every edge, and assign levels bottom-up.  Iterative post-order over
   the packed scratch stack (stack-safe on deep graphs).  A level computed
   here may read a dirty fanin's stale level; the flush propagation
   re-enqueues this node through the fanin's fanout list, so it settles by
   the next query. *)
let count_cascade a n0 =
  let mig = a.mig in
  a.cnt.(n0) <- true;
  a.nsize <- a.nsize + 1;
  stk_push a 0 (n0 * 4);
  let sp = ref 1 in
  while !sp > 0 do
    let v = a.stk.(!sp - 1) in
    let n = v lsr 2 and idx = v land 3 in
    if idx = 3 then begin
      decr sp;
      let m = ref 0 in
      let dead_fanin = ref false in
      for i = 0 to 2 do
        let s = Mig.fanin mig n i in
        if Mig.is_dead mig (Mig.node_of s) then dead_fanin := true;
        m := max !m (fanin_level a mig s)
      done;
      a.lvl.(n) <- !m + 1;
      a.cmp.(n) <- compl_fanins mig n;
      bucket_add a n;
      (* A fanin can be dead mid-substitution-cascade (its users are rewired
         right after this event); the level read from it is stale, so force a
         recomputation once the graph settles. *)
      if !dead_fanin then mark_dirty a n
    end
    else begin
      a.stk.(!sp - 1) <- v + 1;
      let m = Mig.node_of (Mig.fanin mig n idx) in
      a.refs.(m) <- a.refs.(m) + 1;
      if
        (not a.cnt.(m))
        && (not (Mig.is_dead a.mig m))
        && Mig.kind a.mig m = Mig.Gate
      then begin
        a.cnt.(m) <- true;
        a.nsize <- a.nsize + 1;
        stk_push a !sp (m * 4);
        incr sp
      end
    end
  done

let incref a m =
  a.refs.(m) <- a.refs.(m) + 1;
  if (not a.cnt.(m)) && (not (Mig.is_dead a.mig m)) && Mig.kind a.mig m = Mig.Gate
  then count_cascade a m

(* Uncount a gate (remove its contributions) and release its fanin
   references, cascading; iterative over an explicit stack of pending
   decrements. *)
let uncount a n =
  a.cnt.(n) <- false;
  a.nsize <- a.nsize - 1;
  if a.inb.(n) then bucket_remove a n;
  for i = 0 to 2 do
    stk_push a i (Mig.node_of (Mig.fanin a.mig n i))
  done;
  let sp = ref 3 in
  while !sp > 0 do
    decr sp;
    let m = a.stk.(!sp) in
    a.refs.(m) <- a.refs.(m) - 1;
    if a.refs.(m) = 0 && a.cnt.(m) then begin
      a.cnt.(m) <- false;
      a.nsize <- a.nsize - 1;
      if a.inb.(m) then bucket_remove a m;
      for i = 0 to 2 do
        stk_push a !sp (Mig.node_of (Mig.fanin a.mig m i));
        incr sp
      done
    end
  done

let decref a m =
  a.refs.(m) <- a.refs.(m) - 1;
  if a.refs.(m) = 0 && a.cnt.(m) then uncount a m

(* ---- from-scratch rebuild ---- *)

let rebuild a =
  Obs.incr c_rebuilds;
  a.ustale <- true;
  let mig = a.mig in
  ensure_nodes a;
  let n = Mig.num_nodes mig in
  Array.fill a.refs 0 n 0;
  Array.fill a.cnt 0 n false;
  Array.fill a.lvl 0 n 0;
  Array.fill a.cmp 0 n 0;
  Array.fill a.inb 0 n false;
  Array.fill a.queued 0 n false;
  Array.fill a.gpl 0 (Array.length a.gpl) 0;
  Array.fill a.cpl 0 (Array.length a.cpl) 0;
  a.qlen <- 0;
  a.qhead <- 0;
  a.nsize <- 0;
  a.invalid <- false;
  Mig.iter_topo mig (fun g ->
      let m = ref 0 in
      for i = 0 to 2 do
        let s = Mig.fanin mig g i in
        a.refs.(Mig.node_of s) <- a.refs.(Mig.node_of s) + 1;
        m := max !m (fanin_level a mig s)
      done;
      a.cnt.(g) <- true;
      a.nsize <- a.nsize + 1;
      a.lvl.(g) <- !m + 1;
      a.cmp.(g) <- compl_fanins mig g;
      bucket_add a g);
  for i = 0 to Mig.num_pos mig - 1 do
    let m = Mig.node_of (Mig.po mig i) in
    a.refs.(m) <- a.refs.(m) + 1
  done

(* ---- flush ---- *)

let flush a =
  if a.invalid then rebuild a
  else if a.qlen > 0 then begin
    let budget = (8 * (a.nsize + 16)) + a.qlen in
    let processed = ref 0 in
    while a.qlen > 0 && not a.invalid do
      let n = ring_pop a in
      a.queued.(n) <- false;
      incr processed;
      if a.cnt.(n) && not (Mig.is_dead a.mig n) then begin
        if a.inb.(n) then bucket_remove a n;
        let m = ref 0 in
        for i = 0 to 2 do
          m := max !m (fanin_level a a.mig (Mig.fanin a.mig n i))
        done;
        let newl = !m + 1 in
        let oldl = a.lvl.(n) in
        a.lvl.(n) <- newl;
        bucket_add a n;
        if newl <> oldl then
          Mig.fanout_iter a.mig n (fun u -> if a.cnt.(u) then mark_dirty a u)
      end;
      if !processed > budget then a.invalid <- true
    done;
    Obs.incr ~by:!processed c_flush_pops;
    if a.invalid then rebuild a
  end

(* ---- event handler ---- *)

let handle a ev =
  a.ustale <- true;
  match ev with
  | _ when a.invalid -> ()
  | Mig.Gate_added _ ->
      (* Fresh gates start unreferenced and uncounted; their level is
         computed on demand (see [level]). *)
      ensure_nodes a
  | Mig.Gate_killed n -> if a.cnt.(n) then uncount a n
  | Mig.Refanin { node = f; old_fanins } ->
      if a.cnt.(f) then begin
        mark_dirty a f;
        a.cmp.(f) <- compl_fanins a.mig f;
        (* incref before decref so fanins shared between the old and new
           triples never transit through zero. *)
        for i = 0 to 2 do
          incref a (Mig.node_of (Mig.fanin a.mig f i))
        done;
        Array.iter (fun s -> decref a (Mig.node_of s)) old_fanins
      end
  | Mig.Po_added i -> incref a (Mig.node_of (Mig.po a.mig i))
  | Mig.Po_redirected { index; old_po } ->
      incref a (Mig.node_of (Mig.po a.mig index));
      decref a (Mig.node_of old_po)

(* ---- attach ---- *)

let of_mig mig =
  match Mig.attachment mig with
  | Some (Analysis a) -> a
  | _ ->
      let a =
        {
          mig;
          refs = [||];
          cnt = [||];
          lvl = [||];
          cmp = [||];
          inb = [||];
          queued = [||];
          gpl = Array.make 16 0;
          cpl = Array.make 16 0;
          nsize = 0;
          q = Array.make 64 0;
          qhead = 0;
          qlen = 0;
          invalid = false;
          stk = Array.make 64 0;
          vmark = [||];
          vepoch = 0;
          ustale = true;
        }
      in
      rebuild a;
      Mig.set_attachment mig (Some (Analysis a));
      Mig.on_event mig (Some (handle a));
      a

(* ---- queries ---- *)

let size a =
  flush a;
  a.nsize

let is_counted a n =
  flush a;
  n < Array.length a.cnt && a.cnt.(n)

(* Level of an uncounted live gate (a speculative node a rewrite rule just
   built, or a gate that fell unreachable): recompute its uncounted cone
   bottom-up, using counted levels as the boundary.  Results are written to
   [lvl] and memoized under the scratch epoch [vepoch], which stays valid
   until the next mutation — so sweeps over a detached region pay one DFS
   per mutation, not one per query. *)
let uncounted_level a n0 =
  if a.ustale then begin
    a.vepoch <- a.vepoch + 1;
    a.ustale <- false
  end;
  let ep = a.vepoch in
  if a.vmark.(n0) = ep then a.lvl.(n0)
  else begin
  let mig = a.mig in
  a.vmark.(n0) <- ep;
  stk_push a 0 (n0 * 4);
  let sp = ref 1 in
  while !sp > 0 do
    let v = a.stk.(!sp - 1) in
    let n = v lsr 2 and idx = v land 3 in
    if idx = 3 then begin
      decr sp;
      let m = ref 0 in
      for i = 0 to 2 do
        m := max !m (fanin_level a mig (Mig.fanin mig n i))
      done;
      a.lvl.(n) <- !m + 1
    end
    else begin
      a.stk.(!sp - 1) <- v + 1;
      let m = Mig.node_of (Mig.fanin mig n idx) in
      if
        a.vmark.(m) <> ep
        && (not a.cnt.(m))
        && (not (Mig.is_dead mig m))
        && Mig.kind mig m = Mig.Gate
      then begin
        a.vmark.(m) <- ep;
        stk_push a !sp (m * 4);
        incr sp
      end
    end
  done;
    a.lvl.(n0)
  end

let level a n =
  flush a;
  match Mig.kind a.mig n with
  | Mig.Const | Mig.Pi _ -> 0
  | Mig.Gate ->
      if a.cnt.(n) || Mig.is_dead a.mig n then a.lvl.(n) else uncounted_level a n

let depth a =
  flush a;
  let d = ref 0 in
  for i = 0 to Mig.num_pos a.mig - 1 do
    let m = Mig.node_of (Mig.po a.mig i) in
    if Mig.kind a.mig m = Mig.Gate then d := max !d a.lvl.(m)
  done;
  !d

let po_compl a =
  let count = ref 0 in
  for i = 0 to Mig.num_pos a.mig - 1 do
    let s = Mig.po a.mig i in
    if Mig.is_compl s && Mig.node_of s <> 0 then incr count
  done;
  !count

let gates_at_level a l =
  flush a;
  if l >= 0 && l < Array.length a.gpl then a.gpl.(l) else 0

let compl_at_level a l =
  flush a;
  if l >= 0 && l < Array.length a.cpl then a.cpl.(l) else 0

let levels_with_compl a =
  flush a;
  let d = depth a in
  let count = ref 0 in
  for i = 0 to min d (Array.length a.cpl - 1) do
    if a.cpl.(i) > 0 then incr count
  done;
  if po_compl a > 0 then incr count;
  !count

(* Table I, matching Rram_cost.of_levels over a from-scratch Mig_levels.t:
   R scans levels 0 .. depth+1 with the virtual readout stage (complemented
   outputs) at depth+1; S adds one step per level with a complement. *)
let table1 a ~rrams_per_gate ~steps_per_level =
  flush a;
  let d = depth a in
  let pc = po_compl a in
  let rrams = ref pc in
  (* the i = depth+1 readout term: K*0 + pc *)
  for i = 0 to d do
    let ni = if i < Array.length a.gpl then a.gpl.(i) else 0 in
    let ci = if i < Array.length a.cpl then a.cpl.(i) else 0 in
    rrams := max !rrams ((rrams_per_gate * ni) + ci)
  done;
  let steps = (steps_per_level * d) + levels_with_compl a in
  (!rrams, steps)

(* ---- validation (tests) ---- *)

let check a =
  flush a;
  let mig = a.mig in
  let fail fmt = Format.kasprintf failwith fmt in
  (* from-scratch reference: reachable gates in topo order *)
  let n = Mig.num_nodes mig in
  let reached = Array.make n false in
  let lvl = Array.make n 0 in
  let refs = Array.make n 0 in
  let count = ref 0 in
  Mig.iter_topo mig (fun g ->
      reached.(g) <- true;
      incr count;
      let m = ref 0 in
      Array.iter
        (fun s ->
          refs.(Mig.node_of s) <- refs.(Mig.node_of s) + 1;
          m := max !m lvl.(Mig.node_of s))
        (Mig.fanins mig g);
      lvl.(g) <- !m + 1);
  for i = 0 to Mig.num_pos mig - 1 do
    let m = Mig.node_of (Mig.po mig i) in
    refs.(m) <- refs.(m) + 1
  done;
  if a.nsize <> !count then fail "size: maintained %d, actual %d" a.nsize !count;
  for i = 0 to n - 1 do
    if a.cnt.(i) <> reached.(i) then
      fail "counted flag of node %d: %b, reachable %b" i a.cnt.(i) reached.(i);
    if reached.(i) then begin
      if a.lvl.(i) <> lvl.(i) then
        fail "level of node %d: maintained %d, actual %d" i a.lvl.(i) lvl.(i);
      if not a.inb.(i) then fail "counted node %d missing from buckets" i;
      if a.cmp.(i) <> compl_fanins mig i then
        fail "compl fanins of node %d: %d, actual %d" i a.cmp.(i)
          (compl_fanins mig i)
    end;
    if a.refs.(i) <> refs.(i) then
      fail "refs of node %d: maintained %d, actual %d" i a.refs.(i) refs.(i)
  done;
  let d = depth a in
  let gpl = Array.make (d + 2) 0 and cpl = Array.make (d + 2) 0 in
  for i = 0 to n - 1 do
    if reached.(i) then begin
      gpl.(lvl.(i)) <- gpl.(lvl.(i)) + 1;
      cpl.(lvl.(i)) <- cpl.(lvl.(i)) + compl_fanins mig i
    end
  done;
  for l = 0 to d + 1 do
    if gates_at_level a l <> gpl.(l) then
      fail "gates at level %d: maintained %d, actual %d" l (gates_at_level a l)
        gpl.(l);
    if compl_at_level a l <> cpl.(l) then
      fail "compl at level %d: maintained %d, actual %d" l (compl_at_level a l)
        cpl.(l)
  done;
  for l = 0 to Array.length a.gpl - 1 do
    if (l > d + 1 || l >= Array.length gpl) && a.gpl.(l) <> 0 then
      fail "stray gate bucket at level %d: %d" l a.gpl.(l)
  done
