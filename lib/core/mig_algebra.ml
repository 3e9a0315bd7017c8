(* Rule kernels.  Every rule reads each value it needs once into a local
   and tries its positions and choices as straight-line code: no tuple
   lists, closures or fanin arrays, so a declined attempt allocates
   nothing.  Library modules are built with [-opaque] in dune's default
   (dev) profile, so no call into [Mig] or [Mig_analysis] is inlined and
   each one is paid per attempt; signals are decoded inline from their
   documented encoding [2 * node + complement] instead.

   The attempt order is part of the output (the first success wins, and a
   declined attempt may leave speculative gates behind): positions in the
   order (f0,f1,f2), (f1,f0,f2), (f2,f0,f1), Ω.D right-to-left's pairs
   (f0,f1), (f0,f2), (f1,f2), and each rule's choices in the order of its
   comment below. *)

let[@inline] node s = s lsr 1
let[@inline] imax (a : int) b = if a >= b then a else b
let[@inline] imin (a : int) b = if a <= b then a else b
let[@inline] mem3 s a b c = s = a || s = b || s = c
let[@inline] level an s = Mig_analysis.level an (node s)

(* Replace [g] by [root] unless the rebuild strashed back onto [g]. *)
let[@inline] replace mig g root =
  if node root = g then false
  else begin
    Mig.substitute mig g root;
    true
  end

(* Whether fanin [p] may play a rule's inner-gate role.  The gate is seen
   through its polarity: by Ω.I, ¬M(u,v,z) = M(¬u,¬v,¬z), so a
   complemented edge exposes the complemented fanin triple ("virtual"
   fanins), which lets Ω.A, Ω.D and Ψ.C work on XOR-rich logic.  The
   conventional algorithms (Algs. 1–2) have no Ω.I in their listings, so
   with [through_compl = false] their rewrites stop at complemented edges.
   Rewriting through a gate duplicates it for its other users, so passes
   bound its uses (gate fanouts plus outputs) by [limit]. *)
let eligible mig through_compl limit p =
  let n = node p in
  Mig.is_gate mig n && (through_compl || p land 1 = 0) && Mig.uses mig n <= limit

(* ---- Ω.D right-to-left: M(M(x,y,u), M(x,y,v), r) → M(x, y, M(u,v,r)) ---- *)

let single_use_gate mig s =
  let n = node s in
  Mig.is_gate mig n && Mig.fanout_size mig n = 1 && Mig.po_refs mig n = 0

(* One pair of single-use gate fanins [p], [q] with third fanin [r].
   Returns 0 when it declined before building, 1 when it declined after a
   [Mig.maj] (a speculative gate may now use [g]'s fanins), 2 when it
   rewrote [g].  The shared signals [x], [y] are taken in [p]'s fanin
   order; [u] and [v] are the leftovers of [p] and [q]. *)
let drl_pair mig g p q r =
  let pn = node p and cp = p land 1 and qn = node q and cq = q land 1 in
  let p0 = Mig.fanin mig pn 0 lxor cp
  and p1 = Mig.fanin mig pn 1 lxor cp
  and p2 = Mig.fanin mig pn 2 lxor cp in
  let q0 = Mig.fanin mig qn 0 lxor cq
  and q1 = Mig.fanin mig qn 1 lxor cq
  and q2 = Mig.fanin mig qn 2 lxor cq in
  let h0 = mem3 p0 q0 q1 q2 and h1 = mem3 p1 q0 q1 q2 and h2 = mem3 p2 q0 q1 q2 in
  let shared = (if h0 then 1 else 0) + (if h1 then 1 else 0) + if h2 then 1 else 0 in
  if shared <> 2 then 0
  else begin
    let x = if h0 then p0 else p1 and y = if h2 then p2 else p1 in
    let u = if not h0 then p0 else if not h1 then p1 else p2 in
    let v = if q0 <> x && q0 <> y then q0 else if q1 <> x && q1 <> y then q1 else q2 in
    let inner = Mig.maj mig u v r in
    if node inner = g then 1
    else if replace mig g (Mig.maj mig x y inner) then 2
    else 1
  end

(* The single-use tests are read once; a pair that declined after building
   makes the later pairs read them again. *)
let try_distributivity_rl mig g =
  let f0 = Mig.fanin mig g 0 and f1 = Mig.fanin mig g 1 and f2 = Mig.fanin mig g 2 in
  let ok0 = single_use_gate mig f0
  and ok1 = single_use_gate mig f1
  and ok2 = single_use_gate mig f2 in
  let r = if ok0 && ok1 then drl_pair mig g f0 f1 f2 else 0 in
  r = 2
  ||
  let stale = r = 1 in
  let ok0 = if stale then single_use_gate mig f0 else ok0 in
  let ok2 = if stale then single_use_gate mig f2 else ok2 in
  let r = if ok0 && ok2 then drl_pair mig g f0 f2 f1 else 0 in
  r = 2
  ||
  let stale = stale || r = 1 in
  let ok1 = if stale then single_use_gate mig f1 else ok1 in
  let ok2 = if stale then single_use_gate mig f2 else ok2 in
  ok1 && ok2 && drl_pair mig g f1 f2 f0 = 2

(* ---- Ω.D left-to-right: M(x, y, M(u,v,z)) → M(M(x,y,u), M(x,y,v), z) ---- *)

(* The root's level after the rewrite; [mxy] is max(lv x, lv y). *)
let[@inline] dlr_level mxy lu lv lz = 1 + imax lz (1 + imax mxy (imax lu lv))

let dlr_build mig g x y u v z =
  let a = Mig.maj mig x y u in
  let b = Mig.maj mig x y v in
  if node a = g || node b = g then false else replace mig g (Mig.maj mig a b z)

(* Inner gate [p] with outer operands [x], [y]; choices (u,v,z) over its
   virtual fanins (v0,v1,v2), (v0,v2,v1), (v1,v2,v0). *)
let dlr_at mig an g root p x y mxy =
  let n = node p and c = p land 1 in
  let v0 = Mig.fanin mig n 0 lxor c
  and v1 = Mig.fanin mig n 1 lxor c
  and v2 = Mig.fanin mig n 2 lxor c in
  let l0 = level an v0 and l1 = level an v1 and l2 = level an v2 in
  (dlr_level mxy l0 l1 l2 < root && dlr_build mig g x y v0 v1 v2)
  || (dlr_level mxy l0 l2 l1 < root && dlr_build mig g x y v0 v2 v1)
  || (dlr_level mxy l1 l2 l0 < root && dlr_build mig g x y v1 v2 v0)

(* Position test: the first new gate alone puts the root at level
   2 + max(lv x, lv y) or more.  Eligibility is read after it, fresh, since
   an earlier attempt may have built users of the fanins. *)
let distributivity_lr_at mig an through_compl limit g root f0 f1 f2 l0 l1 l2 =
  (2 + imax l1 l2 < root
  && eligible mig through_compl limit f0
  && dlr_at mig an g root f0 f1 f2 (imax l1 l2))
  || (2 + imax l0 l2 < root
     && eligible mig through_compl limit f1
     && dlr_at mig an g root f1 f0 f2 (imax l0 l2))
  || (2 + imax l0 l1 < root
     && eligible mig through_compl limit f2
     && dlr_at mig an g root f2 f0 f1 (imax l0 l1))

let try_distributivity_lr ?(through_compl = true) ?(fanout_limit = max_int) mig an g =
  let root = Mig_analysis.level an g in
  let f0 = Mig.fanin mig g 0 and f1 = Mig.fanin mig g 1 and f2 = Mig.fanin mig g 2 in
  distributivity_lr_at mig an through_compl fanout_limit g root f0 f1 f2 (level an f0)
    (level an f1) (level an f2)

(* ---- Ω.A: M(x, u, M(y,u,z)) → M(z, u, M(y,u,x)) ---- *)

(* With [strict] the root level must drop; without it, level-preserving
   swaps that expose new elimination opportunities are accepted too. *)
let[@inline] accepts strict root l = if strict then l < root else l <= root

(* The root's level after the rewrite for the choice (z, y). *)
let[@inline] assoc_level lu lx lz ly = 1 + imax lz (imax lu (1 + imax ly (imax lu lx)))

let assoc_build mig g z u x y =
  let inner = Mig.maj mig y u x in
  if node inner = g then false else replace mig g (Mig.maj mig z u inner)

(* [u] shared between the root and the inner gate's virtual fanins, [x] the
   root's other operand; choices (z,y) = (c1,c2), (c2,c1) over the two
   virtual fanins other than [u], in fanin order. *)
let assoc_shared mig an strict g root u lu x lx v0 v1 v2 =
  mem3 u v0 v1 v2
  &&
  let c1 = if u = v0 then v1 else v0 and c2 = if u = v2 then v1 else v2 in
  let lc1 = level an c1 and lc2 = level an c2 in
  (accepts strict root (assoc_level lu lx lc1 lc2) && assoc_build mig g c1 u x c2)
  || (accepts strict root (assoc_level lu lx lc2 lc1) && assoc_build mig g c2 u x c1)

let assoc_at mig an strict g root p a1 l1 a2 l2 =
  let n = node p and c = p land 1 in
  let v0 = Mig.fanin mig n 0 lxor c
  and v1 = Mig.fanin mig n 1 lxor c
  and v2 = Mig.fanin mig n 2 lxor c in
  assoc_shared mig an strict g root a1 l1 a2 l2 v0 v1 v2
  || assoc_shared mig an strict g root a2 l2 a1 l1 v0 v1 v2

(* Position test: {u, x} = {a1, a2} feed the new inner gate, so the root
   lands at 2 + max(lv a1, lv a2) or more, and [accepts] is monotone. *)
let associativity_at mig an strict through_compl limit g root f0 f1 f2 l0 l1 l2 =
  (accepts strict root (2 + imax l1 l2)
  && eligible mig through_compl limit f0
  && assoc_at mig an strict g root f0 f1 l1 f2 l2)
  || (accepts strict root (2 + imax l0 l2)
     && eligible mig through_compl limit f1
     && assoc_at mig an strict g root f1 f0 l0 f2 l2)
  || (accepts strict root (2 + imax l0 l1)
     && eligible mig through_compl limit f2
     && assoc_at mig an strict g root f2 f0 l0 f1 l1)

let try_associativity ?(strict = true) ?(through_compl = true) ?(fanout_limit = max_int) mig an g
    =
  let root = Mig_analysis.level an g in
  let f0 = Mig.fanin mig g 0 and f1 = Mig.fanin mig g 1 and f2 = Mig.fanin mig g 2 in
  associativity_at mig an strict through_compl fanout_limit g root f0 f1 f2 (level an f0)
    (level an f1) (level an f2)

(* ---- Ψ.C: M(x, u, M(y,¬u,z)) → M(x, u, M(y,x,z)) ---- *)

let ca_build mig g x u y z =
  let inner = Mig.maj mig y x z in
  if node inner = g then false else replace mig g (Mig.maj mig x u inner)

(* [¬u] among the inner gate's virtual fanins; (y, z) the other two in
   fanin order. *)
let ca_shared mig an require_gain g root u lu x lx v0 v1 v2 =
  let nu = u lxor 1 in
  mem3 nu v0 v1 v2
  &&
  let y = if nu = v0 then v1 else v0 and z = if nu = v2 then v1 else v2 in
  ((not require_gain)
  || 1 + imax lx (imax lu (1 + imax (level an y) (imax lx (level an z)))) <= root)
  && ca_build mig g x u y z

let ca_at mig an require_gain g root p a1 l1 a2 l2 =
  let n = node p and c = p land 1 in
  let v0 = Mig.fanin mig n 0 lxor c
  and v1 = Mig.fanin mig n 1 lxor c
  and v2 = Mig.fanin mig n 2 lxor c in
  ca_shared mig an require_gain g root a1 l1 a2 l2 v0 v1 v2
  || ca_shared mig an require_gain g root a2 l2 a1 l1 v0 v1 v2

(* Position test: x is a1 or a2 and feeds the new inner gate, so with a
   level requirement the root lands at 2 + min(lv a1, lv a2) or more. *)
let compl_assoc_at mig an require_gain through_compl limit g root f0 f1 f2 l0 l1 l2 =
  (((not require_gain) || 2 + imin l1 l2 <= root)
  && eligible mig through_compl limit f0
  && ca_at mig an require_gain g root f0 f1 l1 f2 l2)
  || (((not require_gain) || 2 + imin l0 l2 <= root)
     && eligible mig through_compl limit f1
     && ca_at mig an require_gain g root f1 f0 l0 f2 l2)
  || (((not require_gain) || 2 + imin l0 l1 <= root)
     && eligible mig through_compl limit f2
     && ca_at mig an require_gain g root f2 f0 l0 f1 l1)

let try_compl_assoc ?(require_gain = true) ?(through_compl = true) ?(fanout_limit = max_int) mig
    an g =
  let root = Mig_analysis.level an g in
  let f0 = Mig.fanin mig g 0 and f1 = Mig.fanin mig g 1 and f2 = Mig.fanin mig g 2 in
  compl_assoc_at mig an require_gain through_compl fanout_limit g root f0 f1 f2 (level an f0)
    (level an f1) (level an f2)

(* ---- Ω.I right-to-left (extension of §III-C.3) ---- *)

let[@inline] compl_edge s = if s land 1 = 1 && node s <> 0 then 1 else 0
let compl_count f0 f1 f2 = compl_edge f0 + compl_edge f1 + compl_edge f2

(* Flip all fanin polarities and complement the node's output everywhere. *)
let compl_prop_at mig g f0 f1 f2 =
  replace mig g (Mig.maj mig (f0 lxor 1) (f1 lxor 1) (f2 lxor 1) lxor 1)

let try_compl_prop ?(min_compl = 2) mig g =
  let f0 = Mig.fanin mig g 0 and f1 = Mig.fanin mig g 1 and f2 = Mig.fanin mig g 2 in
  compl_count f0 f1 f2 >= min_compl && compl_prop_at mig g f0 f1 f2

(* ---- Ψ.R: M(x,y,z) = M(x, y, z[x ↦ ¬y]) ---- *)

(* Scratch shared by every call of one [try_relevance] closure.  The
   bounded cone of node [cone_for] (gates only, stopping at inputs and
   constants) is listed in [nodes]; [slot.(n) - base] is gate [n]'s index
   there when it lies in [0, max_cone), and starting a new cone moves
   [base] past every index stamped so far, so no table is cleared or
   allocated per gate.  [memo.(i)] is the rebuilt signal of cone gate [i]
   when [memo_at.(i)] is the current attempt's [memo_ep]. *)
type relevance = {
  max_cone : int;
  stride : int;
  mutable slot : int array;
  mutable base : int;
  mutable cone_for : int;
  mutable cone_size : int;
  mutable too_big : bool;
  nodes : int array;
  memo_at : int array;
  memo : int array;
  mutable memo_ep : int;
  mutable hit_root : bool;
}

let[@inline] cone_index sc n =
  let i = sc.slot.(n) - sc.base in
  if i >= 0 && i < sc.stride then i else -1

let rec collect sc mig n =
  if (not sc.too_big) && cone_index sc n < 0 && Mig.is_gate mig n then begin
    if sc.cone_size >= sc.max_cone then sc.too_big <- true
    else begin
      sc.slot.(n) <- sc.base + sc.cone_size;
      sc.nodes.(sc.cone_size) <- n;
      sc.cone_size <- sc.cone_size + 1;
      for i = 0 to 2 do
        collect sc mig (node (Mig.fanin mig n i))
      done
    end
  end

let occurs sc mig xn =
  let found = ref false and i = ref 0 in
  while (not !found) && !i < sc.cone_size do
    let n = sc.nodes.(!i) in
    found :=
      node (Mig.fanin mig n 0) = xn
      || node (Mig.fanin mig n 1) = xn
      || node (Mig.fanin mig n 2) = xn;
    incr i
  done;
  !found

(* The signal equivalent to the positive polarity of [n] with every
   occurrence of signal [x] (node [xn]) replaced by ¬y.  Fanins are rebuilt
   from the last to the first, the order that numbers the new gates. *)
let rec rebuild sc mig g xn x y n =
  if n = xn then if x land 1 = 1 then y else y lxor 1
  else
    let i = cone_index sc n in
    if i < 0 then n lsl 1
    else if sc.memo_at.(i) = sc.memo_ep then sc.memo.(i)
    else begin
      let f0 = Mig.fanin mig n 0 and f1 = Mig.fanin mig n 1 and f2 = Mig.fanin mig n 2 in
      let s2 = rebuild sc mig g xn x y (node f2) lxor (f2 land 1) in
      let s1 = rebuild sc mig g xn x y (node f1) lxor (f1 land 1) in
      let s0 = rebuild sc mig g xn x y (node f0) lxor (f0 land 1) in
      let s = Mig.maj mig s0 s1 s2 in
      if node s = g then sc.hit_root <- true;
      sc.memo_at.(i) <- sc.memo_ep;
      sc.memo.(i) <- s;
      s
    end

(* Collecting a cone is pure and a declined attempt only adds speculative
   (unreferenced) gates, so consecutive attempts with the same [z] share
   the cone. *)
let relevance_at sc mig an g x y z =
  let zn = node z in
  Mig.is_gate mig zn
  && begin
       if sc.cone_for <> zn then begin
         sc.base <- sc.base + sc.stride;
         sc.cone_size <- 0;
         sc.too_big <- false;
         sc.cone_for <- zn;
         collect sc mig zn
       end;
       let xn = node x in
       (not sc.too_big)
       && occurs sc mig xn
       &&
       (sc.memo_ep <- sc.memo_ep + 1;
        sc.hit_root <- false;
        let z' = rebuild sc mig g xn x y zn lxor (z land 1) in
        if sc.hit_root || z' = z || node z' = g then false
        else if Mig_analysis.level an (node z') > Mig_analysis.level an (node z) then false
        else replace mig g (Mig.maj mig x y z'))
     end

let try_relevance ?(max_cone = 64) mig an =
  let stride = max 1 max_cone in
  let sc =
    {
      max_cone;
      stride;
      slot = [||];
      base = 0;
      cone_for = -1;
      cone_size = 0;
      too_big = false;
      nodes = Array.make stride 0;
      memo_at = Array.make stride 0;
      memo = Array.make stride 0;
      memo_ep = 0;
      hit_root = false;
    }
  in
  fun g ->
    (* Cones only hold nodes that exist before the call; the slack covers
       the speculative gates a sweep adds. *)
    let n = Mig.num_nodes mig in
    if Array.length sc.slot < n then begin
      sc.slot <- Array.make (n + (n / 4) + 64) 0;
      sc.base <- 0
    end;
    sc.cone_for <- -1;
    let f0 = Mig.fanin mig g 0 and f1 = Mig.fanin mig g 1 and f2 = Mig.fanin mig g 2 in
    relevance_at sc mig an g f0 f1 f2
    || relevance_at sc mig an g f1 f0 f2
    || relevance_at sc mig an g f0 f2 f1
    || relevance_at sc mig an g f2 f0 f1
    || relevance_at sc mig an g f1 f2 f0
    || relevance_at sc mig an g f2 f1 f0
