open Logic

(* Per-rule application counters (hits = the rewrite fired, misses = it was
   attempted on an eligible gate and declined).  One load-and-branch per
   attempt when observability is off. *)
let c_omega_d_rl_hit = Obs.counter "mig.rule/omega_d_rl.hits"
and c_omega_d_rl_miss = Obs.counter "mig.rule/omega_d_rl.misses"
and c_omega_d_lr_hit = Obs.counter "mig.rule/omega_d_lr.hits"
and c_omega_d_lr_miss = Obs.counter "mig.rule/omega_d_lr.misses"
and c_omega_a_hit = Obs.counter "mig.rule/omega_a.hits"
and c_omega_a_miss = Obs.counter "mig.rule/omega_a.misses"
and c_psi_c_hit = Obs.counter "mig.rule/psi_c.hits"
and c_psi_c_miss = Obs.counter "mig.rule/psi_c.misses"
and c_psi_r_hit = Obs.counter "mig.rule/psi_r.hits"
and c_psi_r_miss = Obs.counter "mig.rule/psi_r.misses"
and c_omega_i_hit = Obs.counter "mig.rule/omega_i.hits"
and c_omega_i_miss = Obs.counter "mig.rule/omega_i.misses"

let c_strash_merges = Obs.counter "mig.pass/strash.merges"
and c_strash_compacted = Obs.counter "mig.pass/strash.compacted_ids"

(* Drivers read each per-gate value once into a local (the root's level,
   the fanin triple, each fanin's eligibility and level) and call a rule's
   kernel only when one of its positions passes its own uses and level
   test; a skipped rule would have declined without building anything.
   A skipped rule still counts its miss, so the counters are those of
   trying every rule on every gate.  Whether to count is read once per
   sweep. *)
let[@inline] count obs hit miss fired =
  if obs then Obs.incr (if fired then hit else miss);
  fired

let[@inline] imax (a : int) b = if a >= b then a else b
let[@inline] imin (a : int) b = if a <= b then a else b
let[@inline] level an s = Mig_analysis.level an (s lsr 1)

let sweep mig rule =
  let changed = ref false in
  Mig.foreach_gate mig (fun g -> if rule g then changed := true);
  !changed

let repeat_until_stable ?(max_iters = 4) pass mig =
  let changed = ref false in
  let continue_ = ref true in
  let iters = ref 0 in
  while !continue_ && !iters < max_iters do
    incr iters;
    if pass mig then changed := true else continue_ := false
  done;
  !changed

let eliminate mig =
  repeat_until_stable
    (fun m ->
      let obs = Obs.enabled () in
      sweep m (fun g ->
          count obs c_omega_d_rl_hit c_omega_d_rl_miss (Mig_algebra.try_distributivity_rl m g)))
    mig

(* Non-strict Ω.A at one gate: a position passes when its fanin is
   eligible and 2 + max(other levels) <= root. *)
let assoc_gate obs through_compl limit mig an g root f0 f1 f2 =
  let e0 = Mig_algebra.eligible mig through_compl limit f0
  and e1 = Mig_algebra.eligible mig through_compl limit f1
  and e2 = Mig_algebra.eligible mig through_compl limit f2 in
  count obs c_omega_a_hit c_omega_a_miss
    ((e0 || e1 || e2)
    &&
    let l0 = level an f0 and l1 = level an f1 and l2 = level an f2 in
    ((e0 && 2 + imax l1 l2 <= root)
    || (e1 && 2 + imax l0 l2 <= root)
    || (e2 && 2 + imax l0 l1 <= root))
    && Mig_algebra.associativity_at mig an false through_compl limit g root f0 f1 f2 l0 l1 l2)

(* Ψ.C with a level requirement at one gate: a position passes when its
   fanin is eligible and 2 + min(other levels) <= root. *)
let compl_assoc_gate obs through_compl limit mig an g root f0 f1 f2 =
  let e0 = Mig_algebra.eligible mig through_compl limit f0
  and e1 = Mig_algebra.eligible mig through_compl limit f1
  and e2 = Mig_algebra.eligible mig through_compl limit f2 in
  count obs c_psi_c_hit c_psi_c_miss
    ((e0 || e1 || e2)
    &&
    let l0 = level an f0 and l1 = level an f1 and l2 = level an f2 in
    ((e0 && 2 + imin l1 l2 <= root)
    || (e1 && 2 + imin l0 l2 <= root)
    || (e2 && 2 + imin l0 l1 <= root))
    && Mig_algebra.compl_assoc_at mig an true through_compl limit g root f0 f1 f2 l0 l1 l2)

let reshape ~seed mig =
  let rng = Prng.create seed in
  let an = Mig_analysis.of_mig mig in
  let obs = Obs.enabled () in
  sweep mig (fun g ->
      let root = Mig_analysis.level an g in
      let f0 = Mig.fanin mig g 0 and f1 = Mig.fanin mig g 1 and f2 = Mig.fanin mig g 2 in
      if Prng.bool rng then compl_assoc_gate obs false 1 mig an g root f0 f1 f2
      else assoc_gate obs false 1 mig an g root f0 f1 f2)

let miss3 obs =
  if obs then begin
    Obs.incr c_omega_d_lr_miss;
    Obs.incr c_omega_a_miss;
    Obs.incr c_psi_c_miss
  end;
  false

(* Ω.D left-to-right, then Ω.A, then Ψ.C at one gate.  With the default
   [strict] and [require_gain], Ω.D and Ω.A share the position test
   2 + max(other levels) < root, and Ψ.C's 2 + min(other levels) <= root
   is implied by it: one prefilter decides whether any rule can fire.
   Eligibility only falls while a gate is visited (speculative gates add
   users), so a position it rules out stays ruled out after a declined
   Ω.D; the kernels re-read it for the positions they try. *)
let push_up_gate obs through_compl limit mig an g =
  let root = Mig_analysis.level an g in
  let f0 = Mig.fanin mig g 0 and f1 = Mig.fanin mig g 1 and f2 = Mig.fanin mig g 2 in
  let e0 = Mig_algebra.eligible mig through_compl limit f0
  and e1 = Mig_algebra.eligible mig through_compl limit f1
  and e2 = Mig_algebra.eligible mig through_compl limit f2 in
  if not (e0 || e1 || e2) then miss3 obs
  else begin
    let l0 = level an f0 and l1 = level an f1 and l2 = level an f2 in
    let deep =
      (e0 && 2 + imax l1 l2 < root) || (e1 && 2 + imax l0 l2 < root) || (e2 && 2 + imax l0 l1 < root)
    in
    if
      not
        (deep
        || (e0 && 2 + imin l1 l2 <= root)
        || (e1 && 2 + imin l0 l2 <= root)
        || (e2 && 2 + imin l0 l1 <= root))
    then miss3 obs
    else
      count obs c_omega_d_lr_hit c_omega_d_lr_miss
        (deep
        && Mig_algebra.distributivity_lr_at mig an through_compl limit g root f0 f1 f2 l0 l1 l2)
      || count obs c_omega_a_hit c_omega_a_miss
           (deep
           && Mig_algebra.associativity_at mig an true through_compl limit g root f0 f1 f2 l0 l1
                l2)
      || count obs c_psi_c_hit c_psi_c_miss
           (Mig_algebra.compl_assoc_at mig an true through_compl limit g root f0 f1 f2 l0 l1 l2)
  end

let push_up ?(through_compl = true) ?(fanout_limit = max_int) mig =
  let one m =
    let an = Mig_analysis.of_mig m in
    let obs = Obs.enabled () in
    sweep m (push_up_gate obs through_compl fanout_limit m an)
  in
  repeat_until_stable ~max_iters:2 one mig

let relevance mig =
  let an = Mig_analysis.of_mig mig in
  let obs = Obs.enabled () in
  let rule = Mig_algebra.try_relevance mig an in
  sweep mig (fun g -> count obs c_psi_r_hit c_psi_r_miss (rule g))

type compl_criterion = Always | Weighted of Rram_cost.realization

(* Sweep state of the weighted Ω.I test: per-level complement deltas of
   flipping gate [g], for the levels 0 .. [top] (the readout stage is
   [top] = depth + 1; the cost never reads a level above it). *)
type deltas = { mutable g : int; mutable top : int; mutable d : int array }

let[@inline] bump st l s = if l <= st.top then st.d.(l) <- st.d.(l) + if s land 1 = 1 then -1 else 1

(* User [h] of [st.g] gains or loses a complemented fanin at its level. *)
let user_delta st a mig h =
  let lh = Mig_analysis.level a h in
  for i = 0 to 2 do
    let s = Mig.fanin mig h i in
    if s lsr 1 = st.g then bump st lh s
  done

(* Whether flipping [g] does not worsen the weighted (R, S) cost: Table I
   statistics come from the maintained analysis and track every accepted
   flip, so each candidate is judged against the current graph rather
   than a sweep-start snapshot. *)
let weighted_accepts st on_user k_r k_s a mig g f0 f1 f2 =
  let depth = Mig_analysis.depth a in
  let lg = Mig_analysis.level a g in
  let top = depth + 1 in
  if Array.length st.d <= top then st.d <- Array.make (2 * (top + 1)) 0
  else Array.fill st.d 0 (top + 1) 0;
  st.g <- g;
  st.top <- top;
  if f0 lsr 1 <> 0 then bump st lg f0;
  if f1 lsr 1 <> 0 then bump st lg f1;
  if f2 lsr 1 <> 0 then bump st lg f2;
  Mig.fanout_iter mig g on_user;
  for i = 0 to Mig.num_pos mig - 1 do
    let s = Mig.po mig i in
    if s lsr 1 = g then bump st top s
  done;
  let po_compl = Mig_analysis.po_compl a in
  let rrams = ref 0 and with_ = ref 0 and rrams' = ref 0 and with' = ref 0 in
  for i = 0 to top do
    let c = if i = top then po_compl else Mig_analysis.compl_at_level a i in
    let c' = c + st.d.(i) in
    let ni = if i <= depth then Mig_analysis.gates_at_level a i else 0 in
    rrams := imax !rrams ((k_r * ni) + c);
    rrams' := imax !rrams' ((k_r * ni) + c');
    if c > 0 then incr with_;
    if c' > 0 then incr with'
  done;
  let before = { Rram_cost.rrams = !rrams; steps = (k_s * depth) + !with_ } in
  let after = { Rram_cost.rrams = !rrams'; steps = (k_s * depth) + !with' } in
  Rram_cost.weighted after < Rram_cost.weighted before
  || after.Rram_cost.steps = before.Rram_cost.steps
     && after.Rram_cost.rrams <= before.Rram_cost.rrams
     && (if lg = top then po_compl else Mig_analysis.compl_at_level a lg) > 0

let compl_prop ?(min_compl = 2) criterion mig =
  let a = Mig_analysis.of_mig mig in
  let st = { g = 0; top = 0; d = [||] } in
  let on_user = user_delta st a mig in
  let changed = ref false in
  Mig.foreach_gate mig (fun g ->
      let f0 = Mig.fanin mig g 0 and f1 = Mig.fanin mig g 1 and f2 = Mig.fanin mig g 2 in
      if Mig_algebra.compl_count f0 f1 f2 >= min_compl then begin
        let accept =
          match criterion with
          | Always -> true
          | Weighted r ->
              weighted_accepts st on_user (Rram_cost.rrams_per_gate r)
                (Rram_cost.steps_per_level r) a mig g f0 f1 f2
        in
        if accept && Mig_algebra.compl_prop_at mig g f0 f1 f2 then begin
          Obs.incr c_omega_i_hit;
          changed := true
        end
        else Obs.incr c_omega_i_miss
      end);
  !changed

let balance mig =
  let an = Mig_analysis.of_mig mig in
  let obs = Obs.enabled () in
  let assoc_changed =
    sweep mig (fun g ->
        let root = Mig_analysis.level an g in
        assoc_gate obs true 1 mig an g root (Mig.fanin mig g 0) (Mig.fanin mig g 1)
          (Mig.fanin mig g 2))
  in
  let elim_changed = eliminate mig in
  assoc_changed || elim_changed

let size_and_depth mig =
  let a = Mig_analysis.of_mig mig in
  (Mig_analysis.size a, Mig_analysis.depth a)

(* One topological sweep that re-hashes every live gate against the gates
   already visited and merges structural duplicates (substitution cascades
   keep downstream triples current, so later visits see post-merge fanins).
   Node construction strashes eagerly and [Mig.refanin] re-hashes through
   the same table, so in steady state this sweep is a defensive no-op on
   duplicates; its routine effect is detecting (and compacting away) dead
   node records and live-but-unreachable gates left behind by rewriting.
   Returns the untouched input when the graph is already canonical, so
   enclosing [cycle] blocks converge. *)
let strash mig =
  let seen = Triple_table.create (Mig.num_gates mig) in
  let merges = ref 0 in
  let snapshot =
    Mig.foreach_gate_n mig (fun g ->
        let a = Mig.fanin mig g 0 and b = Mig.fanin mig g 1 and c = Mig.fanin mig g 2 in
        let first = Triple_table.find seen a b c in
        if first < 0 then Triple_table.replace seen a b c g
        else if first <> g && not (Mig.is_dead mig first) then begin
          incr merges;
          Mig.substitute mig g (Mig.signal_of first false)
        end)
  in
  (* Without a merge nothing changed, so the sweep's snapshot is the
     reachable size; after one, count it once and hand it to [cleanup]. *)
  let reachable = if !merges = 0 then snapshot else Mig.size mig in
  let dead_ids = Mig.num_nodes mig - 1 - Mig.num_pis mig - reachable in
  if !merges = 0 && dead_ids = 0 then (mig, false)
  else begin
    Obs.incr ~by:!merges c_strash_merges;
    Obs.incr ~by:dead_ids c_strash_compacted;
    (Mig.cleanup ~size:reachable mig, true)
  end
