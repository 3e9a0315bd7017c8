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

(* Specializes at partial-application time (once per sweep): when
   observability is off this returns [rule] itself, so the per-gate loop
   pays nothing over the uninstrumented code. *)
let counted hit miss rule =
  if not (Obs.enabled ()) then rule
  else fun g ->
    let fired = rule g in
    if fired then Obs.incr hit else Obs.incr miss;
    fired

let sweep mig rule =
  let changed = ref false in
  Mig.foreach_gate mig (fun g ->
      if (not (Mig.is_dead mig g)) && rule g then changed := true);
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
      sweep m (counted c_omega_d_rl_hit c_omega_d_rl_miss (Mig_algebra.try_distributivity_rl m)))
    mig

let reshape ~seed mig =
  let rng = Prng.create seed in
  let an = Mig_analysis.of_mig mig in
  let psi_c =
    counted c_psi_c_hit c_psi_c_miss
      (Mig_algebra.try_compl_assoc ~through_compl:false ~fanout_limit:1 mig an)
  in
  let omega_a =
    counted c_omega_a_hit c_omega_a_miss
      (Mig_algebra.try_associativity ~strict:false ~through_compl:false
         ~fanout_limit:1 mig an)
  in
  sweep mig (fun g -> if Prng.bool rng then psi_c g else omega_a g)

let push_up ?(through_compl = true) ?(fanout_limit = max_int) mig =
  let one m =
    let an = Mig_analysis.of_mig m in
    let omega_d =
      counted c_omega_d_lr_hit c_omega_d_lr_miss
        (Mig_algebra.try_distributivity_lr ~through_compl ~fanout_limit m an)
    in
    let omega_a =
      counted c_omega_a_hit c_omega_a_miss
        (Mig_algebra.try_associativity ~through_compl ~fanout_limit m an)
    in
    let psi_c =
      counted c_psi_c_hit c_psi_c_miss
        (Mig_algebra.try_compl_assoc ~through_compl ~fanout_limit m an)
    in
    sweep m (fun g -> omega_d g || omega_a g || psi_c g)
  in
  repeat_until_stable ~max_iters:2 one mig

let relevance mig =
  let an = Mig_analysis.of_mig mig in
  sweep mig (counted c_psi_r_hit c_psi_r_miss (Mig_algebra.try_relevance mig an))

type compl_criterion = Always | Weighted of Rram_cost.realization

let compl_prop ?(min_compl = 2) criterion mig =
  (* Table I statistics come from the maintained analysis and track every
     accepted flip, so each candidate is judged against the current graph
     rather than a sweep-start snapshot. *)
  let a = Mig_analysis.of_mig mig in
  let changed = ref false in
  Mig.foreach_gate mig (fun g ->
      if (not (Mig.is_dead mig g)) && Mig_algebra.compl_fanins mig g >= min_compl
      then begin
        let accept =
          match criterion with
          | Always -> true
          | Weighted realization ->
              let depth = Mig_analysis.depth a in
              let lg = Mig_analysis.level a g in
              let compl_at l =
                if l = depth + 1 then Mig_analysis.po_compl a
                else Mig_analysis.compl_at_level a l
              in
              (* Per-level complement deltas caused by flipping g. *)
              let deltas = Hashtbl.create 7 in
              let bump l d =
                Hashtbl.replace deltas l
                  (d + try Hashtbl.find deltas l with Not_found -> 0)
              in
              Array.iter
                (fun s ->
                  if Mig.node_of s <> 0 then
                    bump lg (if Mig.is_compl s then -1 else 1))
                (Mig.fanins mig g);
              List.iter
                (fun h ->
                  let lh = Mig_analysis.level a h in
                  Array.iter
                    (fun s ->
                      if Mig.node_of s = g then
                        bump lh (if Mig.is_compl s then -1 else 1))
                    (Mig.fanins mig h))
                (Mig.fanout mig g);
              Array.iter
                (fun s ->
                  if Mig.node_of s = g then
                    bump (depth + 1) (if Mig.is_compl s then -1 else 1))
                (Mig.pos mig);
              let delta_at l =
                try Hashtbl.find deltas l with Not_found -> 0
              in
              let cost_of with_delta =
                let k_r = Rram_cost.rrams_per_gate realization in
                let k_s = Rram_cost.steps_per_level realization in
                let rrams = ref 0 and levels_with = ref 0 in
                for i = 0 to depth + 1 do
                  let c = compl_at i + if with_delta then delta_at i else 0 in
                  let ni = if i <= depth then Mig_analysis.gates_at_level a i else 0 in
                  rrams := max !rrams ((k_r * ni) + c);
                  if c > 0 then incr levels_with
                done;
                { Rram_cost.rrams = !rrams; steps = (k_s * depth) + !levels_with }
              in
              let before = cost_of false in
              let after = cost_of true in
              Rram_cost.weighted after < Rram_cost.weighted before
              || (after.Rram_cost.steps = before.Rram_cost.steps
                  && after.Rram_cost.rrams <= before.Rram_cost.rrams
                  && compl_at lg > 0)
        in
        if accept && Mig_algebra.try_compl_prop ~min_compl mig g then begin
          Obs.incr c_omega_i_hit;
          changed := true
        end
        else Obs.incr c_omega_i_miss
      end);
  !changed

let balance mig =
  let an = Mig_analysis.of_mig mig in
  let assoc_changed =
    sweep mig
      (counted c_omega_a_hit c_omega_a_miss
         (Mig_algebra.try_associativity ~strict:false ~fanout_limit:1 mig an))
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
  Mig.foreach_gate mig (fun g ->
      if not (Mig.is_dead mig g) then begin
        let a = Mig.fanin mig g 0 and b = Mig.fanin mig g 1 and c = Mig.fanin mig g 2 in
        let first = Triple_table.find seen a b c in
        if first < 0 then Triple_table.replace seen a b c g
        else if first <> g && not (Mig.is_dead mig first) then begin
          incr merges;
          Mig.substitute mig g (Mig.signal_of first false)
        end
      end);
  let reachable = Mig.size mig in
  let dead_ids = Mig.num_nodes mig - 1 - Mig.num_pis mig - reachable in
  if !merges = 0 && dead_ids = 0 then (mig, false)
  else begin
    Obs.incr ~by:!merges c_strash_merges;
    Obs.incr ~by:dead_ids c_strash_compacted;
    (Mig.cleanup mig, true)
  end
