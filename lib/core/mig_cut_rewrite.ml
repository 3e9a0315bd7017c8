open Logic

let c_cache_hit = Obs.counter "mig.cut_rewrite/npn_cache.hits"
and c_cache_miss = Obs.counter "mig.cut_rewrite/npn_cache.misses"

(* Resynthesis cache of one [rewrite] call: canonical truth-table bits ->
   minimized SOP.  The SOP is rebuilt per site over the site's (possibly
   negated) leaf signals.  Each call owns its table, so concurrent calls on
   other domains share nothing. *)
let minimized_sop cache canonical =
  let key = Truth_table.to_bits canonical in
  match Hashtbl.find_opt cache key with
  | Some sop ->
      Obs.incr c_cache_hit;
      sop
  | None ->
      Obs.incr c_cache_miss;
      let sop = Espresso.minimize (Sop.of_truth_table canonical) in
      Hashtbl.replace cache key sop;
      sop

let rec balanced_fold f = function
  | [] -> invalid_arg "Mig_cut_rewrite: empty operand list"
  | [ x ] -> x
  | xs ->
      let rec split acc n = function
        | rest when n = 0 -> (List.rev acc, rest)
        | x :: rest -> split (x :: acc) (n - 1) rest
        | [] -> (List.rev acc, [])
      in
      let half = List.length xs / 2 in
      let left, right = split [] half xs in
      f (balanced_fold f left) (balanced_fold f right)

let build_sop mig sop operands =
  let cube_signal cube =
    match Cube.literals cube with
    | [] -> Mig.const1
    | lits ->
        balanced_fold (Mig.and_ mig)
          (List.map
             (fun (v, positive) ->
               if positive then operands.(v) else Mig.not_ operands.(v))
             lits)
  in
  match Sop.cubes sop with
  | [] -> Mig.const0
  | cubes -> balanced_fold (Mig.or_ mig) (List.map cube_signal cubes)

let one_pass ~k cache mig =
  let cuts = Mig_cuts.enumerate ~k mig in
  let changed = ref false in
  Mig.foreach_gate mig (fun g ->
      if not (Mig.is_dead mig g) then begin
        let best = ref None in
        List.iter
          (fun cut ->
            (* Earlier substitutions in this sweep may have invalidated a
               stored cut's boundary; such cuts surface as [Not_found] while
               evaluating the cone and are simply skipped.  (A stale cut that
               is still a complete boundary evaluates the *current* function
               of the gate, so using it remains sound.) *)
            try
              if
                Array.length cut <= Npn.max_vars
                && not (Array.exists (fun l -> Mig.is_dead mig l) cut)
              then begin
                let mffc = Mig_cuts.mffc_size mig g cut in
                if mffc >= 2 then begin
                  let tt = Mig_cuts.cut_function mig g cut in
                  let canonical, transform = Npn.canonize tt in
                  let sop = minimized_sop cache canonical in
                  (* cheap size estimate: AND-tree per cube + OR-tree *)
                  let estimate =
                    List.fold_left
                      (fun acc c -> acc + max 0 (Cube.num_literals c - 1))
                      (max 0 (Sop.num_cubes sop - 1))
                      (Sop.cubes sop)
                  in
                  if estimate < mffc then
                    match !best with
                    | Some (_, _, _, gain) when mffc - estimate <= gain -> ()
                    | _ -> best := Some (cut, sop, transform, mffc - estimate)
                end
              end
            with Not_found -> ())
          (Mig_cuts.cuts_of cuts g);
        match !best with
        | None -> ()
        | Some (cut, _, _, _) when Array.exists (fun l -> Mig.is_dead mig l) cut -> ()
        | Some (cut, sop, transform, _) ->
            let before = Mig.num_nodes mig in
            let leaf_signals = Array.map (fun leaf -> Mig.signal_of leaf false) cut in
            let operands, out_neg = Npn.signals_for transform leaf_signals Mig.not_ in
            let replacement = build_sop mig sop operands in
            let replacement = if out_neg then Mig.not_ replacement else replacement in
            let created = Mig.num_nodes mig - before in
            (* accept only when the true cost (fresh nodes after strashing)
               still beats the nodes the substitution frees, and the
               replacement does not feed back into itself *)
            if Mig.node_of replacement <> g then begin
              let mffc = Mig_cuts.mffc_size mig g cut in
              if created < mffc then begin
                Mig.substitute mig g replacement;
                changed := true
              end
            end
      end);
  !changed

let rewrite ?(k = 4) ?(passes = 2) mig =
  let current = ref (Mig.cleanup mig) in
  let cache = Hashtbl.create 997 in
  let continue_ = ref true and n = ref 0 in
  while !continue_ && !n < passes do
    if not (one_pass ~k cache !current) then continue_ := false;
    current := Mig.cleanup !current;
    incr n
  done;
  !current
