open Logic

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

(* Random MIG: [pis] inputs, about [gates] majority nodes over random
   (possibly complemented) existing signals, [pos] outputs. *)
let random_mig rng ~pis ~gates ~pos =
  let mig = Core.Mig.create () in
  let signals = ref [| Core.Mig.const0 |] in
  let add s = signals := Array.append !signals [| s |] in
  for _ = 1 to pis do
    add (Core.Mig.add_pi mig)
  done;
  for _ = 1 to gates do
    let pick () =
      let s = Prng.pick rng !signals in
      if Prng.bool rng then Core.Mig.not_ s else s
    in
    add (Core.Mig.maj mig (pick ()) (pick ()) (pick ()))
  done;
  for _ = 1 to pos do
    let s = Prng.pick rng !signals in
    ignore (Core.Mig.add_po mig (if Prng.bool rng then Core.Mig.not_ s else s))
  done;
  mig

let mig_of_seed ?(pis = 6) ?(gates = 40) ?(pos = 4) seed =
  random_mig (Prng.create seed) ~pis ~gates ~pos

let check_equiv msg a b = Alcotest.(check bool) msg true (Core.Mig_equiv.equivalent a b)

let full_adder_mig () =
  let mig = Core.Mig.create () in
  let a = Core.Mig.add_pi mig in
  let b = Core.Mig.add_pi mig in
  let c = Core.Mig.add_pi mig in
  let carry = Core.Mig.maj mig a b c in
  let sum = Core.Mig.xor_ mig (Core.Mig.xor_ mig a b) c in
  ignore (Core.Mig.add_po mig sum);
  ignore (Core.Mig.add_po mig carry);
  mig

(* ------------------------------------------------------------------ *)
(* Node-store unit tests                                               *)
(* ------------------------------------------------------------------ *)

let store_tests =
  let open Alcotest in
  [
    test_case "fingerprint separates every fanin and output" `Quick (fun () ->
        (* one gate M(a, b, c) with per-fanin and output polarities *)
        let fp ?(pos = [ false ]) (ca, cb, cc) =
          let mig = Core.Mig.create () in
          let lit c s = if c then Core.Mig.not_ s else s in
          let a = Core.Mig.add_pi mig in
          let b = Core.Mig.add_pi mig in
          let c = Core.Mig.add_pi mig in
          let g = Core.Mig.maj mig (lit ca a) (lit cb b) (lit cc c) in
          List.iter (fun c -> ignore (Core.Mig.add_po mig (lit c g))) pos;
          Core.Mig.fingerprint mig
        in
        let base = fp (false, false, false) in
        check string "deterministic" base (fp (false, false, false));
        List.iter
          (fun (what, other) -> check bool what false (base = other))
          [
            ("first fanin", fp (true, false, false));
            ("second fanin", fp (false, true, false));
            ("third fanin", fp (false, false, true));
            ("output polarity", fp ~pos:[ true ] (false, false, false));
            ("output count", fp ~pos:[ false; false ] (false, false, false));
          ]);
    test_case "fingerprint keys cleaned graphs" `Quick (fun () ->
        let fps =
          List.map
            (fun seed ->
              let m = mig_of_seed seed in
              let fp = Core.Mig.fingerprint (Core.Mig.cleanup m) in
              check string "independent cleanups agree" fp
                (Core.Mig.fingerprint (Core.Mig.cleanup m));
              fp)
            [ 1; 2; 3; 4; 5 ]
        in
        check int "distinct graphs, distinct keys" 5
          (List.length (List.sort_uniq compare fps)));
    test_case "constants" `Quick (fun () ->
        check int "const1 = not const0" Core.Mig.const1 (Core.Mig.not_ Core.Mig.const0));
    test_case "majority rule M(x,x,z) = x" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let x = Core.Mig.add_pi mig and z = Core.Mig.add_pi mig in
        check int "simplifies" x (Core.Mig.maj mig x x z));
    test_case "majority rule M(x,~x,z) = z" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let x = Core.Mig.add_pi mig and z = Core.Mig.add_pi mig in
        check int "simplifies" z (Core.Mig.maj mig x (Core.Mig.not_ x) z));
    test_case "M(0,1,z) = z" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let z = Core.Mig.add_pi mig in
        check int "simplifies" z (Core.Mig.maj mig Core.Mig.const0 Core.Mig.const1 z));
    test_case "structural hashing shares" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig and b = Core.Mig.add_pi mig and c = Core.Mig.add_pi mig in
        let g1 = Core.Mig.maj mig a b c in
        let g2 = Core.Mig.maj mig c a b in
        check int "same node" g1 g2);
    test_case "polarity is not canonicalized" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig and b = Core.Mig.add_pi mig and c = Core.Mig.add_pi mig in
        let g1 = Core.Mig.maj mig a b c in
        let g2 =
          Core.Mig.maj mig (Core.Mig.not_ a) (Core.Mig.not_ b) (Core.Mig.not_ c)
        in
        check bool "different nodes" true (Core.Mig.node_of g1 <> Core.Mig.node_of g2));
    test_case "and/or semantics" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig and b = Core.Mig.add_pi mig in
        ignore (Core.Mig.add_po mig (Core.Mig.and_ mig a b));
        ignore (Core.Mig.add_po mig (Core.Mig.or_ mig a b));
        ignore (Core.Mig.add_po mig (Core.Mig.xor_ mig a b));
        let tts = Core.Mig_sim.truth_tables mig in
        check string "and" "0001" (Truth_table.to_bits tts.(0));
        check string "or" "0111" (Truth_table.to_bits tts.(1));
        check string "xor" "0110" (Truth_table.to_bits tts.(2)));
    test_case "mux semantics" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let s = Core.Mig.add_pi mig and a = Core.Mig.add_pi mig and b = Core.Mig.add_pi mig in
        ignore (Core.Mig.add_po mig (Core.Mig.mux mig s a b));
        let tt = (Core.Mig_sim.truth_tables mig).(0) in
        let expect = Truth_table.mux (Truth_table.var 3 0) (Truth_table.var 3 1) (Truth_table.var 3 2) in
        check bool "mux tt" true (Truth_table.equal tt expect));
    test_case "fanout tracking" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig and b = Core.Mig.add_pi mig and c = Core.Mig.add_pi mig in
        let g = Core.Mig.maj mig a b c in
        let h = Core.Mig.maj mig g a b in
        ignore (Core.Mig.add_po mig h);
        check int "fanout of g" 1 (Core.Mig.fanout_size mig (Core.Mig.node_of g));
        check int "po refs of h" 1 (Core.Mig.po_refs mig (Core.Mig.node_of h)));
    test_case "substitute rewires and kills" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig and b = Core.Mig.add_pi mig and c = Core.Mig.add_pi mig in
        let g = Core.Mig.maj mig a b c in
        let h = Core.Mig.maj mig g a Core.Mig.const0 in
        ignore (Core.Mig.add_po mig h);
        (* replace g by just [a]: h becomes M(a,a,0) = a *)
        Core.Mig.substitute mig (Core.Mig.node_of g) a;
        check bool "g dead" true (Core.Mig.is_dead mig (Core.Mig.node_of g));
        check int "po collapsed to a" a (Core.Mig.po mig 0));
    test_case "substitute cascades strash merge" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig and b = Core.Mig.add_pi mig and c = Core.Mig.add_pi mig in
        let d = Core.Mig.add_pi mig in
        let g1 = Core.Mig.maj mig a b c in
        let g2 = Core.Mig.maj mig a b d in
        let up1 = Core.Mig.maj mig g1 a Core.Mig.const1 in
        let up2 = Core.Mig.maj mig g2 a Core.Mig.const1 in
        ignore (Core.Mig.add_po mig up1);
        ignore (Core.Mig.add_po mig up2);
        (* replacing d by c makes g2 = g1, which must merge up2 into up1 *)
        Core.Mig.substitute mig (Core.Mig.node_of d) c;
        check int "pos equal" (Core.Mig.po mig 0) (Core.Mig.po mig 1));
    test_case "cleanup drops dead logic" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig and b = Core.Mig.add_pi mig and c = Core.Mig.add_pi mig in
        let _dead = Core.Mig.maj mig a b c in
        let live = Core.Mig.maj mig a b Core.Mig.const0 in
        ignore (Core.Mig.add_po mig live);
        let compact = Core.Mig.cleanup mig in
        check int "one gate" 1 (Core.Mig.size compact);
        check_equiv "same function" mig compact);
    test_case "topo order respects fanins" `Quick (fun () ->
        let mig = mig_of_seed 11 in
        let seen = Hashtbl.create 64 in
        List.iter
          (fun g ->
            Array.iter
              (fun s ->
                let n = Core.Mig.node_of s in
                if Core.Mig.kind mig n = Core.Mig.Gate then
                  Alcotest.(check bool) "fanin first" true (Hashtbl.mem seen n))
              (Core.Mig.fanins mig g);
            Hashtbl.add seen g ())
          (Core.Mig.topo_order mig));
  ]

(* ------------------------------------------------------------------ *)
(* Level / cost model                                                  *)
(* ------------------------------------------------------------------ *)

let level_tests =
  let open Alcotest in
  [
    test_case "full adder levels" `Quick (fun () ->
        let mig = full_adder_mig () in
        let lv = Core.Mig_levels.compute mig in
        check bool "depth >= 1" true (lv.Core.Mig_levels.depth >= 1);
        (* carry node is at level 1 *)
        let carry = Core.Mig.po mig 1 in
        check int "carry level" 1 lv.Core.Mig_levels.level.(Core.Mig.node_of carry));
    test_case "table I formulas" `Quick (fun () ->
        let mig = full_adder_mig () in
        let lv = Core.Mig_levels.compute mig in
        let imp = Core.Rram_cost.of_levels Core.Rram_cost.Imp lv in
        let maj = Core.Rram_cost.of_levels Core.Rram_cost.Maj lv in
        let l = Core.Mig_levels.num_levels_with_compl lv in
        check int "imp steps" ((10 * lv.Core.Mig_levels.depth) + l) imp.Core.Rram_cost.steps;
        check int "maj steps" ((3 * lv.Core.Mig_levels.depth) + l) maj.Core.Rram_cost.steps;
        check bool "imp rrams >= maj rrams" true
          (imp.Core.Rram_cost.rrams >= maj.Core.Rram_cost.rrams));
    test_case "single gate costs" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig and b = Core.Mig.add_pi mig and c = Core.Mig.add_pi mig in
        ignore (Core.Mig.add_po mig (Core.Mig.maj mig a b c));
        let imp = Core.Rram_cost.of_mig Core.Rram_cost.Imp mig in
        let maj = Core.Rram_cost.of_mig Core.Rram_cost.Maj mig in
        (* exactly the paper's single-gate numbers: 6 RRAMs / 10 steps (IMP),
           4 RRAMs / 3 steps (MAJ) *)
        check int "imp R" 6 imp.Core.Rram_cost.rrams;
        check int "imp S" 10 imp.Core.Rram_cost.steps;
        check int "maj R" 4 maj.Core.Rram_cost.rrams;
        check int "maj S" 3 maj.Core.Rram_cost.steps);
    test_case "complement adds a step" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig and b = Core.Mig.add_pi mig and c = Core.Mig.add_pi mig in
        ignore (Core.Mig.add_po mig (Core.Mig.maj mig (Core.Mig.not_ a) b c));
        let maj = Core.Rram_cost.of_mig Core.Rram_cost.Maj mig in
        check int "maj R" 5 maj.Core.Rram_cost.rrams;
        check int "maj S" 4 maj.Core.Rram_cost.steps);
    test_case "complemented po counts as readout stage" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig and b = Core.Mig.add_pi mig and c = Core.Mig.add_pi mig in
        ignore (Core.Mig.add_po mig (Core.Mig.not_ (Core.Mig.maj mig a b c)));
        let maj = Core.Rram_cost.of_mig Core.Rram_cost.Maj mig in
        check int "maj S with po inversion" 4 maj.Core.Rram_cost.steps);
  ]

(* ------------------------------------------------------------------ *)
(* Algebra rules preserve the function                                 *)
(* ------------------------------------------------------------------ *)

let preserves name transform =
  QCheck.Test.make ~name ~count:60
    (QCheck.make QCheck.Gen.(int_bound 100000))
    (fun seed ->
      let mig = mig_of_seed seed in
      let reference = Core.Mig.cleanup mig in
      let _ = transform mig in
      Core.Mig_equiv.equivalent reference mig)

let algebra_props =
  [
    preserves "dist R->L preserves" (fun m ->
        Core.Mig.foreach_gate m (fun g ->
            if not (Core.Mig.is_dead m g) then
              ignore (Core.Mig_algebra.try_distributivity_rl m g)));
    preserves "dist L->R preserves" (fun m ->
        let an = Core.Mig_analysis.of_mig m in
        Core.Mig.foreach_gate m (fun g ->
            if not (Core.Mig.is_dead m g) then
              ignore (Core.Mig_algebra.try_distributivity_lr m an g)));
    preserves "associativity preserves" (fun m ->
        let an = Core.Mig_analysis.of_mig m in
        Core.Mig.foreach_gate m (fun g ->
            if not (Core.Mig.is_dead m g) then
              ignore (Core.Mig_algebra.try_associativity m an g)));
    preserves "assoc non-strict preserves" (fun m ->
        let an = Core.Mig_analysis.of_mig m in
        Core.Mig.foreach_gate m (fun g ->
            if not (Core.Mig.is_dead m g) then
              ignore (Core.Mig_algebra.try_associativity ~strict:false m an g)));
    preserves "compl assoc preserves" (fun m ->
        let an = Core.Mig_analysis.of_mig m in
        Core.Mig.foreach_gate m (fun g ->
            if not (Core.Mig.is_dead m g) then
              ignore (Core.Mig_algebra.try_compl_assoc m an g)));
    preserves "compl prop preserves" (fun m ->
        Core.Mig.foreach_gate m (fun g ->
            if not (Core.Mig.is_dead m g) then
              ignore (Core.Mig_algebra.try_compl_prop m g)));
    preserves "relevance preserves" (fun m ->
        let an = Core.Mig_analysis.of_mig m in
        Core.Mig.foreach_gate m (fun g ->
            if not (Core.Mig.is_dead m g) then
              ignore (Core.Mig_algebra.try_relevance m an g)));
    preserves "substitute-based cleanup is stable" (fun m -> ignore (Core.Mig.cleanup m));
  ]

(* ------------------------------------------------------------------ *)
(* Passes and optimizers                                               *)
(* ------------------------------------------------------------------ *)

let pass_props =
  [
    preserves "eliminate pass preserves" (fun m -> ignore (Core.Mig_passes.eliminate m));
    preserves "reshape pass preserves" (fun m ->
        ignore (Core.Mig_passes.reshape ~seed:1 m));
    preserves "push_up pass preserves" (fun m -> ignore (Core.Mig_passes.push_up m));
    preserves "relevance pass preserves" (fun m -> ignore (Core.Mig_passes.relevance m));
    preserves "compl_prop Always preserves" (fun m ->
        ignore (Core.Mig_passes.compl_prop Core.Mig_passes.Always m));
    preserves "compl_prop Weighted preserves" (fun m ->
        ignore
          (Core.Mig_passes.compl_prop
             (Core.Mig_passes.Weighted Core.Rram_cost.Maj)
             m));
    preserves "balance pass preserves" (fun m -> ignore (Core.Mig_passes.balance m));
  ]

(* ------------------------------------------------------------------ *)
(* Strash pass                                                         *)
(* ------------------------------------------------------------------ *)

(* strash must (a) preserve the function, (b) be idempotent: a second
   application finds a canonical graph and returns it untouched (physical
   equality, changed = false). *)
let strash_canonicalizes mig reference =
  let once, _ = Core.Mig_passes.strash mig in
  let twice, changed_again = Core.Mig_passes.strash once in
  Core.Mig_equiv.equivalent reference once
  && (not changed_again)
  && twice == once

(* Interleave fresh gates over live signals with substitutions of a live
   gate by a signal of its own fanin cone (so no cycle forms); each
   substitution cascades Ω.M collapses and strash merges. *)
let substitute_cascades rng mig =
  let live () = List.filter (fun g -> not (Core.Mig.is_dead mig g)) (Core.Mig.topo_order mig) in
  let signal n = Core.Mig.signal_of n (Prng.bool rng) in
  for _ = 1 to 30 do
    match live () with
    | [] -> ()
    | gates ->
        let gates = Array.of_list gates in
        if Prng.bool rng then begin
          let pick () =
            if Prng.bool rng then signal (Prng.pick rng gates)
            else signal (Core.Mig.node_of (Core.Mig.pi mig (Prng.int rng (Core.Mig.num_pis mig))))
          in
          ignore (Core.Mig.add_po mig (Core.Mig.maj mig (pick ()) (pick ()) (pick ())))
        end
        else begin
          let g = Prng.pick rng gates in
          let cone = ref [] and stack = ref [ g ] in
          let seen = Hashtbl.create 16 in
          while !stack <> [] do
            let n = List.hd !stack in
            stack := List.tl !stack;
            Array.iter
              (fun f ->
                let m = Core.Mig.node_of f in
                if not (Hashtbl.mem seen m) then begin
                  Hashtbl.add seen m ();
                  cone := m :: !cone;
                  if Core.Mig.kind mig m = Core.Mig.Gate then stack := m :: !stack
                end)
              (Core.Mig.fanins mig n)
          done;
          Core.Mig.substitute mig g (signal (Prng.pick rng (Array.of_list !cone)))
        end
  done

(* [Mig.cleanup] rebuilt through the public constructors, on a store that
   starts small and grows: the post-order DFS from the outputs that
   explores fanin 2 first, one [maj] per gate reached. *)
let reference_cleanup mig =
  let module M = Core.Mig in
  let fresh = M.create () in
  let map = Array.make (M.num_nodes mig) (-1) in
  map.(0) <- 0;
  for i = 0 to M.num_pis mig - 1 do
    map.(M.node_of (M.pi mig i)) <- M.node_of (M.add_pi fresh)
  done;
  let seen = Array.make (M.num_nodes mig) false in
  let copy s = M.signal_of map.(M.node_of s) (M.is_compl s) in
  let rec reach m =
    if not seen.(m) then begin
      seen.(m) <- true;
      if M.kind mig m = M.Gate then begin
        List.iter (fun i -> reach (M.node_of (M.fanin mig m i))) [ 2; 1; 0 ];
        let s = M.maj fresh (copy (M.fanin mig m 0)) (copy (M.fanin mig m 1)) (copy (M.fanin mig m 2)) in
        map.(m) <- M.node_of s
      end
    end
  in
  Array.iter (fun s -> reach (M.node_of s)) (M.pos mig);
  Array.iter (fun s -> ignore (M.add_po fresh (copy s))) (M.pos mig);
  fresh

let node_store_props =
  [
    QCheck.Test.make ~name:"flat fanins, back-pointers and cleanup after cascades" ~count:200
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let rng = Prng.create seed in
        let mig = mig_of_seed ~gates:(20 + Prng.int rng 60) seed in
        substitute_cascades rng mig;
        let fanins_agree = ref true in
        for n = 0 to Core.Mig.num_nodes mig - 1 do
          if Core.Mig.kind mig n = Core.Mig.Gate && not (Core.Mig.is_dead mig n) then
            Array.iteri
              (fun i s -> if Core.Mig.fanin mig n i <> s then fanins_agree := false)
              (Core.Mig.fanins mig n)
        done;
        let store_ok m =
          match Core.Mig.check_store m with
          | Ok () -> true
          | Error e -> QCheck.Test.fail_reportf "seed %d: %s" seed e
        in
        let once = Core.Mig.cleanup mig in
        let fp = Core.Mig.fingerprint in
        !fanins_agree && store_ok mig && store_ok once
        && fp once = fp (reference_cleanup mig)
        && fp (Core.Mig.cleanup once) = fp (reference_cleanup once));
    QCheck.Test.make ~name:"fanins is a snapshot the graph does not change" ~count:100
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let rng = Prng.create seed in
        let mig = mig_of_seed seed in
        let before =
          List.map (fun g -> (g, Core.Mig.fanins mig g)) (Core.Mig.topo_order mig)
        in
        let copies = List.map (fun (g, f) -> (g, Array.copy f)) before in
        substitute_cascades rng mig;
        List.for_all2 (fun (_, f) (_, f') -> f = f') before copies);
  ]

let strash_props =
  [
    QCheck.Test.make ~name:"strash preserves equivalence and is idempotent"
      ~count:60
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig = mig_of_seed seed in
        let reference = Core.Mig.cleanup mig in
        (* dirty the graph: elimination leaves dead node records behind *)
        ignore (Core.Mig_passes.eliminate mig);
        strash_canonicalizes mig reference);
    QCheck.Test.make ~name:"maj/substitute cascades keep the strash table exact"
      ~count:100
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let rng = Prng.create seed in
        let mig = mig_of_seed ~gates:(20 + Prng.int rng 60) seed in
        substitute_cascades rng mig;
        let lookups_exact () =
          let ok = ref true in
          for g = 0 to Core.Mig.num_nodes mig - 1 do
            if Core.Mig.kind mig g = Core.Mig.Gate && not (Core.Mig.is_dead mig g) then begin
              let f = Core.Mig.fanins mig g in
              let want = Some (Core.Mig.signal_of g false) in
              List.iter
                (fun (i, j, k) ->
                  if Core.Mig.lookup mig f.(i) f.(j) f.(k) <> want then ok := false)
                [ (0, 1, 2); (0, 2, 1); (1, 0, 2); (1, 2, 0); (2, 0, 1); (2, 1, 0) ]
            end
          done;
          !ok
        in
        (* Known defect of [Mig.substitute], not of the table: a user that
           collapses in a nested cascade onto the gate being substituted
           leaves its fanouts and outputs on that dead gate, which cleanup
           later copies back (the pinned outputs depend on it).  Every
           other invariant must hold. *)
        let only_dead_references =
          match Core.Mig_check.check mig with
          | Ok () -> true
          | Error e ->
              List.for_all
                (fun v ->
                  match String.split_on_char ' ' (String.trim v) with
                  | [ "gate"; _; "has"; "dead"; "fanin"; _ ]
                  | [ "output"; _; "driven"; "by"; "dead"; "node"; _ ] ->
                      true
                  | _ -> false)
                (String.split_on_char ';' e)
        in
        only_dead_references && lookups_exact ());
  ]

let strash_tests =
  let open Alcotest in
  [
    test_case "no-op on a canonical graph returns it untouched" `Quick (fun () ->
        let mig = Core.Mig.cleanup (full_adder_mig ()) in
        let out, changed = Core.Mig_passes.strash mig in
        check bool "same graph" true (out == mig);
        check bool "unchanged" false changed);
    test_case "compacts abandoned speculative gates" `Quick (fun () ->
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig and b = Core.Mig.add_pi mig and c = Core.Mig.add_pi mig in
        let keep = Core.Mig.maj mig a b c in
        (* speculative node never wired to an output *)
        ignore (Core.Mig.maj mig a (Core.Mig.not_ b) c);
        ignore (Core.Mig.add_po mig keep);
        let out, changed = Core.Mig_passes.strash mig in
        check bool "changed" true changed;
        check int "one live gate" 1 (Core.Mig.num_gates out);
        check int "dense ids" (1 + 3 + 1) (Core.Mig.num_nodes out);
        let again, changed_again = Core.Mig_passes.strash out in
        check bool "idempotent" true (again == out && not changed_again));
    test_case "strash canonicalizes Funcgen circuits" `Quick (fun () ->
        List.iter
          (fun (name, net) ->
            let mig = Core.Mig_of_network.convert net in
            let reference = Core.Mig.cleanup mig in
            ignore (Core.Mig_passes.eliminate mig);
            check bool name true (strash_canonicalizes mig reference))
          [
            ("full_adder", Funcgen.full_adder ());
            ("rd53", Funcgen.rd 5 3);
            ("comparator4", Funcgen.comparator 4);
            ("parity9", Funcgen.parity 9);
            ("mux_tree3", Funcgen.mux_tree 3);
            ("alu4", Funcgen.alu4 ());
          ]);
  ]

let optimizer_props =
  let check_opt name alg =
    QCheck.Test.make ~name ~count:25
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig = mig_of_seed ~gates:30 seed in
        let optimized = Core.Mig_opt.run ~effort:6 alg mig in
        Core.Mig_equiv.equivalent mig optimized)
  in
  [
    check_opt "area optimization preserves" Core.Mig_opt.Area;
    check_opt "depth optimization preserves" Core.Mig_opt.Depth;
    check_opt "rram-costs(IMP) preserves" (Core.Mig_opt.Rram_costs Core.Rram_cost.Imp);
    check_opt "rram-costs(MAJ) preserves" (Core.Mig_opt.Rram_costs Core.Rram_cost.Maj);
    check_opt "step optimization preserves" Core.Mig_opt.Steps;
  ]

let optimizer_tests =
  let open Alcotest in
  [
    test_case "depth optimization reduces a chain" `Quick (fun () ->
        (* An unbalanced AND chain has depth n-1; push-up should shrink it. *)
        let mig = Core.Mig.create () in
        let pis = Array.init 8 (fun _ -> Core.Mig.add_pi mig) in
        let acc = ref pis.(0) in
        for i = 1 to 7 do
          acc := Core.Mig.and_ mig !acc pis.(i)
        done;
        ignore (Core.Mig.add_po mig !acc);
        let before = Core.Rram_cost.of_mig Core.Rram_cost.Maj mig in
        let optimized = Core.Mig_opt.depth ~effort:10 mig in
        let after = Core.Rram_cost.of_mig Core.Rram_cost.Maj optimized in
        check bool "fewer steps" true (after.Core.Rram_cost.steps < before.Core.Rram_cost.steps);
        check_equiv "equivalent" mig optimized);
    test_case "step optimization removes complement levels" `Quick (fun () ->
        (* A chain of NANDs creates complemented edges on every level. *)
        let mig = Core.Mig.create () in
        let pis = Array.init 6 (fun _ -> Core.Mig.add_pi mig) in
        let acc = ref pis.(0) in
        for i = 1 to 5 do
          acc := Core.Mig.not_ (Core.Mig.and_ mig !acc pis.(i))
        done;
        ignore (Core.Mig.add_po mig !acc);
        let lv_before = Core.Mig_levels.compute mig in
        let optimized = Core.Mig_opt.steps ~effort:10 mig in
        let lv_after = Core.Mig_levels.compute optimized in
        check bool "fewer complement levels" true
          (Core.Mig_levels.num_levels_with_compl lv_after
          <= Core.Mig_levels.num_levels_with_compl lv_before);
        check_equiv "equivalent" mig optimized);
    test_case "area optimization shrinks shared-pair structure" `Quick (fun () ->
        (* M(M(x,y,u), M(x,y,v), z) is the textbook Ω.D R→L target. *)
        let mig = Core.Mig.create () in
        let x = Core.Mig.add_pi mig and y = Core.Mig.add_pi mig in
        let u = Core.Mig.add_pi mig and v = Core.Mig.add_pi mig in
        let z = Core.Mig.add_pi mig in
        let a = Core.Mig.maj mig x y u in
        let b = Core.Mig.maj mig x y v in
        ignore (Core.Mig.add_po mig (Core.Mig.maj mig a b z));
        let optimized = Core.Mig_opt.area ~effort:5 mig in
        check bool "size reduced" true (Core.Mig.size optimized < Core.Mig.size mig);
        check_equiv "equivalent" mig optimized);
  ]

(* ------------------------------------------------------------------ *)
(* Conversion from networks                                            *)
(* ------------------------------------------------------------------ *)

let conversion_tests =
  let open Alcotest in
  let check_net name net =
    test_case name `Quick (fun () ->
        let mig = Core.Mig_of_network.convert net in
        check bool "equivalent to source network" true
          (Core.Mig_equiv.equivalent_network mig net))
  in
  [
    check_net "full adder" (Funcgen.full_adder ());
    check_net "ripple adder 4" (Funcgen.ripple_adder 4);
    check_net "cla adder 4" (Funcgen.carry_lookahead_adder 4);
    check_net "multiplier 3" (Funcgen.multiplier 3);
    check_net "comparator 4" (Funcgen.comparator 4);
    check_net "rd53" (Funcgen.rd 5 3);
    check_net "9sym" (Funcgen.sym_range 9 3 6);
    check_net "parity 9" (Funcgen.parity 9);
    check_net "mux tree 3" (Funcgen.mux_tree 3);
    check_net "alu4" (Funcgen.alu4 ());
    check_net "clip" (Funcgen.clip ());
    check_net "t481" (Funcgen.t481 ());
    test_case "of_truth_table" `Quick (fun () ->
        let tt =
          Truth_table.bxor (Truth_table.var 4 0)
            (Truth_table.maj3 (Truth_table.var 4 1) (Truth_table.var 4 2)
               (Truth_table.var 4 3))
        in
        let mig = Core.Mig_of_network.of_truth_table tt in
        let got = (Core.Mig_sim.truth_tables mig).(0) in
        check bool "tt preserved" true (Truth_table.equal tt got));
  ]

let equiv_tests =
  let open Alcotest in
  [
    test_case "detects inequivalence" `Quick (fun () ->
        let a = full_adder_mig () in
        let b = full_adder_mig () in
        Core.Mig.set_po b 0 (Core.Mig.not_ (Core.Mig.po b 0));
        check bool "not equivalent" false (Core.Mig_equiv.equivalent a b));
    test_case "counterexample found" `Quick (fun () ->
        let a = full_adder_mig () in
        let b = full_adder_mig () in
        Core.Mig.set_po b 1 (Core.Mig.not_ (Core.Mig.po b 1));
        match Core.Mig_equiv.counterexample a b with
        | Some vec ->
            let oa = Core.Mig_sim.eval a vec and ob = Core.Mig_sim.eval b vec in
            check bool "distinguishes" true (oa <> ob)
        | None -> Alcotest.fail "expected counterexample");
    test_case "a reused simulate closure matches fresh ones" `Quick (fun () ->
        let mig = mig_of_seed ~pis:8 ~gates:200 ~pos:6 11 in
        let sim = Core.Mig_sim.simulate mig in
        let rng = Prng.create 5 in
        for _ = 1 to 4 do
          let ins =
            Array.init 8 (fun _ ->
                let bv = Bitvec.create 64 in
                Bitvec.randomize rng bv;
                bv)
          in
          check bool "bit-equal outputs" true
            (Array.for_all2 Bitvec.equal (sim ins) (Core.Mig_sim.simulate mig ins))
        done);
    test_case "verdicts on the suite and on seeded wrong rewrites" `Slow
      (fun () ->
        (* each Table II circuit against its optimized MIG, and against a
           copy whose seeded gate collapses onto its first fanin; the
           transcript of every verdict and counterexample is pinned *)
        let bits v =
          String.concat ""
            (Array.to_list (Array.map (fun b -> if b then "1" else "0") v))
        in
        let transcript = Buffer.create 4096 in
        List.iter
          (fun (e : Io.Benchmarks.entry) ->
            let name = e.Io.Benchmarks.name in
            let net = e.Io.Benchmarks.build () in
            let mig = Core.Mig_of_network.convert net in
            let opt = Core.Mig_opt.steps ~effort:2 mig in
            check bool (name ^ " optimized") true (Core.Mig_equiv.equivalent opt mig);
            check bool (name ^ " optimized vs network") true
              (Core.Mig_equiv.equivalent_network opt net);
            check bool (name ^ " no counterexample") true
              (Core.Mig_equiv.counterexample opt mig = None);
            let wrong = Core.Mig.cleanup opt in
            let gates = Array.of_list (Core.Mig.topo_order wrong) in
            let g = Prng.pick (Prng.of_string name) gates in
            Core.Mig.substitute wrong g (Core.Mig.fanins wrong g).(0);
            let eq = Core.Mig_equiv.equivalent wrong mig in
            let eq_net = Core.Mig_equiv.equivalent_network wrong net in
            let cex = Core.Mig_equiv.counterexample wrong mig in
            check bool (name ^ " both checks agree") eq eq_net;
            (match cex with
            | Some v ->
                check bool (name ^ " flagged") false eq;
                check bool (name ^ " counterexample distinguishes") true
                  (Core.Mig_sim.eval wrong v <> Core.Mig_sim.eval mig v)
            | None -> check bool (name ^ " no counterexample, so equivalent") true eq);
            Printf.bprintf transcript "%s %b %b %s\n" name eq eq_net
              (match cex with Some v -> bits v | None -> "-"))
          Io.Benchmarks.table2;
        check string "verdict transcript" "aa4d97a2e50e39990fdf343f81244615"
          (Digest.to_hex (Digest.string (Buffer.contents transcript))));
    test_case "exact counterexample: one 14-input minterm" `Quick (fun () ->
        (* An AND of all 14 inputs in seeded polarities is true on exactly
           one minterm; against constant 0 that minterm is the only (so the
           lowest) difference, which random vectors mostly miss. *)
        let n = Core.Mig_equiv.exact_limit in
        for seed = 1 to 20 do
          let rng = Prng.create seed in
          let minterm = Array.init n (fun _ -> Prng.bool rng) in
          let a = Core.Mig.create () and b = Core.Mig.create () in
          let term = ref Core.Mig.const1 in
          Array.iter
            (fun bit ->
              let x = Core.Mig.add_pi a in
              ignore (Core.Mig.add_pi b);
              term := Core.Mig.and_ a !term (if bit then x else Core.Mig.not_ x))
            minterm;
          ignore (Core.Mig.add_po a !term);
          ignore (Core.Mig.add_po b Core.Mig.const0);
          check bool "refuted" false (Core.Mig_equiv.equivalent a b);
          check (option (array bool)) (Printf.sprintf "seed %d" seed) (Some minterm)
            (Core.Mig_equiv.counterexample a b)
        done);
    test_case "unequal input widths are rejected" `Quick (fun () ->
        let mig = full_adder_mig () in
        let ins = [| Bitvec.create 512; Bitvec.create 512; Bitvec.create 513 |] in
        check_raises "width" (Invalid_argument "Mig_sim.simulate: input width") (fun () ->
            ignore (Core.Mig_sim.simulate mig ins)));
  ]

(* ------------------------------------------------------------------ *)
(* Simulation and equivalence against a per-vector reference           *)
(* ------------------------------------------------------------------ *)

(* One vector through the graph in topological order, from the node store
   alone: it shares no code with [Mig_sim.simulate] (nor with
   [Mig_sim.eval], which goes through it). *)
let eval_mig_ref mig v =
  let value = Array.make (Core.Mig.num_nodes mig) false in
  Array.iteri (fun i b -> value.(Core.Mig.node_of (Core.Mig.pi mig i)) <- b) v;
  let lit s = value.(Core.Mig.node_of s) <> Core.Mig.is_compl s in
  List.iter
    (fun g ->
      let f = Core.Mig.fanins mig g in
      let ones = List.length (List.filter lit [ f.(0); f.(1); f.(2) ]) in
      value.(g) <- ones >= 2)
    (Core.Mig.topo_order mig);
  Array.map lit (Core.Mig.pos mig)

let sim_widths = [ 1; 63; 64; 65; 511; 512; 513; 4097 ]

(* Random graphs carry complemented fanins and outputs; four extra outputs
   are driven by constant 0, constant 1, an input and its complement. *)
let mig_sim_props =
  List.map
    (fun width ->
      QCheck.Test.make ~count:30
        ~name:(Printf.sprintf "width %d: lanes = reference" width)
        QCheck.small_nat
        (fun seed ->
          let rng = Prng.create seed in
          let mig = random_mig rng ~pis:(1 + Prng.int rng 6) ~gates:(5 + Prng.int rng 40) ~pos:3 in
          let x = Core.Mig.pi mig 0 in
          List.iter
            (fun s -> ignore (Core.Mig.add_po mig s))
            [ Core.Mig.const0; Core.Mig.const1; x; Core.Mig.not_ x ];
          let ins =
            Array.init (Core.Mig.num_pis mig) (fun _ ->
                let bv = Bitvec.create width in
                Bitvec.randomize rng bv;
                bv)
          in
          let outs = Core.Mig_sim.simulate mig ins in
          let want = Array.map (fun _ -> Bitvec.create width) outs in
          for lane = 0 to width - 1 do
            let r = eval_mig_ref mig (Array.map (fun bv -> Bitvec.get bv lane) ins) in
            Array.iteri (fun o b -> Bitvec.set want.(o) lane b) r
          done;
          Array.for_all2 Bitvec.equal outs want))
    sim_widths

(* The random check's contract, replayed one vector at a time: [rounds]
   rounds of 64 vectors, the word of round [r] and input [i] being draw
   [r·n + i] of [Prng.create seed], with lane 0 / lane 1 of round 0 forced
   to the all-zero / all-one vector.  The first difference is found in
   round order, then output order, then lowest lane. *)
let counterexample_ref ~seed ~rounds a b =
  let n = Core.Mig.num_pis a in
  let rng = Prng.create seed in
  let found = ref None in
  for r = 0 to rounds - 1 do
    let words = Array.init n (fun _ -> Prng.next64 rng) in
    if !found = None then begin
      let vec lane =
        Array.init n (fun i ->
            if r = 0 && lane < 2 then lane = 1
            else Int64.logand (Int64.shift_right_logical words.(i) lane) 1L = 1L)
      in
      let va = Array.init 64 (fun lane -> eval_mig_ref a (vec lane)) in
      let vb = Array.init 64 (fun lane -> eval_mig_ref b (vec lane)) in
      for o = 0 to Core.Mig.num_pos a - 1 do
        for lane = 0 to 63 do
          if !found = None && va.(lane).(o) <> vb.(lane).(o) then found := Some (vec lane)
        done
      done
    end
  done;
  !found

(* Pairs above the exact limit: a graph against its cleaned copy, against
   a copy whose seeded gate collapses onto its first fanin (which may or may
   not change the function), or against a copy whose seeded output is
   flipped by an AND of 6 to 9 distinct inputs of mixed polarity, which misses
   both corner vectors, so the first difference often lands past round 0
   and on a later output. *)
let equiv_props =
  [
    QCheck.Test.make ~count:60 ~name:"random check = replay, 15+ inputs"
      QCheck.(pair small_nat (int_bound 2))
      (fun (seed, variant) ->
        let rng = Prng.create seed in
        let pis = Core.Mig_equiv.exact_limit + 1 + Prng.int rng 6 in
        let a = random_mig rng ~pis ~gates:(20 + Prng.int rng 40) ~pos:(1 + Prng.int rng 4) in
        let b = Core.Mig.cleanup a in
        let gates = Array.of_list (Core.Mig.topo_order b) in
        if variant = 1 && gates <> [||] then begin
          let g = Prng.pick rng gates in
          Core.Mig.substitute b g (Core.Mig.fanins b g).(0)
        end;
        if variant = 2 then begin
          let order = Array.init pis Fun.id in
          Prng.shuffle rng order;
          let term = ref Core.Mig.const1 in
          for k = 0 to 5 + Prng.int rng 4 do
            let x = Core.Mig.pi b order.(k) in
            let x = if k = 0 || (k > 1 && Prng.bool rng) then x else Core.Mig.not_ x in
            term := Core.Mig.and_ b !term x
          done;
          let o = Prng.int rng (Core.Mig.num_pos b) in
          Core.Mig.set_po b o (Core.Mig.xor_ b (Core.Mig.po b o) !term)
        end;
        (* half the cases run on the default seed, half on the case's own *)
        let cex, eq, seed =
          if Prng.bool rng then
            (Core.Mig_equiv.counterexample a b, Core.Mig_equiv.equivalent a b, 0xE0A)
          else
            (Core.Mig_equiv.counterexample ~seed a b, Core.Mig_equiv.equivalent ~seed a b, seed)
        in
        let want = counterexample_ref ~seed ~rounds:64 a b in
        cex = want && eq = (want = None));
  ]

(* ------------------------------------------------------------------ *)
(* Structural integrity under rewrite storms                           *)
(* ------------------------------------------------------------------ *)

let integrity_props =
  let storm mig seed =
    (* a randomized barrage of every rewrite kind *)
    let rng = Prng.create seed in
    let an = Core.Mig_analysis.of_mig mig in
    for _ = 1 to 3 do
      Core.Mig.foreach_gate mig (fun g ->
          if not (Core.Mig.is_dead mig g) then
            ignore
              (match Prng.int rng 6 with
              | 0 -> Core.Mig_algebra.try_distributivity_rl mig g
              | 1 -> Core.Mig_algebra.try_distributivity_lr mig an g
              | 2 -> Core.Mig_algebra.try_associativity ~strict:false mig an g
              | 3 -> Core.Mig_algebra.try_compl_assoc mig an g
              | 4 -> Core.Mig_algebra.try_compl_prop mig g
              | _ -> Core.Mig_algebra.try_relevance mig an g))
    done
  in
  [
    QCheck.Test.make ~name:"graph invariants survive rewrite storms" ~count:60
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig = mig_of_seed seed in
        storm mig (seed + 1);
        Core.Mig_check.check mig = Ok ());
    QCheck.Test.make ~name:"storms preserve the function" ~count:60
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig = mig_of_seed seed in
        let reference = Core.Mig.cleanup mig in
        storm mig (seed + 1);
        Core.Mig_equiv.equivalent reference mig);
    QCheck.Test.make ~name:"cleanup is idempotent on size" ~count:60
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig = mig_of_seed seed in
        storm mig (seed + 1);
        let once = Core.Mig.cleanup mig in
        let twice = Core.Mig.cleanup once in
        Core.Mig.size once = Core.Mig.size twice
        && Core.Mig_check.check once = Ok ());
    QCheck.Test.make ~name:"optimizers leave valid graphs" ~count:20
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig = mig_of_seed ~gates:30 seed in
        List.for_all
          (fun alg -> Core.Mig_check.check (Core.Mig_opt.run ~effort:4 alg mig) = Ok ())
          [ Core.Mig_opt.Area; Core.Mig_opt.Depth; Core.Mig_opt.Steps ]);
  ]

(* ------------------------------------------------------------------ *)
(* Incremental analysis                                                *)
(* ------------------------------------------------------------------ *)

let analysis_tests =
  let open Alcotest in
  [
    test_case "level cache tracks substitutions (staleness regression)" `Quick
      (fun () ->
        (* A chain g1..g3 under the root puts the root at level 4.  An
           earlier level cache memoized levels at first query and was never
           invalidated by [substitute], so after collapsing the chain
           mid-sweep it still reported 4 and depth-gated rules compared
           against a graph that no longer existed. *)
        let mig = Core.Mig.create () in
        let a = Core.Mig.add_pi mig and b = Core.Mig.add_pi mig in
        let c = Core.Mig.add_pi mig and d = Core.Mig.add_pi mig in
        let g1 = Core.Mig.maj mig a b c in
        let g2 = Core.Mig.maj mig g1 c d in
        let g3 = Core.Mig.maj mig g2 a d in
        let root = Core.Mig.maj mig g3 b d in
        ignore (Core.Mig.add_po mig root);
        let an = Core.Mig_analysis.of_mig mig in
        let rn = Core.Mig.node_of root in
        check int "root level before" 4
          (Core.Mig_analysis.level an rn);
        (* collapse the chain: root becomes M(a,b,d), level 1 *)
        Core.Mig.substitute mig (Core.Mig.node_of g3) a;
        check int "root level after substitute" 1
          (Core.Mig_analysis.level an rn);
        check (pair int int) "size and depth follow" (1, 1)
          (Core.Mig_passes.size_and_depth mig));
    test_case "maintained statistics equal from-scratch on a hand graph" `Quick
      (fun () ->
        let mig = full_adder_mig () in
        let an = Core.Mig_analysis.of_mig mig in
        Core.Mig_analysis.check an;
        let lv = Core.Mig_levels.compute_scratch mig in
        check int "size" (List.length lv.Core.Mig_levels.order)
          (Core.Mig_analysis.size an);
        check int "depth" lv.Core.Mig_levels.depth (Core.Mig_analysis.depth an));
  ]

let analysis_props =
  let nets =
    [|
      (fun () -> Funcgen.full_adder ());
      (fun () -> Funcgen.ripple_adder 4);
      (fun () -> Funcgen.multiplier 3);
      (fun () -> Funcgen.rd 5 3);
      (fun () -> Funcgen.parity 9);
      (fun () -> Funcgen.mux_tree 3);
      (fun () -> Funcgen.comparator 4);
    |]
  in
  let barrage mig seed =
    let rng = Prng.create seed in
    let an = Core.Mig_analysis.of_mig mig in
    for _ = 1 to 3 do
      Core.Mig.foreach_gate mig (fun g ->
          if not (Core.Mig.is_dead mig g) then
            ignore
              (match Prng.int rng 6 with
              | 0 -> Core.Mig_algebra.try_distributivity_rl mig g
              | 1 -> Core.Mig_algebra.try_distributivity_lr mig an g
              | 2 -> Core.Mig_algebra.try_associativity ~strict:false mig an g
              | 3 -> Core.Mig_algebra.try_compl_assoc mig an g
              | 4 -> Core.Mig_algebra.try_compl_prop mig g
              | _ -> Core.Mig_algebra.try_relevance mig an g))
    done
  in
  [
    QCheck.Test.make
      ~name:"incremental analysis equals from-scratch after rewrite storms"
      ~count:60
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig =
          Core.Mig_of_network.convert (nets.(seed mod Array.length nets) ())
        in
        let an = Core.Mig_analysis.of_mig mig in
        barrage mig (seed + 1);
        (* internal invariants: refcounts, buckets, queue discipline *)
        Core.Mig_analysis.check an;
        (* external agreement with the reference implementation *)
        let lv = Core.Mig_levels.compute_scratch mig in
        let depth_ok = Core.Mig_analysis.depth an = lv.Core.Mig_levels.depth in
        let size_ok =
          Core.Mig_analysis.size an = List.length lv.Core.Mig_levels.order
        in
        let levels_ok =
          List.for_all
            (fun g -> Core.Mig_analysis.level an g = lv.Core.Mig_levels.level.(g))
            lv.Core.Mig_levels.order
        in
        let buckets_ok =
          let ok = ref true in
          Array.iteri
            (fun l n -> if Core.Mig_analysis.gates_at_level an l <> n then ok := false)
            lv.Core.Mig_levels.gates_per_level;
          Array.iteri
            (fun l c ->
              let got =
                if l = lv.Core.Mig_levels.depth + 1 then Core.Mig_analysis.po_compl an
                else Core.Mig_analysis.compl_at_level an l
              in
              if got <> c then ok := false)
            lv.Core.Mig_levels.compl_per_level;
          !ok
        in
        let costs_ok =
          List.for_all
            (fun r ->
              Core.Rram_cost.of_mig r mig = Core.Rram_cost.of_levels r lv)
            [ Core.Rram_cost.Imp; Core.Rram_cost.Maj ]
        in
        depth_ok && size_ok && levels_ok && buckets_ok && costs_ok);
    QCheck.Test.make ~name:"analysis survives cleanup and re-attaches" ~count:40
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let mig = mig_of_seed seed in
        let _ = Core.Mig_analysis.of_mig mig in
        barrage mig (seed + 1);
        let compact = Core.Mig.cleanup mig in
        let an = Core.Mig_analysis.of_mig compact in
        Core.Mig_analysis.check an;
        Core.Mig_analysis.size an = Core.Mig.size compact);
  ]

(* ------------------------------------------------------------------ *)
(* Concurrent read-only traversals                                     *)
(* ------------------------------------------------------------------ *)

(* Traversals keep their visited set and stack per call, so domains may
   walk one shared graph at once.  Only [Mig] reads run here: the
   [Mig_analysis] queries repair levels lazily and are not read-only. *)
let traversal_props =
  let reads mig =
    (Core.Mig.topo_order mig, Core.Mig.size mig, Core.Mig.fingerprint (Core.Mig.cleanup mig))
  in
  [
    QCheck.Test.make ~name:"concurrent topo_order/size/cleanup match sequential" ~count:10
      (QCheck.make QCheck.Gen.(pair (int_bound 100000) (int_range 2 4)))
      (fun (seed, domains) ->
        let mig = mig_of_seed ~pis:12 ~gates:500 ~pos:16 seed in
        let want = reads mig in
        let ready = Atomic.make 0 in
        let worker () =
          Atomic.incr ready;
          while Atomic.get ready < domains do
            Domain.cpu_relax ()
          done;
          List.init 30 (fun _ -> reads mig)
        in
        let spawned = List.init domains (fun _ -> Domain.spawn worker) in
        List.for_all (List.for_all (( = ) want)) (List.map Domain.join spawned));
  ]

(* ------------------------------------------------------------------ *)
(* Rule kernels against their list-based reference                     *)
(* ------------------------------------------------------------------ *)

(* The rule bodies and sweep drivers as they were written before the
   kernels: tuple lists, closures and fanin arrays, one rule closure per
   sweep.  Every kernel must take the same decisions, build the same
   speculative gates and count the same attempts. *)
module Reference = struct
  module M = Core.Mig
  module A = Core.Mig_analysis

  let is_gate mig s = M.kind mig (M.node_of s) = M.Gate

  let single_use mig s =
    let n = M.node_of s in
    M.fanout_size mig n = 1 && M.po_refs mig n = 0

  let uses_at_most mig s k =
    let n = M.node_of s in
    M.fanout_size mig n + M.po_refs mig n <= k

  let virtual_fanins mig s =
    let n = M.node_of s and c = s land 1 in
    [| M.fanin mig n 0 lxor c; M.fanin mig n 1 lxor c; M.fanin mig n 2 lxor c |]

  let gate_edge_ok mig through_compl s = is_gate mig s && (through_compl || not (M.is_compl s))

  let others_in f u =
    match Array.to_list f |> List.filter (fun s -> s <> u) with
    | [ a; b ] -> Some (a, b)
    | _ -> None

  let shared_signals fa fb =
    Array.to_list fa |> List.filter (fun s -> Array.exists (fun x -> x = s) fb)

  let pairs_with_third f =
    [ (f.(0), f.(1), f.(2)); (f.(0), f.(2), f.(1)); (f.(1), f.(2), f.(0)) ]

  let triple mig g = (M.fanin mig g 0, M.fanin mig g 1, M.fanin mig g 2)

  let replace mig g root =
    if M.node_of root = g then false
    else begin
      M.substitute mig g root;
      true
    end

  let distributivity_rl mig g =
    let f0, f1, f2 = triple mig g in
    let attempt (p, q, r) =
      if is_gate mig p && is_gate mig q && single_use mig p && single_use mig q then
        let fp = virtual_fanins mig p and fq = virtual_fanins mig q in
        match shared_signals fp fq with
        | [ x; y ] ->
            let leftover fa = Array.to_list fa |> List.filter (fun s -> s <> x && s <> y) |> List.hd in
            let inner = M.maj mig (leftover fp) (leftover fq) r in
            if M.node_of inner = g then false else replace mig g (M.maj mig x y inner)
        | _ -> false
      else false
    in
    List.exists attempt [ (f0, f1, f2); (f0, f2, f1); (f1, f2, f0) ]

  let distributivity_lr ~through_compl ~fanout_limit mig an g =
    let lv s = A.level an (M.node_of s) in
    let root_level = A.level an g in
    let f0, f1, f2 = triple mig g in
    let attempt (p, x, y) =
      if gate_edge_ok mig through_compl p && uses_at_most mig p fanout_limit
         && 2 + max (lv x) (lv y) < root_level
      then
        List.exists
          (fun (u, v, z) ->
            let inner1 = 1 + max (lv x) (max (lv y) (lv u)) in
            let inner2 = 1 + max (lv x) (max (lv y) (lv v)) in
            if 1 + max (lv z) (max inner1 inner2) < root_level then begin
              let a = M.maj mig x y u in
              let b = M.maj mig x y v in
              if M.node_of a = g || M.node_of b = g then false else replace mig g (M.maj mig a b z)
            end
            else false)
          (pairs_with_third (virtual_fanins mig p))
      else false
    in
    List.exists attempt [ (f0, f1, f2); (f1, f0, f2); (f2, f0, f1) ]

  let associativity ~strict ~through_compl ~fanout_limit mig an g =
    let lv s = A.level an (M.node_of s) in
    let root_level = A.level an g in
    let accepts l = if strict then l < root_level else l <= root_level in
    let f0, f1, f2 = triple mig g in
    let attempt (p, a1, a2) =
      if gate_edge_ok mig through_compl p && uses_at_most mig p fanout_limit
         && accepts (2 + max (lv a1) (lv a2))
      then
        let fp = virtual_fanins mig p in
        List.exists
          (fun (u, x) ->
            Array.exists (fun s -> s = u) fp
            &&
            match others_in fp u with
            | Some (c1, c2) ->
                List.exists
                  (fun (z, y) ->
                    let new_inner = 1 + max (lv y) (max (lv u) (lv x)) in
                    let new_level = 1 + max (lv z) (max (lv u) new_inner) in
                    if accepts new_level && new_level <= root_level then begin
                      let inner = M.maj mig y u x in
                      if M.node_of inner = g then false else replace mig g (M.maj mig z u inner)
                    end
                    else false)
                  [ (c1, c2); (c2, c1) ]
            | None -> false)
          [ (a1, a2); (a2, a1) ]
      else false
    in
    List.exists attempt [ (f0, f1, f2); (f1, f0, f2); (f2, f0, f1) ]

  let compl_assoc ~require_gain ~through_compl ~fanout_limit mig an g =
    let lv s = A.level an (M.node_of s) in
    let root_level = A.level an g in
    let f0, f1, f2 = triple mig g in
    let attempt (p, a1, a2) =
      if gate_edge_ok mig through_compl p && uses_at_most mig p fanout_limit
         && ((not require_gain) || 2 + min (lv a1) (lv a2) <= root_level)
      then
        let fp = virtual_fanins mig p in
        List.exists
          (fun (u, x) ->
            Array.exists (fun s -> s = M.not_ u) fp
            &&
            match others_in fp (M.not_ u) with
            | Some (y, z) ->
                let new_inner = 1 + max (lv y) (max (lv x) (lv z)) in
                let new_level = 1 + max (lv x) (max (lv u) new_inner) in
                if (not require_gain) || new_level <= root_level then begin
                  let inner = M.maj mig y x z in
                  if M.node_of inner = g then false else replace mig g (M.maj mig x u inner)
                end
                else false
            | None -> false)
          [ (a1, a2); (a2, a1) ]
      else false
    in
    List.exists attempt [ (f0, f1, f2); (f1, f0, f2); (f2, f0, f1) ]

  let compl_fanins mig g =
    Array.fold_left
      (fun n s -> if M.is_compl s && M.node_of s <> 0 then n + 1 else n)
      0 (M.fanins mig g)

  let compl_prop ~min_compl mig g =
    compl_fanins mig g >= min_compl
    &&
    let f0, f1, f2 = triple mig g in
    let flipped = M.maj mig (M.not_ f0) (M.not_ f1) (M.not_ f2) in
    M.node_of flipped <> g
    && begin
         M.substitute mig g (M.not_ flipped);
         true
       end

  let relevance ?(max_cone = 64) mig an g =
    let f0, f1, f2 = triple mig g in
    let cone = Hashtbl.create 64 and cone_nodes = ref [] and too_big = ref false in
    let cone_for = ref (-1) in
    let collect_cone zn =
      if !cone_for <> zn then begin
        Hashtbl.reset cone;
        cone_nodes := [];
        too_big := false;
        cone_for := zn;
        let rec collect n =
          if (not !too_big) && (not (Hashtbl.mem cone n)) && M.kind mig n = M.Gate then
            if Hashtbl.length cone >= max_cone then too_big := true
            else begin
              Hashtbl.add cone n ();
              cone_nodes := n :: !cone_nodes;
              for i = 0 to 2 do
                collect (M.node_of (M.fanin mig n i))
              done
            end
        in
        collect zn
      end
    in
    let attempt (x, y, z) =
      let zn = M.node_of z in
      M.kind mig zn = M.Gate
      && begin
           collect_cone zn;
           let xn = M.node_of x in
           (not !too_big)
           && List.exists
                (fun n -> Array.exists (fun s -> M.node_of s = xn) (M.fanins mig n))
                !cone_nodes
           &&
           let memo = Hashtbl.create 64 and hit_root = ref false in
           let rec rebuild_node n =
             if n = xn then if M.is_compl x then y else M.not_ y
             else if not (Hashtbl.mem cone n) then M.signal_of n false
             else
               match Hashtbl.find_opt memo n with
               | Some s -> s
               | None ->
                   let app s = rebuild_node (M.node_of s) lxor (s land 1) in
                   let s =
                     M.maj mig (app (M.fanin mig n 0)) (app (M.fanin mig n 1)) (app (M.fanin mig n 2))
                   in
                   if M.node_of s = g then hit_root := true;
                   Hashtbl.add memo n s;
                   s
           in
           let z' = rebuild_node zn lxor (z land 1) in
           (not (!hit_root || z' = z || M.node_of z' = g))
           && A.level an (M.node_of z') <= A.level an (M.node_of z)
           && replace mig g (M.maj mig x y z')
         end
    in
    List.exists attempt
      [ (f0, f1, f2); (f1, f0, f2); (f0, f2, f1); (f2, f0, f1); (f1, f2, f0); (f2, f1, f0) ]

  (* ---- sweeps, counting into the same Obs counters ---- *)

  let counted name rule =
    let hit = Obs.counter ("mig.rule/" ^ name ^ ".hits")
    and miss = Obs.counter ("mig.rule/" ^ name ^ ".misses") in
    fun g ->
      let fired = rule g in
      Obs.incr (if fired then hit else miss);
      fired

  let sweep mig rule =
    let changed = ref false in
    List.iter
      (fun g -> if (not (M.is_dead mig g)) && rule g then changed := true)
      (M.topo_order mig);
    !changed

  let repeat ?(max_iters = 4) pass mig =
    let changed = ref false and go = ref true and iters = ref 0 in
    while !go && !iters < max_iters do
      incr iters;
      if pass mig then changed := true else go := false
    done;
    !changed

  let eliminate mig = repeat (fun m -> sweep m (counted "omega_d_rl" (distributivity_rl m))) mig

  let reshape ~seed mig =
    let rng = Prng.create seed and an = A.of_mig mig in
    let psi_c =
      counted "psi_c" (compl_assoc ~require_gain:true ~through_compl:false ~fanout_limit:1 mig an)
    and omega_a =
      counted "omega_a" (associativity ~strict:false ~through_compl:false ~fanout_limit:1 mig an)
    in
    sweep mig (fun g -> if Prng.bool rng then psi_c g else omega_a g)

  let push_up ~through_compl ~fanout_limit mig =
    let one m =
      let an = A.of_mig m in
      let d = counted "omega_d_lr" (distributivity_lr ~through_compl ~fanout_limit m an)
      and a = counted "omega_a" (associativity ~strict:true ~through_compl ~fanout_limit m an)
      and c =
        counted "psi_c" (compl_assoc ~require_gain:true ~through_compl ~fanout_limit m an)
      in
      sweep m (fun g -> d g || a g || c g)
    in
    repeat ~max_iters:2 one mig

  let balance mig =
    let an = A.of_mig mig in
    let a =
      sweep mig
        (counted "omega_a"
           (associativity ~strict:false ~through_compl:true ~fanout_limit:1 mig an))
    in
    let e = eliminate mig in
    a || e

  let relevance_sweep mig =
    let an = A.of_mig mig in
    sweep mig (counted "psi_r" (relevance mig an))

  let strash mig =
    let seen = Hashtbl.create 64 and merges = ref 0 in
    List.iter
      (fun g ->
        if not (M.is_dead mig g) then begin
          let key = (M.fanin mig g 0, M.fanin mig g 1, M.fanin mig g 2) in
          match Hashtbl.find_opt seen key with
          | None -> Hashtbl.replace seen key g
          | Some first ->
              if first <> g && not (M.is_dead mig first) then begin
                incr merges;
                M.substitute mig g (M.signal_of first false)
              end
        end)
      (M.topo_order mig);
    let dead_ids = M.num_nodes mig - 1 - M.num_pis mig - M.size mig in
    if !merges = 0 && dead_ids = 0 then (mig, false)
    else begin
      Obs.incr ~by:!merges (Obs.counter "mig.pass/strash.merges");
      Obs.incr ~by:dead_ids (Obs.counter "mig.pass/strash.compacted_ids");
      (M.cleanup mig, true)
    end

  let compl_prop_sweep ~min_compl weighted mig =
    let a = A.of_mig mig in
    let hit = Obs.counter "mig.rule/omega_i.hits" and miss = Obs.counter "mig.rule/omega_i.misses" in
    let changed = ref false in
    List.iter
      (fun g ->
        if (not (M.is_dead mig g)) && compl_fanins mig g >= min_compl then begin
          let accept =
            match weighted with
            | None -> true
            | Some realization ->
                let depth = A.depth a and lg = A.level a g in
                let compl_at l = if l = depth + 1 then A.po_compl a else A.compl_at_level a l in
                let deltas = Hashtbl.create 7 in
                let bump l d =
                  Hashtbl.replace deltas l (d + try Hashtbl.find deltas l with Not_found -> 0)
                in
                let sign s = if M.is_compl s then -1 else 1 in
                Array.iter (fun s -> if M.node_of s <> 0 then bump lg (sign s)) (M.fanins mig g);
                List.iter
                  (fun h ->
                    let lh = A.level a h in
                    Array.iter (fun s -> if M.node_of s = g then bump lh (sign s)) (M.fanins mig h))
                  (M.fanout mig g);
                Array.iter (fun s -> if M.node_of s = g then bump (depth + 1) (sign s)) (M.pos mig);
                let cost_of with_delta =
                  let k_r = Core.Rram_cost.rrams_per_gate realization
                  and k_s = Core.Rram_cost.steps_per_level realization in
                  let rrams = ref 0 and levels_with = ref 0 in
                  for i = 0 to depth + 1 do
                    let d = if with_delta then try Hashtbl.find deltas i with Not_found -> 0 else 0 in
                    let c = compl_at i + d in
                    let ni = if i <= depth then A.gates_at_level a i else 0 in
                    rrams := max !rrams ((k_r * ni) + c);
                    if c > 0 then incr levels_with
                  done;
                  { Core.Rram_cost.rrams = !rrams; steps = (k_s * depth) + !levels_with }
                in
                let before = cost_of false and after = cost_of true in
                Core.Rram_cost.weighted after < Core.Rram_cost.weighted before
                || after.Core.Rram_cost.steps = before.Core.Rram_cost.steps
                   && after.Core.Rram_cost.rrams <= before.Core.Rram_cost.rrams
                   && compl_at lg > 0
          in
          if accept && compl_prop ~min_compl mig g then begin
            Obs.incr hit;
            changed := true
          end
          else Obs.incr miss
        end)
      (M.topo_order mig);
    !changed

  (* [Mig_levels] as it was before it took its caller's order: a second
     [topo_order] per record and a fanin array per gate. *)
  let of_level_assignment mig level =
    let order = M.topo_order mig in
    let depth = Array.fold_left (fun acc s -> max acc level.(M.node_of s)) 0 (M.pos mig) in
    let gates_per_level = Array.make (depth + 2) 0 in
    let compl_per_level = Array.make (depth + 2) 0 in
    List.iter
      (fun g ->
        let l = level.(g) in
        gates_per_level.(l) <- gates_per_level.(l) + 1;
        Array.iter
          (fun s ->
            if M.is_compl s && M.node_of s <> 0 then
              compl_per_level.(l) <- compl_per_level.(l) + 1)
          (M.fanins mig g))
      order;
    Array.iter
      (fun s ->
        if M.is_compl s && M.node_of s <> 0 then
          compl_per_level.(depth + 1) <- compl_per_level.(depth + 1) + 1)
      (M.pos mig);
    { Core.Mig_levels.level; depth; gates_per_level; compl_per_level; order }

  let levels_scratch mig =
    let level = Array.make (M.num_nodes mig) 0 in
    List.iter
      (fun g ->
        let m = ref 0 in
        Array.iter (fun s -> m := max !m level.(M.node_of s)) (M.fanins mig g);
        level.(g) <- !m + 1)
      (M.topo_order mig);
    of_level_assignment mig level

  let levels mig =
    let a = A.of_mig mig in
    of_level_assignment mig
      (Array.init (M.num_nodes mig) (fun i -> if A.is_counted a i then A.level a i else 0))
end

(* Two identical random graphs, each with its analysis attached before a
   run of substitution cascades (which leave dead gates and detached
   regions behind).  Half the fanins come from the last few signals, so
   the graphs are deep and reconvergent and the rules find work. *)
let kernel_pair seed =
  let build () =
    let rng = Prng.create seed in
    let mig = Core.Mig.create () in
    let signals = ref [| Core.Mig.const0 |] in
    let add s = signals := Array.append !signals [| s |] in
    for _ = 1 to 3 + Prng.int rng 6 do
      add (Core.Mig.add_pi mig)
    done;
    let pick () =
      let k = Array.length !signals in
      let s =
        if Prng.bool rng then !signals.(k - 1 - Prng.int rng (min k 6)) else Prng.pick rng !signals
      in
      if Prng.bool rng then Core.Mig.not_ s else s
    in
    for _ = 1 to 20 + Prng.int rng 50 do
      if Prng.int rng 4 = 0 then begin
        (* M(M(x,y,u), M(x,y,v), r), where r may be M(x,y,w) too: work
           for Ω.D right-to-left, on one pair of fanins or on all three *)
        let x = pick () and y = pick () in
        let a = Core.Mig.maj mig x y (pick ()) and b = Core.Mig.maj mig x y (pick ()) in
        let r = if Prng.bool rng then Core.Mig.maj mig x y (pick ()) else pick () in
        add (Core.Mig.maj mig a b r)
      end
      else add (Core.Mig.maj mig (pick ()) (pick ()) (pick ()))
    done;
    for _ = 1 to 2 + Prng.int rng 4 do
      let k = Array.length !signals in
      ignore (Core.Mig.add_po mig !signals.(k - 1 - Prng.int rng (min k 4)))
    done;
    let an = Core.Mig_analysis.of_mig mig in
    substitute_cascades rng mig;
    (mig, an)
  in
  (build (), build ())

(* Call the reference and the kernel on every gate of the sweep-start
   topological order, in step; after each call both graphs must agree
   exactly and both analyses must be consistent.  The analyses are not
   checked once the graph carries [Mig.substitute]'s known defect (dead
   gates left reachable through a dead fanin or output), which the
   from-scratch recount in [Mig_analysis.check] does not model. *)
let rules_agree seed (reference, kernel) =
  let (ma, aa), (mb, ab) = kernel_pair seed in
  let kernel = kernel mb ab in
  List.for_all
    (fun g ->
      Core.Mig.is_dead ma g
      ||
      let ra = reference ma aa g and rb = kernel g in
      if Core.Mig_check.check ma = Ok () then begin
        Core.Mig_analysis.check aa;
        Core.Mig_analysis.check ab
      end;
      ra = rb
      && Core.Mig.num_nodes ma = Core.Mig.num_nodes mb
      && Core.Mig.fingerprint ma = Core.Mig.fingerprint mb)
    (Core.Mig.topo_order ma)

let limits = [ 1; 2; max_int ]
let bools = [ true; false ]

let rule_variants name variants =
  QCheck.Test.make ~name:(name ^ " matches the list reference") ~count:20
    (QCheck.make QCheck.Gen.(int_bound 100000))
    (fun seed -> List.for_all (rules_agree seed) variants)

let kernel_props =
  let module R = Reference in
  let module K = Core.Mig_algebra in
  let each f = List.concat_map (fun tc -> List.concat_map (fun l -> f tc l) limits) bools in
  [
    rule_variants "dist R->L" [ ((fun m _ g -> R.distributivity_rl m g), fun m _ -> K.try_distributivity_rl m) ];
    rule_variants "dist L->R"
      (each (fun tc l ->
           [
             ( (fun m an g -> R.distributivity_lr ~through_compl:tc ~fanout_limit:l m an g),
               fun m an -> K.try_distributivity_lr ~through_compl:tc ~fanout_limit:l m an );
           ]));
    rule_variants "assoc"
      (each (fun tc l ->
           List.map
             (fun strict ->
               ( (fun m an g -> R.associativity ~strict ~through_compl:tc ~fanout_limit:l m an g),
                 fun m an -> K.try_associativity ~strict ~through_compl:tc ~fanout_limit:l m an ))
             bools));
    rule_variants "compl assoc"
      (each (fun tc l ->
           List.map
             (fun rg ->
               ( (fun m an g -> R.compl_assoc ~require_gain:rg ~through_compl:tc ~fanout_limit:l m an g),
                 fun m an -> K.try_compl_assoc ~require_gain:rg ~through_compl:tc ~fanout_limit:l m an ))
             bools));
    rule_variants "relevance"
      (List.map
         (fun max_cone ->
           ((fun m an g -> R.relevance ~max_cone m an g), fun m an -> K.try_relevance ~max_cone m an))
         [ 64; 4; 1 ]);
    rule_variants "compl prop"
      (List.map
         (fun min_compl ->
           ((fun m _ g -> R.compl_prop ~min_compl m g), fun m _ -> K.try_compl_prop ~min_compl m))
         [ 2; 3 ]);
    QCheck.Test.make ~name:"sweeps count like the reference" ~count:25
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let sweeps =
          [
            (R.eliminate, Core.Mig_passes.eliminate);
            (R.reshape ~seed:7, Core.Mig_passes.reshape ~seed:7);
            ( R.push_up ~through_compl:true ~fanout_limit:max_int,
              fun m -> Core.Mig_passes.push_up m );
            ( R.push_up ~through_compl:false ~fanout_limit:max_int,
              fun m -> Core.Mig_passes.push_up ~through_compl:false m );
            (R.push_up ~through_compl:true ~fanout_limit:2, fun m -> Core.Mig_passes.push_up ~fanout_limit:2 m);
            (R.balance, Core.Mig_passes.balance);
            (R.relevance_sweep, Core.Mig_passes.relevance);
            ( R.compl_prop_sweep ~min_compl:2 None,
              fun m -> Core.Mig_passes.compl_prop Core.Mig_passes.Always m );
            ( R.compl_prop_sweep ~min_compl:2 (Some Core.Rram_cost.Imp),
              fun m -> Core.Mig_passes.compl_prop (Core.Mig_passes.Weighted Core.Rram_cost.Imp) m );
            ( R.compl_prop_sweep ~min_compl:3 (Some Core.Rram_cost.Maj),
              Core.Mig_passes.compl_prop ~min_compl:3 (Core.Mig_passes.Weighted Core.Rram_cost.Maj) );
          ]
        in
        let counts run mig =
          Obs.reset ();
          let changed = run mig in
          (changed, List.filter (fun (n, _) -> String.length n > 4 && String.sub n 0 4 = "mig.") (Obs.counters ()))
        in
        Fun.protect ~finally:(fun () -> Obs.reset (); Obs.set_enabled false) @@ fun () ->
        Obs.set_enabled true;
        List.for_all
          (fun (reference, kernel) ->
            let (ma, _), (mb, _) = kernel_pair seed in
            let want = counts reference ma and got = counts kernel mb in
            want = got && Core.Mig.fingerprint ma = Core.Mig.fingerprint mb)
          sweeps);
    QCheck.Test.make ~name:"level records equal the reference" ~count:100
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let (ma, _), _ = kernel_pair seed in
        List.for_all
          (fun mig ->
            Core.Mig_levels.compute_scratch mig = R.levels_scratch mig
            && Core.Mig_levels.compute mig = R.levels mig)
          [ ma; mig_of_seed ~pis:(1 + (seed mod 8)) ~gates:(seed mod 120) seed ]);
    (* Cascades can leave dead gates reachable (the known defect of
       [Mig.substitute]); strash's reachable count includes them. *)
    QCheck.Test.make ~name:"strash counts like the reference" ~count:150
      (QCheck.make QCheck.Gen.(int_bound 100000))
      (fun seed ->
        let run strash mig =
          Obs.reset ();
          let out, changed = strash mig in
          (changed, Core.Mig.fingerprint out, Obs.counters ())
        in
        Fun.protect ~finally:(fun () -> Obs.reset (); Obs.set_enabled false) @@ fun () ->
        Obs.set_enabled true;
        List.for_all
          (fun prepare ->
            let (ma, _), (mb, _) = kernel_pair seed in
            prepare ma;
            prepare mb;
            run R.strash ma = run Core.Mig_passes.strash mb)
          [ ignore; (fun m -> ignore (Core.Mig_passes.eliminate m)) ]);
  ]

let () =
  Alcotest.run "mig"
    [
      ("store", store_tests);
      ("levels-cost", level_tests);
      ("analysis", analysis_tests);
      ("analysis-props", List.map QCheck_alcotest.to_alcotest analysis_props);
      ("algebra-props", List.map QCheck_alcotest.to_alcotest algebra_props);
      ("pass-props", List.map QCheck_alcotest.to_alcotest pass_props);
      ("strash", strash_tests);
      ("strash-props", List.map QCheck_alcotest.to_alcotest strash_props);
      ("store-props", List.map QCheck_alcotest.to_alcotest node_store_props);
      ("optimizer-props", List.map QCheck_alcotest.to_alcotest optimizer_props);
      ("optimizers", optimizer_tests);
      ("conversion", conversion_tests);
      ("equiv", equiv_tests);
      ("sim-props", List.map QCheck_alcotest.to_alcotest mig_sim_props);
      ("equiv-props", List.map QCheck_alcotest.to_alcotest equiv_props);
      ("integrity-props", List.map QCheck_alcotest.to_alcotest integrity_props);
      ("traversal-props", List.map QCheck_alcotest.to_alcotest traversal_props);
      ("kernel-props", List.map QCheck_alcotest.to_alcotest kernel_props);
    ]
