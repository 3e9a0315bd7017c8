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
    ]
