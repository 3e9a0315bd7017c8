let is_gate mig s = Mig.kind mig (Mig.node_of s) = Mig.Gate

let single_use mig s =
  let n = Mig.node_of s in
  Mig.fanout_size mig n = 1 && Mig.po_refs mig n = 0

(* Total uses (gate fanouts + primary outputs) bounded by [k]: rewriting
   through a gate duplicates it for its other users, so passes bound the
   damage with a fanout limit. *)
let uses_at_most mig s k =
  let n = Mig.node_of s in
  Mig.fanout_size mig n + Mig.po_refs mig n <= k

(* Fanins of a gate signal as seen through its polarity: by Ω.I,
   ¬M(u,v,z) = M(¬u,¬v,¬z), so a complemented gate edge exposes the
   complemented fanin triple.  Rewriting through these "virtual" fanins lets
   the structural rules (Ω.A, Ω.D, Ψ.C) cross complemented edges, which is
   essential on XOR-rich logic. *)
let virtual_fanins mig s =
  let n = Mig.node_of s and c = s land 1 in
  [| Mig.fanin mig n 0 lxor c; Mig.fanin mig n 1 lxor c; Mig.fanin mig n 2 lxor c |]

(* Whether a rule may look through a (possibly complemented) gate edge.
   The conventional algorithms (Algs. 1–2) have no Ω.I in their listings, so
   their rewrites stop at complemented edges; the complement-aware
   algorithms (Algs. 3–4) cross them — equivalent to flipping with Ω.I
   right-to-left first and rewriting after. *)
let gate_edge_ok mig through_compl s =
  is_gate mig s && (through_compl || not (Mig.is_compl s))

(* The two signals of a fanin triple other than [u]; fails if [u] absent. *)
let others_in f u =
  let rest = Array.to_list f |> List.filter (fun s -> s <> u) in
  match rest with [ a; b ] -> Some (a, b) | _ -> None

(* Shared signals between two sorted fanin triples. *)
let shared_signals fa fb =
  Array.to_list fa |> List.filter (fun s -> Array.exists (fun x -> x = s) fb)

let pairs_with_third f =
  [ (f.(0), f.(1), f.(2)); (f.(0), f.(2), f.(1)); (f.(1), f.(2), f.(0)) ]

(* The fanin triple of gate [g], read without copying it. *)
let[@inline] triple mig g = (Mig.fanin mig g 0, Mig.fanin mig g 1, Mig.fanin mig g 2)

(* Ω.D right-to-left: M(M(x,y,u), M(x,y,v), r) → M(x, y, M(u,v,r)). *)
let try_distributivity_rl mig g =
  let f0, f1, f2 = triple mig g in
  let attempt (p, q, r) =
    if is_gate mig p && is_gate mig q && single_use mig p && single_use mig q then begin
      let fp = virtual_fanins mig p and fq = virtual_fanins mig q in
      match shared_signals fp fq with
      | [ x; y ] ->
          let leftover fa =
            Array.to_list fa |> List.filter (fun s -> s <> x && s <> y) |> List.hd
          in
          let u = leftover fp and v = leftover fq in
          let inner = Mig.maj mig u v r in
          if Mig.node_of inner = g then false
          else begin
            let root = Mig.maj mig x y inner in
            if Mig.node_of root = g then false
            else begin
              Mig.substitute mig g root;
              true
            end
          end
      | _ -> false
    end
    else false
  in
  List.exists attempt [ (f0, f1, f2); (f0, f2, f1); (f1, f2, f0) ]

(* Ω.D left-to-right: M(x, y, M(u,v,z)) → M(M(x,y,u), M(x,y,v), z); apply
   when the root level strictly drops (z is on the critical path). *)
let try_distributivity_lr ?(through_compl = true) ?(fanout_limit = max_int) mig an g =
  let lv s = Mig_analysis.level an (Mig.node_of s) in
  let root_level = Mig_analysis.level an g in
  let f0, f1, f2 = triple mig g in
  let attempt (p, x, y) =
    (* prefilter: inner1 alone puts new_level at least 2 + max(lv x, lv y) *)
    if gate_edge_ok mig through_compl p && uses_at_most mig p fanout_limit
       && 2 + max (lv x) (lv y) < root_level
    then begin
      let fp = virtual_fanins mig p in
      let choices = pairs_with_third fp in
      List.exists
        (fun (u, v, z) ->
          let inner1 = 1 + max (lv x) (max (lv y) (lv u)) in
          let inner2 = 1 + max (lv x) (max (lv y) (lv v)) in
          let new_level = 1 + max (lv z) (max inner1 inner2) in
          if new_level < root_level then begin
            let a = Mig.maj mig x y u in
            let b = Mig.maj mig x y v in
            if Mig.node_of a = g || Mig.node_of b = g then false
            else begin
              let root = Mig.maj mig a b z in
              if Mig.node_of root = g then false
              else begin
                Mig.substitute mig g root;
                true
              end
            end
          end
          else false)
        choices
    end
    else false
  in
  (* positions: each fanin may play the inner-gate role *)
  List.exists attempt
    [ (f0, f1, f2); (f1, f0, f2); (f2, f0, f1) ]

(* Ω.A: M(x, u, M(y,u,z)) → M(z, u, M(y,u,x)); swap the deep inner operand
   with the shallow outer one.  With [strict] (the default) the root level
   must strictly drop; reshaping passes use [strict:false] to accept
   level-preserving swaps that expose new elimination opportunities. *)
let try_associativity ?(strict = true) ?(through_compl = true) ?(fanout_limit = max_int) mig an g =
  let lv s = Mig_analysis.level an (Mig.node_of s) in
  let root_level = Mig_analysis.level an g in
  let accepts new_level =
    if strict then new_level < root_level else new_level <= root_level
  in
  let f0, f1, f2 = triple mig g in
  let attempt (p, a1, a2) =
    (* prefilter: {u, x} = {a1, a2} feed new_inner, so new_level is at
       least 2 + max(lv a1, lv a2), and [accepts] is monotone *)
    if gate_edge_ok mig through_compl p && uses_at_most mig p fanout_limit
       && accepts (2 + max (lv a1) (lv a2))
    then begin
      let fp = virtual_fanins mig p in
      (* u must be shared between the root and the inner gate *)
      List.exists
        (fun (u, x) ->
          if Array.exists (fun s -> s = u) fp then begin
            match others_in fp u with
            | Some (c1, c2) ->
                List.exists
                  (fun (z, y) ->
                    let new_inner = 1 + max (lv y) (max (lv u) (lv x)) in
                    let new_level = 1 + max (lv z) (max (lv u) new_inner) in
                    if accepts new_level && new_level <= root_level then begin
                      let inner = Mig.maj mig y u x in
                      if Mig.node_of inner = g then false
                      else begin
                        let root = Mig.maj mig z u inner in
                        if Mig.node_of root = g then false
                        else begin
                          Mig.substitute mig g root;
                          true
                        end
                      end
                    end
                    else false)
                  [ (c1, c2); (c2, c1) ]
            | None -> false
          end
          else false)
        [ (a1, a2); (a2, a1) ]
    end
    else false
  in
  List.exists attempt
    [ (f0, f1, f2); (f1, f0, f2); (f2, f0, f1) ]

(* Ψ.C: M(x, u, M(y,¬u,z)) → M(x, u, M(y,x,z)). *)
let try_compl_assoc ?(require_gain = true) ?(through_compl = true) ?(fanout_limit = max_int) mig an g =
  let lv s = Mig_analysis.level an (Mig.node_of s) in
  let root_level = Mig_analysis.level an g in
  let f0, f1, f2 = triple mig g in
  let attempt (p, a1, a2) =
    (* prefilter: x is a1 or a2 and feeds new_inner, so with a level
       requirement new_level is at least 2 + min(lv a1, lv a2) *)
    if gate_edge_ok mig through_compl p && uses_at_most mig p fanout_limit
       && ((not require_gain) || 2 + min (lv a1) (lv a2) <= root_level)
    then begin
      let fp = virtual_fanins mig p in
      List.exists
        (fun (u, x) ->
          if not (Array.exists (fun s -> s = Mig.not_ u) fp) then false
          else
            match others_in fp (Mig.not_ u) with
            | Some (y, z) ->
                let new_inner = 1 + max (lv y) (max (lv x) (lv z)) in
                let new_level = 1 + max (lv x) (max (lv u) new_inner) in
                if (not require_gain) || new_level <= root_level then begin
                  let inner = Mig.maj mig y x z in
                  if Mig.node_of inner = g then false
                  else begin
                    let root = Mig.maj mig x u inner in
                    if Mig.node_of root = g then false
                    else begin
                      Mig.substitute mig g root;
                      true
                    end
                  end
                end
                else false
            | None -> false)
        [ (a1, a2); (a2, a1) ]
    end
    else false
  in
  List.exists attempt
    [ (f0, f1, f2); (f1, f0, f2); (f2, f0, f1) ]

let compl_fanins mig g =
  let count = ref 0 in
  for i = 0 to 2 do
    let s = Mig.fanin mig g i in
    if Mig.is_compl s && Mig.node_of s <> 0 then incr count
  done;
  !count

(* Ω.I right-to-left (extension of §III-C.3): flip all fanin polarities and
   complement the node's output everywhere. *)
let try_compl_prop ?(min_compl = 2) mig g =
  if compl_fanins mig g >= min_compl then begin
    let f0, f1, f2 = triple mig g in
    let flipped = Mig.maj mig (Mig.not_ f0) (Mig.not_ f1) (Mig.not_ f2) in
    if Mig.node_of flipped = g then false
    else begin
      Mig.substitute mig g (Mig.not_ flipped);
      true
    end
  end
  else false

(* Ψ.R: M(x,y,z) = M(x, y, z[x ↦ ¬y]). *)
let try_relevance ?(max_cone = 64) mig an g =
  let f0, f1, f2 = triple mig g in
  (* Bounded cone of z: gates only, stop at PIs/constants.  Collection is
     pure and failed attempts only append speculative (unreferenced) nodes,
     so the cone is shared between the attempt orderings with the same [z]. *)
  let cone = Hashtbl.create 64 in
  let cone_nodes = ref [] in
  let too_big = ref false in
  let cone_for = ref (-1) in
  let collect_cone zn =
    if !cone_for <> zn then begin
      Hashtbl.reset cone;
      cone_nodes := [];
      too_big := false;
      cone_for := zn;
      let rec collect n =
        if (not !too_big) && (not (Hashtbl.mem cone n)) && Mig.kind mig n = Mig.Gate
        then begin
          if Hashtbl.length cone >= max_cone then too_big := true
          else begin
            Hashtbl.add cone n ();
            cone_nodes := n :: !cone_nodes;
            for i = 0 to 2 do
              collect (Mig.node_of (Mig.fanin mig n i))
            done
          end
        end
      in
      collect zn
    end
  in
  let attempt (x, y, z) =
    let zn = Mig.node_of z in
    if Mig.kind mig zn <> Mig.Gate then false
    else begin
      collect_cone zn;
      let xn = Mig.node_of x in
      let occurs =
        (not !too_big)
        && List.exists
             (fun n ->
               Mig.node_of (Mig.fanin mig n 0) = xn
               || Mig.node_of (Mig.fanin mig n 1) = xn
               || Mig.node_of (Mig.fanin mig n 2) = xn)
             !cone_nodes
      in
      if not occurs then false
      else begin
        let memo = Hashtbl.create 64 in
        let hit_root = ref false in
        (* rebuild_node n = signal equivalent to the positive polarity of n
           with every occurrence of signal [x] replaced by ¬y. *)
        let rec rebuild_node n =
          if n = xn then if Mig.is_compl x then y else Mig.not_ y
          else if not (Hashtbl.mem cone n) then Mig.signal_of n false
          else
            match Hashtbl.find_opt memo n with
            | Some s -> s
            | None ->
                let app s = rebuild_node (Mig.node_of s) lxor (s land 1) in
                let s =
                  Mig.maj mig (app (Mig.fanin mig n 0)) (app (Mig.fanin mig n 1))
                    (app (Mig.fanin mig n 2))
                in
                if Mig.node_of s = g then hit_root := true;
                Hashtbl.add memo n s;
                s
        in
        let z' = rebuild_node zn lxor (z land 1) in
        if !hit_root || z' = z || Mig.node_of z' = g then false
        else if Mig_analysis.level an (Mig.node_of z') > Mig_analysis.level an (Mig.node_of z) then false
        else begin
          let root = Mig.maj mig x y z' in
          if Mig.node_of root = g then false
          else begin
            Mig.substitute mig g root;
            true
          end
        end
      end
    end
  in
  List.exists attempt
    [
      (f0, f1, f2); (f1, f0, f2);
      (f0, f2, f1); (f2, f0, f1);
      (f1, f2, f0); (f2, f1, f0);
    ]
