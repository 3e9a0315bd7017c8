let balance aig =
  let fresh = Aig.create () in
  let pis = Array.init (Aig.num_pis aig) (fun _ -> Aig.add_pi fresh) in
  (* [memo] maps a source AND node to its rebuilt signal (-1: not yet);
     [levels] holds the level of each fresh AND node, 0 for the rest, and
     grows with [fresh]. *)
  let memo = Array.make (Core.Mig.num_nodes (Aig.to_mig aig)) (-1) in
  let levels = ref (Array.make 64 0) in
  let level_of s =
    let n = Aig.node_of s in
    if n < Array.length !levels then !levels.(n) else 0
  in
  let set_level n l =
    if n >= Array.length !levels then begin
      let bigger = Array.make (max (n + 1) (2 * Array.length !levels)) 0 in
      Array.blit !levels 0 bigger 0 (Array.length !levels);
      levels := bigger
    end;
    !levels.(n) <- l
  in
  (* Collect the leaves of the maximal AND tree rooted at node [n],
     descending only through positive AND edges. *)
  let rec leaves_of n acc =
    let f0, f1 = Aig.fanins aig n in
    let descend s acc =
      if (not (Aig.is_compl s)) && Aig.kind aig (Aig.node_of s) = Aig.And then
        leaves_of (Aig.node_of s) acc
      else s :: acc
    in
    descend f0 (descend f1 acc)
  in
  let rec rebuild_signal s =
    let n = Aig.node_of s in
    let positive =
      match Aig.kind aig n with
      | Aig.Const -> Aig.const0
      | Aig.Pi k -> pis.(k)
      | Aig.And when memo.(n) >= 0 -> memo.(n)
      | Aig.And ->
          let leaves = leaves_of n [] in
          let mapped = List.map rebuild_signal leaves in
          (* Huffman-style combine: always join the two shallowest. *)
          let sorted =
            List.sort (fun a b -> compare (level_of a) (level_of b)) mapped
          in
          let rec combine = function
            | [] -> Aig.const1
            | [ x ] -> x
            | x :: y :: rest ->
                let z = Aig.and_ fresh x y in
                if Aig.kind fresh (Aig.node_of z) = Aig.And then
                  set_level (Aig.node_of z) (1 + max (level_of x) (level_of y));
                (* keep the list sorted by level *)
                let rec insert v = function
                  | [] -> [ v ]
                  | w :: ws when level_of w < level_of v -> w :: insert v ws
                  | ws -> v :: ws
                in
                combine (insert z rest)
          in
          let r = combine sorted in
          memo.(n) <- r;
          r
    in
    if Aig.is_compl s then Aig.not_ positive else positive
  in
  Array.iter (fun s -> ignore (Aig.add_po fresh (rebuild_signal s))) (Aig.pos aig);
  fresh
