type t = {
  level : int array;
  depth : int;
  gates_per_level : int array;
  compl_per_level : int array;
  order : int list;
}

(* [order] is the topological order the caller walked to assign [level]. *)
let of_level_assignment mig level order =
  let depth =
    Array.fold_left (fun acc s -> max acc level.(Mig.node_of s)) 0 (Mig.pos mig)
  in
  let gates_per_level = Array.make (depth + 2) 0 in
  let compl_per_level = Array.make (depth + 2) 0 in
  List.iter
    (fun g ->
      let l = level.(g) in
      gates_per_level.(l) <- gates_per_level.(l) + 1;
      for i = 0 to 2 do
        let s = Mig.fanin mig g i in
        if Mig.is_compl s && Mig.node_of s <> 0 then
          compl_per_level.(l) <- compl_per_level.(l) + 1
      done)
    order;
  (* Virtual readout stage for complemented primary outputs. *)
  Array.iter
    (fun s ->
      if Mig.is_compl s && Mig.node_of s <> 0 then
        compl_per_level.(depth + 1) <- compl_per_level.(depth + 1) + 1)
    (Mig.pos mig);
  { level; depth; gates_per_level; compl_per_level; order }

let compute_scratch mig =
  let level = Array.make (Mig.num_nodes mig) 0 in
  let order = Mig.topo_order mig in
  List.iter
    (fun g ->
      let m = ref 0 in
      for i = 0 to 2 do
        m := max !m level.(Mig.node_of (Mig.fanin mig g i))
      done;
      level.(g) <- !m + 1)
    order;
  of_level_assignment mig level order

let compute mig =
  let a = Mig_analysis.of_mig mig in
  let n = Mig.num_nodes mig in
  let level =
    Array.init n (fun i ->
        if Mig_analysis.is_counted a i then Mig_analysis.level a i else 0)
  in
  of_level_assignment mig level (Mig.topo_order mig)

let num_levels_with_compl t =
  let count = ref 0 in
  Array.iter (fun c -> if c > 0 then incr count) t.compl_per_level;
  !count

let pp ppf t =
  Format.fprintf ppf "depth=%d levels_with_compl=%d" t.depth (num_levels_with_compl t)
