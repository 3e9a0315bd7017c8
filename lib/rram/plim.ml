let compile mig =
  let num_inputs = Core.Mig.num_pis mig in
  let rev_steps = ref [] in
  let emit p q z = rev_steps := [ Isa.Maj_pulse { p; q; dst = z } ] :: !rev_steps in
  let cells = Program.Alloc.create () in
  (* Freed cells hold stale data and must be re-zeroed (one RM3) on reuse;
     fresh cells start at 0 for free. *)
  let zero_cell () =
    let fresh = Program.Alloc.peak cells in
    let c = Program.Alloc.get cells in
    if c < fresh then emit (Isa.Const false) (Isa.Const true) c;
    c
  in
  let release c = Program.Alloc.free cells c in
  (* input cells *)
  let input_cells = Array.init num_inputs (fun _ -> Program.Alloc.get cells) in
  let cell_of_node = Hashtbl.create 997 in
  for i = 0 to num_inputs - 1 do
    Hashtbl.replace cell_of_node (Core.Mig.node_of (Core.Mig.pi mig i)) input_cells.(i)
  done;
  let cell n = Isa.Reg (Hashtbl.find cell_of_node n) in
  (* reference counts pin operand cells until their last use *)
  let refcount = Hashtbl.create 997 in
  let bump n =
    if n <> 0 then
      Hashtbl.replace refcount n (1 + try Hashtbl.find refcount n with Not_found -> 0)
  in
  let order = Core.Mig.topo_order mig in
  List.iter
    (fun g -> Array.iter (fun s -> bump (Core.Mig.node_of s)) (Core.Mig.fanins mig g))
    order;
  Array.iter (fun s -> bump (Core.Mig.node_of s)) (Core.Mig.pos mig);
  let is_const s = Core.Mig.node_of s = 0 in
  (* Negate a non-const signal source into a fresh zero cell: t = M(1,¬v,0). *)
  let negation_of n =
    let t = zero_cell () in
    emit (Isa.Const true) (cell n) t;
    t
  in
  List.iter
    (fun g ->
      let f = Core.Mig.fanins mig g in
      let sigs = [ f.(0); f.(1); f.(2) ] in
      (* account for this gate's uses up front *)
      List.iter
        (fun s ->
          let n = Core.Mig.node_of s in
          if n <> 0 then Hashtbl.replace refcount n (Hashtbl.find refcount n - 1))
        sigs;
      (* q slot: a complemented non-const fanin is free there *)
      let q_sig, rest =
        match List.partition (fun s -> Core.Mig.is_compl s && not (is_const s)) sigs with
        | q :: extra, plain -> (q, extra @ plain)
        | [], s :: plain -> (s, plain)
        | [], [] -> assert false
      in
      let s1, s2 = match rest with [ a; b ] -> (a, b) | _ -> assert false in
      (* z slot: prefer destroying a dead plain operand's cell in place *)
      let destructible s =
        (not (Core.Mig.is_compl s))
        && (not (is_const s))
        && Hashtbl.find refcount (Core.Mig.node_of s) = 0
      in
      let z_sig, p_sig =
        if destructible s1 then (s1, s2)
        else if destructible s2 then (s2, s1)
        else if Core.Mig.is_compl s1 && not (is_const s1) then (s1, s2)
        else if Core.Mig.is_compl s2 && not (is_const s2) then (s2, s1)
        else (s1, s2)
      in
      (* materialize z: a cell holding z_sig's value that we may overwrite *)
      let temps = ref [] in
      let z_cell =
        if destructible z_sig then Hashtbl.find cell_of_node (Core.Mig.node_of z_sig)
        else if is_const z_sig then begin
          let t = zero_cell () in
          (* signal 1 is constant true *)
          if Core.Mig.is_compl z_sig then emit (Isa.Const true) (Isa.Const false) t;
          t
        end
        else if Core.Mig.is_compl z_sig then negation_of (Core.Mig.node_of z_sig)
        else begin
          let t = zero_cell () in
          emit (cell (Core.Mig.node_of z_sig)) (Isa.Const false) t;
          t
        end
      in
      (* p operand: must carry p_sig's value *)
      let p_op =
        if is_const p_sig then Isa.Const (Core.Mig.is_compl p_sig)
        else if Core.Mig.is_compl p_sig then begin
          let t = negation_of (Core.Mig.node_of p_sig) in
          temps := t :: !temps;
          Isa.Reg t
        end
        else cell (Core.Mig.node_of p_sig)
      in
      (* q operand: its readout is negated by RM3 *)
      let q_op =
        if is_const q_sig then Isa.Const (not (Core.Mig.is_compl q_sig))
        else if Core.Mig.is_compl q_sig then cell (Core.Mig.node_of q_sig)
        else begin
          let t = negation_of (Core.Mig.node_of q_sig) in
          temps := t :: !temps;
          Isa.Reg t
        end
      in
      emit p_op q_op z_cell;
      Hashtbl.replace cell_of_node g z_cell;
      List.iter release !temps;
      (* release operand cells whose last use has passed (the destroyed one
         now belongs to g) *)
      List.iter
        (fun s ->
          let n = Core.Mig.node_of s in
          if
            n <> 0
            && Core.Mig.kind mig n = Core.Mig.Gate
            && Hashtbl.find refcount n = 0
            && Hashtbl.find cell_of_node n <> z_cell
          then release (Hashtbl.find cell_of_node n))
        sigs)
    order;
  (* outputs *)
  let memo = Hashtbl.create 17 in
  let outputs =
    Array.map
      (fun s ->
        match Hashtbl.find_opt memo s with
        | Some o -> o
        | None ->
            let o =
              if is_const s then Isa.Const (Core.Mig.is_compl s)
              else if Core.Mig.is_compl s then Isa.Reg (negation_of (Core.Mig.node_of s))
              else cell (Core.Mig.node_of s)
            in
            Hashtbl.replace memo s o;
            o)
      (Core.Mig.pos mig)
  in
  let load = List.init num_inputs (fun i -> Isa.Load (input_cells.(i), Isa.Input i)) in
  {
    Program.num_inputs;
    num_regs = Program.Alloc.peak cells;
    steps = (if load = [] then [] else [ load ]) @ List.rev !rev_steps;
    outputs;
  }

let rm3_count program =
  List.fold_left
    (List.fold_left (fun n -> function Isa.Maj_pulse _ -> n + 1 | _ -> n))
    0 program.Program.steps
