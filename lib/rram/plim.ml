type operand = Imm of bool | Cell of int

type instr = { p : operand; q : operand; z : int }

type program = {
  cells : int;
  num_inputs : int;
  input_cells : int array;
  instrs : instr list;
  outputs : operand array;
}

type compiled = {
  program : program;
  instructions : int;
  cells_used : int;
  rm3_per_gate : float;
}

let compile mig =
  let instrs = ref [] in
  let count = ref 0 in
  let emit i =
    instrs := i :: !instrs;
    incr count
  in
  let next_cell = ref 0 in
  let fresh () =
    let c = !next_cell in
    incr next_cell;
    c
  in
  (* Freed cells hold stale data and must be re-zeroed (one RM3) on reuse;
     fresh cells start at 0 for free. *)
  let free_list = ref [] in
  let zero_cell () =
    match !free_list with
    | c :: rest ->
        free_list := rest;
        emit { p = Imm false; q = Imm true; z = c };
        c
    | [] -> fresh ()
  in
  let release c = free_list := c :: !free_list in
  (* input cells *)
  let input_cells = Array.init (Core.Mig.num_pis mig) (fun _ -> fresh ()) in
  let cell_of_node = Hashtbl.create 997 in
  for i = 0 to Core.Mig.num_pis mig - 1 do
    Hashtbl.replace cell_of_node (Core.Mig.node_of (Core.Mig.pi mig i)) input_cells.(i)
  done;
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
    emit { p = Imm true; q = Cell (Hashtbl.find cell_of_node n); z = t };
    t
  in
  let gates = List.length order in
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
          if Core.Mig.is_compl z_sig then emit { p = Imm true; q = Imm false; z = t };
          t
        end
        else if Core.Mig.is_compl z_sig then negation_of (Core.Mig.node_of z_sig)
        else begin
          let t = zero_cell () in
          emit { p = Cell (Hashtbl.find cell_of_node (Core.Mig.node_of z_sig)); q = Imm false; z = t };
          t
        end
      in
      (* p operand: must carry p_sig's value *)
      let p_op =
        if is_const p_sig then Imm (Core.Mig.is_compl p_sig)
        else if Core.Mig.is_compl p_sig then begin
          let t = negation_of (Core.Mig.node_of p_sig) in
          temps := t :: !temps;
          Cell t
        end
        else Cell (Hashtbl.find cell_of_node (Core.Mig.node_of p_sig))
      in
      (* q operand: its readout is negated by RM3 *)
      let q_op =
        if is_const q_sig then Imm (not (Core.Mig.is_compl q_sig))
        else if Core.Mig.is_compl q_sig then Cell (Hashtbl.find cell_of_node (Core.Mig.node_of q_sig))
        else begin
          let t = negation_of (Core.Mig.node_of q_sig) in
          temps := t :: !temps;
          Cell t
        end
      in
      emit { p = p_op; q = q_op; z = z_cell };
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
              if is_const s then Imm (Core.Mig.is_compl s)
              else if Core.Mig.is_compl s then Cell (negation_of (Core.Mig.node_of s))
              else Cell (Hashtbl.find cell_of_node (Core.Mig.node_of s))
            in
            Hashtbl.replace memo s o;
            o)
      (Core.Mig.pos mig)
  in
  let program =
    {
      cells = !next_cell;
      num_inputs = Core.Mig.num_pis mig;
      input_cells;
      instrs = List.rev !instrs;
      outputs;
    }
  in
  {
    program;
    instructions = !count;
    cells_used = !next_cell;
    rm3_per_gate = (if gates = 0 then 0.0 else float_of_int !count /. float_of_int gates);
  }

let run ?(defects = []) program inputs =
  if Array.length inputs <> program.num_inputs then invalid_arg "Plim.run: input count";
  match defects with
  | [] ->
      (* ideal fast path: plain boolean memory *)
      let mem = Array.make (max 1 program.cells) false in
      Array.iteri (fun i c -> mem.(c) <- inputs.(i)) program.input_cells;
      let value = function Imm b -> b | Cell c -> mem.(c) in
      List.iter
        (fun { p; q; z } ->
          let pv = value p and nqv = not (value q) and zv = mem.(z) in
          mem.(z) <- (pv && nqv) || (pv && zv) || (nqv && zv))
        program.instrs;
      Array.map value program.outputs
  | _ ->
      (* every cell is a real device: RM3 is one maj_pulse on it *)
      let mem = Interp.crossbar ~defects (max 1 program.cells) in
      Array.iteri (fun i c -> Device.write mem.(c) inputs.(i)) program.input_cells;
      let value = function Imm b -> b | Cell c -> Device.read mem.(c) in
      List.iter
        (fun { p; q; z } ->
          let pv = value p and qv = value q in
          Device.maj_pulse mem.(z) ~p:pv ~q:qv)
        program.instrs;
      Array.map value program.outputs

let verify program mig =
  if Core.Mig.num_pis mig <> program.num_inputs then Error "input count mismatch"
  else begin
    let vectors = Verify.vectors (Core.Mig.num_pis mig) in
    if List.for_all2 (fun v want -> run program v = want) vectors
         (Core.Mig_sim.eval_all mig vectors)
    then Ok ()
    else Error "PLiM program disagrees with the MIG"
  end

let pp_operand ppf = function
  | Imm b -> Format.fprintf ppf "%d" (if b then 1 else 0)
  | Cell c -> Format.fprintf ppf "@%d" c

let pp_instr ppf { p; q; z } =
  Format.fprintf ppf "RM3(%a, %a, @%d)" pp_operand p pp_operand q z

let pp_program ppf t =
  Format.fprintf ppf "@[<v># PLiM: %d cells, %d instructions@," t.cells
    (List.length t.instrs);
  List.iteri (fun i instr -> Format.fprintf ppf "%4d: %a@," i pp_instr instr) t.instrs;
  Format.fprintf ppf "out: %a@]"
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       pp_operand)
    (Array.to_seq t.outputs)
