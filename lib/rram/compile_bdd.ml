open Bdd_lib

type mode = [ `Sequential | `Levelized ]

type result = { program : Program.t; bdd_nodes : int }

let compile ?(mode = `Levelized) (built : Bdd_of_network.result) =
  let man = built.Bdd_of_network.manager in
  let roots = built.Bdd_of_network.roots in
  let perm = built.Bdd_of_network.perm in
  let num_inputs = Array.length perm in
  let b = Program.Builder.create ~num_inputs in
  (* Reachable nodes grouped by variable level; also reference counts for
     result-register liveness. *)
  let by_level = Array.make (max 1 (Bdd.num_vars man)) [] in
  let refcount = Hashtbl.create 997 in
  let bump n =
    if not (Bdd.is_terminal n) then
      Hashtbl.replace refcount n (1 + try Hashtbl.find refcount n with Not_found -> 0)
  in
  let bdd_nodes =
    Bdd.fold_reachable man roots ~init:0 (fun n acc ->
        by_level.(Bdd.level man n) <- n :: by_level.(Bdd.level man n);
        bump (Bdd.low man n);
        bump (Bdd.high man n);
        acc + 1)
  in
  List.iter bump roots;
  (* Prologue: copy each used variable into a device and complement it. *)
  let used_levels =
    List.filter (fun v -> by_level.(v) <> []) (List.init (Bdd.num_vars man) (fun v -> v))
  in
  let var_reg = Hashtbl.create 17 and nvar_reg = Hashtbl.create 17 in
  let prologue_load = ref [] and prologue_inv = ref [] in
  List.iter
    (fun v ->
      let rx = Program.Builder.alloc b in
      let rnx = Program.Builder.alloc b in
      Hashtbl.replace var_reg v rx;
      Hashtbl.replace nvar_reg v rnx;
      prologue_load := Isa.Load (rx, Isa.Input perm.(v)) :: Isa.Reset rnx :: !prologue_load;
      prologue_inv := Isa.Imp { src = rx; dst = rnx } :: !prologue_inv)
    used_levels;
  Program.Builder.push_step b (List.rev !prologue_load);
  Program.Builder.push_step b (List.rev !prologue_inv);
  let result_reg = Hashtbl.create 997 in
  let value_operand n =
    if n = Bdd.bfalse then Isa.Const false
    else if n = Bdd.btrue then Isa.Const true
    else Isa.Reg (Hashtbl.find result_reg n)
  in
  let release child =
    if not (Bdd.is_terminal child) then begin
      let c = Hashtbl.find refcount child - 1 in
      Hashtbl.replace refcount child c;
      if c = 0 then Program.Builder.free b (Hashtbl.find result_reg child)
    end
  in
  (* One multiplexer: returns (load micros, 5 imp micros, result, temps). *)
  let mux_node n =
    let v = Bdd.level man n in
    let ra = Program.Builder.alloc b in
    let rb = Program.Builder.alloc b in
    let rc = Program.Builder.alloc b in
    let rd = Program.Builder.alloc b in
    let load =
      [
        Isa.Load (ra, value_operand (Bdd.high man n));
        Isa.Load (rb, value_operand (Bdd.low man n));
        Isa.Reset rc;
        Isa.Reset rd;
      ]
    in
    let imps =
      [
        Isa.Imp { src = Hashtbl.find var_reg v; dst = ra };
        Isa.Imp { src = Hashtbl.find nvar_reg v; dst = rb };
        Isa.Imp { src = rb; dst = rc };
        Isa.Imp { src = ra; dst = rc };
        Isa.Imp { src = rc; dst = rd };
      ]
    in
    Hashtbl.replace result_reg n rd;
    (load, imps, [ ra; rb; rc ])
  in
  (* Process variable levels bottom-up: children live at higher levels. *)
  let levels_desc = List.rev used_levels in
  List.iter
    (fun v ->
      let nodes = by_level.(v) in
      match mode with
      | `Sequential ->
          List.iter
            (fun n ->
              let load, imps, temps = mux_node n in
              Program.Builder.push_step b load;
              List.iter (fun m -> Program.Builder.push_step b [ m ]) imps;
              List.iter (Program.Builder.free b) temps;
              release (Bdd.low man n);
              release (Bdd.high man n))
            nodes
      | `Levelized ->
          let loads = ref [] and steps = Array.make 5 [] and temps = ref [] in
          List.iter
            (fun n ->
              let load, imps, t = mux_node n in
              loads := load @ !loads;
              List.iteri (fun i m -> steps.(i) <- m :: steps.(i)) imps;
              temps := t @ !temps)
            nodes;
          Program.Builder.push_step b (List.rev !loads);
          Array.iter (fun s -> Program.Builder.push_step b (List.rev s)) steps;
          List.iter (Program.Builder.free b) !temps;
          List.iter
            (fun n ->
              release (Bdd.low man n);
              release (Bdd.high man n))
            nodes)
    levels_desc;
  let outputs = Array.of_list (List.map value_operand roots) in
  { program = Program.Builder.finish b ~outputs; bdd_nodes }
