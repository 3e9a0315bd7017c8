open Aig_lib

type result = { program : Program.t; aig_nodes : int }

let compile aig =
  let mig = Aig.to_mig aig in
  let num_inputs = Aig.num_pis aig in
  let b = Program.Builder.create ~num_inputs in
  let nodes = Core.Mig.num_nodes mig in
  (* Reference counts for result liveness (outputs pin their drivers). *)
  let refcount = Array.make nodes 0 in
  let bump s = refcount.(Aig.node_of s) <- refcount.(Aig.node_of s) + 1 in
  let aig_nodes = ref 0 in
  Core.Mig.iter_topo mig (fun n ->
      incr aig_nodes;
      let f0, f1 = Aig.fanins aig n in
      bump f0;
      bump f1);
  Array.iter bump (Aig.pos aig);
  (* Prologue: every primary input is staged into a device once, so it can
     serve as an implication source. *)
  let input_reg = Array.init num_inputs (fun _ -> Program.Builder.alloc b) in
  Program.Builder.push_step b
    (List.init num_inputs (fun i -> Isa.Load (input_reg.(i), Isa.Input i)));
  let result_reg = Array.make nodes (-1) in
  (* Plain-value register of a node (not a signal). *)
  let node_reg n =
    match Aig.kind aig n with
    | Aig.Pi k -> input_reg.(k)
    | Aig.And -> result_reg.(n)
    | Aig.Const -> invalid_arg "Compile_aig: constant fanin should be folded"
  in
  let release s =
    let n = Aig.node_of s in
    if Aig.kind aig n = Aig.And then begin
      refcount.(n) <- refcount.(n) - 1;
      if refcount.(n) = 0 then Program.Builder.free b result_reg.(n)
    end
  in
  (* Emit one AND node: load, optional pre-inversion of [a], then the
     implications; empty steps are dropped. *)
  let emit_node n =
    let f0, f1 = Aig.fanins aig n in
    (* prefer a complemented fanin in the b role: its ¬b is a plain copy *)
    let a_sig, b_sig = if Aig.is_compl f0 && not (Aig.is_compl f1) then (f1, f0) else (f0, f1) in
    let r1 = Program.Builder.alloc b in
    let r2 = Program.Builder.alloc b in
    let load = ref [ Isa.Reset r2 ] in
    let temps = ref [ r1 ] in
    (* r1 must end holding ¬b *)
    let s1 =
      if Aig.is_compl b_sig then begin
        (* ¬b = plain source value: a direct copy during loading *)
        load := Isa.Load (r1, Isa.Reg (node_reg (Aig.node_of b_sig))) :: !load;
        []
      end
      else begin
        load := Isa.Reset r1 :: !load;
        [ Isa.Imp { src = node_reg (Aig.node_of b_sig); dst = r1 } ]
      end
    in
    (* a must be available as a register holding its value *)
    let pre_inv = ref [] in
    let a_reg =
      if Aig.is_compl a_sig then begin
        let rx = Program.Builder.alloc b in
        temps := rx :: !temps;
        load := Isa.Reset rx :: !load;
        pre_inv := [ Isa.Imp { src = node_reg (Aig.node_of a_sig); dst = rx } ];
        rx
      end
      else node_reg (Aig.node_of a_sig)
    in
    result_reg.(n) <- r2;
    List.iter (Program.Builder.push_step b)
      [
        List.rev !load;
        !pre_inv;
        s1;
        [ Isa.Imp { src = a_reg; dst = r1 } ];
        [ Isa.Imp { src = r1; dst = r2 } ];
      ];
    List.iter (Program.Builder.free b) !temps;
    release f0;
    release f1
  in
  Core.Mig.iter_topo mig emit_node;
  (* Outputs: complemented drivers get a shared final inversion. *)
  let final_preset = ref [] and final_inv = ref [] in
  let memo = Array.make (2 * nodes) None in
  let outputs =
    Array.map
      (fun s ->
        match memo.(s) with
        | Some o -> o
        | None ->
            let n = Aig.node_of s and c = Aig.is_compl s in
            let invert_of src =
              let inv = Program.Builder.alloc b in
              final_preset := Isa.Reset inv :: !final_preset;
              final_inv := Isa.Imp { src; dst = inv } :: !final_inv;
              Isa.Reg inv
            in
            let o =
              match Aig.kind aig n with
              | Aig.Const -> Isa.Const c
              | Aig.Pi k -> if c then invert_of input_reg.(k) else Isa.Input k
              | Aig.And ->
                  if c then invert_of result_reg.(n) else Isa.Reg result_reg.(n)
            in
            memo.(s) <- Some o;
            o)
      (Aig.pos aig)
  in
  Program.Builder.push_step b !final_preset;
  Program.Builder.push_step b !final_inv;
  { program = Program.Builder.finish b ~outputs; aig_nodes = !aig_nodes }
