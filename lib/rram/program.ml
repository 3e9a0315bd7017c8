type t = {
  num_inputs : int;
  num_regs : int;
  steps : Isa.step list;
  outputs : Isa.operand array;
}

let num_steps t = List.length t.steps

let validate ?row_of t =
  let check_operand = function
    | Isa.Input i when i < 0 || i >= t.num_inputs -> Error "input out of range"
    | Isa.Reg r when r < 0 || r >= t.num_regs -> Error "register out of range"
    | _ -> Ok ()
  in
  let check_step step =
    let written = Hashtbl.create 7 in
    let pulse_rows = Hashtbl.create 7 in
    List.fold_left
      (fun acc micro ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
            let dst = Isa.micro_dst micro in
            if dst < 0 || dst >= t.num_regs then Error "destination out of range"
            else if Hashtbl.mem written dst then
              Error "two writes to one device in a step"
            else begin
              Hashtbl.add written dst ();
              let row_check =
                match (row_of, micro) with
                | Some rows, (Isa.Imp _ | Isa.Maj_pulse _) ->
                    (* a gate pulse drives its destination's row nanowire *)
                    let row = rows.(dst) in
                    if Hashtbl.mem pulse_rows row then
                      Error "two gate pulses on one row in a step"
                    else begin
                      Hashtbl.add pulse_rows row ();
                      Ok ()
                    end
                | _ -> Ok ()
              in
              match row_check with
              | Error _ as e -> e
              | Ok () ->
                  List.fold_left
                    (fun acc o ->
                      match acc with Error _ -> acc | Ok () -> check_operand o)
                    (Ok ()) (Isa.micro_reads micro)
            end))
      (Ok ()) step
  in
  let step_result =
    List.fold_left
      (fun acc step -> match acc with Error _ -> acc | Ok () -> check_step step)
      (Ok ()) t.steps
  in
  match step_result with
  | Error _ as e -> e
  | Ok () ->
      Array.fold_left
        (fun acc o -> match acc with Error _ -> acc | Ok () -> check_operand o)
        (Ok ()) t.outputs

let pp ppf t =
  Format.fprintf ppf "@[<v># inputs=%d rrams=%d steps=%d@," t.num_inputs t.num_regs
    (num_steps t);
  List.iteri (fun i step -> Format.fprintf ppf "%3d: %a@," (i + 1) Isa.pp_step step) t.steps;
  Format.fprintf ppf "out: %a@]"
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Isa.pp_operand)
    (Array.to_seq t.outputs)

module Alloc = struct
  type a = { mutable next : int; mutable free_list : int list }

  let create () = { next = 0; free_list = [] }

  let get a =
    match a.free_list with
    | r :: rest ->
        a.free_list <- rest;
        r
    | [] ->
        let r = a.next in
        a.next <- a.next + 1;
        r

  let free a r = a.free_list <- r :: a.free_list
  let peak a = a.next
end

module Builder = struct
  type b = {
    num_inputs : int;
    alloc : Alloc.a;
    mutable rev_steps : Isa.step list;
  }

  let create ~num_inputs = { num_inputs; alloc = Alloc.create (); rev_steps = [] }
  let alloc b = Alloc.get b.alloc
  let free b r = Alloc.free b.alloc r
  let push_step b step = if step <> [] then b.rev_steps <- step :: b.rev_steps

  let finish b ~outputs =
    {
      num_inputs = b.num_inputs;
      num_regs = Alloc.peak b.alloc;
      steps = List.rev b.rev_steps;
      outputs;
    }
end
