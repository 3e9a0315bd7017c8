open Logic

(* Balanced fold keeps tree depth logarithmic in the operand count.
   Explicit-stack evaluation of the historical recursion
   [f (fold left-half) (fold right-half)] — including its right-to-left
   argument order, which fixes the MIG node creation order when [f] builds
   gates — without the per-level list splitting (O(n log n) allocation) or
   any stack-depth dependence on the operand count. *)
let balanced_fold f = function
  | [] -> invalid_arg "Mig_of_network: empty operand list"
  | [ x ] -> x
  | xs ->
      let arr = Array.of_list xs in
      (* frames: [Eval (lo, hi)] folds the slice, [Combine] applies [f] to
         the top two values (left on top, pushed second). *)
      let frames = ref [ `Eval (0, Array.length arr) ] in
      let values = ref [] in
      while !frames <> [] do
        let fr = List.hd !frames in
        frames := List.tl !frames;
        match fr with
        | `Eval (lo, hi) ->
            if hi - lo = 1 then values := arr.(lo) :: !values
            else begin
              let mid = lo + ((hi - lo) / 2) in
              frames := `Eval (mid, hi) :: `Eval (lo, mid) :: `Combine :: !frames
            end
        | `Combine -> (
            match !values with
            | l :: r :: rest -> values := f l r :: rest
            | _ -> assert false)
      done;
      (match !values with [ v ] -> v | _ -> assert false)

let signal_of_sop mig sop literal_signal =
  let cube_signal cube =
    match Cube.literals cube with
    | [] -> Mig.const1
    | lits ->
        balanced_fold (Mig.and_ mig)
          (List.map (fun (v, pos) ->
               let s = literal_signal v in
               if pos then s else Mig.not_ s)
             lits)
  in
  match Sop.cubes sop with
  | [] -> Mig.const0
  | cubes -> balanced_fold (Mig.or_ mig) (List.map cube_signal cubes)

let convert net =
  let mig = Mig.create () in
  let pi_signals = Array.init (Network.num_inputs net) (fun _ -> Mig.add_pi mig) in
  let n = Network.num_nodes net in
  let signals = Array.make n Mig.const0 in
  for id = 0 to n - 1 do
    let fanins = Network.fanins net id in
    let f i = signals.(fanins.(i)) in
    (* [balanced_fold] of one or two operands is the operand or [op a b]:
       build those directly, without its operand list and frame stack *)
    let fold op =
      match Array.length fanins with
      | 1 -> f 0
      | 2 -> op (f 0) (f 1)
      | _ -> balanced_fold op (Array.to_list (Array.map (fun g -> signals.(g)) fanins))
    in
    signals.(id) <-
      (match Network.kind net id with
      | Network.Const b -> if b then Mig.const1 else Mig.const0
      | Network.Input k -> pi_signals.(k)
      | Network.And -> fold (Mig.and_ mig)
      | Network.Or -> fold (Mig.or_ mig)
      | Network.Xor -> fold (Mig.xor_ mig)
      | Network.Nand -> Mig.not_ (fold (Mig.and_ mig))
      | Network.Nor -> Mig.not_ (fold (Mig.or_ mig))
      | Network.Xnor -> Mig.not_ (fold (Mig.xor_ mig))
      | Network.Not -> Mig.not_ (f 0)
      | Network.Buf -> f 0
      | Network.Maj -> Mig.maj mig (f 0) (f 1) (f 2)
      | Network.Mux -> Mig.mux mig (f 0) (f 1) (f 2)
      | Network.Table sop -> signal_of_sop mig sop (fun v -> signals.(fanins.(v))))
  done;
  List.iter (fun (_, id) -> ignore (Mig.add_po mig signals.(id))) (Network.outputs net);
  mig

let of_truth_table tt =
  let n = Truth_table.num_vars tt in
  let sop = Sop.of_truth_table tt in
  let mig = Mig.create () in
  let pis = Array.init n (fun _ -> Mig.add_pi mig) in
  let s = signal_of_sop mig sop (fun v -> pis.(v)) in
  ignore (Mig.add_po mig s);
  mig
