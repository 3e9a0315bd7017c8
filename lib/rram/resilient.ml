type env = {
  execute :
    ?trace:(int -> Isa.step -> bool array -> unit) ->
    Program.t ->
    bool array ->
    bool array;
}

let env_of_defects defects =
  { execute = (fun ?trace p v -> Interp.run ~defects ?trace p v) }

type report = {
  ok : bool;
  attempts : int;
  diagnosed : Isa.reg list;
  moves : (Isa.reg * Isa.reg) list;
  program : Program.t;
  trusted : bool array;
}

let collect_trace
    (execute :
      ?trace:(int -> Isa.step -> bool array -> unit) -> Program.t -> bool array -> bool array)
    program v =
  let acc = ref [] in
  ignore (execute ~trace:(fun _ _ states -> acc := states :: !acc) program v);
  List.rev !acc

(* Differential replay: run the failing vector on an ideal crossbar and on the
   faulty one, and find the first step whose written registers end up in
   different states.  Up to that step every device state matched, so all
   micro-ops latched identical source values — a divergent written register
   can only be a cell that did not take its pulse, i.e. the defect itself.
   Registers that merely diverge without being written (a stuck cell the
   program never drives) are only used as a fallback: they can matter when a
   program reads a register it never wrote. *)
let diagnose env program v =
  let golden = collect_trace (fun ?trace p v -> Interp.run ?trace p v) program v in
  let faulty = collect_trace env.execute program v in
  let diverging g f pred =
    List.filteri (fun _ r -> g.(r) <> f.(r)) (List.init (Array.length g) Fun.id)
    |> List.filter pred
  in
  let rec scan steps traces fallback =
    match (steps, traces) with
    | step :: steps', (g, f) :: traces' ->
        let written r = List.exists (fun m -> Isa.micro_dst m = r) step in
        let hard = diverging g f written in
        if hard <> [] then hard
        else
          let fallback =
            match fallback with
            | Some _ -> fallback
            | None -> ( match diverging g f (fun _ -> true) with [] -> None | ds -> Some ds)
          in
          scan steps' traces' fallback
    | _ -> ( match fallback with Some ds -> ds | None -> [])
  in
  scan program.Program.steps (List.combine golden faulty) None

let run ?(max_attempts = 4) ?placement ?remap ?vectors env program ~reference =
  let vecs =
    match vectors with Some v -> v | None -> Verify.vectors program.Program.num_inputs
  in
  let remap = match remap with Some f -> f | None -> Remap.remap ?placement in
  let diagnosed = ref [] and moves = ref [] in
  let first_failure p = List.find_opt (fun v -> env.execute p v <> reference v) vecs in
  let rec attempt n p =
    match first_failure p with
    | None -> (n, true, p)
    | Some v ->
        if n >= max_attempts then (n, false, p)
        else begin
          match diagnose env p v with
          | [] -> (n, false, p)
          | bad -> (
              (* The policy sees every cell diagnosed so far, not just this
                 round's: earlier casualties are dead in [p] (a plain remap
                 ignores them) but a wear-aware policy must keep them out of
                 its replacement pool. *)
              match remap p ~bad:(bad @ !diagnosed) with
              | Error _ -> (n, false, p)
              | Ok r ->
                  if r.Remap.moves = [] then (n, false, p)
                  else begin
                    diagnosed := !diagnosed @ bad;
                    moves := !moves @ r.Remap.moves;
                    attempt (n + 1) r.Remap.program
                  end)
        end
  in
  let attempts, ok, final = attempt 1 program in
  (* Graceful degradation: even when repair fails, outputs that agree with
     the reference on every test vector remain trusted. *)
  let trusted = Array.make (Array.length final.Program.outputs) true in
  if not ok then
    List.iter
      (fun v ->
        let got = env.execute final v and want = reference v in
        Array.iteri (fun i g -> if g <> want.(i) then trusted.(i) <- false) got)
      vecs;
  { ok; attempts; diagnosed = !diagnosed; moves = !moves; program = final; trusted }
