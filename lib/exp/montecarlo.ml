(* Massive Monte-Carlo yield campaigns over the statistical device model,
   stuck-at defects included (DESIGN.md §12).  Every trial is an independent
   piece of silicon sampled by Rram.Variation; the per-trial seed is split
   off the campaign master by trial index, so the campaign is
   bit-reproducible for any --jobs. *)

type config = {
  trials : int;
  sigmas : float list;
  seed : int;
  jobs : int option;
  effort : int;
  algorithm : Core.Mig_opt.algorithm;
  realization : Core.Rram_cost.realization;
  vectors : int;
  max_attempts : int;
  spares : int;
  base : Rram.Variation.params;
}

let default =
  {
    trials = 200;
    sigmas = [ 0.25; 0.5; 1.0; 1.5 ];
    seed = 0xCA4E;
    jobs = None;
    effort = 10;
    algorithm = Core.Mig_opt.Steps;
    realization = Core.Rram_cost.Maj;
    vectors = 32;
    max_attempts = 4;
    spares = 32;
    base = Rram.Variation.nominal;
  }

let stuck_at c rate =
  { c with sigmas = [ 0.0 ]; base = { Rram.Variation.ideal with stuck_rate = rate } }

let validate c =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if c.trials < 1 then err "trials must be at least 1 (got %d)" c.trials
  else if c.sigmas = [] then err "at least one sigma point is required"
  else begin
    match
      List.find_opt
        (fun s -> (not (Float.is_finite s)) || s < 0.0)
        c.sigmas
    with
    | Some s -> err "sigma must be a finite non-negative number (got %g)" s
    | None ->
        if c.vectors < 1 then err "vectors must be at least 1 (got %d)" c.vectors
        else if c.max_attempts < 1 then
          err "max-attempts must be at least 1 (got %d)" c.max_attempts
        else if c.spares < 0 then err "spares must be non-negative (got %d)" c.spares
        else if c.effort < 0 then err "effort must be non-negative (got %d)" c.effort
        else Rram.Variation.validate c.base
  end

type estimate = { successes : int; trials : int; yield : float; lo : float; hi : float }

(* Wilson score interval at 95%: well-behaved at yields of exactly 0 or 1,
   where the normal approximation collapses to a zero-width interval. *)
let wilson ~successes ~trials =
  let z = 1.959964 in
  let n = float_of_int trials in
  let p = float_of_int successes /. n in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. n) in
  let center = (p +. (z2 /. (2.0 *. n))) /. denom in
  let half =
    z /. denom *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n)))
  in
  {
    successes;
    trials;
    yield = p;
    lo = Float.max 0.0 (center -. half);
    hi = Float.min 1.0 (center +. half);
  }

type arm_result = {
  arm : string;
  cells : int;
  outcomes : bool array;  (* outcome of trial [t] at index [t] *)
  estimate : estimate;
}

type point = { sigma : float; arms : arm_result list }

type t = {
  benchmark : string;
  realization : Core.Rram_cost.realization;
  trials : int;
  seed : int;
  universe : int;
  num_vectors : int;
  points : point list;
  wall_seconds : float;
}

(* Obs instruments (recording is gated on the global enable; worker-domain
   events merge into the caller's registry at pool shutdown). *)
let arm_names = [ "imp"; "maj"; "resilient"; "wear"; "tmr" ]
let trials_c = Obs.counter "exp.montecarlo/trials"

let survive_c =
  List.map (fun a -> (a, Obs.counter ("exp.montecarlo/survivals." ^ a))) arm_names
let attempts_res_h = Obs.histogram "exp.montecarlo/attempts.resilient"
let attempts_wear_h = Obs.histogram "exp.montecarlo/attempts.wear"
let moves_wear_h = Obs.histogram "exp.montecarlo/moves.wear"

let survived arm ok =
  if ok then Obs.incr (List.assoc arm survive_c);
  (arm, ok)

(* A synthetic placement whose only role is to cap the spare cells plain
   remapping may allocate at the sampled array size — a replacement beyond
   the crossbar would make Interp.run_on reject the program outright. *)
let capacity_placement universe =
  {
    Rram.Placement.rows = 1;
    columns = universe;
    row_of = [||];
    column_of = [||];
    utilization = 0.0;
  }

let run ?(config = default) ~name net =
  (match validate config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Montecarlo.run: " ^ e));
  let t0 = Obs.now_ns () in
  let mig =
    Core.Mig_opt.run ~effort:config.effort config.algorithm
      (Core.Mig_of_network.convert net)
  in
  let compile r = (Rram.Compile_mig.compile r mig).Rram.Compile_mig.program in
  let imp = compile Core.Rram_cost.Imp and maj = compile Core.Rram_cost.Maj in
  let primary =
    match config.realization with Core.Rram_cost.Imp -> imp | Core.Rram_cost.Maj -> maj
  in
  let tmr = (Rram.Tmr.protect primary).Rram.Tmr.program in
  let vectors =
    List.filteri
      (fun i _ -> i < config.vectors)
      (Rram.Verify.vectors ~seed:config.seed primary.Rram.Program.num_inputs)
  in
  (* Tabulate the reference once, before fanning out: campaigns only ever
     evaluate the fixed vector set, so every reference lookup of a trial
     hits this table instead of simulating the MIG again. *)
  let reference =
    let table = Hashtbl.create (List.length vectors) in
    List.iter2 (Hashtbl.replace table) vectors (Core.Mig_sim.eval_all mig vectors);
    fun v -> Hashtbl.find table v
  in
  (* One cell universe for every arm of a trial: equal seeds then sample
     equal silicon, so the arms are compared on the same broken devices. *)
  let universe =
    List.fold_left max 1
      [
        imp.Rram.Program.num_regs;
        maj.Rram.Program.num_regs;
        tmr.Rram.Program.num_regs;
        primary.Rram.Program.num_regs + config.spares;
      ]
  in
  let placement = capacity_placement universe in
  let trial params ~seed =
    Obs.incr trials_c;
    let bare arm prog =
      let devices = Rram.Variation.crossbar params ~seed universe in
      survived arm
        (List.for_all
           (fun v -> Rram.Interp.run_on ~devices prog v = reference v)
           vectors)
    in
    let controller arm ~wear_aware =
      let e = Rram.Variation.env params ~seed universe in
      (* BIST first: read-path faults never show up in stored-state
         differential diagnosis (the culprit's state is correct — only
         downstream writes diverge), so the controller screens every cell
         and repairs proactively before the retry loop handles the
         marginal stragglers. *)
      let screened = Rram.Variation.screen e.Rram.Variation.devices in
      let remap =
        if wear_aware then fun p ~bad ->
          (* The screen verdicts also prune the replacement pool — the
             wear-aware policy never repairs onto a cell it knows is bad,
             where plain remapping may land on a dead spare and burn a
             retry round discovering it. *)
          Rram.Remap.remap_wear_aware
            ~wear:(e.Rram.Variation.wear ())
            p ~bad:(bad @ screened)
        else fun p ~bad -> Rram.Remap.remap ~placement p ~bad
      in
      let start =
        match remap primary ~bad:screened with
        | Ok r -> r.Rram.Remap.program
        | Error _ -> primary
      in
      let report =
        Rram.Resilient.run ~max_attempts:config.max_attempts ~remap ~vectors
          e.Rram.Variation.env start ~reference
      in
      Obs.observe
        (if wear_aware then attempts_wear_h else attempts_res_h)
        report.Rram.Resilient.attempts;
      if wear_aware then
        Obs.observe moves_wear_h (List.length report.Rram.Resilient.moves);
      survived arm report.Rram.Resilient.ok
    in
    [
      bare "imp" imp;
      bare "maj" maj;
      controller "resilient" ~wear_aware:false;
      controller "wear" ~wear_aware:true;
      bare "tmr" tmr;
    ]
  in
  let cells_of = function
    | "imp" -> imp.Rram.Program.num_regs
    | "maj" -> maj.Rram.Program.num_regs
    | "tmr" -> tmr.Rram.Program.num_regs
    | _ -> primary.Rram.Program.num_regs
  in
  let points =
    List.map
      (fun sigma ->
        let params = Rram.Variation.scaled ~base:config.base sigma in
        (* Common random numbers: trial [t]'s seed depends only on the
           campaign master and [t], so every sigma point replays the same
           underlying draws and the curves are smoothly comparable. *)
        let rows =
          Par.map_seeded ?jobs:config.jobs ~seed:config.seed
            (fun ~seed () -> trial params ~seed)
            (List.init config.trials (fun _ -> ()))
        in
        let arms =
          List.map
            (fun arm ->
              let outcomes =
                Array.of_list (List.map (fun row -> List.assoc arm row) rows)
              in
              let successes =
                Array.fold_left (fun n ok -> if ok then n + 1 else n) 0 outcomes
              in
              {
                arm;
                cells = cells_of arm;
                outcomes;
                estimate = wilson ~successes ~trials:config.trials;
              })
            arm_names
        in
        { sigma; arms })
      config.sigmas
  in
  {
    benchmark = name;
    realization = config.realization;
    trials = config.trials;
    seed = config.seed;
    universe;
    num_vectors = List.length vectors;
    points;
    wall_seconds =
      Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9;
  }

let bits outcomes =
  String.init (Array.length outcomes) (fun i -> if outcomes.(i) then '1' else '0')

(* Note for the CI golden diff: [wall_seconds] is the only non-deterministic
   field and lives at top level, so `jq 'del(.wall_seconds)'` normalizes. *)
let to_json t =
  let open Obs.Json in
  Assoc
    [
      ("schema", String "migsyn-montecarlo/1");
      ("benchmark", String t.benchmark);
      ( "realization",
        String (Format.asprintf "%a" Core.Rram_cost.pp_realization t.realization) );
      ("trials", Int t.trials);
      ("seed", Int t.seed);
      ("universe", Int t.universe);
      ("vectors", Int t.num_vectors);
      ( "points",
        List
          (List.map
             (fun p ->
               Assoc
                 [
                   ("sigma", Float p.sigma);
                   ( "arms",
                     List
                       (List.map
                          (fun a ->
                            Assoc
                              [
                                ("arm", String a.arm);
                                ("cells", Int a.cells);
                                ("successes", Int a.estimate.successes);
                                ("yield", Float a.estimate.yield);
                                ("ci95", List [ Float a.estimate.lo; Float a.estimate.hi ]);
                                ("outcomes", String (bits a.outcomes));
                              ])
                          p.arms) );
                 ])
             t.points) );
      ("wall_seconds", Float t.wall_seconds);
    ]

let pp_arms ppf arms =
  List.iter
    (fun a ->
      Format.fprintf ppf " | %s %.3f [%.3f,%.3f]" a.arm a.estimate.yield a.estimate.lo
        a.estimate.hi)
    arms

let pp ppf t =
  Format.fprintf ppf
    "@[<v>Monte-Carlo yield campaign: %s, %d trials/sigma, seed %#x, %a primary@,\
     %d-cell universe, %d test vectors, %.2f s@,"
    t.benchmark t.trials t.seed Core.Rram_cost.pp_realization t.realization t.universe
    t.num_vectors t.wall_seconds;
  List.iter
    (fun p ->
      Format.fprintf ppf "  sigma %-5.2f%a@," p.sigma pp_arms p.arms)
    t.points;
  Format.fprintf ppf "@]"
