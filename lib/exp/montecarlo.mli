(** Monte-Carlo yield campaigns: the repository's one yield engine.

    The driver samples every device with {!Rram.Variation} — lognormal
    LRS/HRS spreads, sense noise, endurance drift, stuck-at defects — and
    measures functional yield versus the variability scale σ for five
    execution arms on the {e same} sampled silicon:

    - ["imp"], ["maj"]: the two realizations run bare;
    - ["resilient"]: the primary realization behind the
      {!Rram.Resilient} detect/diagnose/remap/retry controller;
    - ["wear"]: the same controller steering repairs with
      {!Rram.Remap.remap_wear_aware} over live wear gauges;
    - ["tmr"]: {!Rram.Tmr} triple modular redundancy with MAJ-pulse voters.

    {b Determinism.} Trial [t] draws from PRNG stream
    [Logic.Prng.split_seed config.seed t] (via {!Par.map_seeded}) whatever
    the worker count, and every arm of a trial re-samples the same seed —
    identical silicon, identical noise.  Equal [(config, net)] give
    bit-identical campaigns for every [jobs]; sigma points share trial
    seeds (common random numbers), so curves compare smoothly across σ.

    {b Stuck-at campaigns.}  {!stuck_at} aims a config at the pure
    stuck-at fault model: one σ = 0 point on {!Rram.Variation.ideal}
    devices where each cell is stuck with probability [stuck_rate] — the
    fault-tolerance experiment of [migsyn faults] and the bench.

    Campaigns fan trials across the {!Par} domain pool; {!Obs} counters
    ([exp.montecarlo/*]) and attempt/move histograms are recorded per trial
    and merged exactly at pool shutdown. *)

type config = {
  trials : int;  (** Monte-Carlo trials per sigma point (≥ 1) *)
  sigmas : float list;  (** variability scales, each ≥ 0; [1.0] = nominal *)
  seed : int;  (** campaign master seed *)
  jobs : int option;  (** worker domains; [None] = {!Par.recommended_jobs} *)
  effort : int;  (** optimization effort before compiling *)
  algorithm : Core.Mig_opt.algorithm;
  realization : Core.Rram_cost.realization;  (** primary (protected) arm *)
  vectors : int;  (** test vectors evaluated per execution (≥ 1) *)
  max_attempts : int;  (** controller verification rounds (≥ 1) *)
  spares : int;  (** spare cells beyond the primary program (≥ 0) *)
  base : Rram.Variation.params;  (** device model scaled by each sigma *)
}

val default : config
(** 200 trials at σ ∈ {0.25, 0.5, 1.0, 1.5}, seed [0xCA4E], auto jobs,
    effort 10 [steps] optimization, MAJ primary, 32 vectors, 4 attempts,
    32 spares, {!Rram.Variation.nominal} devices. *)

val stuck_at : config -> float -> config
(** [stuck_at c rate] is [c] with a single σ = 0 point on
    [{ Rram.Variation.ideal with stuck_rate = rate }] devices: every cell
    reads and switches ideally unless it is stuck. *)

val validate : config -> (unit, string) result
(** Rejects non-positive trial/vector/attempt counts, an empty or negative
    (or non-finite) sigma axis, negative spares or effort, and any
    {!Rram.Variation.validate} failure of [base]. *)

type estimate = {
  successes : int;
  trials : int;
  yield : float;  (** successes / trials *)
  lo : float;  (** Wilson 95% lower bound *)
  hi : float;  (** Wilson 95% upper bound *)
}

type arm_result = {
  arm : string;  (** one of imp / maj / resilient / wear / tmr *)
  cells : int;  (** registers of that arm's program (before remapping) *)
  outcomes : bool array;  (** per-trial success, index = trial number *)
  estimate : estimate;
}

type point = { sigma : float; arms : arm_result list }

type t = {
  benchmark : string;
  realization : Core.Rram_cost.realization;
  trials : int;
  seed : int;
  universe : int;  (** sampled cells per trial, shared by all arms *)
  num_vectors : int;
  points : point list;  (** one per sigma, in [config.sigmas] order *)
  wall_seconds : float;  (** the only non-deterministic field *)
}

val run : ?config:config -> name:string -> Logic.Network.t -> t
(** Optimize, compile and campaign the network.  [name] labels the report.
    @raise Invalid_argument when {!validate} rejects [config]. *)

val to_json : t -> Obs.Json.t
(** Schema ["migsyn-montecarlo/1"].  Deterministic except the top-level
    ["wall_seconds"] member — strip that one field and equal campaigns
    diff byte-identical (the CI smoke job does exactly this). *)

val pp_arms : Format.formatter -> arm_result list -> unit
(** [" | arm yield [lo,hi]"] for each arm, on one line. *)

val pp : Format.formatter -> t -> unit
