open Logic

type params = {
  r_lrs : float;
  r_hrs : float;
  sigma_lrs : float;
  sigma_hrs : float;
  v_read : float;
  read_noise : float;
  drift : float;
  stuck_rate : float;
}

(* HyperMetric-style HfO2 bipolar device: 2.5 kΩ / 16 kΩ median LRS/HRS
   with lognormal shapes 0.18 / 0.45 — the HRS filament gap is the wider
   spread.  5% relative sense noise; drift closes the window by ~0.2% per
   switching event. *)
let nominal =
  {
    r_lrs = 2500.0;
    r_hrs = 16000.0;
    sigma_lrs = 0.18;
    sigma_hrs = 0.45;
    v_read = 0.9;
    read_noise = 0.05;
    drift = 0.002;
    stuck_rate = 0.0;
  }

let ideal = { nominal with sigma_lrs = 0.0; sigma_hrs = 0.0; read_noise = 0.0; drift = 0.0 }

let scaled ?(base = nominal) sigma =
  { base with sigma_lrs = base.sigma_lrs *. sigma; sigma_hrs = base.sigma_hrs *. sigma }

let validate p =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if not (p.r_lrs > 0.0 && p.r_hrs > 0.0) then
    err "resistances must be positive (LRS %g, HRS %g)" p.r_lrs p.r_hrs
  else if p.r_lrs >= p.r_hrs then
    err "LRS median %g must lie below HRS median %g" p.r_lrs p.r_hrs
  else if p.sigma_lrs < 0.0 || p.sigma_hrs < 0.0 then
    err "variability sigma must be non-negative (LRS %g, HRS %g)" p.sigma_lrs
      p.sigma_hrs
  else if not (p.v_read > 0.0) then err "read voltage must be positive (%g)" p.v_read
  else if p.read_noise < 0.0 then err "read noise must be non-negative (%g)" p.read_noise
  else if p.drift < 0.0 then err "drift rate must be non-negative (%g)" p.drift
  else if not (p.stuck_rate >= 0.0 && p.stuck_rate <= 1.0) then
    err "stuck-at rate must be a probability in [0, 1] (%g)" p.stuck_rate
  else Ok ()

let lognormal rng ~median ~sigma = median *. exp (sigma *. Prng.gaussian rng)

(* The sense amplifier splits the difference between the nominal read
   currents of the two states; every device of an array shares it, so a
   cell whose sampled resistance lands on the wrong side misreads with
   probability > 1/2 no matter how quiet the sensing is. *)
let i_ref p = ((p.v_read /. p.r_lrs) +. (p.v_read /. p.r_hrs)) /. 2.0

let sample params ~seed n =
  let i_ref = i_ref params in
  Array.init n (fun d ->
      (* Per-device stream split off the trial seed: the resistance draws
         and every later read-noise draw of cell [d] are independent of all
         other cells and of how many reads any other cell served. *)
      let rng = Prng.create (Prng.split_seed seed d) in
      let r_lrs = lognormal rng ~median:params.r_lrs ~sigma:params.sigma_lrs in
      let r_hrs = lognormal rng ~median:params.r_hrs ~sigma:params.sigma_hrs in
      {
        Device.r_lrs;
        r_hrs;
        v_read = params.v_read;
        i_ref;
        read_noise = params.read_noise;
        drift = params.drift;
        rng;
      })

(* Stuck-at defects draw from stream [split(seed, n)], one past the last
   device stream of the [n]-cell array: pinning cells never shifts a
   physics or read-noise draw, and at rate 0 nothing is drawn at all. *)
let stuck params ~seed n =
  if params.stuck_rate <= 0.0 then []
  else begin
    let rng = Prng.create (Prng.split_seed seed n) in
    let acc = ref [] in
    for cell = 0 to n - 1 do
      if Prng.float rng < params.stuck_rate then
        acc := (cell, if Prng.bool rng then Device.Stuck_1 else Device.Stuck_0) :: !acc
    done;
    List.rev !acc
  end

let crossbar ?(defects = []) params ~seed n =
  Interp.crossbar ~physics:(sample params ~seed n)
    ~defects:(stuck params ~seed n @ defects)
    n

(* Built-in self-test over controller-visible operations only (write both
   levels, sense them back): a cell whose sampled resistances straddle the
   reference, or whose margin is already noise-limited, betrays itself
   here.  The screen costs real wear (2·passes switching events per cell),
   so the drift penalty of testing is accounted, not assumed away. *)
let screen ?(passes = 3) devices =
  let bad = ref [] in
  Array.iteri
    (fun i d ->
      let ok = ref true in
      for _ = 1 to passes do
        Device.write d false;
        if Device.read d then ok := false;
        Device.write d true;
        if not (Device.read d) then ok := false
      done;
      Device.clear d;
      if not !ok then bad := i :: !bad)
    devices;
  List.rev !bad

type env = {
  devices : Device.t array;
  env : Resilient.env;
  wear : unit -> int array;
}

let env ?defects params ~seed n =
  let devices = crossbar ?defects params ~seed n in
  {
    devices;
    (* One persistent physical array: wear (and with it drift) accumulates
       across every execution the controller issues, which is exactly what
       the wear gauges and the wear-aware remapping policy read. *)
    env = { Resilient.execute = (fun ?trace p v -> Interp.run_on ~devices ?trace p v) };
    wear = (fun () -> Array.map Device.wear devices);
  }
