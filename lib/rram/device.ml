type defect = Stuck_0 | Stuck_1

type physics = {
  r_lrs : float;
  r_hrs : float;
  v_read : float;
  i_ref : float;
  read_noise : float;
  drift : float;
  rng : Logic.Prng.t;
}

type t = {
  mutable state : bool;
  mutable defect : defect option;
  mutable wear : int;
  phys : physics option;
}

let create () = { state = false; defect = None; wear = 0; phys = None }

let set_defect d defect =
  d.defect <- Some defect;
  d.state <- (match defect with Stuck_0 -> false | Stuck_1 -> true)

let create_phys phys = { state = false; defect = None; wear = 0; phys = Some phys }

let defect d = d.defect
let wear d = d.wear
let observe d = d.state
let physics d = d.phys

(* Endurance drift closes the resistance window as switching events
   accumulate: the low-resistance state drifts up, the high-resistance state
   down, both linearly in wear (DESIGN.md §12). *)
let effective_resistances p ~wear =
  let f = 1.0 +. (p.drift *. float_of_int wear) in
  (p.r_lrs *. f, p.r_hrs /. f)

let sense_margin p ~wear state =
  let r_lrs, r_hrs = effective_resistances p ~wear in
  let i = p.v_read /. (if state then r_lrs else r_hrs) in
  (* Signed distance of the state's read current from the sense reference,
     in units of the thermal-noise sigma of that current: positive margins
     read correctly with probability Φ(margin). *)
  let signed = if state then i -. p.i_ref else p.i_ref -. i in
  if p.read_noise <= 0.0 then (if signed >= 0.0 then infinity else neg_infinity)
  else signed /. (p.read_noise *. i)

let margin d =
  match d.phys with
  | None -> None
  | Some p ->
      let m s = sense_margin p ~wear:d.wear s in
      Some (Float.min (m true) (m false))

(* Drive the cell toward [v].  A defective cell ignores every pulse; each
   healthy switching event costs one cycle of wear. *)
let switch d v =
  match d.defect with
  | Some _ -> ()
  | None ->
      if d.state <> v then begin
        d.state <- v;
        d.wear <- d.wear + 1
      end

let read d =
  match d.phys with
  | Some p ->
      (* Sense the stored resistance against the shared current reference:
         the stored state's read current, degraded by endurance drift and
         jittered by thermal noise, decides the sensed logic level.  The
         failure probability is Φ(-margin) of the sampled window — never a
         flat coin flip. *)
      let r_lrs, r_hrs = effective_resistances p ~wear:d.wear in
      let i = p.v_read /. (if d.state then r_lrs else r_hrs) in
      let sensed = i *. (1.0 +. (p.read_noise *. Logic.Prng.gaussian p.rng)) in
      sensed > p.i_ref
  | None -> d.state

let clear d = switch d false
let set d = switch d true
let write d v = switch d v

let imp_pulse ~p ~q =
  (* V_COND on P cannot switch P; the interaction sets Q when P is 0. *)
  if not p.state then switch q true

let imp_apply ~p q = if not p then switch q true

let maj_pulse r ~p ~q =
  (* Fig. 2: R' = P·Q̄ when R = 0 and P + Q̄ when R = 1, i.e. M(P, ¬Q, R). *)
  let nq = not q in
  switch r ((p && nq) || ((p || nq) && r.state))
