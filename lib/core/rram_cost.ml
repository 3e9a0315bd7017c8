type realization = Imp | Maj

let rrams_per_gate = function Imp -> 6 | Maj -> 4
let steps_per_level = function Imp -> 10 | Maj -> 3

type arch = Unbounded_serial | Crossbar of { rows : int; columns : int }

let validate_arch = function
  | Unbounded_serial -> Ok ()
  | Crossbar { rows; columns } ->
      if rows < 1 then
        Error (Printf.sprintf "crossbar needs at least one row (got %d)" rows)
      else if columns < 1 then
        Error (Printf.sprintf "crossbar needs at least one column (got %d)" columns)
      else if rows > max_int / columns then
        Error
          (Printf.sprintf
             "crossbar %dx%d is too large: rows x columns exceeds %d devices"
             rows columns max_int)
      else Ok ()

(* ceil (a / b) for a >= 0 and b >= 1, without the overflow of
   (a + b - 1) / b near max_int *)
let ceil_div a b = if a = 0 then 0 else 1 + ((a - 1) / b)

let arch_to_string = function
  | Unbounded_serial -> "serial"
  | Crossbar { rows; columns } -> Printf.sprintf "%dx%d" rows columns

let parse_arch text =
  let s = String.lowercase_ascii (String.trim text) in
  match s with
  | "serial" | "unbounded" -> Ok Unbounded_serial
  | _ -> (
      let malformed () =
        Error
          (Printf.sprintf
             "bad architecture '%s': expected ROWSxCOLUMNS (e.g. 32x64) or \
              'serial'"
             text)
      in
      match String.index_opt s 'x' with
      | None -> malformed ()
      | Some i -> (
          let rows_text = String.sub s 0 i in
          let cols_text = String.sub s (i + 1) (String.length s - i - 1) in
          match (int_of_string_opt rows_text, int_of_string_opt cols_text) with
          | Some rows, Some columns -> (
              let a = Crossbar { rows; columns } in
              match validate_arch a with Ok () -> Ok a | Error e -> Error e)
          | _ -> malformed ()))


type cost = { rrams : int; steps : int }

let of_levels realization (lv : Mig_levels.t) =
  let k_r = rrams_per_gate realization in
  let k_s = steps_per_level realization in
  let rrams = ref 0 in
  for i = 0 to lv.Mig_levels.depth + 1 do
    let ni = if i < Array.length lv.gates_per_level then lv.gates_per_level.(i) else 0 in
    let ci = if i < Array.length lv.compl_per_level then lv.compl_per_level.(i) else 0 in
    rrams := max !rrams ((k_r * ni) + ci)
  done;
  let steps = (k_s * lv.depth) + Mig_levels.num_levels_with_compl lv in
  { rrams = !rrams; steps }

let of_mig realization mig =
  let a = Mig_analysis.of_mig mig in
  let rrams, steps =
    Mig_analysis.table1 a ~rrams_per_gate:(rrams_per_gate realization)
      ~steps_per_level:(steps_per_level realization)
  in
  { rrams; steps }

type triple = { devices : int; latency : int; utilization : float }

(* Analytic crossbar model.  Each level is executed in
   [ceil(N_i / rows)] waves of up to [rows] concurrent gates (one gate
   pulse per row per step, the HIPE-MAGIC packing); a wave costs the
   realization's per-level step count plus one complement step when the
   level carries complemented edges.  With enough rows (one wave per
   level) the latency collapses to the paper's serial S = K·D + L
   exactly, which is how [Unbounded_serial] stays one instance of the
   model rather than a special case. *)
let triple_of_levels ~arch realization (lv : Mig_levels.t) =
  let serial = of_levels realization lv in
  match arch with
  | Unbounded_serial ->
      { devices = serial.rrams; latency = serial.steps; utilization = 1.0 }
  | Crossbar { rows; columns } ->
      let k_r = rrams_per_gate realization in
      let k_s = steps_per_level realization in
      let latency = ref 0 and demand = ref 0 in
      for i = 1 to lv.Mig_levels.depth do
        let ni =
          if i < Array.length lv.gates_per_level then lv.gates_per_level.(i)
          else 0
        in
        let ci =
          if i < Array.length lv.compl_per_level then lv.compl_per_level.(i)
          else 0
        in
        let waves = max 1 (ceil_div ni rows) in
        latency := !latency + (waves * k_s) + (if ci > 0 then waves else 0);
        demand := max !demand ((k_r * min ni rows) + ci)
      done;
      (* virtual readout stage: complemented outputs invert across rows *)
      let readout = lv.Mig_levels.depth + 1 in
      let c_read =
        if readout < Array.length lv.compl_per_level then
          lv.compl_per_level.(readout)
        else 0
      in
      if c_read > 0 then begin
        latency := !latency + ceil_div c_read rows;
        demand := max !demand c_read
      end;
      let capacity = rows * columns in
      let devices = min capacity (max 1 !demand) in
      {
        devices;
        latency = !latency;
        utilization = float_of_int devices /. float_of_int capacity;
      }

let triple_pareto_better a b =
  a.devices <= b.devices && a.latency <= b.latency
  && (a.devices < b.devices || a.latency < b.latency)

let weighted_triple ?(step_weight = 4.0) t =
  float_of_int t.devices +. (step_weight *. float_of_int t.latency)

let pp_triple ppf t =
  Format.fprintf ppf "devices=%d latency=%d util=%.0f%%" t.devices t.latency
    (100.0 *. t.utilization)

let weighted ?(step_weight = 4.0) c = float_of_int c.rrams +. (step_weight *. float_of_int c.steps)

let pp ppf c = Format.fprintf ppf "R=%d S=%d" c.rrams c.steps

let pp_realization ppf = function
  | Imp -> Format.pp_print_string ppf "IMP"
  | Maj -> Format.pp_print_string ppf "MAJ"
