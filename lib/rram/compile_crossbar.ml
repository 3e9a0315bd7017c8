module M = Core.Mig
module L = Core.Mig_levels
module RC = Core.Rram_cost

type t = {
  program : Program.t;
  placement : Placement.t;
  serial : RC.cost;
  analytic : RC.triple;
  measured : RC.triple;
  waves : int;
}

exception Too_small of string

let invert_micro realization ~src ~dst =
  match realization with
  | RC.Imp -> Isa.Imp { src; dst }
  | RC.Maj -> Isa.Maj_pulse { p = Isa.Const true; q = Isa.Reg src; dst }

(* Greedy row-disjoint batching: split a list of (row, pulse) pairs into the
   fewest steps such that no step fires two pulses on one row, preserving
   emission order inside each step.  First-fit puts the k-th pulse of a row
   (from 0) in batch k, so an item's batch is the number of earlier items
   on its row. *)
let batch_by_row items =
  let seen = Hashtbl.create 17 in
  let tagged =
    List.rev_map
      (fun (row, micro) ->
        let k = Option.value ~default:0 (Hashtbl.find_opt seen row) in
        Hashtbl.replace seen row (k + 1);
        (k, micro))
      items
  in
  let batches = Array.make (Hashtbl.fold (fun _ k m -> max k m) seen 0) [] in
  List.iter (fun (k, micro) -> batches.(k) <- micro :: batches.(k)) tagged;
  Array.to_list batches

(* Per-row allocation state.  [used] and [inv] hold the last wave that
   claimed the row for a gate or for a MAJ complement inversion, so the
   per-wave marks reset without a sweep. *)
type row_state = {
  mutable next_col : int;  (* lowest column never handed out *)
  mutable free_cols : int list;  (* released columns, ascending *)
  mutable nfree : int;  (* length of [free_cols] *)
  mutable regs : int array;  (* column -> register, -1 before first use *)
  mutable used : int;
  mutable inv : int;
  mutable readout_inv : bool;  (* hosts a readout-inversion device *)
}

(* [a] with room for index [i]; new slots hold [fill]. *)
let grow a i fill =
  let len = Array.length a in
  if i < len then a
  else begin
    let b = Array.make (max (i + 1) (2 * len)) fill in
    Array.blit a 0 b 0 len;
    b
  end

type po_plan =
  | Direct of Isa.operand
  | Gate_result of int
  | Inv_of_reg of { h : Isa.reg; inv : Isa.reg; row : int }
  | Inv_of_gate of { n : int; inv : Isa.reg option ref; row : int option ref }

(* The scheduler proper.  Deterministic: row choice is always the
   lowest-index row satisfying the predicate, site choice the lowest free
   column, so re-running with the measured geometry reproduces the program
   bit for bit (every capacity check that passed under unbounded columns
   passes under the measured maximum).  Per-row state grows with the rows
   actually opened, never with [rows].  Raises [Too_small]. *)
let run_waves ~rows ~columns realization mig lv =
  let depth = lv.L.depth in
  let num_inputs = M.num_pis mig in
  let k_s = RC.steps_per_level realization in
  let npulse = k_s - 1 in
  (* ---- site allocation: one register per physical (row, column) site ---- *)
  let row_states = ref [||] in
  let opened = ref 0 in
  let state r = !row_states.(r) in
  let has_capacity s need =
    let fresh = columns - s.next_col in
    fresh >= need || fresh + s.nfree >= need
  in
  let reg_row = ref [||] and reg_col = ref [||] in
  (* the wave in which a register became a MAJ gate's result *)
  let result_wave = ref [||] in
  let next_reg = ref 0 in
  let reg_at r c =
    let s = state r in
    s.regs <- grow s.regs c (-1);
    let reg = s.regs.(c) in
    if reg >= 0 then reg
    else begin
      let reg = !next_reg in
      incr next_reg;
      s.regs.(c) <- reg;
      reg_row := grow !reg_row reg 0;
      reg_col := grow !reg_col reg 0;
      result_wave := grow !result_wave reg 0;
      !reg_row.(reg) <- r;
      !reg_col.(reg) <- c;
      reg
    end
  in
  let take r =
    let s = state r in
    match s.free_cols with
    | c :: rest ->
        s.free_cols <- rest;
        s.nfree <- s.nfree - 1;
        c
    | [] ->
        if s.next_col >= columns then
          raise (Too_small (Printf.sprintf "row %d overflows %d columns" r columns));
        let c = s.next_col in
        s.next_col <- c + 1;
        c
  in
  let alloc r = reg_at r (take r) in
  let rec insert_sorted c = function
    | [] -> [ c ]
    | x :: rest as l -> if c < x then c :: l else x :: insert_sorted c rest
  in
  (* Sites released mid-wave become reusable only at the next wave boundary,
     so a step never reads a device another gate rewrote in the same wave. *)
  let pending = ref [] in
  let release_pending () =
    List.iter
      (fun reg ->
        let s = state !reg_row.(reg) in
        s.free_cols <- insert_sorted !reg_col.(reg) s.free_cols;
        s.nfree <- s.nfree + 1)
      !pending;
    pending := []
  in
  (* First row (lowest index) satisfying [ok]; opens at most one fresh row.
     Each predicate scans through its own [cursor], reset whenever rows can
     start passing it again (at a wave boundary, when freed sites return).
     In between, a row that fails keeps failing — capacity only shrinks and
     the used/inversion marks only grow — so resuming at the cursor finds
     the same row as a scan from row 0, in O(rows) per cursor per wave. *)
  let scan_rows cursor ok =
    let rec go r =
      if r >= rows then begin
        cursor := r;
        None
      end
      else begin
        let fresh = r >= !opened in
        if fresh then begin
          let s =
            {
              next_col = 0;
              free_cols = [];
              nfree = 0;
              regs = [||];
              used = 0;
              inv = 0;
              readout_inv = false;
            }
          in
          row_states := grow !row_states r s;
          !row_states.(r) <- s;
          opened := r + 1
        end;
        if ok r then begin
          cursor := r;
          Some r
        end
        else if fresh then begin
          cursor := r + 1;
          None
        end
        else go (r + 1)
      end
    in
    go !cursor
  in
  (* ---- levels, liveness ---- *)
  let by_level = Array.make (depth + 1) [] in
  List.iter
    (fun g ->
      let l = lv.L.level.(g) in
      by_level.(l) <- g :: by_level.(l))
    lv.L.order;
  Array.iteri (fun i gs -> by_level.(i) <- List.rev gs) by_level;
  let nodes = M.num_nodes mig in
  let refcount = Array.make nodes 0 in
  List.iter
    (fun g ->
      Array.iter
        (fun s ->
          let n = M.node_of s in
          match M.kind mig n with
          | M.Gate -> refcount.(n) <- refcount.(n) + 1
          | _ -> ())
        (M.fanins mig g))
    lv.L.order;
  let pinned = Array.make nodes false in
  Array.iter
    (fun s ->
      let n = M.node_of s in
      match M.kind mig n with M.Gate -> pinned.(n) <- true | _ -> ())
    (M.pos mig);
  let result_reg = Array.make nodes (-1) in
  let consumed n =
    refcount.(n) <- refcount.(n) - 1;
    if refcount.(n) = 0 && not pinned.(n) then
      pending := result_reg.(n) :: !pending
  in
  (* ---- readout plan ---- *)
  let start_presets = ref [] in
  let inv_plans = ref [] in
  let po_memo = Hashtbl.create 17 in
  let compl_po_imp = Array.make nodes None in
  (* Rows already hosting a readout-inversion device are marked; later
     inversions (and IMP producers of complemented outputs) prefer other
     rows so the final inversion step stays a single row-disjoint batch.
     One cursor pair per demand (1 or 2 devices): no site is freed before
     the waves. *)
  let readout_cursors = Array.init 3 (fun _ -> (ref 0, ref 0)) in
  let pick_inv_row need =
    let spread, any = readout_cursors.(need) in
    let cap r = has_capacity (state r) need in
    match scan_rows spread (fun r -> (not (state r).readout_inv) && cap r) with
    | Some r -> r
    | None -> (
        match scan_rows any cap with
        | Some r -> r
        | None ->
            raise (Too_small "no row left for a readout inversion device"))
  in
  let po_plans =
    Array.map
      (fun s ->
        match Hashtbl.find_opt po_memo s with
        | Some plan -> plan
        | None ->
            let n = M.node_of s and c = M.is_compl s in
            let plan =
              match M.kind mig n with
              | M.Const -> Direct (Isa.Const c)
              | M.Pi i ->
                  if not c then Direct (Isa.Input i)
                  else begin
                    (* staging copy of the input plus its inversion device,
                       paired on one row so the IMP readout pulse is legal *)
                    let row = pick_inv_row 2 in
                    (state row).readout_inv <- true;
                    let h = alloc row in
                    let inv = alloc row in
                    start_presets :=
                      Isa.Load (h, Isa.Input i) :: Isa.Reset inv :: !start_presets;
                    let plan = Inv_of_reg { h; inv; row } in
                    inv_plans := plan :: !inv_plans;
                    plan
                  end
              | M.Gate ->
                  if not c then Gate_result n
                  else begin
                    let invr = ref None and rowr = ref None in
                    (match realization with
                    | RC.Maj ->
                        (* electrode-read source: the inversion device can sit
                           on any row, reserved up front *)
                        let row = pick_inv_row 1 in
                        (state row).readout_inv <- true;
                        let inv = alloc row in
                        invr := Some inv;
                        rowr := Some row;
                        start_presets := Isa.Reset inv :: !start_presets
                    | RC.Imp ->
                        (* the IMP pulse needs src and dst on one row: the
                           device is reserved on the producer's row when the
                           producer is placed *)
                        compl_po_imp.(n) <- Some (invr, rowr));
                    let plan = Inv_of_gate { n; inv = invr; row = rowr } in
                    inv_plans := plan :: !inv_plans;
                    plan
                  end
            in
            Hashtbl.replace po_memo s plan;
            plan)
      (M.pos mig)
  in
  (* ---- per-gate row demand (must mirror the emission allocation) ---- *)
  let operand_row_need pos s =
    let n = M.node_of s and c = M.is_compl s in
    match (M.kind mig n, realization) with
    | M.Const, _ -> 1
    | (M.Pi _ | M.Gate), RC.Imp -> if c then 2 else 1
    | M.Pi _, RC.Maj -> if c && pos = 2 then 2 else 1
    | M.Gate, RC.Maj -> if c then (if pos = 2 then 1 else 0) else 1
  in
  let scratch = match realization with RC.Imp -> 3 | RC.Maj -> 1 in
  let row_need g =
    let need = ref scratch in
    Array.iteri
      (fun i s -> need := !need + operand_row_need i s)
      (M.fanins mig g);
    (match compl_po_imp.(g) with
    | Some (invr, _) when !invr = None -> incr need
    | _ -> ());
    !need
  in
  (* every operand needs at most 2 devices, plus the readout reservation *)
  let max_need = scratch + (3 * 2) + 1 in
  (* ---- emission ---- *)
  let steps_rev = ref [] in
  let push_step step = if step <> [] then steps_rev := step :: !steps_rev in
  let first_load_extra = ref (List.rev !start_presets) in
  let waves = ref 0 in
  let spread_cursor = ref 0 and any_cursor = ref 0 in
  let emit_wave placed =
    let wave = !waves in
    let load = ref [] in
    let maj_inv = ref [] in
    let imp_compl = Array.make 3 [] in
    let gate_steps = Array.make npulse [] in
    let wave_temps = ref [] in
    (* pre-mark gate rows whose third operand is complemented: their
       inversion device is the future pulse destination and must live on the
       gate's own row, so spread inversions avoid those rows *)
    (match realization with
    | RC.Maj ->
        List.iter
          (fun (g, row) ->
            let f = M.fanins mig g in
            let s = f.(2) in
            if M.is_compl s then
              match M.kind mig (M.node_of s) with
              | M.Pi _ | M.Gate -> (state row).inv <- wave
              | M.Const -> ())
          placed
    | RC.Imp -> ());
    spread_cursor := 0;
    any_cursor := 0;
    List.iter
      (fun (g, row) ->
        let temp reg =
          wave_temps := reg :: !wave_temps;
          reg
        in
        let alloc_temp () = temp (alloc row) in
        (* a MAJ inversion reads its source through the electrodes, so its
           device spreads to any row with a free site — preferring rows
           without another inversion this wave keeps the complement phase a
           single parallel step *)
        let alloc_inv_spread () =
          let cap r = has_capacity (state r) 1 in
          let pick =
            match
              scan_rows spread_cursor (fun r -> (state r).inv <> wave && cap r)
            with
            | Some r -> Some r
            | None -> scan_rows any_cursor cap
          in
          match pick with
          | None ->
              raise (Too_small "no free device left for a complement inversion")
          | Some r ->
              (state r).inv <- wave;
              (temp (alloc r), r)
        in
        let operand_reg pos s =
          let n = M.node_of s and c = M.is_compl s in
          match M.kind mig n with
          | M.Const ->
              let r = alloc_temp () in
              load := Isa.Load (r, Isa.Const c) :: !load;
              (* signal 1 is ¬const0 = true *)
              r
          | M.Pi i ->
              if not c then begin
                let r = alloc_temp () in
                load := Isa.Load (r, Isa.Input i) :: !load;
                r
              end
              else begin
                match realization with
                | RC.Imp ->
                    let h = alloc_temp () in
                    let inv = alloc_temp () in
                    load := Isa.Load (h, Isa.Input i) :: Isa.Reset inv :: !load;
                    imp_compl.(pos) <-
                      Isa.Imp { src = h; dst = inv } :: imp_compl.(pos);
                    inv
                | RC.Maj ->
                    let h = alloc_temp () in
                    let inv, inv_row =
                      if pos = 2 then begin
                        (state row).inv <- wave;
                        (alloc_temp (), row)
                      end
                      else alloc_inv_spread ()
                    in
                    load := Isa.Load (h, Isa.Input i) :: Isa.Reset inv :: !load;
                    maj_inv :=
                      (inv_row, invert_micro realization ~src:h ~dst:inv)
                      :: !maj_inv;
                    inv
              end
          | M.Gate -> (
              let src = result_reg.(n) in
              let r =
                if not c then begin
                  let r = alloc_temp () in
                  load := Isa.Load (r, Isa.Reg src) :: !load;
                  r
                end
                else
                  match realization with
                  | RC.Imp ->
                      (* the producer lives on another row: stage a copy on
                         this gate's row so the inversion IMP is row-local *)
                      let h = alloc_temp () in
                      let inv = alloc_temp () in
                      load := Isa.Load (h, Isa.Reg src) :: Isa.Reset inv :: !load;
                      imp_compl.(pos) <-
                        Isa.Imp { src = h; dst = inv } :: imp_compl.(pos);
                      inv
                  | RC.Maj ->
                      let inv, inv_row =
                        if pos = 2 then begin
                          (state row).inv <- wave;
                          (alloc_temp (), row)
                        end
                        else alloc_inv_spread ()
                      in
                      load := Isa.Reset inv :: !load;
                      maj_inv :=
                        (inv_row, invert_micro realization ~src ~dst:inv)
                        :: !maj_inv;
                      inv
              in
              consumed n;
              r)
        in
        let add_gate_micro i m = gate_steps.(i) <- m :: gate_steps.(i) in
        let f = M.fanins mig g in
        let x = operand_reg 0 f.(0) in
        let y = operand_reg 1 f.(1) in
        let z = operand_reg 2 f.(2) in
        (match realization with
        | RC.Imp ->
            let a = alloc row in
            let c = alloc_temp () in
            let d = alloc_temp () in
            load := Isa.Reset a :: Isa.Reset c :: Isa.Reset d :: !load;
            (* steps 02–10 of §III-A.1 (x=X, y=Y, z=Z, a=A, c=B, d=C) *)
            add_gate_micro 0 (Isa.Imp { src = x; dst = a });
            add_gate_micro 1 (Isa.Imp { src = y; dst = c });
            add_gate_micro 2 (Isa.Imp { src = a; dst = y });
            add_gate_micro 3 (Isa.Imp { src = x; dst = c });
            add_gate_micro 4 (Isa.Imp { src = y; dst = d });
            add_gate_micro 5 (Isa.Imp { src = z; dst = d });
            add_gate_micro 6 (Isa.Reset a);
            add_gate_micro 7 (Isa.Imp { src = c; dst = a });
            add_gate_micro 8 (Isa.Imp { src = d; dst = a });
            result_reg.(g) <- a
        | RC.Maj ->
            let a = alloc_temp () in
            load := Isa.Reset a :: !load;
            (* step 02: A ← ¬y; step 03: Z ← M(x, y, z) *)
            add_gate_micro 0
              (Isa.Maj_pulse { p = Isa.Const true; q = Isa.Reg y; dst = a });
            add_gate_micro 1
              (Isa.Maj_pulse { p = Isa.Reg x; q = Isa.Reg a; dst = z });
            result_reg.(g) <- z;
            (* z doubles as the result: it leaves the temps at the end of the
               wave (no site is handed out twice in one wave) *)
            !result_wave.(z) <- wave);
        (* reserve the readout-inversion device for a complemented output of
           this gate on its own row, preset alongside this wave's loads *)
        (match compl_po_imp.(g) with
        | Some (invr, rowr) when !invr = None ->
            let inv = alloc row in
            invr := Some inv;
            rowr := Some row;
            (state row).readout_inv <- true;
            load := Isa.Reset inv :: !load
        | _ -> ());
        if refcount.(g) <= 0 && not pinned.(g) then
          pending := result_reg.(g) :: !pending)
      placed;
    let extra = !first_load_extra in
    first_load_extra := [];
    push_step (List.rev !load @ extra);
    (match realization with
    | RC.Imp -> Array.iter (fun l -> push_step (List.rev l)) imp_compl
    | RC.Maj -> List.iter push_step (batch_by_row (List.rev !maj_inv)));
    Array.iter (fun st -> push_step (List.rev st)) gate_steps;
    List.iter
      (fun reg -> if !result_wave.(reg) <> wave then pending := reg :: !pending)
      !wave_temps
  in
  (* placement cursors per demand: a row's capacity is fixed while a wave
     is being placed, and its used mark only gets set *)
  let any_cursors = Array.init (max_need + 1) (fun _ -> ref 0) in
  let spare_cursors = Array.init (max_need + 1) (fun _ -> ref 0) in
  for l = 1 to depth do
    let remaining = ref by_level.(l) in
    while !remaining <> [] do
      release_pending ();
      incr waves;
      let wave = !waves in
      Array.iter (fun c -> c := 0) any_cursors;
      Array.iter (fun c -> c := 0) spare_cursors;
      let placed = ref [] and deferred = ref [] in
      List.iter
        (fun g ->
          let need = row_need g in
          if need > columns then
            raise
              (Too_small
                 (Printf.sprintf
                    "gate %d needs %d devices on one row but the crossbar has \
                     only %d columns"
                    g need columns));
          let prefer_unused_by_inv =
            match compl_po_imp.(g) with
            | Some (invr, _) -> !invr = None
            | None -> false
          in
          let ok r =
            let s = state r in
            s.used <> wave && has_capacity s need
          in
          let pick =
            if prefer_unused_by_inv then
              match
                scan_rows spare_cursors.(need) (fun r ->
                    ok r && not (state r).readout_inv)
              with
              | Some r -> Some r
              | None -> scan_rows any_cursors.(need) ok
            else scan_rows any_cursors.(need) ok
          in
          match pick with
          | Some r ->
              (state r).used <- wave;
              placed := (g, r) :: !placed
          | None -> deferred := g :: !deferred)
        !remaining;
      (match !placed with
      | [] ->
          let g = List.hd !remaining in
          raise
            (Too_small
               (Printf.sprintf
                  "level %d: gate %d needs %d devices on one row and no %dx%d \
                   row can host it (live values occupy the array)"
                  l g (row_need g) rows columns))
      | _ -> ());
      emit_wave (List.rev !placed);
      remaining := List.rev !deferred
    done
  done;
  (* Degenerate case: no gate wave to merge the presets into. *)
  if !first_load_extra <> [] then begin
    push_step !first_load_extra;
    first_load_extra := []
  end;
  (* Final readout inversions, batched so each step is row-disjoint (a single
     step whenever the reservations above found distinct rows). *)
  let final_items =
    List.filter_map
      (fun plan ->
        match plan with
        | Inv_of_reg { h; inv; row } ->
            Some (row, invert_micro realization ~src:h ~dst:inv)
        | Inv_of_gate { n; inv; row } ->
            Some
              ( Option.get !row,
                invert_micro realization ~src:result_reg.(n)
                  ~dst:(Option.get !inv) )
        | Direct _ | Gate_result _ -> None)
      (List.rev !inv_plans)
  in
  List.iter push_step (batch_by_row final_items);
  let outputs =
    Array.map
      (function
        | Direct o -> o
        | Gate_result n -> Isa.Reg result_reg.(n)
        | Inv_of_reg { inv; _ } -> Isa.Reg inv
        | Inv_of_gate { inv; _ } -> Isa.Reg (Option.get !inv))
      po_plans
  in
  let program =
    {
      Program.num_inputs;
      num_regs = !next_reg;
      steps = List.rev !steps_rev;
      outputs;
    }
  in
  let n = max 1 !next_reg in
  let row_of = Array.make n 0 and column_of = Array.make n 0 in
  Array.blit !reg_row 0 row_of 0 !next_reg;
  Array.blit !reg_col 0 column_of 0 !next_reg;
  let max_col = ref 0 in
  for r = 0 to !opened - 1 do
    max_col := max !max_col (state r).next_col
  done;
  (program, row_of, column_of, !waves, !max_col)

let fit_rows realization mig lv =
  let depth = lv.L.depth in
  let widths = ref 0 and compl_max = ref 0 in
  for i = 1 to depth do
    if i < Array.length lv.L.gates_per_level then
      widths := max !widths lv.L.gates_per_level.(i);
    if i < Array.length lv.L.compl_per_level then
      compl_max := max !compl_max lv.L.compl_per_level.(i)
  done;
  (* one row per distinct complemented output signal keeps the readout
     inversion a single step *)
  let readout = Hashtbl.create 17 in
  Array.iter
    (fun s ->
      if M.is_compl s then
        match M.kind mig (M.node_of s) with
        | M.Pi _ | M.Gate -> Hashtbl.replace readout s ()
        | M.Const -> ())
    (M.pos mig);
  let compl_rows =
    match realization with RC.Imp -> 0 | RC.Maj -> !compl_max
  in
  max 1 (max !widths (max compl_rows (Hashtbl.length readout)))

let fit ?rows realization mig =
  let lv = L.compute mig in
  let rows =
    match rows with
    | Some r -> max 1 r
    | None -> fit_rows realization mig lv
  in
  let _, _, _, _, max_col =
    run_waves ~rows ~columns:max_int realization mig lv
  in
  RC.Crossbar { rows; columns = max max_col 1 }

let compile ~arch realization mig =
  match arch with
  | RC.Unbounded_serial ->
      Error "the crossbar backend needs a crossbar geometry, not 'serial'"
  | RC.Crossbar { rows; columns } -> (
      match RC.validate_arch arch with
      | Error e -> Error e
      | Ok () -> (
          let lv = L.compute mig in
          match run_waves ~rows ~columns realization mig lv with
          | exception Too_small msg -> Error msg
          | program, row_of, column_of, waves, _ ->
              let devices = program.Program.num_regs in
              let capacity = rows * columns in
              let utilization =
                float_of_int devices /. float_of_int capacity
              in
              let placement =
                { Placement.rows; columns; row_of; column_of; utilization }
              in
              let measured =
                {
                  RC.devices;
                  latency = Program.num_steps program;
                  utilization;
                }
              in
              Ok
                {
                  program;
                  placement;
                  serial = RC.of_levels realization lv;
                  analytic = RC.triple_of_levels ~arch realization lv;
                  measured;
                  waves;
                }))
