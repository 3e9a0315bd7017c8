(* Serial-vs-crossbar Pareto comparison over the Table II suite.  See
   crossbar.mli for the experimental design. *)

module RC = Core.Rram_cost

type point = {
  p_arch : RC.arch;
  p_analytic : RC.triple;
  p_measured : RC.triple;
  p_waves : int;
  p_verified : bool;
  p_pareto : bool;
}

type row = {
  name : string;
  inputs : int;
  exact : bool;
  serial_analytic : RC.cost;
  serial_devices : int;
  serial_latency : int;
  points : point list;
}

type t = {
  realization : RC.realization;
  effort : int option;
  rows : row list;
  elapsed_seconds : float;
}

let geometry_of arch =
  match arch with
  | RC.Crossbar { rows; columns } -> (rows, columns)
  | RC.Unbounded_serial -> invalid_arg "Crossbar.geometry_of: serial"

let mark_pareto ~serial points =
  let triples = serial :: List.map (fun p -> p.p_measured) points in
  List.map
    (fun p ->
      let dominated =
        List.exists
          (fun other ->
            other <> p.p_measured && RC.triple_pareto_better other p.p_measured)
          triples
      in
      { p with p_pareto = not dominated })
    points

let row ?effort ~realization (e : Io.Benchmarks.entry) =
  Obs.with_span ~cat:"exp" ("exp/crossbar/" ^ e.Io.Benchmarks.name) @@ fun () ->
  let mig =
    Core.Mig_opt.steps ?effort (Core.Mig_of_network.convert (e.Io.Benchmarks.build ()))
  in
  let serial = Rram.Compile_mig.compile realization mig in
  let fitted = Rram.Compile_crossbar.fit realization mig in
  let fitted_rows = fst (geometry_of fitted) in
  (* The fitted geometry is the minimum-latency end of the sweep; halving
     the rows (then halving again) trades waves for a narrower array.  A
     divisor that lands on the fitted row count, or below the circuit's
     hard floor, contributes nothing and is dropped. *)
  let geometries =
    fitted
    :: List.filter_map
         (fun divisor ->
           let budget = fitted_rows / divisor in
           if budget < 1 || budget >= fitted_rows then None
           else
             match Rram.Compile_crossbar.fit ~rows:budget realization mig with
             | arch -> Some arch
             | exception Rram.Compile_crossbar.Too_small _ -> None)
         [ 2; 4 ]
  in
  let geometries = List.sort_uniq compare geometries in
  let points =
    List.filter_map
      (fun arch ->
        match Rram.Compile_crossbar.compile ~arch realization mig with
        | Error _ -> None
        | Ok c ->
            let verified =
              Result.is_ok
                (Rram.Verify.against_mig c.Rram.Compile_crossbar.program mig)
            in
            Some
              {
                p_arch = arch;
                p_analytic = c.Rram.Compile_crossbar.analytic;
                p_measured = c.Rram.Compile_crossbar.measured;
                p_waves = c.Rram.Compile_crossbar.waves;
                p_verified = verified;
                p_pareto = false;
              })
      geometries
  in
  (* The serial program is a point of the same trade-off space: it needs one
     device per register and pays one step per micro-op, and with every
     device addressed individually there is no idle capacity. *)
  let serial_cost = serial.Rram.Compile_mig.cost in
  let points = mark_pareto ~serial:serial_cost points in
  (* Points sorted widest-first so the table reads fitted → constrained. *)
  let points =
    List.sort
      (fun a b -> compare (fst (geometry_of b.p_arch)) (fst (geometry_of a.p_arch)))
      points
  in
  {
    name = e.Io.Benchmarks.name;
    inputs = e.Io.Benchmarks.inputs;
    exact = e.Io.Benchmarks.exact;
    serial_analytic = serial.Rram.Compile_mig.analytic;
    serial_devices = serial_cost.RC.devices;
    serial_latency = serial_cost.RC.latency;
    points;
  }

let run ?effort ?(realization = RC.Maj) ?(jobs = 1)
    ?(entries = Io.Benchmarks.table2) () =
  Obs.with_span ~cat:"exp" "exp/crossbar" @@ fun () ->
  let t0 = Obs.now_ns () in
  let rows = Par.map ~jobs (row ?effort ~realization) entries in
  {
    realization;
    effort;
    rows;
    elapsed_seconds = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9;
  }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>Crossbar mapping vs unbounded-serial (%a realization) — latency in steps@,"
    RC.pp_realization t.realization;
  Format.fprintf ppf "%-10s %3s | %13s | %-44s@," "bench" "in" "serial R/S"
    "crossbar points: RxC lat waves util (P=pareto)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %3d | %6d/%-6d |" r.name r.inputs r.serial_devices
        r.serial_latency;
      List.iter
        (fun p ->
          let rows, columns = geometry_of p.p_arch in
          Format.fprintf ppf " %dx%d %d/%dw %.2f%s%s" rows columns
            p.p_measured.RC.latency p.p_waves p.p_measured.RC.utilization
            (if p.p_pareto then " P" else "")
            (if p.p_verified then "" else " UNVERIFIED"))
        r.points;
      Format.fprintf ppf "@,")
    t.rows;
  let fitted_ok =
    List.for_all
      (fun r ->
        match r.points with
        | p :: _ -> p.p_measured.RC.latency <= r.serial_latency
        | [] -> false)
      t.rows
  in
  let all_verified =
    List.for_all (fun r -> List.for_all (fun p -> p.p_verified) r.points) t.rows
  in
  Format.fprintf ppf
    "@,Fitted-crossbar latency <= serial steps on every benchmark: %b@," fitted_ok;
  Format.fprintf ppf "All crossbar programs simulator-verified: %b@," all_verified;
  Format.fprintf ppf "(%.2f s)@]@." t.elapsed_seconds

let to_json t =
  let open Obs.Json in
  Assoc
    ([ ("schema", String "migsyn-crossbar/1") ]
    @ (match t.effort with Some e -> [ ("effort", Int e) ] | None -> [])
    @ [
        ( "realization",
          String (Format.asprintf "%a" RC.pp_realization t.realization) );
        ( "rows",
          List
            (List.map
               (fun r ->
                 Assoc
                   [
                     ("name", String r.name);
                     ("inputs", Int r.inputs);
                     ("exact", Bool r.exact);
                     ( "serial",
                       Assoc
                         [
                           ("rrams", Int r.serial_devices);
                           ("steps", Int r.serial_latency);
                           ("analytic_rrams", Int r.serial_analytic.RC.rrams);
                           ("analytic_steps", Int r.serial_analytic.RC.steps);
                         ] );
                     ( "points",
                       List
                         (List.map
                            (fun p ->
                              let rows, columns = geometry_of p.p_arch in
                              Assoc
                                [
                                  ("arch", String (RC.arch_to_string p.p_arch));
                                  ("rows", Int rows);
                                  ("columns", Int columns);
                                  ("devices", Int p.p_measured.RC.devices);
                                  ("latency", Int p.p_measured.RC.latency);
                                  ( "utilization",
                                    Float p.p_measured.RC.utilization );
                                  ( "analytic_latency",
                                    Int p.p_analytic.RC.latency );
                                  ("waves", Int p.p_waves);
                                  ("verified", Bool p.p_verified);
                                  ("pareto", Bool p.p_pareto);
                                ])
                            r.points) );
                   ])
               t.rows) );
        ("wall_seconds", Float t.elapsed_seconds);
      ])
