(* The benchmark's own tests.  The [paper] workload must be the paper's
   experiment: each job's Table I (R, S) equals the matching cell that
   Exp.Experiments.table2_row computes at effort 40 for the same circuit.

   The reference rows are computed on the circuits exactly as the workload
   reads them, from its .bench text.  The suite's generated networks carry
   dead gates that the .bench round trip drops; the live logic (6,568 MIG
   gates over the suite) is unchanged, but the node numbering shifts, and
   the flows' tie-breaks follow node ids, so 19 of the 125 cells of the
   stock Exp.Experiments.table2 differ slightly from a run on re-read
   input. *)

open Perfbench

let table2_cell (row : Exp.Experiments.t2_row) = function
  | "area" -> row.area_imp
  | "depth" -> row.depth_imp
  | "rram-costs-imp" -> row.rram_imp
  | "rram-costs-maj" -> row.rram_maj
  | "steps" -> row.step_maj
  | alg -> Alcotest.failf "no Table II column for %s" alg

let test_paper_matches_table2 () =
  let flows = Workloads.paper_flows () in
  let jobs = Workloads.paper_inputs ~seed:0 in
  Alcotest.(check int) "25 circuits x 5 algorithms" 125 (List.length jobs);
  let rows =
    Par.map ~jobs:2
      (fun (e : Io.Benchmarks.entry) ->
        let bench =
          (List.find (fun (j : Workloads.paper_job) -> j.circuit = e.name) jobs).bench
        in
        Exp.Experiments.table2_row ~effort:Workloads.paper_effort
          { e with build = (fun () -> Io.Bench_format.parse_string bench) })
      Io.Benchmarks.table2
  in
  List.iter
    (fun (job : Workloads.paper_job) ->
      let row =
        List.find (fun (r : Exp.Experiments.t2_row) -> r.name = job.circuit) rows
      in
      let want = table2_cell row job.algorithm in
      let got = (Workloads.run_paper flows job).Workloads.table1 in
      Alcotest.(check (pair int int))
        (job.circuit ^ "/" ^ job.algorithm)
        (want.Core.Rram_cost.rrams, want.Core.Rram_cost.steps)
        (got.Core.Rram_cost.rrams, got.Core.Rram_cost.steps))
    jobs

let test_seed_only_orders_paper () =
  let key (j : Workloads.paper_job) = (j.circuit, j.algorithm) in
  let a = Workloads.paper_inputs ~seed:1 and b = Workloads.paper_inputs ~seed:2 in
  Alcotest.(check bool) "orders differ" true (List.map key a <> List.map key b);
  Alcotest.(check (list (pair string string)))
    "same jobs"
    (List.sort compare (List.map key a))
    (List.sort compare (List.map key b))

let test_self_times_sum_to_job_time () =
  Trace.set_enabled true;
  let busy () = ignore (Sys.opaque_identity (List.init 10_000 Fun.id)) in
  for id = 0 to 2 do
    ignore
      (Trace.job id (fun () ->
           busy ();
           Trace.layer "flow" (fun () ->
               busy ();
               Trace.layer "core.equiv" busy);
           Trace.layer "io.write" busy))
  done;
  Trace.set_enabled false;
  let b = Layers.breakdown (Trace.spans ()) in
  Alcotest.(check bool) "layers + unattributed = job time" true (Layers.sums_to_job_time b);
  Alcotest.(check int) "flow calls" 3 (List.assoc "flow" b.Layers.calls);
  Alcotest.(check int) "equiv calls" 3 (List.assoc "core.equiv" b.Layers.calls)

let () =
  Alcotest.run "perfbench"
    [
      ( "paper",
        [
          Alcotest.test_case "jobs match table2_row at effort 40" `Slow
            test_paper_matches_table2;
          Alcotest.test_case "seed only reorders the jobs" `Quick
            test_seed_only_orders_paper;
        ] );
      ( "trace",
        [ Alcotest.test_case "self times sum to job time" `Quick test_self_times_sum_to_job_time ] );
    ]
