(* The Par work-pool and the determinism contract built on it: pool
   semantics (ordering, stress, exception propagation, sequential
   fallback), the portfolio race's jobs-independent winner, the Obs
   per-domain merge, and a QCheck property pinning parallel experiment
   rows to the sequential run modulo wall-time fields (DESIGN.md §11). *)

let default_effort = 3

let c17 () =
  let path =
    if Sys.file_exists "examples/c17.bench" then "examples/c17.bench"
    else "../examples/c17.bench"
  in
  Core.Mig_of_network.convert (Io.Bench_format.parse_file path)

(* ------------------------------------------------------------------ *)
(* Pool semantics                                                      *)
(* ------------------------------------------------------------------ *)

exception Boom of int

let pool_tests =
  let open Alcotest in
  [
    test_case "map preserves order under stress (tasks >> workers)" `Quick
      (fun () ->
        let xs = List.init 500 Fun.id in
        let f x = (x * x) + 7 in
        check (list int) "rows in submission order" (List.map f xs)
          (Par.map ~jobs:4 f xs));
    test_case "jobs=1 is the sequential computation" `Quick (fun () ->
        let xs = List.init 50 Fun.id in
        let f x = x * 3 in
        check (list int) "identical to List.map" (List.map f xs)
          (Par.map ~jobs:1 f xs));
    test_case "jobs=1 and jobs=N agree" `Quick (fun () ->
        let xs = List.init 100 Fun.id in
        let f x = Hashtbl.hash (x, "salt") in
        check (list int) "same rows" (Par.map ~jobs:1 f xs)
          (Par.map ~jobs:8 f xs));
    test_case "exception re-raised at await" `Quick (fun () ->
        check_raises "raises Boom" (Boom 3) (fun () ->
            ignore (Par.map ~jobs:4 (fun x -> if x = 3 then raise (Boom 3) else x)
                      (List.init 10 Fun.id))));
    test_case "earliest failing element wins when several raise" `Quick
      (fun () ->
        check_raises "first in list order" (Boom 2) (fun () ->
            ignore
              (Par.map ~jobs:4
                 (fun x -> if x >= 2 then raise (Boom x) else x)
                 (List.init 20 Fun.id))));
    test_case "submit after shutdown raises" `Quick (fun () ->
        let pool = Par.create ~jobs:2 () in
        Par.shutdown pool;
        Par.shutdown pool (* idempotent *);
        check bool "rejected" true
          (try
             ignore (Par.submit pool (fun () -> ()));
             false
           with Invalid_argument _ -> true));
    test_case "await is idempotent" `Quick (fun () ->
        Par.with_pool ~jobs:2 (fun pool ->
            let t = Par.submit pool (fun () -> 41 + 1) in
            check int "first" 42 (Par.await t);
            check int "second" 42 (Par.await t)));
    test_case "resolve_jobs semantics" `Quick (fun () ->
        check int "Some n" 5 (Par.resolve_jobs (Some 5));
        check bool "None is >= 1" true (Par.resolve_jobs None >= 1);
        check bool "Some 0 falls back" true (Par.resolve_jobs (Some 0) >= 1));
  ]

(* ------------------------------------------------------------------ *)
(* Portfolio determinism                                               *)
(* ------------------------------------------------------------------ *)

let portfolio_tests =
  let open Alcotest in
  let specs = Core.Mig_flows.default_portfolio ~effort:default_effort () in
  let race jobs =
    let mig = c17 () in
    let winner, outcomes = Core.Mig_flows.portfolio ~jobs specs mig in
    let w = List.find (fun o -> o.Flow.o_winner) outcomes in
    ( w.Flow.o_index,
      w.Flow.o_cost,
      Core.Mig_passes.size_and_depth winner,
      List.map (fun o -> (o.Flow.o_label, o.Flow.o_cost)) outcomes )
  in
  [
    test_case "winner identical for jobs 1 / 2 / 8" `Quick (fun () ->
        let i1, c1, sd1, costs1 = race 1 in
        List.iter
          (fun jobs ->
            let i, c, sd, costs = race jobs in
            check int "winner index" i1 i;
            check (float 0.0) "winner cost" c1 c;
            check (pair int int) "winner shape" sd1 sd;
            check (list (pair string (float 0.0))) "entrant costs" costs1 costs)
          [ 2; 8 ]);
    test_case "tie-break picks the earliest entrant" `Quick (fun () ->
        (* two identical entrants: equal costs, so index decides *)
        let mig = c17 () in
        let _, outcomes =
          Core.Mig_flows.portfolio ~jobs:4
            [ ("first", "cycle(2){eliminate}"); ("twin", "cycle(2){eliminate}") ]
            mig
        in
        let w = List.find (fun o -> o.Flow.o_winner) outcomes in
        check int "earliest of the tie" 0 w.Flow.o_index);
    test_case "unknown cost name is a clean Invalid_argument" `Quick (fun () ->
        check bool "raises" true
          (try
             ignore (Core.Mig_flows.portfolio ~jobs:1 ~cost:"bogus" specs (c17 ()));
             false
           with Invalid_argument _ -> true));
    test_case "empty entrant list is rejected" `Quick (fun () ->
        check bool "raises" true
          (try
             ignore (Core.Mig_flows.portfolio ~jobs:1 [] (c17 ()));
             false
           with Invalid_argument _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Obs merge                                                           *)
(* ------------------------------------------------------------------ *)

let obs_tests =
  let open Alcotest in
  [
    test_case "worker counter increments merge into the global registry"
      `Quick (fun () ->
        Obs.set_enabled true;
        Obs.reset ();
        let c = Obs.counter "par.test/ticks" in
        ignore
          (Par.map ~jobs:4
             (fun x ->
               Obs.incr ~by:x c;
               x)
             (List.init 100 Fun.id));
        (* 0 + 1 + ... + 99 *)
        check int "exact total after shutdown merge" 4950 (Obs.count c);
        Obs.reset ();
        Obs.set_enabled false);
    test_case "sequential pool leaves counters on the caller" `Quick (fun () ->
        Obs.set_enabled true;
        Obs.reset ();
        let c = Obs.counter "par.test/seq" in
        ignore (Par.map ~jobs:1 (fun _ -> Obs.incr c) (List.init 7 Fun.id));
        check int "counted inline" 7 (Obs.count c);
        Obs.reset ();
        Obs.set_enabled false);
  ]

(* ------------------------------------------------------------------ *)
(* Parallel experiments == sequential experiments                      *)
(* ------------------------------------------------------------------ *)

let experiment_props =
  [
    QCheck.Test.make ~count:3 ~name:"parallel profile rows == sequential"
      QCheck.(int_range 2 4)
      (fun jobs ->
        let entries =
          List.filteri (fun i _ -> i < 2) Io.Benchmarks.table2
        in
        let run jobs = Exp.Experiments.profile ~effort:2 ~jobs ~entries () in
        run 1 = run jobs);
  ]

let () =
  Alcotest.run "par"
    [
      ("pool", pool_tests);
      ("portfolio", portfolio_tests);
      ("obs-merge", obs_tests);
      ("experiments-props", List.map QCheck_alcotest.to_alcotest experiment_props);
    ]
