(* The repository benchmark.

   Usage: main.exe --workload paper|scale|serve-mix --seed N --seconds S
                   --trace 0|1

   Prints progress on stderr and, as the last line of stdout, one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1, whose spans go to
   perfbench/_out/spans-WORKLOAD-seedN.jsonl.  Exits 1 when a correctness
   check failed, 2 on bad arguments.  See perfbench/README.md. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload paper|scale|serve-mix --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        opts ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get name = match List.assoc_opt name opts with Some v -> v | None -> usage () in
  let int_opt name =
    match int_of_string_opt (get name) with Some n -> n | None -> usage ()
  in
  let workload = get "workload" in
  let seed = int_opt "seed" in
  let seconds = float_of_int (int_opt "seconds") in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if seconds <= 0.0 then usage ();
  let dir = Filename.concat "perfbench" "_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let spans_path =
    if trace then Some (Filename.concat dir (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed))
    else None
  in
  let o =
    match workload with
    | "paper" ->
        Batch.run ~seconds ~trace ~spans_path ~startup:Workloads.paper_flows
          ~run_job:Workloads.run_paper
          ~label:(fun (j : Workloads.paper_job) -> j.circuit ^ "/" ^ j.algorithm)
          (Workloads.paper_inputs ~seed)
    | "scale" ->
        Batch.run ~seconds ~trace ~spans_path ~startup:Workloads.scale_flow
          ~run_job:Workloads.run_scale
          ~label:(fun (j : Workloads.scale_job) -> j.name)
          (Workloads.scale_inputs ~seed)
    | "serve-mix" -> Serve_mix.run ~seconds ~trace ~spans_path ~seed
    | _ -> usage ()
  in
  print_endline
    (Stats.result_line ~correct:o.Batch.correct ~attempted:o.Batch.attempted
       ~failed:o.Batch.failed o.Batch.metrics);
  exit (if o.Batch.correct then 0 else 1)
