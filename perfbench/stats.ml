(* Small numeric and process helpers shared by the workload runners. *)

let ms_of_ns ns = Int64.to_float ns /. 1e6
let s_of_ns ns = Int64.to_float ns /. 1e9

(* Nearest-rank percentile of an unsorted sample. *)
let percentile q samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median samples = percentile 0.5 samples

(* VmHWM (peak resident set) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
  in
  scan ()

(* CPU time of every thread of a live process, in ns, from the
   schedulers' per-task accounting. *)
let process_cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match open_in (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | exception Sys_error _ -> acc (* the thread has just exited *)
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> Int64.add acc (Scanf.sscanf (input_line ic) "%Ld" Fun.id)))
    0L (Sys.readdir dir)

(* A metric as printed: name, value, unit. *)
type metric = string * float * string

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed (metrics : metric list) =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (json_number v) unit)
          metrics))
