(* In-memory span recorder for the benchmark's traced runs.

   Spans are recorded by the benchmark around its calls into each layer's
   public functions; the program's own Obs layer stays disabled.  When
   tracing is off, [layer] is a plain call and records nothing; [job]
   always measures the job's time, because that is the end-to-end latency
   sample.

   All times are on the process CPU clock (user + system time of every
   thread of this process).  The workloads time single-threaded work, where
   CPU time is what the wall clock shows on an idle machine; unlike the
   wall clock it leaves out the time a shared host steals from the virtual
   CPU, which moves wall-clock figures by tens of percent from run to run. *)

let now () = Int64.of_float (Sys.time () *. 1e9)

type span = {
  id : int;
  name : string;
  job : int;
  parent : int;  (** id of the enclosing span, -1 for a job's root *)
  start_ns : int64;
  stop_ns : int64;
}

let on = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []
let current_job = ref (-1)
let counts : (string, float) Hashtbl.t = Hashtbl.create 16

let set_enabled b = on := b
let enabled () = !on

let timed name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_ids with p :: _ -> p | [] -> -1 in
  open_ids := id :: !open_ids;
  let start_ns = now () in
  let close () =
    let stop_ns = now () in
    open_ids := List.tl !open_ids;
    recorded :=
      { id; name; job = !current_job; parent; start_ns; stop_ns } :: !recorded;
    stop_ns
  in
  match f () with
  | v -> (v, start_ns, close ())
  | exception e ->
      ignore (close ());
      raise e

let layer name f =
  if !on then
    let v, _, _ = timed name f in
    v
  else f ()

let add name v =
  if !on then
    Hashtbl.replace counts name
      (v +. Option.value (Hashtbl.find_opt counts name) ~default:0.0)

let count name = Option.value (Hashtbl.find_opt counts name) ~default:0.0

(* Runs one job and returns its result with its CPU time in ns. *)
let job id f =
  if !on then begin
    current_job := id;
    let v, t0, t1 = timed "job" f in
    current_job := -1;
    (v, Int64.sub t1 t0)
  end
  else
    let t0 = now () in
    let v = f () in
    (v, Int64.sub (now ()) t0)

let spans () = List.rev !recorded

(* Self time of every span: its duration minus the durations of its direct
   children.  A job's self time is the part of its time no layer covers, so
   the self times of one job's spans sum to the job's time. *)
let self_times spans =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (Int64.add (Int64.sub s.stop_ns s.start_ns)
             (Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0L)))
    spans;
  List.map
    (fun s ->
      ( s,
        Int64.sub (Int64.sub s.stop_ns s.start_ns)
          (Option.value (Hashtbl.find_opt child_ns s.id) ~default:0L) ))
    spans

let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"job\":%d,\"parent\":%d,\"start_cpu_ns\":%Ld,\"end_cpu_ns\":%Ld}\n"
        s.id s.name s.job s.parent s.start_ns s.stop_ns)
    spans;
  close_out oc
