let clamp lo hi n = max lo (min hi n)

let recommended_jobs () =
  match Sys.getenv_opt "MIGSYN_JOBS" with
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 1 -> clamp 1 128 n
      | _ -> clamp 1 128 (Domain.recommended_domain_count ()))
  | None -> clamp 1 128 (Domain.recommended_domain_count ())

let resolve_jobs = function
  | Some n when n >= 1 -> n
  | Some _ | None -> recommended_jobs ()

type 'a state =
  | Pending
  | Done of 'a
  | Raised of exn * Printexc.raw_backtrace

type 'a task = {
  t_mutex : Mutex.t;
  t_cond : Condition.t;
  mutable t_state : 'a state;
}

type t = {
  p_jobs : int;
  p_mutex : Mutex.t;
  p_nonempty : Condition.t;
  p_queue : (unit -> unit) Queue.t;
  mutable p_closed : bool;
  (* spawned by the first submit, joined at shutdown; each worker returns
     its Obs buffer *)
  mutable p_workers : Obs.Worker.snapshot Domain.t list;
  mutable p_shut : bool;
}

let jobs p = p.p_jobs
let workers p = List.length p.p_workers

(* Worker main loop: take thunks until the pool is closed AND the queue is
   drained, then hand the domain-local Obs buffer back through the join. *)
let worker pool () =
  let rec loop () =
    Mutex.lock pool.p_mutex;
    let rec next () =
      match Queue.take_opt pool.p_queue with
      | Some thunk ->
          Mutex.unlock pool.p_mutex;
          thunk ();
          loop ()
      | None ->
          if pool.p_closed then Mutex.unlock pool.p_mutex
          else begin
            Condition.wait pool.p_nonempty pool.p_mutex;
            next ()
          end
    in
    next ()
  in
  loop ();
  Obs.Worker.capture ()

let create ?jobs () =
  {
    p_jobs = max 1 (Option.value jobs ~default:(recommended_jobs ()));
    p_mutex = Mutex.create ();
    p_nonempty = Condition.create ();
    p_queue = Queue.create ();
    p_closed = false;
    p_workers = [];
    p_shut = false;
  }

let finish task outcome =
  Mutex.lock task.t_mutex;
  task.t_state <- outcome;
  Condition.broadcast task.t_cond;
  Mutex.unlock task.t_mutex

(* Every task records its spans from a clean root (Obs.with_task_root):
   inlined on the calling domain (jobs = 1) or on a worker, the same task
   produces the same span paths, so the aggregated span tree — and the
   collapsed-stack export — is identical for every worker count. *)
let run_into task f () =
  match Obs.with_task_root f with
  | v -> finish task (Done v)
  | exception e -> finish task (Raised (e, Printexc.get_raw_backtrace ()))

let submit pool f =
  let task =
    { t_mutex = Mutex.create (); t_cond = Condition.create (); t_state = Pending }
  in
  if pool.p_jobs = 1 then begin
    if pool.p_shut then invalid_arg "Par.submit: pool is shut down";
    run_into task f ()
  end
  else
    Mutex.protect pool.p_mutex (fun () ->
        if pool.p_closed then invalid_arg "Par.submit: pool is shut down";
        (* The first task starts every worker.  Each domain is recorded
           as it is spawned, so if a spawn fails, shutdown still joins the
           ones that started. *)
        if pool.p_workers = [] then
          for _ = 1 to pool.p_jobs do
            pool.p_workers <- Domain.spawn (worker pool) :: pool.p_workers
          done;
        Queue.add (run_into task f) pool.p_queue;
        Condition.signal pool.p_nonempty);
  task

let await task =
  Mutex.lock task.t_mutex;
  let rec wait () =
    match task.t_state with
    | Pending ->
        Condition.wait task.t_cond task.t_mutex;
        wait ()
    | (Done _ | Raised _) as s -> s
  in
  let outcome = wait () in
  Mutex.unlock task.t_mutex;
  match outcome with
  | Done v -> v
  | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let shutdown pool =
  if not pool.p_shut then begin
    pool.p_shut <- true;
    Mutex.lock pool.p_mutex;
    pool.p_closed <- true;
    Condition.broadcast pool.p_nonempty;
    Mutex.unlock pool.p_mutex;
    let snapshots = List.map Domain.join pool.p_workers in
    List.iter Obs.Worker.merge snapshots
  end

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let map ?jobs f xs =
  let jobs = max 1 (Option.value jobs ~default:(recommended_jobs ())) in
  match min jobs (List.length xs) with
  | 0 | 1 -> List.map (fun x -> Obs.with_task_root (fun () -> f x)) xs
  | jobs ->
      with_pool ~jobs (fun pool ->
          let tasks = List.map (fun x -> submit pool (fun () -> f x)) xs in
          List.map await tasks)

let map_seeded ?jobs ~seed f xs =
  map ?jobs
    (fun (i, x) -> f ~seed:(Logic.Prng.split_seed seed i) x)
    (List.mapi (fun i x -> (i, x)) xs)
