let default_effort = 40

type 'g pass = {
  name : string;
  category : string;
  doc : string;
  preserves : string;
  reads_cycle : bool;
  run : cycle:int -> 'g -> 'g * bool;
}

type 'g registry = { mutable passes : 'g pass list (* reverse order *) }

let create_registry () = { passes = [] }

let find r name = List.find_opt (fun p -> p.name = name) r.passes

let register r p =
  if find r p.name <> None then
    invalid_arg (Printf.sprintf "Flow.register: duplicate pass %s" p.name);
  r.passes <- p :: r.passes

let passes r = List.rev r.passes
let pass_names r = List.rev_map (fun p -> p.name) r.passes

type 'g t =
  | Pass of 'g pass
  | Seq of 'g t list
  | Cycle of { effort : int; body : 'g t }
  | Every of { period : int; body : 'g t }
  | Accept_if of { cost_name : string; cost : 'g -> float; body : 'g t }
  | Named of { name : string; body : 'g t }

type 'g ops = {
  copy : 'g -> 'g;
  cleanup : 'g -> 'g;
  measure : 'g -> (string * float) list;
  fingerprint : 'g -> string;
}

(* Whether a cycle body computes the same thing on every cycle, i.e. is a
   function of its input graph alone: no [Every] gate and no pass that reads
   the cycle index.  A nested [Cycle] rebinds the index from 0, so it is a
   function of its input too. *)
let rec cycle_invariant = function
  | Pass p -> not p.reads_cycle
  | Seq fs -> List.for_all cycle_invariant fs
  | Every _ -> false
  | Cycle _ -> true
  | Accept_if { body; _ } | Named { body; _ } -> cycle_invariant body

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let changed_run ~ops ?(span_prefix = "flow") ?name flow g =
  let flow =
    match name with Some n -> Named { name = n; body = flow } | None -> flow
  in
  let record traj cycle g =
    if Obs.enabled () then
      Obs.sample traj (("cycle", float_of_int cycle) :: ops.measure g)
  in
  let rec exec ~name ~cycle g = function
    | Pass p ->
        (* one span per pass invocation, named after the registry entry, so
           the span tree and collapsed stacks attribute time pass-by-pass *)
        let g, changed =
          Obs.with_span ~cat:span_prefix
            ~args:[ ("category", Obs.Json.String p.category) ]
            (span_prefix ^ "/pass/" ^ p.name)
            (fun () -> p.run ~cycle g)
        in
        if changed then
          Obs.incr (Obs.counter (span_prefix ^ "/pass/" ^ p.name ^ ".changed"));
        (g, changed)
    | Seq fs ->
        (* Run every element: later passes profit from the partial progress
           of earlier ones, so there is deliberately no short-circuiting. *)
        List.fold_left
          (fun (g, changed) f ->
            let g, c = exec ~name ~cycle g f in
            (g, changed || c))
          (g, false) fs
    | Every { period; body } ->
        if cycle mod period = 0 then exec ~name ~cycle g body else (g, false)
    | Named { name; body } ->
        Obs.with_span ~cat:span_prefix (span_prefix ^ "/" ^ name) (fun () ->
            exec ~name ~cycle g body)
    | Accept_if { cost_name; cost; body } ->
        let snapshot = ops.copy g in
        let before = cost g in
        let g, changed = exec ~name ~cycle g body in
        if cost g <= before then begin
          Obs.incr
            (Obs.counter (span_prefix ^ "/accept_if/" ^ cost_name ^ ".accepted"));
          (g, changed)
        end
        else begin
          Obs.incr
            (Obs.counter
               (span_prefix ^ "/accept_if/" ^ cost_name ^ ".rolled_back"));
          (snapshot, false)
        end
    | Cycle { effort; body } ->
        (* The paper's converge-or-stop outer loop, with the per-cycle
           cleanup and trajectory sampling previously hardcoded in
           Mig_opt.drive.

           Orbit exit: a cycle-invariant body maps each cleaned graph to the
           next one deterministically, so once cleaned state [j] repeats
           state [i] the sequence has period [j - i] and the state after
           cycle [effort] is already known to be the one [(effort - j) mod
           (j - i)] cycles ahead.  The loop jumps its index there and runs
           only those cycles.  States are keyed by their exact fingerprint;
           the table is local to this loop invocation. *)
        let scope = span_prefix ^ "/" ^ name in
        let traj = Obs.series (scope ^ "/trajectory") in
        record traj 0 g;
        let seen = ref (if cycle_invariant body then Some (Hashtbl.create 64) else None) in
        let next_index j g =
          match !seen with
          | None -> j
          | Some states -> (
              let key = ops.fingerprint g in
              match Hashtbl.find_opt states key with
              | None ->
                  Hashtbl.add states key j;
                  j
              | Some i ->
                  let target = effort - ((effort - j) mod (j - i)) in
                  Obs.incr ~by:(target - j)
                    (Obs.counter (scope ^ "/cycle.orbit_skipped"));
                  seen := None;
                  target)
        in
        let rec loop n g any =
          if n >= effort then (g, any)
          else begin
            let g, changed =
              Obs.with_span ~cat:span_prefix (scope ^ "/cycle") (fun () ->
                  exec ~name ~cycle:n g body)
            in
            let g = ops.cleanup g in
            (* a no-change cycle stops the loop before any orbit lookup *)
            let n = if changed then next_index (n + 1) g else n + 1 in
            record traj n g;
            if changed then loop n g true else (g, any)
          end
        in
        loop 0 g false
  in
  let g = ops.cleanup g in
  let g, changed = exec ~name:(Option.value name ~default:"flow") ~cycle:0 g flow in
  (ops.cleanup g, changed)

let run ~ops ?span_prefix ?name flow g =
  fst (changed_run ~ops ?span_prefix ?name flow g)

(* ------------------------------------------------------------------ *)
(* Portfolio                                                           *)
(* ------------------------------------------------------------------ *)

type 'g entrant = { label : string; flow : 'g t }

type outcome = {
  o_label : string;
  o_index : int;
  o_cost : float;
  o_seconds : float;
  o_winner : bool;
}

let portfolio ~ops ?(span_prefix = "flow") ?jobs ~cost entrants g =
  if entrants = [] then invalid_arg "Flow.portfolio: empty entrant list";
  (* Copies are taken on the calling domain, before any worker touches the
     graph, so tasks never share mutable state. *)
  let base = ops.cleanup g in
  let tasks =
    List.mapi (fun i e -> (i, e.label, e.flow, ops.copy base)) entrants
  in
  let raced =
    Par.map ?jobs
      (fun (i, label, flow, g) ->
        let t0 = Obs.now_ns () in
        let result =
          run ~ops ~span_prefix ~name:("portfolio/" ^ label) flow g
        in
        let seconds = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9 in
        (i, label, result, cost result, seconds))
      tasks
  in
  (* Deterministic tie-break: lowest cost first, then lowest entrant index —
     independent of completion order, hence of the worker count. *)
  let winner_index, _ =
    List.fold_left
      (fun (wi, wc) (i, _, _, c, _) ->
        if c < wc || (c = wc && i < wi) then (i, c) else (wi, wc))
      (max_int, infinity) raced
  in
  let outcomes =
    List.map
      (fun (i, label, _, c, seconds) ->
        {
          o_label = label;
          o_index = i;
          o_cost = c;
          o_seconds = seconds;
          o_winner = i = winner_index;
        })
      raced
  in
  let _, _, winner, _, _ = List.nth raced winner_index in
  (winner, outcomes)

(* ------------------------------------------------------------------ *)
(* Did-you-mean                                                        *)
(* ------------------------------------------------------------------ *)

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let curr = Array.make (lb + 1) 0 in
  for i = 1 to la do
    curr.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      curr.(j) <- min (min (prev.(j) + 1) (curr.(j - 1) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit curr 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let suggest ~candidates word =
  let best =
    List.fold_left
      (fun acc cand ->
        let d = levenshtein word cand in
        match acc with Some (_, bd) when bd <= d -> acc | _ -> Some (cand, d))
      None candidates
  in
  match best with
  | Some (c, d) when d <= max 2 (String.length word / 3) -> Some c
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Script language                                                     *)
(* ------------------------------------------------------------------ *)

module Script = struct
  type error = { pos : int; msg : string }

  let pp_error ppf e = Format.fprintf ppf "at byte %d: %s" e.pos e.msg

  exception Err of error

  let err pos fmt = Format.kasprintf (fun msg -> raise (Err { pos; msg })) fmt

  type state = { src : string; mutable pos : int }

  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

  let is_ident_char c =
    is_ident_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

  let is_digit c = c >= '0' && c <= '9'

  let rec skip_ws st =
    if st.pos < String.length st.src then
      match st.src.[st.pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          st.pos <- st.pos + 1;
          skip_ws st
      | '#' ->
          while st.pos < String.length st.src && st.src.[st.pos] <> '\n' do
            st.pos <- st.pos + 1
          done;
          skip_ws st
      | _ -> ()

  let peek st =
    skip_ws st;
    if st.pos < String.length st.src then Some st.src.[st.pos] else None

  let expect st c what =
    match peek st with
    | Some d when d = c -> st.pos <- st.pos + 1
    | Some d -> err st.pos "expected '%c' %s, found '%c'" c what d
    | None -> err st.pos "expected '%c' %s, found end of script" c what

  let ident st =
    skip_ws st;
    let start = st.pos in
    while st.pos < String.length st.src && is_ident_char st.src.[st.pos] do
      st.pos <- st.pos + 1
    done;
    if st.pos = start then err start "expected a name";
    (String.sub st.src start (st.pos - start), start)

  let integer st what =
    skip_ws st;
    let start = st.pos in
    while st.pos < String.length st.src && is_digit st.src.[st.pos] do
      st.pos <- st.pos + 1
    done;
    if st.pos = start then err start "expected a number %s" what;
    match int_of_string_opt (String.sub st.src start (st.pos - start)) with
    | Some n -> (n, start)
    | None -> err start "number too large"

  let keywords = [ "cycle"; "every"; "accept_if" ]

  let did_you_mean candidates word =
    match suggest ~candidates word with
    | Some s -> Printf.sprintf " (did you mean '%s'?)" s
    | None -> ""

  let parse ~registry ~costs ?(default_effort = default_effort) text =
    let st = { src = text; pos = 0 } in
    let block st parse_seq what =
      expect st '{' what;
      let body = parse_seq st ~closing:true in
      expect st '}' "to close the block";
      body
    in
    let rec parse_seq st ~closing =
      let items = ref [] in
      let rec loop () =
        match peek st with
        | None -> if closing then err st.pos "expected '}' before end of script"
        | Some '}' -> if not closing then err st.pos "unexpected '}'"
        | Some ';' ->
            st.pos <- st.pos + 1;
            loop ()
        | Some _ ->
            items := parse_step st :: !items;
            (match peek st with
            | Some ';' ->
                st.pos <- st.pos + 1;
                loop ()
            | Some '}' when closing -> ()
            | None when not closing -> ()
            | Some c -> err st.pos "expected ';' between steps, found '%c'" c
            | None -> err st.pos "expected '}' before end of script")
      in
      loop ();
      match List.rev !items with
      | [] -> err st.pos "empty flow"
      | [ f ] -> f
      | fs -> Seq fs
    and parse_step st =
      match peek st with
      | Some '{' ->
          st.pos <- st.pos + 1;
          let body = parse_seq st ~closing:true in
          expect st '}' "to close the block";
          body
      | Some c when is_ident_start c -> (
          let name, npos = ident st in
          match name with
          | "cycle" ->
              let effort =
                match peek st with
                | Some '(' ->
                    st.pos <- st.pos + 1;
                    let n, ppos = integer st "of cycles" in
                    if n <= 0 then err ppos "cycle count must be positive";
                    expect st ')' "after the cycle count";
                    n
                | _ -> default_effort
              in
              Cycle { effort; body = block st parse_seq "after cycle" }
          | "every" ->
              expect st '(' "after every";
              let n, ppos = integer st "(the period)" in
              if n <= 0 then err ppos "every period must be positive";
              expect st ')' "after the period";
              Every { period = n; body = block st parse_seq "after every(N)" }
          | "accept_if" ->
              expect st '(' "after accept_if";
              let cost_name, cpos = ident st in
              (match List.assoc_opt cost_name costs with
              | None ->
                  err cpos "unknown cost '%s'%s" cost_name
                    (did_you_mean (List.map fst costs) cost_name)
              | Some cost ->
                  expect st ')' "after the cost name";
                  Accept_if
                    { cost_name; cost; body = block st parse_seq "after accept_if(COST)" })
          | _ -> (
              match find registry name with
              | Some p -> Pass p
              | None ->
                  err npos "unknown pass '%s'%s" name
                    (did_you_mean (keywords @ pass_names registry) name)))
      | Some c -> err st.pos "unexpected character '%c'" c
      | None -> err st.pos "unexpected end of script"
    in
    match parse_seq st ~closing:false with
    | flow -> Ok flow
    | exception Err e -> Error e

  let rec to_string = function
    | Pass p -> p.name
    | Seq fs -> String.concat "; " (List.map to_string fs)
    | Cycle { effort; body } -> Printf.sprintf "cycle(%d){%s}" effort (to_string body)
    | Every { period; body } -> Printf.sprintf "every(%d){%s}" period (to_string body)
    | Accept_if { cost_name; body; _ } ->
        Printf.sprintf "accept_if(%s){%s}" cost_name (to_string body)
    | Named { body; _ } -> to_string body
end
