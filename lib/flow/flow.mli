(** A first-class pass manager for graph-rewriting synthesis flows.

    The paper's Algs. 1–4 are each a fixed sequence of rewrite sweeps driven
    by a converge-or-stop outer loop.  This module turns that shape into an
    open, scriptable subsystem: a {e pass} is a named transformation with
    metadata, and a {e flow} is a combinator tree over passes — sequencing,
    the paper's 40-cycle convergence loop, cycle-gated sub-flows and
    checkpoint/rollback cost guards that generalize Alg. 3's weighted-gain
    acceptance.

    The engine is generic in the graph type ['g]: it only needs an {!ops}
    record (copy, compacting cleanup, and trajectory measurement), so it has
    no dependency on the MIG data structure.  [lib/core]'s [Mig_flows]
    instantiates it for MIGs and registers the paper's passes; [Mig_opt]'s
    entry points are thin wrappers over canonical flow values.

    Observability comes for free: when {!Obs} is enabled, {!run} records one
    span per pass application ([<prefix>/pass/<name>]), one per named
    sub-flow ([<prefix>/<name>]), one per convergence cycle
    ([<prefix>/<name>/cycle]), a [<prefix>/<name>/trajectory] series with one
    sample per executed cycle, a [<prefix>/<name>/cycle.orbit_skipped]
    counter of cycles the orbit exit skipped, and accept/rollback counters
    for every cost guard. *)

(** {1 Passes} *)

type 'g pass = {
  name : string;  (** registry key and script-language identifier *)
  category : string;  (** e.g. ["area"], ["depth"], ["boolean"] *)
  doc : string;  (** one-line description for [--list-passes] *)
  preserves : string;  (** what the pass keeps invariant, e.g. ["function"] *)
  reads_cycle : bool;
      (** whether [run] depends on its [cycle] argument; a {!Cycle} whose
          body contains such a pass never takes the orbit exit *)
  run : cycle:int -> 'g -> 'g * bool;
      (** Apply once.  [cycle] is the index of the enclosing convergence
          cycle (0 outside one) — passes like the paper's reshape derive
          their perturbation seed from it.  Returns the (possibly new)
          graph and whether anything changed. *)
}

(** {1 Registries} *)

type 'g registry

val create_registry : unit -> 'g registry

val register : 'g registry -> 'g pass -> unit
(** Add a pass.  @raise Invalid_argument on a duplicate name. *)

val find : 'g registry -> string -> 'g pass option
val passes : 'g registry -> 'g pass list
(** In registration order. *)

(** {1 Flows} *)

type 'g t =
  | Pass of 'g pass
  | Seq of 'g t list
      (** Run every element (no short-circuiting — later passes often profit
          from the partial progress of earlier ones); changed iff any
          element changed. *)
  | Cycle of { effort : int; body : 'g t }
      (** The paper's outer loop: run [body] up to [effort] times with a
          compacting cleanup and a trajectory sample after each iteration,
          stopping early when an iteration reports no change.

          {e Orbit exit.}  When [body] is cycle-invariant — no {!Every} and
          no pass with [reads_cycle] — each cleaned graph determines the
          next, so the loop records every cleaned graph's
          {!ops.fingerprint}.  When state [j] repeats an earlier state [i],
          every later state is known: the loop skips ahead to cycle
          [effort - ((effort - j) mod (j - i))] and runs only the remaining
          cycles, so it returns exactly the graph cycle [effort] would
          have.  Trajectory samples keep the equivalent cycle index (the
          last sample of a capped loop is [effort]), and the skipped
          cycles are counted in [<prefix>/<name>/cycle.orbit_skipped]. *)
  | Every of { period : int; body : 'g t }
      (** Run [body] only on cycles whose index is a multiple of [period]
          (Alg. 2 throttles Ψ.R to every third cycle). *)
  | Accept_if of { cost_name : string; cost : 'g -> float; body : 'g t }
      (** Checkpoint, run [body], and roll back unless the cost did not
          worsen — the flow-level generalization of Alg. 3's weighted-gain
          move acceptance. *)
  | Named of { name : string; body : 'g t }
      (** Scope for spans and the trajectory series name. *)

val default_effort : int
(** 40, the paper's setting for the convergence loop. *)

type 'g ops = {
  copy : 'g -> 'g;  (** snapshot for {!Accept_if} rollback *)
  cleanup : 'g -> 'g;  (** compacting copy run between cycles *)
  measure : 'g -> (string * float) list;
      (** trajectory fields ([(size, depth, …)]); only called when
          observability is enabled *)
  fingerprint : 'g -> string;
      (** exact encoding of a graph for {!Cycle}'s orbit exit.  Contract: a
          graph returned by [cleanup] is fully determined by its
          fingerprint — two cleaned graphs with equal fingerprints behave
          identically under every pass.  Compared by string equality. *)
}

val run : ops:'g ops -> ?span_prefix:string -> ?name:string -> 'g t -> 'g -> 'g
(** Execute a flow on a cleanup-copy of the input (the input graph is never
    mutated) and return the compacted result.  [span_prefix] (default
    ["flow"]) prefixes every span, series and counter name; [name] wraps the
    flow in {!Named}. *)

val changed_run : ops:'g ops -> ?span_prefix:string -> ?name:string -> 'g t -> 'g -> 'g * bool
(** Like {!run} but also reports whether any pass changed the graph. *)

val suggest : candidates:string list -> string -> string option
(** Closest candidate by edit distance, if any is close enough to be a
    plausible misspelling — powers the did-you-mean hints. *)

(** {1 Portfolio runs}

    CONTRA-style synthesis-as-search: run several complete flows over
    independent copies of the same graph — on separate domains when the
    work-pool has more than one worker — and keep only the best result. *)

type 'g entrant = {
  label : string;  (** span scope ([<prefix>/portfolio/<label>]) and report name *)
  flow : 'g t;
}

type outcome = {
  o_label : string;
  o_index : int;  (** position in the entrant list *)
  o_cost : float;  (** the race cost of this entrant's result *)
  o_seconds : float;  (** wall time of this entrant's run *)
  o_winner : bool;
}

val portfolio :
  ops:'g ops ->
  ?span_prefix:string ->
  ?jobs:int ->
  cost:('g -> float) ->
  'g entrant list ->
  'g ->
  'g * outcome list
(** [portfolio ~ops ~cost entrants g] runs every entrant flow on its own
    copy of [g] (taken on the calling domain) across a throwaway [Par] pool
    of [jobs] workers, evaluates [cost] on each result, and returns the
    winning graph plus one {!outcome} per entrant in entrant order.

    The winner is chosen by {e lowest cost, then lowest entrant index} — a
    total order independent of completion timing, so the result is
    bit-identical for any [jobs] (DESIGN.md §11).  [jobs] defaults to
    [Par.recommended_jobs ()].

    @raise Invalid_argument on an empty entrant list. *)

(** {1 The flow-script language}

    Concrete syntax for flows, used by [migsyn flow --script]:

    {v
    flow   := step (';' step)*
    step   := PASS
            | 'cycle' [ '(' INT ')' ] '{' flow '}'      default effort 40
            | 'every' '(' INT ')' '{' flow '}'
            | 'accept_if' '(' COST ')' '{' flow '}'
            | '{' flow '}'
    v}

    Whitespace is free; ['#'] comments run to end of line.  Pass and cost
    identifiers are resolved against the registry and cost table given to
    {!Script.parse}; unknown names fail with a byte position and a
    did-you-mean suggestion. *)

module Script : sig
  type error = { pos : int; msg : string }
  (** [pos] is a 0-based byte offset into the script text. *)

  val pp_error : Format.formatter -> error -> unit
  (** Renders ["at byte N: MSG"]. *)

  val parse :
    registry:'g registry ->
    costs:(string * ('g -> float)) list ->
    ?default_effort:int ->
    string ->
    ('g t, error) result

  val to_string : 'g t -> string
  (** Canonical script text for a flow ({!Named} wrappers are transparent:
      they have no concrete syntax).  [to_string] output re-parses to a flow
      with identical semantics. *)
end
