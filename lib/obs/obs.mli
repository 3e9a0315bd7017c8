(** Observability: spans, counters, gauges, histograms and trajectory
    series for the synthesis flow and the crossbar simulator.

    The layer is a process-global registry, {e disabled by default}: every
    recording entry point first reads one [bool ref], so an instrumented
    hot loop pays a single load-and-branch per event when observability is
    off (measured < 2% on the optimizer bench suite).  Enable it with
    {!set_enabled}[ true] — the CLI does this when [--trace]/[--metrics]
    are given and the [profile] subcommand always does.

    Instruments are created once (typically at module initialization) and
    identified by a slash-separated name, e.g. ["mig.rule/omega_a.hits"].
    Creating an instrument is idempotent: the same name returns the same
    handle, and creation is allowed while disabled — only {e recording} is
    gated.

    Timing uses the monotonic clock (CLOCK_MONOTONIC, read by a small C
    stub in this library), so spans are immune to wall-clock adjustments.

    Two export formats:
    - {!chrome_trace_json}: the Chrome trace-event format (a JSON object
      with a ["traceEvents"] array of complete/counter events), loadable in
      [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto};
    - {!metrics_json}: a flat snapshot of every counter, gauge, histogram,
      series and per-span aggregate.

    Everything recorded is deterministic except timestamps and durations:
    two runs of the same seeded workload produce identical counters,
    histograms and series (the test suite pins this).

    {b Domains.} The registry above is the {e main domain's}.  Code running
    on any other domain (a [Par] worker) transparently records into a
    domain-local buffer instead — no locks on the recording path, no
    cross-domain writes — and span events remember the recording domain's id
    (exported as the Chrome trace [tid]).  {!Worker.capture} detaches a
    worker's buffer and {!Worker.merge} folds it into the calling domain's
    registry; the [Par] pool does both at shutdown, so after
    [Par.shutdown]/[Par.map] return, main-domain counters, histograms,
    series and span aggregates include everything the workers recorded.
    Counter merges are additive and therefore independent of scheduling;
    a gauge merged from a worker keeps the last value written (which worker
    wins is unspecified when several set the same gauge). *)

module Json = Json

val set_enabled : bool -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Zero every instrument and drop all recorded events/samples.  Handles
    created before the reset remain valid (they are zeroed in place, not
    detached). *)

val now_ns : unit -> int64
(** Monotonic time in nanoseconds (always live, even when disabled). *)

(** {1 Counters} *)

type counter

val counter : string -> counter
val incr : ?by:int -> counter -> unit
val count : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit

(** {1 Histograms}

    Exact integer-valued distributions: every observed value keeps its own
    bucket, plus running count/sum/min/max.  Suited to the small discrete
    domains recorded here (writes per device, micro-ops per step). *)

type histogram

val histogram : string -> histogram
val observe : histogram -> int -> unit
val histogram_count : histogram -> int
val histogram_buckets : histogram -> (int * int) list
(** [(value, occurrences)] sorted by value. *)

val histogram_percentile : histogram -> float -> float
(** [histogram_percentile h p] is the exact nearest-rank [p]-th percentile
    ([p] clamped to [0, 100]) of the observed values: the smallest value
    whose cumulative count reaches [ceil (p/100 * n)].  [0.0] on an empty
    histogram.  The flat metrics export includes p50/p90/p99 of every
    histogram. *)

(** {1 Series}

    Named trajectories: ordered samples of labeled numeric fields, e.g. the
    per-cycle [(size, depth, R, S)] trajectory of an optimizer.  Samples
    are timestamped on entry so they also export as Chrome counter
    events. *)

type series

val series : string -> series
val sample : series -> (string * float) list -> unit
val samples : series -> (string * float) list list
(** In chronological order. *)

(** {1 Spans}

    Spans nest: each recorded event remembers the names of the spans open
    {e on its domain} when it closed, root-first — its {e path}.  The path
    is what the {!span_tree} aggregation, the collapsed-stack export and
    the run manifests consume. *)

val with_span : ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** Time [f] and record a complete event.  When disabled this is just
    [f ()].  The event is recorded even when [f] raises.  The span is
    pushed on the calling domain's stack for the duration of [f], so spans
    recorded inside [f] nest under it. *)

val emit_span : ?cat:string -> ?args:(string * Json.t) list -> string -> t0:int64 -> unit
(** Record a complete event that started at monotonic time [t0] and ends
    now — for call sites that compute their [args] during the timed region.
    The event nests under the spans currently open.  No-op when disabled. *)

val with_task_root : (unit -> 'a) -> 'a
(** Run [f] with the calling domain's span stack cleared (and restored
    afterwards), so spans recorded by [f] are rooted at top level.  The
    {!Par} pool wraps every task in this: a task inlined on the main domain
    ([jobs = 1]) records the same paths as on a worker, making the
    span-tree aggregation independent of the worker count. *)

(** {1 Span-tree aggregation} *)

type span_node = {
  sn_name : string;  (** last element of [sn_path] *)
  sn_path : string list;  (** root-first span names, [sn_name] last *)
  sn_count : int;  (** completed events at exactly this path *)
  sn_total_ns : int64;  (** inclusive wall time (children included) *)
  sn_self_ns : int64;  (** exclusive self time (direct children removed) *)
  sn_children : span_node list;  (** sorted by name *)
}

val span_tree : unit -> span_node list
(** The recorded events aggregated by path into a forest (roots sorted by
    name).  Invariants: [sn_total_ns >= sn_self_ns >= 0], and a parent's
    inclusive time is at least the sum of its children's.  A path prefix
    that never completed as an event of its own (a span still open at
    export time) appears with [sn_count = 0] and its children's total. *)

val fold_span_tree : ('a -> span_node -> 'a) -> 'a -> span_node -> 'a
(** Pre-order fold over a node and its descendants. *)

val collapsed_stacks : ?weight:[ `Calls | `Time_us ] -> unit -> string
(** The span forest in the collapsed-stack format flamegraph.pl consumes:
    one ["a;b;c WEIGHT\n"] line per path, lexicographically sorted, zero
    weights dropped.  [`Time_us] (default) weights by exclusive self time
    in microseconds; [`Calls] weights by call count, which is deterministic
    for a deterministic workload — byte-identical output for every
    [--jobs] (the CI and test suite pin this). *)

val span_tree_json : unit -> Json.t
(** {!span_tree} as nested objects
    [{name; count; total_ns; self_ns; children?}] — the ["spans"] member of
    a run manifest. *)

(** {1 Worker-domain buffers}

    The hand-off half of the domain story above.  Only pool implementations
    need this; instrumented code is oblivious to which domain it runs on. *)

module Worker : sig
  type snapshot
  (** Everything one domain recorded: counters, gauges, histograms, series
      samples and span events. *)

  val capture : unit -> snapshot
  (** Detach and return the calling domain's buffer, leaving it empty.  On
      a worker domain this must be the last observability action before the
      domain exits (the [Par] worker loop calls it on the way out).  On the
      main domain it returns an empty snapshot and touches nothing. *)

  val merge : snapshot -> unit
  (** Fold a captured buffer into the calling domain's registry: counts and
      histogram buckets add, series samples interleave by timestamp, span
      events append with their original domain ids.  Called on the main
      domain this lands in the global registry; called on a worker (a
      nested pool) it lands in that worker's buffer and propagates upward
      at its own capture. *)
end

(** {1 Snapshots and export} *)

val counters : unit -> (string * int) list
(** Every registered counter, sorted by name. *)

val metrics_json : unit -> Json.t
val chrome_trace_json : unit -> Json.t

val write_json : string -> Json.t -> unit
(** Write [to_string ~pretty:true] plus a trailing newline to a file. *)

(** {1 Run manifests}

    A {e run manifest} is the self-describing record of one tool run —
    schema ["migsyn-run/1"]: tool, subcommand, full argv, wall time, a
    caller-supplied context (seeds, jobs, circuit, flags), caller-supplied
    results (costs, campaign summaries), the span tree, non-zero counters
    and histogram summaries.  The CLI builds one per run when [--ledger]
    is given and appends it to a JSON-lines ledger; [migsyn report]
    compares ledgers and manifests against each other or against the
    committed baselines. *)

module Manifest : sig
  val start : tool:string -> subcommand:string -> ?argv:string list -> unit -> unit
  (** Begin a run record: note the start time and clear any context or
      results of a previous run.  Call once, before the timed work. *)

  val add_context : string -> Json.t -> unit
  (** Attach an input-side fact (seed, jobs, effort, circuit...). *)

  val add_result : string -> Json.t -> unit
  (** Attach an output-side fact (final costs, campaign summary...). *)

  val finish : unit -> Json.t
  (** The completed ["migsyn-run/1"] record.  Deterministic except
      ["wall_seconds"] and any caller-supplied timing fields. *)
end

(** {1 The run ledger}

    An append-only JSON-lines file: one compact run manifest per line.
    Appends are atomic enough for sequential runs (one [open; write;
    close] per record); the format is greppable and trivially mergeable. *)

module Ledger : sig
  val append : string -> Json.t -> unit
  (** Append one record (compact JSON + newline), creating the file if
      needed. *)

  val load : string -> Json.t list
  (** All records, in file order; blank lines are skipped.
      @raise Failure ["file:line: message"] on a malformed line,
      [Sys_error] if unreadable. *)
end
