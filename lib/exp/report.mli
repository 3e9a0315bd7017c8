(** Longitudinal regression analysis over run records and baselines.

    [migsyn report] (and CI) compare two {e sources} — a run ledger, a
    single run manifest, or one of the committed baseline documents — row
    by row and metric by metric:

    - rows carry a {e stable key} (circuit × algorithm for the bench-opt
      baseline, σ × arm for Monte-Carlo campaigns, span path for run
      manifests) so the same measurement is matched across runs whatever
      the file order;
    - {e noisy} metrics (wall-clock derived: any ["*seconds"] or ["*_ns"];
      only run manifests yield them, as the other documents either carry
      no timer or have their [wall_seconds] skipped) compare under a
      relative threshold plus an absolute floor, because timing jitter is
      not a regression;
    - every other metric is {e exact}: gate counts, depths, Table I costs,
      crossbar devices and latency, Monte-Carlo outcomes, serve counters
      and span call counts are deterministic, so any difference is a real
      behavioral change and is flagged regardless of direction.

    A regression is: an exact mismatch, a noisy metric past the threshold
    in the slow direction, or a baseline row/metric missing from the
    current source.  Rows only present in the current source are
    informational (new coverage).  [migsyn report] exits 2 when
    {!regressed}, 1 on usage errors, 0 otherwise. *)

type value = Num of float | Text of string

type row = {
  r_key : string list;  (** stable identity, e.g. [["bench-opt"; "alu4"; "steps"]] *)
  r_metrics : (string * value) list;  (** metric name -> measured value *)
}

type source = {
  src_path : string;
  src_schema : string;  (** the document schema, or ["migsyn-ledger"] *)
  src_runs : int;  (** ledger records folded in; 1 for plain documents *)
  src_rows : row list;  (** unique keys; for ledgers the last run wins *)
}

val load : string -> source
(** Read [path] and flatten it: a single JSON document is dispatched on its
    ["schema"] (["migsyn-bench-opt/2"], ["migsyn-montecarlo/1"],
    ["migsyn-crossbar/1"], ["migsyn-bench/3"], ["migsyn-serve-bench/2"] or
    ["migsyn-run/1"]; earlier versions of these schemas, which carried
    wall-clock fields, are unsupported); a file that does not parse as one document is loaded as a
    JSON-lines ledger of ["migsyn-run/1"] records ({!Obs.Ledger.load}),
    with rows of later records superseding earlier ones under the same key.
    @raise Failure on unreadable, empty or unrecognized input. *)

type kind =
  | Exact_mismatch  (** deterministic metric changed value *)
  | Slower  (** noisy metric past the threshold, slow direction *)
  | Faster  (** noisy metric past the threshold, fast direction *)
  | Missing_metric  (** baseline metric absent from the current row *)
  | Missing_row  (** baseline row absent from the current source *)
  | Added_row  (** current row absent from the baseline (informational) *)

type finding = {
  f_key : string list;
  f_metric : string;  (** [""] for row-level findings *)
  f_baseline : value option;
  f_current : value option;
  f_delta_pct : float option;  (** for noisy comparisons with baseline > 0 *)
  f_kind : kind;
}

type t = {
  rp_baseline : source;
  rp_current : source;
  rp_threshold : float;
  rp_min_time : float;
  rp_ignored : string list;
  rp_regressions : finding list;  (** sorted worst-first (by |delta|, then key) *)
  rp_improvements : finding list;
  rp_added : finding list;
  rp_matched : int;  (** rows present in both sources *)
  rp_unchanged : int;  (** metrics equal or within noise *)
}

val compare :
  ?threshold:float ->
  ?min_time:float ->
  ?ignore_metrics:string list ->
  baseline:source ->
  current:source ->
  unit ->
  t
(** Match rows by key and compare every baseline metric.  [threshold]
    (default [0.25]) is the relative slow-down a noisy metric may show
    before it is a regression; [min_time] (default [0.005]) is the
    absolute floor in seconds (scaled to ns for [*_ns] metrics) below
    which noisy deltas are ignored — microsecond jitter on a microsecond
    pass is not signal.  [ignore_metrics] drops the named metrics from the
    comparison entirely (e.g. [["total_ns"; "self_ns"]] when gating only
    the deterministic rows of a run ledger).
    @raise Invalid_argument on a negative or non-finite threshold,
    min_time, or an unknown metric classification request. *)

val regressed : t -> bool
val exit_code : t -> int
(** [2] when {!regressed}, [0] otherwise — [migsyn report]'s contract. *)

val to_markdown : t -> string
(** The human report: sources, thresholds, and one table per section
    (regressions / improvements / new rows), truncated past 50 rows. *)

val to_json : t -> Obs.Json.t
(** Schema ["migsyn-report/1"]: verdict, thresholds, and every finding. *)
