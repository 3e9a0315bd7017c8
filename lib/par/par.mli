(** A minimal fixed-size domain work-pool for the synthesis engine.

    The pool owns a fixed set of worker domains (no Domainslib, no external
    dependencies — just [Domain], [Mutex] and [Condition] from the standard
    library) fed from a single mutex/condition task queue.  The workers are
    started by the first {!submit}, so a pool that never receives a task
    costs no domain.  Tasks are arbitrary closures; a task that raises has
    its exception (and backtrace) captured and re-raised at {!await}, so
    error behaviour is identical to calling the closure directly.

    Three properties make the pool safe for deterministic experiment
    harnesses:

    - {b Ordering.} {!map} submits tasks in list order and awaits them in
      list order, so results are position-stable regardless of which domain
      ran which task, and the first exception to propagate is the one from
      the earliest failing element.
    - {b Sequential fallback.} A pool created with [jobs = 1] never spawns
      a domain: {!submit} runs the task inline on the caller.  Code paths
      are byte-for-byte the sequential computation, which pins the
      [jobs=1 ≡ jobs=N] determinism contract (DESIGN.md §11).  A pool with
      [jobs ≥ 2] always queues, even before its workers exist; its first
      {!submit} spawns all [jobs] of them.
    - {b Observability merge.} Worker domains record {!Obs} events into
      domain-local buffers; {!shutdown} joins every started worker and
      folds those buffers into the caller's registry, so counters and span
      aggregates under [--metrics] are exact whatever the worker count.

    The default worker count comes from the [MIGSYN_JOBS] environment
    variable when set to a positive integer, and otherwise from
    [Domain.recommended_domain_count ()]. *)

val recommended_jobs : unit -> int
(** Worker count used when [?jobs] is omitted: [MIGSYN_JOBS] if it parses
    as a positive integer (clamped to 128), else
    [Domain.recommended_domain_count ()]. *)

val resolve_jobs : int option -> int
(** [resolve_jobs (Some n)] is [max 1 n]; [resolve_jobs None] (and
    [Some 0] or negative values) fall back to {!recommended_jobs}.  The CLI
    uses this to give [--jobs 0] the meaning "auto". *)

(** {1 Pools} *)

type t
(** A pool of worker domains.  Values of this type must only be driven
    (submit/await/shutdown) from the domain that created them. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] is a pool of [max 1 jobs] workers ([jobs] defaults
    to {!recommended_jobs}).  It spawns nothing: with [jobs ≥ 2] the first
    {!submit} spawns every worker; with [jobs = 1] tasks run inline. *)

val jobs : t -> int
(** The worker count the pool was created with (≥ 1). *)

val workers : t -> int
(** The worker domains started so far: 0 until the first {!submit}, then
    [jobs] (0 throughout for [jobs = 1]). *)

type 'a task
(** A handle to a submitted computation. *)

val submit : t -> (unit -> 'a) -> 'a task
(** Enqueue a closure, first spawning the workers if this is the pool's
    first task.  On a sequential pool the closure runs before [submit]
    returns.  @raise Invalid_argument if the pool is shut down. *)

val await : 'a task -> 'a
(** Block until the task finishes and return its result.  If the task
    raised, the exception is re-raised here with its original backtrace.
    [await] is idempotent. *)

val shutdown : t -> unit
(** Drain the queue, join the workers that were started and merge their
    domain-local {!Obs} buffers into the caller's registry.  A pool that
    never received a task joins none.  Idempotent; after shutdown,
    {!submit} raises. *)

(** {1 Convenience} *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] on a fresh pool and shuts it down afterwards,
    whether [f] returns or raises. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map over a throwaway pool of
    [min jobs (List.length xs)] workers.  With [jobs = 1], or over zero or
    one element, this is exactly [List.map f xs] (no domains are spawned).
    If several elements raise, the exception of the earliest one in list
    order propagates. *)

val map_seeded : ?jobs:int -> seed:int -> (seed:int -> 'a -> 'b) -> 'a list -> 'b list
(** {!map} with a deterministic per-element PRNG seed: element [i] receives
    [Logic.Prng.split_seed seed i], a statistically independent stream keyed
    by list {e position} — never by which domain runs the task or in what
    order tasks complete.  This is the seeding half of the [jobs=1 ≡ jobs=N]
    determinism contract for Monte-Carlo campaigns (DESIGN.md §12): equal
    [(seed, xs)] give equal results for every [jobs]. *)
