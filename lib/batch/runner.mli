(** Job execution: resolve a spec, compile it through the cache, run it
    under a deadline, collect requested observables — and the JSONL drivers
    behind [asim batch] and [asim serve]. *)

type t
(** A batch session: one compiled-spec cache plus one metrics accumulator,
    shared by every worker domain. *)

val create :
  ?cache_capacity:int ->
  ?metrics:Metrics.t ->
  ?tracer:Asim_obs.Tracer.t ->
  ?force_want:Proto.want list ->
  ?opt:Asim.Opt.level ->
  unit ->
  t
(** [cache_capacity] defaults to 64 analyzed specs.  [metrics] lets several
    sessions share one accumulator — the serving layer gives every shard
    its own cache (and so its own [t]) while keeping one set of job
    counters and latency histograms.  [tracer] (default
    {!Asim_obs.Tracer.null}) receives spans for batch internals — queue
    wait, worker execute, cache lookup, emit — and for each pipeline stage
    of every job (parse, analyze, build, simulate).  [force_want] is
    unioned into every job's [want] list (how [asim batch --profile]
    profiles a whole manifest without editing it).  [opt] (default [O2]) is
    the session's middle-end level for jobs that don't name one in their
    ["opt"] field; jobs wanting raw outputs pin every component live so the
    middle-end cannot change what they observe. *)

val metrics : t -> Metrics.t
(** The session's metrics accumulator (the one passed to {!create}, or the
    private one it made). *)

val cache_stats : t -> Cache.stats
(** Live counters of this session's compiled-spec cache. *)

val cache_key : opt:Asim.Opt.level -> keep_all:bool -> Asim_core.Spec.t -> string
(** The cache key: an MD5 content hash of the spec's canonical
    pretty-printed form, qualified by the middle-end level and whether
    every component was pinned live.  Canonicalizing first makes the key
    stable across formatting (any source that parses to the same spec
    shares an entry); the cached value is the post-middle-end analysis,
    which no engine choice affects, so jobs on different engines share
    it. *)

val stats_to_json : Asim.Stats.t -> Json.t
(** Machine statistics (cycles, per-memory access counters, total) as JSON
    — shared by batch results and [asim run --stats-json]. *)

val prof_to_json : ?source:string -> Asim.Prof.t -> Json.t
(** A finalized {!Asim.Prof} profile as JSON: run header, one object per
    component (slot, kind, level, source line, counters, cost model), the
    sampled per-level timings and the I/O wait totals.  This is the
    ["profile"] field of batch/serve result lines and the
    [asim profile --json] document (docs/profile.schema.json describes
    it).  [source] locates component definition lines. *)

val run_job : t -> Proto.job -> Proto.outcome
(** Execute one job.  Never raises: spec resolution failures, runtime
    errors and deadline expiry all come back as structured statuses.
    Timeouts are cooperative — the deadline is polled between simulation
    cycles, so it cannot interrupt spec parsing or compilation. *)

val prometheus : t -> string
(** The session's live metrics (jobs, latencies, cache) in Prometheus text
    exposition format.  Refreshes the cache gauges before rendering. *)

val process : t -> jobs:int -> next:(unit -> string option) -> emit:(string -> unit) -> int
(** Drive a JSONL stream: pull manifest lines from [next] until it returns
    [None], run them on a [jobs]-wide pool, and hand each rendered result
    line (no trailing newline) to [emit] in job order.  Blank lines are
    skipped; a malformed line yields an error result naming its 1-based
    line number while the rest of the stream still runs.  A
    [{"control":"metrics"}] line yields a result line carrying
    {!prometheus} output instead of a simulation.  Returns the number of
    result lines emitted. *)

val summary : t -> wall_s:float -> Metrics.summary
(** Metrics snapshot for the end-of-run report. *)
