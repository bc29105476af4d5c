(** Job execution: resolve a spec, compile it through the cache, run it
    under a deadline, collect requested observables.  The JSONL sessions of
    [asim batch] and [asim serve] that feed it live in {!Asim_serve.Server}. *)

type t
(** One compiled-spec cache plus one metrics accumulator, shared by every
    worker domain that runs jobs on it. *)

val create :
  ?cache_capacity:int -> ?tracer:Asim_obs.Tracer.t -> ?opt:Asim.Opt.level -> unit -> t
(** [cache_capacity] defaults to 64 analyzed specs.  [tracer] (default
    {!Asim_obs.Tracer.null}) receives the [batch.cache_lookup] span and one
    span per pipeline stage of every job (parse, analyze, optimize, build,
    simulate).  [opt] (default [O2]) is the level for jobs that don't name
    one in their ["opt"] field; jobs wanting raw outputs pin every
    component live so the middle-end cannot change what they observe. *)

val metrics : t -> Metrics.t
(** The job metrics every {!run_job} records into. *)

val cache_stats : t -> Cache.stats
(** Live counters of the compiled-spec cache. *)

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
    cycles, so it cannot interrupt spec parsing or compilation.  A
    [spec_file] source is read here, and only if it names a regular file (a
    FIFO or device is an error, never a wait); a [spec_hash] source must
    already be resolved to its text (the server does it at admission), or
    the job fails. *)
