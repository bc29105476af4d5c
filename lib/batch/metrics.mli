(** Metrics for a batch/serve session: job counts by status, throughput,
    cache effectiveness, and per-engine latency percentiles.  Thread-safe —
    workers record from any domain.

    This is a view over an {!Asim_obs.Registry}: every [record] updates
    live Prometheus instruments ([asim_jobs_total{status}] counters,
    [asim_job_duration_seconds{engine}] histograms) and keeps the most
    recent {!window} latencies per engine for the exact percentiles of the
    {!summary}.  The registry is what `asim serve` exposes on a
    [{"control":"metrics"}] request and via [--metrics-file].  Memory stays
    bounded however long a server runs. *)

type t

val window : int
(** Latencies kept per engine for the summary's percentiles (65,536). *)

val create : unit -> t

val registry : t -> Asim_obs.Registry.t
(** The live registry backing this session (for Prometheus export). *)

val record :
  t -> engine:string -> status:[ `Ok | `Error | `Timeout ] -> elapsed:float -> unit
(** Record one finished job ([elapsed] in seconds). *)

val set_cache : t -> Cache.stats -> unit
(** Refresh the [asim_cache_*] gauges from a cache snapshot. *)

type engine_latency = {
  engine : string;
  count : int;  (** every job recorded *)
  p50_ms : float;  (** p50/p90/p99: over the most recent {!window} jobs *)
  p90_ms : float;
  p99_ms : float;
  max_ms : float;  (** over every job recorded *)
}

type summary = {
  jobs : int;
  ok : int;
  errors : int;
  timeouts : int;
  wall_s : float;
  jobs_per_sec : float;
  cache : Cache.stats;
  latencies : engine_latency list;  (** sorted by engine name *)
}

val percentile : float array -> float -> float
(** [percentile sorted p] for [p] in 0..100 (so p99 is [99.0], unlike
    {!Asim_obs.Registry.quantile}'s 0..1): nearest rank over a sorted
    array — 0 for the empty array, the single element for n=1 at any rank,
    and the maximum for any percentile whose rank rounds to n (e.g. p99
    with n < 100). *)

val summarize : t -> cache:Cache.stats -> wall_s:float -> summary
(** Exact percentiles over each engine's most recent {!window} samples;
    count and maximum from its histogram, over every job.  A run shorter
    than the window therefore reports exact figures over all its jobs.
    [jobs_per_sec] is 0 when [wall_s] is not a positive finite number
    (never [inf]/[nan]). *)

val to_string : summary -> string
(** Multi-line human-readable report (the CLI prints it to stderr). *)
