(** Metrics for a batch/serve session: job counts by status, throughput,
    cache effectiveness, and per-engine latency percentiles.  Thread-safe —
    workers record from any domain.

    Since PR 3 this is a view over an {!Asim_obs.Registry}: every
    [record] updates live Prometheus instruments ([asim_jobs_total{status}]
    counters, [asim_job_duration_seconds{engine}] histograms) as well as
    the exact per-engine samples behind the end-of-run {!summary}.  The
    registry is what `asim serve` exposes on a [{"control":"metrics"}]
    request and via [--metrics-file]; the summary keeps its historical
    exact-percentile semantics. *)

type t

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
  count : int;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
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
(** Exact percentiles from the recorded samples.  [jobs_per_sec] is 0 when
    [wall_s] is not a positive finite number (never [inf]/[nan]). *)

val to_string : summary -> string
(** Multi-line human-readable report (the CLI prints it to stderr). *)
