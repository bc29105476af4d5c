module Registry = Asim_obs.Registry

let window = 65_536

(* One engine's jobs: the live histogram, whose count and maximum are exact
   over every job, and the elapsed seconds of the most recent [window] jobs
   for exact percentiles.  [recent] grows by doubling up to [window], then
   is a ring that overwrites its oldest sample. *)
type engine_jobs = {
  hist : Registry.histogram;
  mutable recent : float array;
  mutable recorded : int;
}

type t = {
  mutex : Mutex.t;
  registry : Registry.t;
  ok_c : Registry.counter;
  error_c : Registry.counter;
  timeout_c : Registry.counter;
  by_engine : (string, engine_jobs) Hashtbl.t;
}

let status_counter registry status =
  Registry.counter registry ~help:"Finished jobs by status"
    ~labels:[ ("status", status) ]
    "asim_jobs_total"

let create () =
  let registry = Registry.create () in
  {
    mutex = Mutex.create ();
    registry;
    ok_c = status_counter registry "ok";
    error_c = status_counter registry "error";
    timeout_c = status_counter registry "timeout";
    by_engine = Hashtbl.create 4;
  }

let registry t = t.registry

let engine_jobs t engine =
  match Hashtbl.find_opt t.by_engine engine with
  | Some j -> j
  | None ->
      let hist =
        Registry.histogram t.registry ~help:"Job wall-clock duration"
          ~labels:[ ("engine", engine) ]
          "asim_job_duration_seconds"
      in
      let j = { hist; recent = Array.make 16 0.0; recorded = 0 } in
      Hashtbl.replace t.by_engine engine j;
      j

let record t ~engine ~status ~elapsed =
  Mutex.lock t.mutex;
  Registry.inc
    (match status with `Ok -> t.ok_c | `Error -> t.error_c | `Timeout -> t.timeout_c);
  let j = engine_jobs t engine in
  Registry.observe j.hist elapsed;
  let size = Array.length j.recent in
  if j.recorded = size && size < window then begin
    let bigger = Array.make (min window (2 * size)) 0.0 in
    Array.blit j.recent 0 bigger 0 size;
    j.recent <- bigger
  end;
  j.recent.(j.recorded mod Array.length j.recent) <- elapsed;
  j.recorded <- j.recorded + 1;
  Mutex.unlock t.mutex

let set_cache t (cache : Cache.stats) =
  let g name help = Registry.gauge t.registry ~help name in
  Registry.set (g "asim_cache_hits" "Compiled-spec cache hits") (float_of_int cache.Cache.hits);
  Registry.set (g "asim_cache_misses" "Compiled-spec cache misses") (float_of_int cache.Cache.misses);
  Registry.set
    (g "asim_cache_evictions" "Compiled-spec cache evictions")
    (float_of_int cache.Cache.evictions);
  Registry.set (g "asim_cache_entries" "Compiled-spec cache live entries") (float_of_int cache.Cache.entries);
  Registry.set (g "asim_cache_capacity" "Compiled-spec cache capacity") (float_of_int cache.Cache.capacity);
  Registry.set (g "asim_cache_hit_ratio" "Compiled-spec cache hit ratio") (Cache.hit_rate cache)

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
  latencies : engine_latency list;
}

(* Nearest-rank percentile over a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let count_of c = int_of_float (Registry.counter_value c)

let summarize t ~cache ~wall_s =
  Mutex.lock t.mutex;
  let latencies =
    Hashtbl.fold
      (fun engine j acc ->
        let sorted = Array.sub j.recent 0 (min j.recorded (Array.length j.recent)) in
        Array.sort compare sorted;
        let ms p = percentile sorted p *. 1000.0 in
        {
          engine;
          count = Registry.hist_count j.hist;
          p50_ms = ms 50.0;
          p90_ms = ms 90.0;
          p99_ms = ms 99.0;
          max_ms = Registry.hist_max j.hist *. 1000.0;
        }
        :: acc)
      t.by_engine []
    |> List.sort (fun a b -> String.compare a.engine b.engine)
  in
  let ok = count_of t.ok_c and errors = count_of t.error_c and timeouts = count_of t.timeout_c in
  let jobs = ok + errors + timeouts in
  let jobs_per_sec =
    (* Guard the division: a sub-resolution wall clock (or a frozen mock
       clock) must not turn throughput into inf/nan. *)
    if Float.is_finite wall_s && wall_s > 0.0 then float_of_int jobs /. wall_s else 0.0
  in
  let s = { jobs; ok; errors; timeouts; wall_s; jobs_per_sec; cache; latencies } in
  Mutex.unlock t.mutex;
  set_cache t cache;
  s

let to_string s =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "batch: %d jobs (%d ok, %d errors, %d timeouts) in %.3fs — %.1f jobs/sec\n"
       s.jobs s.ok s.errors s.timeouts s.wall_s s.jobs_per_sec);
  Buffer.add_string buf
    (Printf.sprintf "cache: %d hits, %d misses, %d evictions (%.1f%% hit rate, %d/%d entries)\n"
       s.cache.Cache.hits s.cache.Cache.misses s.cache.Cache.evictions
       (100.0 *. Cache.hit_rate s.cache)
       s.cache.Cache.entries s.cache.Cache.capacity);
  List.iter
    (fun l ->
      Buffer.add_string buf
        (Printf.sprintf
           "engine %-10s %5d jobs  p50 %8.2f ms  p90 %8.2f ms  p99 %8.2f ms  max %8.2f ms\n"
           l.engine l.count l.p50_ms l.p90_ms l.p99_ms l.max_ms))
    s.latencies;
  Buffer.contents buf
