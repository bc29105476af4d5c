(** The load generator behind [asim loadgen]: open many concurrent TCP
    connections, upload one spec per connection (exercising the
    content-addressed store's dedup), pipeline submit-by-hash jobs (at most
    the server's default per-client quota unanswered per connection, so
    replies are read while jobs are written), and measure end-to-end
    latency from submission to reply.

    Every reply is matched back to its request by index, so dropped and
    duplicated results are counted exactly — [asim loadgen]'s "zero
    dropped/duplicated" check is measured, not assumed. *)

type config = {
  host : string;
  port : int;
  connections : int;
  jobs_per_connection : int;
  spec : string;  (** spec source text, uploaded once per connection *)
  cycles : int option;  (** per-job cycle count; [None] uses the spec's *)
  engine : Asim.engine;
  scrape : bool;  (** fetch a final metrics scrape on one extra connection *)
}

type report = {
  connections : int;
  jobs_sent : int;
  ok : int;
  errors : int;
  timeouts : int;
  overloaded : int;  (** refusals of a draining server *)
  dropped : int;  (** requests that never got a reply *)
  duplicates : int;  (** indices answered more than once *)
  upload_failures : int;
  wall_s : float;
  jobs_per_sec : float;  (** completed (ok) jobs over wall time *)
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
  cache_hit_rate : float option;  (** scraped [asim_cache_hit_ratio] *)
}

val run : config -> report
(** Blocks until every connection has finished.  Raises [Unix.Unix_error]
    if the very first connection cannot be established. *)

val report_to_json : report -> Asim_batch.Json.t
val report_to_string : report -> string
