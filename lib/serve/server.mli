(** The simulation service: many concurrent JSONL clients, a
    content-addressed spec store, one job queue and worker domains that
    share one compiled-spec cache.

    One [t] is one service instance.  Requests arrive as JSONL lines (the
    {!Asim_batch.Proto} schema, whose [upload] control request and
    [spec_hash] job source this module resolves); each non-blank line is
    numbered per session and its reply carries that number as ["index"].
    A socket or stdio client gets job replies in {e completion} order — a
    fast job is never stuck behind a slow one on another worker — while
    control replies (upload, metrics, refusals) are immediate.  A batch
    session ({!batch}) gets every reply in index order instead.

    {2 Admission control}

    A job waits in its client's reader, which stops reading meanwhile,
    while that client has [max_in_flight] unanswered jobs or the queue
    holds [queue_depth] jobs: the client meets TCP backpressure, not a
    refusal.  Each such wait is counted in [asim_serve_rejected_total]
    under reason [quota] or [queue_full].  Refusals are structured replies
    that echo the job's ["id"]:
    - a draining server answers ["overload"] with ["server draining"];
    - an unknown [spec_hash] gets ["error"];
    - so does a [spec_file] job from a socket client: only local sessions
      ({!attach}, {!batch}) read files, so a remote client cannot make the
      server open a path.
    Jobs that pass run under a cooperative deadline
    ({!Asim.Machine.run_bounded}) of [timeout_s], defaulted from
    [default_timeout_s].

    {2 Workers}

    [shards] worker domains pop one FIFO queue and share one
    {!Asim_batch.Runner}: one single-flight compiled-spec cache of
    [cache_capacity] entries and one {!Asim_batch.Metrics}.  An idle worker
    takes the next job whatever spec it names.

    {2 Shutdown}

    {!shutdown} is signal-handler-safe: it sets a flag and pokes a
    self-pipe; a watcher thread then stops the listener and wakes readers,
    including those waiting at admission.  {!drain} (called by {!serve} on
    exit, idempotent) runs every admitted job dry, joins the worker domains
    and reader threads, and flushes a final metrics-file snapshot. *)

type config = {
  shards : int;  (** worker domains *)
  queue_depth : int;  (** jobs the shared queue holds before admission waits *)
  max_in_flight : int;  (** per-client admitted-but-unanswered jobs before admission waits *)
  max_line_bytes : int;
      (** longer request lines get a structured error ({!batch} sets no
          limit) *)
  cache_capacity : int;  (** entries of the one compiled-spec cache *)
  store_capacity : int;  (** content-addressed spec store entries *)
  default_timeout_s : float option;  (** deadline for jobs that name none *)
  opt : Asim.Opt.level;  (** middle-end level for jobs that name none *)
  tracer : Asim_obs.Tracer.t;
}

val default_config : config
(** 1 worker, queue 256, quota 64, 1 MiB lines, cache 64, store 1024, no
    default timeout, middle-end at [O2], null tracer. *)

type t

val create : ?config:config -> unit -> t
val config : t -> config
val store : t -> Store.t

(** {2 Listening} *)

val listen : t -> Unix.sockaddr -> int
(** Bind and listen.  Returns the bound TCP port (handy with port 0), or 0
    for Unix-domain sockets.  Call once, before {!serve}. *)

val serve : t -> unit
(** Accept connections and spawn a reader thread per client; returns after
    {!shutdown} (having called {!drain}). *)

val attach : t -> Unix.file_descr -> Unix.file_descr -> unit
(** Run one local client session over an (input, output) descriptor pair
    in the calling thread — the stdio mode of [asim serve] is exactly this
    over (stdin, stdout).  Returns once the input hits EOF {e and} every job
    this client admitted has been answered; the descriptors are not
    closed.  The caller should then {!drain}. *)

val batch :
  ?extra_want:Asim_batch.Proto.want list -> t -> Unix.file_descr -> (string -> unit) -> unit
(** [batch t fd emit] runs one local session over the manifest [fd] in the
    calling thread — [asim batch] is exactly this — and hands each reply
    line (no newline) to [emit] in index order, inside a [batch.emit] span.
    Lines have no length limit.  [extra_want] is unioned into every job's
    [want] ([asim batch --profile]).  Returns once the manifest hits EOF
    and every reply is out; [fd] is not closed.  The caller should then
    {!drain}. *)

val shutdown : t -> unit
(** Request shutdown: stop accepting, unblock readers, start draining.
    Safe to call from a signal handler and more than once. *)

val drain : t -> unit
(** Finish all admitted jobs, join workers and readers, flush the final
    metrics snapshot.  Idempotent; {!serve} calls it on the way out. *)

val on_drain : t -> (unit -> unit) -> unit
(** Register a hook to run exactly once when {!drain} completes — after
    every admitted job has been answered and every worker joined, before
    control returns.  This is how [asim serve --trace-out] flushes its
    Chrome-trace buffer on a SIGTERM/SIGINT drain: at hook time the span
    buffer is complete.  Hooks run in registration order; exceptions are
    swallowed.  A hook registered after the drain already completed never
    runs. *)

val log_json : t -> out_channel -> unit
(** Switch on structured logging: one JSON object per line on [oc] for
    every lifecycle event — [accept] (client id, transport), [reject]
    (admission refusals with reason and status), [disconnect], [drain] /
    [drained].  Each line carries a ["ts"] from {!Asim_obs.Clock.now}, so
    logs are deterministic under a mock clock.  Lines are serialized
    under a mutex; write failures are ignored (logging must never take
    the service down). *)

(** {2 Observability} *)

val prometheus : t -> string
(** The full scrape: serve-layer families ([asim_serve_*]) followed by the
    job and cache families ([asim_jobs_total], [asim_job_duration_seconds],
    [asim_cache_*]). *)

val metrics_file : t -> path:string -> interval:float -> unit
(** Spawn a writer thread that atomically (write + rename) refreshes
    [path] with {!prometheus} every [interval] seconds until drained;
    {!drain} writes one final snapshot. *)

val summary : t -> Asim_batch.Metrics.summary
(** Job metrics plus cache counters, with wall time measured from
    {!create}. *)
