(** The JSONL job protocol: one job request per input line, one result per
    output line, results in job order.  The schema is documented in
    docs/batch.md; this module is its single point of truth in code.

    Determinism contract: every result field except ["elapsed_ms"] (only
    present when ["timing"] is requested) is a pure function of the job, so
    result lines are byte-identical across [--jobs] settings. *)

type source =
  | File of string
      (** ["spec_file"]: path to a specification.  Only local sessions
          (stdio [asim serve], [asim batch]) read it; a socket client's
          such job is refused at admission. *)
  | Inline of string  (** ["spec"]: the specification source itself *)
  | Example of string  (** ["example"]: a built-in {!Asim.Specs} name *)
  | Hash of string
      (** ["spec_hash"]: the canonical-form MD5 of a spec previously
          uploaded to the serving layer's content-addressed store
          (lowercased on decode).  The server resolves it at admission, in
          [asim serve] and [asim batch] alike; an unknown hash gets a
          structured error. *)

type want =
  | Outputs  (** final value of every component *)
  | Memory  (** final memory images *)
  | Trace  (** per-cycle trace lines *)
  | Events  (** I/O events *)
  | Stats  (** cycle and memory-access statistics *)
  | Timing  (** wall-clock elapsed_ms (breaks byte-determinism) *)
  | Profile
      (** per-component profile of the simulated design (evaluation
          counts, dirty-skips, memory traffic, fault triggers, cost
          model).  Unsupported on the [native] and [par] engines — such
          jobs answer with a structured error.  The level timing fields
          inside the reply are wall-clock, so like [Timing] this breaks
          byte-determinism across runs. *)

type job = {
  id : string option;
  trace_id : string option;
      (** client-supplied correlation id; stamped (with [id]) onto every
          span the job emits — pipeline, batch, codegen, engine — so one
          Perfetto filter isolates a job end to end *)
  source : source;
  engine : Asim.engine;
      (** field ["engine"], default [`Compiled] *)
  opt : Asim.Opt.level option;
      (** the middle-end level for this job (field ["opt"], accepting 0/1/2
          as number or string); [None] defers to the session default
          ({!Runner.create}'s [?opt]) *)
  cycles : int option;  (** default: the spec's [= N] directive, else 0 *)
  inputs : int list;  (** feed served to input (op 2) memories *)
  want : want list;  (** default [[Outputs]] *)
  timeout_s : float option;  (** per-job wall-clock budget *)
}

val job_of_json : Json.t -> (job, string) result
(** Strict: unknown fields, missing/duplicate spec sources, and ill-typed
    values are errors. *)

type upload = { upload_id : string option; source_text : string }

type request =
  | Run of job
  | Metrics
      (** [{"control":"metrics"}]: answer with the session's live metrics in
          Prometheus text format instead of running a simulation. *)
  | Upload of upload
      (** [{"control":"upload","spec":"…"}]: canonicalize the spec source
          and remember it in the content-addressed spec store, answering
          with its MD5 digest; later jobs may submit by ["spec_hash"]. *)

val request_of_json : Json.t -> (request, string) result
(** A line with a ["control"] field is a control request; anything else is
    decoded as a job via {!job_of_json}. *)

val is_md5_hex : string -> bool
(** 32 chars of lowercase [0-9a-f] — the shape every spec digest has. *)

type status =
  | Ok_
  | Error_ of string
  | Timeout of int  (** cycles completed when the deadline fired *)

type outcome = {
  job : job;
  status : status;
  cycles_run : int;
  outputs : (string * int) list;
  cells : (string * int list) list;
  trace : string list;
  events : string list;
  stats_json : Json.t option;
  profile_json : Json.t option;
  elapsed_s : float;
}

val result_to_json : index:int -> outcome -> Json.t
(** The result line for job [index], fields in fixed order. *)

val status_class : status -> [ `Ok | `Error | `Timeout ]
