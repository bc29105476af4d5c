module Json = Asim_batch.Json
module Proto = Asim_batch.Proto
module Runner = Asim_batch.Runner
module Metrics = Asim_batch.Metrics
module Registry = Asim_obs.Registry
module Clock = Asim_obs.Clock
module Tracer = Asim_obs.Tracer

type config = {
  shards : int;
  queue_depth : int;
  max_in_flight : int;
  max_line_bytes : int;
  cache_capacity : int;
  store_capacity : int;
  default_timeout_s : float option;
  opt : Asim.Opt.level;
  tracer : Tracer.t;
}

let default_config =
  {
    shards = 1;
    queue_depth = 256;
    max_in_flight = 64;
    max_line_bytes = 1 lsl 20;
    cache_capacity = 64;
    store_capacity = 1024;
    default_timeout_s = None;
    opt = Asim.Opt.O2;
    tracer = Tracer.null;
  }

type client = {
  cid : int;
  rfd : Unix.file_descr;
  reply : int -> string -> bool;
      (** hand over the reply to request [index]; false if it could not be
          delivered *)
  hang_up : unit -> unit;  (** the session is over: no reply follows *)
  socket : bool;  (** accepted on a listener, so never trusted with a path *)
  extra_want : Proto.want list;  (** unioned into every job's [want] *)
  mutable in_flight : int;  (** admitted jobs not yet answered; under [t.mutex] *)
}

type task = {
  t_client : client;
  t_index : int;
  t_job : Proto.job;
  t_admitted : float;
}

type t = {
  cfg : config;
  registry : Registry.t;  (** serve-layer [asim_serve_*] families *)
  runner : Runner.t;  (** one compiled-spec cache and job metrics for every worker *)
  store : Store.t;
  mutex : Mutex.t;
      (** guards [queue], [workers], [clients], [readers], [draining],
          [drained] and every [client.in_flight] — admission and worker
          exit decide under the same lock, so no task is ever queued after
          the workers have gone *)
  cond : Condition.t;
      (** broadcast whenever an in-flight count drops, the queue shrinks or
          draining starts *)
  work : Condition.t;  (** a task was queued, or draining started *)
  queue : task Queue.t;
  mutable workers : unit Domain.t list;
  mutable clients : client list;
  mutable readers : Thread.t list;
  mutable listeners : Unix.file_descr list;
  mutable draining : bool;
  mutable drained : bool;
  stop : bool Atomic.t;
  wake_w : Unix.file_descr;  (** self-pipe: {!shutdown} writes, watcher reads *)
  wake_r : Unix.file_descr;
  mutable watcher : Thread.t option;
  mutable metrics_path : string option;
  mutable metrics_writer : Thread.t option;
  writer_stop : bool Atomic.t;
  mutable drain_hooks : (unit -> unit) list;  (** run once, when drain completes *)
  log_mutex : Mutex.t;  (** serializes structured log lines *)
  mutable log : (string -> (string * Json.t) list -> unit) option;
  started : float;
  next_cid : int Atomic.t;
  connections_c : Registry.counter;
  connected_g : Registry.gauge;
  dropped_c : Registry.counter;
  queue_depth_g : Registry.gauge;
  queue_wait_h : Registry.histogram;
  duration_h : Registry.histogram;
}

let config t = t.cfg
let store t = t.store
let metrics t = Runner.metrics t.runner

let on_drain t hook =
  Mutex.lock t.mutex;
  t.drain_hooks <- hook :: t.drain_hooks;
  Mutex.unlock t.mutex

let log_event t event fields =
  match t.log with
  | None -> ()
  | Some emit -> emit event fields

let log_json t oc =
  t.log <-
    Some
      (fun event fields ->
        let line =
          Json.to_string
            (Json.Obj
               (("ts", Json.Float (Clock.now ()))
               :: ("event", Json.String event)
               :: fields))
        in
        Mutex.lock t.log_mutex;
        (try
           output_string oc line;
           output_char oc '\n';
           flush oc
         with Sys_error _ -> ());
        Mutex.unlock t.log_mutex)

let requests_c t kind =
  Registry.counter t.registry ~help:"Requests received, by kind"
    ~labels:[ ("kind", kind) ]
    "asim_serve_requests_total"

let rejected_c t reason =
  Registry.counter t.registry
    ~help:"Jobs refused, or held back while their client or the queue was full, by reason"
    ~labels:[ ("reason", reason) ]
    "asim_serve_rejected_total"

let jobs_c t status =
  Registry.counter t.registry ~help:"Jobs finished, by status"
    ~labels:[ ("status", status) ]
    "asim_serve_jobs_total"

(* --- replies ---------------------------------------------------------------- *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* A stream client's replies go out on its descriptor as they come, in
   completion order.  A client whose connection broke stays registered (its
   jobs still run and decrement in-flight) but is marked dead so no write
   ever touches a possibly-reused descriptor. *)
let writer ~close_on_exit rfd wfd =
  let m = Mutex.create () and alive = ref true in
  let reply _index line =
    Mutex.lock m;
    let ok =
      !alive
      &&
      match write_all wfd (line ^ "\n") with
      | () -> true
      | exception (Unix.Unix_error _ | Sys_error _) ->
          alive := false;
          false
    in
    Mutex.unlock m;
    ok
  in
  let hang_up () =
    Mutex.lock m;
    alive := false;
    if close_on_exit then begin
      (try Unix.close rfd with Unix.Unix_error _ -> ());
      if wfd <> rfd then try Unix.close wfd with Unix.Unix_error _ -> ()
    end;
    Mutex.unlock m
  in
  (reply, hang_up)

(* A batch session's replies are held until every lower index has been
   emitted, so its output is in job order whatever the workers do.  [emit]
   runs under the lock, one line at a time; what it raises is dropped. *)
let in_order tracer emit =
  let m = Mutex.create () and held = Hashtbl.create 64 and next = ref 0 in
  let rec flush () =
    match Hashtbl.find_opt held !next with
    | None -> ()
    | Some line ->
        Hashtbl.remove held !next;
        Tracer.span tracer ~args:[ ("index", string_of_int !next) ] "batch.emit"
          (fun () -> try emit line with _ -> ());
        incr next;
        flush ()
  in
  let reply index line =
    Mutex.lock m;
    Hashtbl.replace held index line;
    flush ();
    Mutex.unlock m;
    true
  in
  reply

let send client index line = ignore (client.reply index line : bool)

let obj_line fields = Json.to_string (Json.Obj fields)

let with_id id fields =
  match id with Some i -> ("id", Json.String i) :: fields | None -> fields

let malformed_line t ~index ~lineno msg =
  Metrics.record (metrics t) ~engine:"manifest" ~status:`Error ~elapsed:0.0;
  obj_line
    [
      ("index", Json.Int index);
      ("line", Json.Int lineno);
      ("status", Json.String "error");
      ("error", Json.String (Printf.sprintf "line %d: %s" lineno msg));
    ]

let refusal_line ~index ~id ~status msg =
  obj_line
    (("index", Json.Int index)
    :: with_id id
         [ ("status", Json.String status); ("error", Json.String msg) ])

(* --- the workers ------------------------------------------------------------ *)

let finish_job t client =
  Mutex.lock t.mutex;
  client.in_flight <- client.in_flight - 1;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

let run_task t task =
  let tr = t.cfg.tracer in
  let attrs =
    ("index", string_of_int task.t_index)
    :: ((match task.t_job.Proto.id with Some id -> [ ("id", id) ] | None -> [])
       @
       match task.t_job.Proto.trace_id with
       | Some x -> [ ("trace_id", x) ]
       | None -> [])
  in
  let picked = Clock.now () in
  Registry.observe t.queue_wait_h (picked -. task.t_admitted);
  if Tracer.is_active tr then
    Tracer.span_at tr ~args:attrs "serve.queue_wait" ~ts:task.t_admitted
      ~dur:(picked -. task.t_admitted);
  let line, status =
    match
      Tracer.span tr ~args:attrs "serve.execute" (fun () ->
          Runner.run_job t.runner task.t_job)
    with
    | outcome ->
        ( Json.to_string (Proto.result_to_json ~index:task.t_index outcome),
          (match outcome.Proto.status with
          | Proto.Ok_ -> "ok"
          | Proto.Error_ _ -> "error"
          | Proto.Timeout _ -> "timeout") )
    | exception exn ->
        (* crash isolation: a worker survives anything a job throws *)
        Metrics.record (metrics t) ~engine:"internal" ~status:`Error ~elapsed:0.0;
        ( obj_line
            [
              ("index", Json.Int task.t_index);
              ("status", Json.String "error");
              ("error", Json.String ("internal: " ^ Printexc.to_string exn));
            ],
          "error" )
  in
  Registry.inc (jobs_c t status);
  Registry.observe t.duration_h (Clock.now () -. picked);
  if not (task.t_client.reply task.t_index line) then Registry.inc t.dropped_c;
  finish_job t task.t_client

(* Every worker pops the one queue, so an idle worker takes the next job
   whatever spec it names; the shared cache keeps repeat specs warm. *)
let worker t =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.draining do
      Condition.wait t.work t.mutex
    done;
    match Queue.take_opt t.queue with
    | None ->
        (* draining with a dry queue: every admitted job is answered *)
        Mutex.unlock t.mutex
    | Some task ->
        Registry.set t.queue_depth_g (float_of_int (Queue.length t.queue));
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex;
        run_task t task;
        loop ()
  in
  loop ()

(* --- admission -------------------------------------------------------------- *)

(* A job whose client is at its quota, or that finds the queue full, waits
   here in its client's reader — which stops reading, so the client meets
   TCP backpressure instead of a refusal.  Only a draining server refuses. *)
let enqueue t client ~index job =
  Mutex.lock t.mutex;
  let rec wait ~held =
    if t.draining then false
    else
      let reason =
        if client.in_flight >= t.cfg.max_in_flight then Some "quota"
        else if Queue.length t.queue >= t.cfg.queue_depth then Some "queue_full"
        else None
      in
      match reason with
      | None -> true
      | Some reason ->
          if not held then Registry.inc (rejected_c t reason);
          Condition.wait t.cond t.mutex;
          wait ~held:true
  in
  let admitted = wait ~held:false in
  if admitted then begin
    client.in_flight <- client.in_flight + 1;
    Queue.push
      { t_client = client; t_index = index; t_job = job; t_admitted = Clock.now () }
      t.queue;
    Registry.set t.queue_depth_g (float_of_int (Queue.length t.queue));
    Condition.signal t.work
  end;
  Mutex.unlock t.mutex;
  admitted

let admit t client ~index (job : Proto.job) =
  Registry.inc (requests_c t "job");
  let id = job.Proto.id in
  let refuse ~reason ~status msg =
    Registry.inc (rejected_c t reason);
    log_event t "reject"
      (("client", Json.Int client.cid)
      :: ("index", Json.Int index)
      :: ("reason", Json.String reason)
      :: ("status", Json.String status)
      :: (match id with Some i -> [ ("id", Json.String i) ] | None -> []));
    send client index (refusal_line ~index ~id ~status msg)
  in
  (* resolve the spec store up front: unknown hashes fail fast, and workers
     never need the store at all; a remote client may not make the server
     read its files *)
  let source =
    match job.Proto.source with
    | Proto.Hash h -> (
        match Store.find t.store h with
        | Some canonical -> Ok (Proto.Inline canonical)
        | None ->
            Error ("unknown_hash", Printf.sprintf "unknown spec hash %s (upload it first)" h))
    | Proto.File _ when client.socket ->
        Error
          ( "spec_file",
            "spec_file is only read in a local session; send the spec inline or \
             upload it" )
    | source -> Ok source
  in
  match source with
  | Error (reason, msg) ->
      Metrics.record (metrics t)
        ~engine:(Asim.engine_to_string job.Proto.engine)
        ~status:`Error ~elapsed:0.0;
      refuse ~reason ~status:"error" msg
  | Ok source ->
      let job =
        {
          job with
          Proto.source;
          timeout_s =
            (match job.Proto.timeout_s with
            | Some _ as budget -> budget
            | None -> t.cfg.default_timeout_s);
          want =
            job.Proto.want
            @ List.filter (fun w -> not (List.mem w job.Proto.want)) client.extra_want;
        }
      in
      if not (enqueue t client ~index job) then
        refuse ~reason:"draining" ~status:"overload" "server draining"

(* --- observability ---------------------------------------------------------- *)

let refresh_gauges t =
  let g name help = Registry.gauge t.registry ~help name in
  Registry.set
    (g "asim_serve_store_specs" "Specs held by the content-addressed store")
    (float_of_int (Store.count t.store));
  Registry.set
    (g "asim_serve_store_capacity" "Spec store capacity")
    (float_of_int (Store.capacity t.store));
  Registry.set
    (g "asim_serve_store_uploads" "Upload requests accepted, fresh or duplicate")
    (float_of_int (Store.uploads t.store));
  Metrics.set_cache (metrics t) (Runner.cache_stats t.runner)

let prometheus t =
  refresh_gauges t;
  Registry.to_prometheus t.registry ^ Registry.to_prometheus (Metrics.registry (metrics t))

let summary t =
  Metrics.summarize (metrics t) ~cache:(Runner.cache_stats t.runner)
    ~wall_s:(Clock.now () -. t.started)

let write_metrics_file t path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (prometheus t));
  Sys.rename tmp path

(* --- request handling ------------------------------------------------------- *)

(* The metrics barrier: a control request only answers once every job this
   client already admitted has been answered, so a pipelined
   job-then-metrics script observes its own jobs in the counters. *)
let metrics_reply t client ~index =
  Registry.inc (requests_c t "metrics");
  Mutex.lock t.mutex;
  while client.in_flight > 0 do
    Condition.wait t.cond t.mutex
  done;
  Mutex.unlock t.mutex;
  obj_line
    [
      ("index", Json.Int index);
      ("control", Json.String "metrics");
      ("status", Json.String "ok");
      ("metrics", Json.String (prometheus t));
    ]

let upload_reply t ~index (u : Proto.upload) =
  Registry.inc (requests_c t "upload");
  match Store.upload t.store u.Proto.source_text with
  | Ok { Store.digest; components; fresh } ->
      obj_line
        (("index", Json.Int index)
        :: with_id u.Proto.upload_id
             [
               ("control", Json.String "upload");
               ("status", Json.String "ok");
               ("hash", Json.String digest);
               ("components", Json.Int components);
               ("fresh", Json.Bool fresh);
             ])
  | Error msg ->
      obj_line
        (("index", Json.Int index)
        :: with_id u.Proto.upload_id
             [
               ("control", Json.String "upload");
               ("status", Json.String "error");
               ("error", Json.String msg);
             ])

let handle_line t client ~index ~lineno line =
  let request =
    match Json.parse line with
    | exception Json.Parse_error msg -> Error msg
    | json -> Proto.request_of_json json
  in
  match request with
  | Error msg ->
      Registry.inc (requests_c t "malformed");
      send client index (malformed_line t ~index ~lineno msg)
  | Ok Proto.Metrics -> send client index (metrics_reply t client ~index)
  | Ok (Proto.Upload u) -> send client index (upload_reply t ~index u)
  | Ok (Proto.Run job) -> admit t client ~index job

(* --- the per-client reader -------------------------------------------------- *)

let is_blank line = String.trim line = ""

(* Line reader over a raw descriptor.  A line past [max_line] bytes is
   discarded byte-by-byte until its newline and answered with a structured
   error — the connection survives. *)
let read_loop t client ~max_line =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 8192 in
  let oversized = ref false in
  let lineno = ref 0 in
  let index = ref 0 in
  let finish_line () =
    incr lineno;
    let line = Buffer.contents buf in
    Buffer.clear buf;
    if !oversized then begin
      oversized := false;
      Registry.inc (requests_c t "malformed");
      Registry.inc (rejected_c t "oversized");
      send client !index
        (malformed_line t ~index:!index ~lineno:!lineno
           (Printf.sprintf "request line exceeds %d bytes" max_line));
      incr index
    end
    else if not (is_blank line) then begin
      let line =
        let n = String.length line in
        if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
      in
      handle_line t client ~index:!index ~lineno:!lineno line;
      incr index
    end
  in
  let append s =
    if not !oversized then begin
      Buffer.add_string buf s;
      if Buffer.length buf > max_line then begin
        oversized := true;
        Buffer.clear buf
      end
    end
  in
  let rec loop () =
    match Unix.read client.rfd chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        (* a signal interrupted the read; the brief sleep is a safe point
           where the OCaml-level handler (which calls {!shutdown}) runs
           before we test the flag — without it a stdio reader could block
           again with the stop request still pending *)
        Thread.delay 0.001;
        if Atomic.get t.stop then () else loop ()
    | exception Unix.Unix_error (_, _, _) -> ()
    | 0 -> if Buffer.length buf > 0 || !oversized then finish_line ()
    | n ->
        let pos = ref 0 in
        for i = 0 to n - 1 do
          if Bytes.get chunk i = '\n' then begin
            append (Bytes.sub_string chunk !pos (i - !pos));
            finish_line ();
            pos := i + 1
          end
        done;
        append (Bytes.sub_string chunk !pos (n - !pos));
        loop ()
  in
  loop ()

let register_client t ~socket ?(extra_want = []) rfd (reply, hang_up) =
  let client =
    {
      cid = Atomic.fetch_and_add t.next_cid 1;
      rfd;
      reply;
      hang_up;
      socket;
      extra_want;
      in_flight = 0;
    }
  in
  Registry.inc t.connections_c;
  Registry.gauge_add t.connected_g 1.0;
  log_event t "accept"
    [
      ("client", Json.Int client.cid);
      ("transport", Json.String (if socket then "tcp" else "pipe"));
    ];
  Mutex.lock t.mutex;
  t.clients <- client :: t.clients;
  let draining = t.draining in
  Mutex.unlock t.mutex;
  (* a client that slipped in while shutdown was unblocking readers would
     otherwise block drain forever *)
  if (draining || Atomic.get t.stop) && socket then
    (try Unix.shutdown rfd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ());
  client

let session t client ~max_line =
  read_loop t client ~max_line;
  (* EOF (or shutdown): the request stream is over, but admitted jobs still
     owe replies — stream them out before hanging up *)
  Mutex.lock t.mutex;
  while client.in_flight > 0 do
    Condition.wait t.cond t.mutex
  done;
  Mutex.unlock t.mutex;
  client.hang_up ();
  Registry.gauge_add t.connected_g (-1.0);
  log_event t "disconnect" [ ("client", Json.Int client.cid) ];
  Mutex.lock t.mutex;
  t.clients <- List.filter (fun c -> c.cid <> client.cid) t.clients;
  Mutex.unlock t.mutex

(* --- lifecycle -------------------------------------------------------------- *)

let unblock t =
  Mutex.lock t.mutex;
  t.draining <- true;
  (* wake every reader waiting at admission, and every idle worker *)
  Condition.broadcast t.cond;
  Condition.broadcast t.work;
  let listeners = t.listeners in
  t.listeners <- [];
  let clients = t.clients in
  Mutex.unlock t.mutex;
  List.iter
    (fun fd ->
      (* shutdown first: close alone does not wake a thread already blocked
         in accept, so a quiet server would never notice the stop request *)
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    listeners;
  List.iter
    (fun c ->
      if c.socket then
        try Unix.shutdown c.rfd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    clients

let watcher_loop t =
  let b = Bytes.create 1 in
  let rec wait () =
    match Unix.read t.wake_r b 0 1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (_, _, _) -> ()
    | _ -> ()
  in
  wait ();
  if Atomic.get t.stop then unblock t

let shutdown t =
  Atomic.set t.stop true;
  (* a self-pipe poke is all a signal handler may safely do; the watcher
     thread does the mutex-taking work *)
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

let create ?(config = default_config) () =
  let config =
    {
      config with
      shards = max 1 config.shards;
      queue_depth = max 1 config.queue_depth;
      max_in_flight = max 1 config.max_in_flight;
      max_line_bytes = max 64 config.max_line_bytes;
    }
  in
  (* broken pipes must surface as EPIPE on the write, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let registry = Registry.create () in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      cfg = config;
      registry;
      runner =
        Runner.create ~cache_capacity:config.cache_capacity ~tracer:config.tracer
          ~opt:config.opt ();
      store = Store.create ~capacity:config.store_capacity ();
      mutex = Mutex.create ();
      cond = Condition.create ();
      work = Condition.create ();
      queue = Queue.create ();
      workers = [];
      clients = [];
      readers = [];
      listeners = [];
      draining = false;
      drained = false;
      stop = Atomic.make false;
      wake_w;
      wake_r;
      watcher = None;
      metrics_path = None;
      metrics_writer = None;
      writer_stop = Atomic.make false;
      drain_hooks = [];
      log_mutex = Mutex.create ();
      log = None;
      started = Clock.now ();
      next_cid = Atomic.make 0;
      connections_c =
        Registry.counter registry ~help:"Client connections accepted"
          "asim_serve_connections_total";
      connected_g =
        Registry.gauge registry ~help:"Clients currently connected"
          "asim_serve_clients_connected";
      dropped_c =
        Registry.counter registry
          ~help:"Job results that could not be delivered (client gone)"
          "asim_serve_dropped_results_total";
      queue_depth_g =
        Registry.gauge registry ~help:"Jobs queued for a worker" "asim_serve_queue_depth";
      queue_wait_h =
        Registry.histogram registry ~help:"Admission-to-pickup wait"
          "asim_serve_queue_wait_seconds";
      duration_h =
        Registry.histogram registry ~help:"Job execution wall time"
          "asim_serve_job_duration_seconds";
    }
  in
  t.workers <- List.init config.shards (fun _ -> Domain.spawn (fun () -> worker t));
  t.watcher <- Some (Thread.create watcher_loop t);
  t

let metrics_file t ~path ~interval =
  t.metrics_path <- Some path;
  let interval = Float.max 0.05 interval in
  let writer () =
    let rec loop () =
      if not (Atomic.get t.writer_stop) then begin
        (* sleep in short slices so drain never waits a full interval *)
        let rec nap left =
          if left > 0.0 && not (Atomic.get t.writer_stop) then begin
            Thread.delay (Float.min 0.1 left);
            nap (left -. 0.1)
          end
        in
        nap interval;
        if not (Atomic.get t.writer_stop) then begin
          (try write_metrics_file t path with Sys_error _ -> ());
          loop ()
        end
      end
    in
    loop ()
  in
  t.metrics_writer <- Some (Thread.create writer ())

(* Registered drain hooks run exactly once, after every job is answered and
   every worker joined — the point where a trace buffer is complete and safe
   to flush (the [--trace-out] file survives a SIGTERM drain this way). *)
let run_drain_hooks t =
  Mutex.lock t.mutex;
  let hooks = t.drain_hooks in
  t.drain_hooks <- [];
  Mutex.unlock t.mutex;
  List.iter (fun hook -> try hook () with _ -> ()) (List.rev hooks)

let drain t =
  Mutex.lock t.mutex;
  if t.drained then Mutex.unlock t.mutex
  else if t.draining && t.clients = [] && t.readers = [] && t.listeners = []
          && t.workers = []
  then begin
    t.drained <- true;
    Mutex.unlock t.mutex;
    run_drain_hooks t
  end
  else begin
    Mutex.unlock t.mutex;
    log_event t "drain" [];
    (* no admission after this: the workers run the queue dry and exit *)
    unblock t;
    Mutex.lock t.mutex;
    let workers = t.workers in
    t.workers <- [];
    Mutex.unlock t.mutex;
    List.iter Domain.join workers;
    Mutex.lock t.mutex;
    let readers = t.readers in
    t.readers <- [];
    Mutex.unlock t.mutex;
    List.iter Thread.join readers;
    (* the watcher may still be parked on the pipe *)
    Atomic.set t.stop true;
    (try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
     with Unix.Unix_error _ -> ());
    (match t.watcher with
    | Some w ->
        Thread.join w;
        t.watcher <- None
    | None -> ());
    Atomic.set t.writer_stop true;
    (match t.metrics_writer with
    | Some w ->
        Thread.join w;
        t.metrics_writer <- None
    | None -> ());
    (match t.metrics_path with
    | Some path -> ( try write_metrics_file t path with Sys_error _ -> ())
    | None -> ());
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    run_drain_hooks t;
    log_event t "drained" [];
    Mutex.lock t.mutex;
    t.drained <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex
  end

let listen t addr =
  let domain = Unix.domain_of_sockaddr addr in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt fd Unix.SO_REUSEADDR true with Unix.Unix_error _ -> ());
  (match addr with
  | Unix.ADDR_UNIX path when Sys.file_exists path -> (
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | _ -> ());
  Unix.bind fd addr;
  Unix.listen fd 128;
  Mutex.lock t.mutex;
  t.listeners <- fd :: t.listeners;
  Mutex.unlock t.mutex;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> 0

let spawn_reader t client =
  let th = Thread.create (fun () -> session t client ~max_line:t.cfg.max_line_bytes) () in
  Mutex.lock t.mutex;
  t.readers <- th :: t.readers;
  Mutex.unlock t.mutex

let accept_loop t fd =
  let rec loop () =
    match Unix.accept ~cloexec:true fd with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        if Atomic.get t.stop then () else loop ()
    | exception Unix.Unix_error (_, _, _) -> ()
    | cfd, _addr ->
        if Atomic.get t.stop then (
          try Unix.close cfd with Unix.Unix_error _ -> ())
        else begin
          (try Unix.setsockopt cfd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          spawn_reader t
            (register_client t ~socket:true cfd (writer ~close_on_exit:true cfd cfd));
          loop ()
        end
  in
  loop ()

let serve t =
  let listeners = Mutex.lock t.mutex; let l = t.listeners in Mutex.unlock t.mutex; l in
  (match listeners with
  | [] -> invalid_arg "Server.serve: no listener (call listen first)"
  | [ fd ] -> accept_loop t fd
  | fds ->
      let threads = List.map (fun fd -> Thread.create (accept_loop t) fd) fds in
      List.iter Thread.join threads);
  drain t

let attach t rfd wfd =
  session t
    (register_client t ~socket:false rfd (writer ~close_on_exit:false rfd wfd))
    ~max_line:t.cfg.max_line_bytes

let batch ?extra_want t fd emit =
  let client =
    register_client t ~socket:false ?extra_want fd (in_order t.cfg.tracer emit, ignore)
  in
  (* manifest lines have no length limit: a large spec may travel inline *)
  session t client ~max_line:max_int
