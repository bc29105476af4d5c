(* The serve phase.  The suite re-execs itself as a server process
   ([Asim_serve.Server], 2 shards, default limits, -O2) and drives it from
   one single-threaded select client over 2 TCP connections: a closed loop
   for throughput, then an open loop at a fixed rate for latency.  Every
   reply is matched to its request by index. *)

module Json = Asim_batch.Json
module Server = Asim_serve.Server
module Tracer = Asim_obs.Tracer

let shards = 2
let connections = 2

(* Closed loop: outstanding jobs per connection. *)
let window = 4

(* The longest the client waits for stragglers before counting them as
   dropped. *)
let drain_timeout_s = 10.0

(* --- the server process ------------------------------------------------------ *)

let vmhwm_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> int_of_string_opt (List.hd (String.split_on_char ' ' (String.trim v)))
          | _ -> None)
        (String.split_on_char '\n' status)
      |> Option.value ~default:0
  | exception Sys_error _ -> 0

(* Per span name: p50 and p99 duration in ms, plus the cache-lookup
   outcomes, summarized inside the server so only numbers cross over. *)
let span_summary tracer =
  let by_name = Hashtbl.create 16 in
  let hits = ref 0 and misses = ref 0 in
  List.iter
    (fun (e : Tracer.event) ->
      Hashtbl.replace by_name e.name
        ((e.dur_us /. 1000.0) :: Option.value (Hashtbl.find_opt by_name e.name) ~default:[]);
      if e.name = "batch.cache_lookup" then
        match List.assoc_opt "outcome" e.args with
        | Some "hit" -> incr hits
        | Some _ -> incr misses
        | None -> ())
    (Tracer.events tracer);
  Json.Obj
    [
      ( "spans",
        Json.Obj
          (Hashtbl.fold
             (fun name ms acc ->
               ( name,
                 Json.Obj
                   [
                     ("p50", Json.Float (Sample.median ms));
                     ("p99", Json.Float (Sample.percentile 0.99 ms));
                   ] )
               :: acc)
             by_name []) );
      ("cache_hits", Json.Int !hits);
      ("cache_misses", Json.Int !misses);
    ]

(* The child: prints its port, serves until its stdin closes, then prints
   one JSON line with its peak RSS and (traced) span summary. *)
let child ~traced =
  Asim_obs.Clock.set_source Sample.now;
  let tracer = if traced then Tracer.create () else Tracer.null in
  let t = Server.create ~config:{ Server.default_config with shards; tracer } () in
  let port = Server.listen t (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  Printf.printf "%d\n%!" port;
  let watcher =
    Thread.create
      (fun () ->
        (try ignore (In_channel.input_all stdin) with Sys_error _ -> ());
        Server.shutdown t)
      ()
  in
  Server.serve t;
  Thread.join watcher;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("vmhwm_kb", Json.Int (vmhwm_kb ())); ("trace", span_summary tracer) ]))

(* --- the client -------------------------------------------------------------- *)

type kind = Hit of int | Miss

type pending = { due : float; kind : kind }

type conn = {
  fd : Unix.file_descr;
  partial : Buffer.t;
  mutable next_index : int;
  pending : (int, pending) Hashtbl.t;
  answered : (int, unit) Hashtbl.t;
}

type server = {
  pid : int;
  to_child : out_channel;
  from_child : in_channel;
  conns : conn array;
  hashes : string array;  (** digest of each hot spec, in upload order *)
}

let send conn line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write conn.fd b off (Bytes.length b - off))
  in
  go 0

(* Read what [conn] has ready and return the complete reply lines. *)
let read_lines conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "server closed the connection"
  | n ->
      Buffer.add_subbytes conn.partial chunk 0 n;
      let data = Buffer.contents conn.partial in
      let parts = String.split_on_char '\n' data in
      let rec split acc = function
        | [ rest ] ->
            Buffer.clear conn.partial;
            Buffer.add_string conn.partial rest;
            List.rev acc
        | line :: rest -> split (line :: acc) rest
        | [] -> List.rev acc
      in
      split [] parts

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  {
    fd;
    partial = Buffer.create 4096;
    next_index = 0;
    pending = Hashtbl.create 64;
    answered = Hashtbl.create 1024;
  }

(* Spawn the server, connect, upload the hot set and wait for every
   acknowledgement: the server part of set-up. *)
let start ~traced hot =
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let args = Array.of_list ([ Sys.executable_name; "serve-child" ] @ if traced then [ "--traced" ] else []) in
  let pid = Unix.create_process Sys.executable_name args child_in child_out Unix.stderr in
  Unix.close child_in;
  Unix.close child_out;
  let to_child = Unix.out_channel_of_descr to_child in
  let from_child = Unix.in_channel_of_descr from_child in
  let port = int_of_string (String.trim (input_line from_child)) in
  let conns = Array.init connections (fun _ -> connect port) in
  let c = conns.(0) in
  List.iter
    (fun text ->
      send c (Json.to_string (Json.Obj [ ("control", Json.String "upload"); ("spec", Json.String text) ]));
      c.next_index <- c.next_index + 1)
    hot;
  let acks = ref [] in
  while List.length !acks < List.length hot do
    List.iter
      (fun line ->
        let j = Json.parse line in
        match (Json.member "index" j, Option.bind (Json.member "hash" j) Json.to_string_opt) with
        | Some (Json.Int i), Some h -> acks := (i, h) :: !acks
        | _ -> failwith ("upload refused: " ^ line))
      (read_lines c)
  done;
  let hashes = Array.of_list (List.map snd (List.sort compare !acks)) in
  { pid; to_child; from_child; conns; hashes }

(* Close the connections and the child's stdin; the child drains, reports
   and exits.  Returns its report. *)
let stop s =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) s.conns;
  close_out s.to_child;
  let report = In_channel.input_all s.from_child in
  close_in s.from_child;
  ignore (Unix.waitpid [] s.pid);
  match List.rev (String.split_on_char '\n' (String.trim report)) with
  | last :: _ -> (try Json.parse last with Json.Parse_error _ -> Json.Null)
  | [] -> Json.Null

(* --- the job stream ---------------------------------------------------------- *)

type stream = {
  rng : Random.State.t;
  hit_lines : string array;
  miss : int -> string;
  ready : string Queue.t;  (** rendered miss jobs not yet sent *)
  mutable rendered : int;
  expected : string array;  (** each hot spec's reference statistics *)
}

let job_json source =
  Json.to_string
    (Json.Obj
       [
         source;
         ("engine", Json.String "flat");
         ("cycles", Json.Int Workload.job_cycles);
         ("want", Json.List [ Json.String "stats" ]);
       ])

(* The reference a hit must reproduce: the compiled engine on the raw spec,
   in process. *)
let reference_stats text =
  let m = Asim.Compile.create ~config:Asim.Machine.quiet_config (Asim.load_string text) in
  Asim.Machine.run m ~cycles:Workload.job_cycles;
  Json.to_string (Asim_batch.Runner.stats_to_json m.stats)

let stream ~seed (w : Workload.t) server =
  {
    rng = Random.State.make [| seed; 0x5e7e |];
    hit_lines = Array.map (fun h -> job_json ("spec_hash", Json.String h)) server.hashes;
    miss = w.miss;
    ready = Queue.create ();
    rendered = 0;
    expected = Array.of_list (List.map reference_stats w.hot);
  }

let render st =
  Queue.push (job_json ("spec", Json.String (st.miss st.rendered))) st.ready;
  st.rendered <- st.rendered + 1

(* Misses are rendered between timed phases, [n] ahead, so the client's own
   spec generation does not delay a send. *)
let refill st n =
  while Queue.length st.ready < n do
    render st
  done

(* 90% of jobs name a hot spec by hash; 10% carry a fresh spec inline. *)
let next_job st =
  if Random.State.int st.rng 10 = 0 then begin
    if Queue.is_empty st.ready then render st;
    (Miss, Queue.pop st.ready)
  end
  else
    let i = Random.State.int st.rng (Array.length st.hit_lines) in
    (Hit i, st.hit_lines.(i))

let submit conn st ~due =
  let kind, line = next_job st in
  Hashtbl.replace conn.pending conn.next_index { due; kind };
  conn.next_index <- conn.next_index + 1;
  send conn line

type outcome = { latency : float; kind : kind }

(* Match one reply to its request and check it.  A failed, refused or
   unmatched job yields an infinite latency. *)
let receive tally st conn line ~now =
  let j = Json.parse line in
  let line = if String.length line > 200 then String.sub line 0 200 ^ "..." else line in
  match Option.bind (Json.member "index" j) Json.to_int with
  | None ->
      Tally.check tally false ("reply without index: " ^ line);
      None
  | Some index -> (
      match Hashtbl.find_opt conn.pending index with
      | None ->
          Tally.check tally false
            (if Hashtbl.mem conn.answered index then Printf.sprintf "duplicate reply %d" index
             else "reply to no request: " ^ line);
          None
      | Some p ->
          Hashtbl.remove conn.pending index;
          Hashtbl.replace conn.answered index ();
          let status = Option.bind (Json.member "status" j) Json.to_string_opt in
          let stats = Option.map Json.to_string (Json.member "stats" j) in
          let ok =
            status = Some "ok"
            && Option.bind (Json.member "cycles" j) Json.to_int = Some Workload.job_cycles
            && match p.kind with Hit i -> stats = Some st.expected.(i) | Miss -> stats <> None
          in
          Tally.check tally ok ("bad reply: " ^ line);
          Some { latency = (if ok then now -. p.due else infinity); kind = p.kind })

let pending_total s = Array.fold_left (fun acc c -> acc + Hashtbl.length c.pending) 0 s.conns

(* Wait up to [timeout] seconds for readable connections and hand every
   complete reply to [on_reply]. *)
let poll s ~timeout on_reply =
  let fds = Array.to_list (Array.map (fun c -> c.fd) s.conns) in
  match Unix.select fds [] [] (Float.max 0.0 timeout) with
  | readable, _, _ ->
      Array.iter
        (fun c ->
          if List.mem c.fd readable then
            let lines = read_lines c in
            let now = Sample.now () in
            List.iter (fun line -> if line <> "" then on_reply c line ~now) lines)
        s.conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Whatever is still unanswered after the drain timeout was dropped. *)
let drain tally s on_reply =
  let deadline = Sample.now () +. drain_timeout_s in
  while pending_total s > 0 && Sample.now () < deadline do
    poll s ~timeout:(deadline -. Sample.now ()) on_reply
  done;
  Array.iter
    (fun c ->
      Hashtbl.iter
        (fun i _ -> Tally.check tally false (Printf.sprintf "job %d never answered" i))
        c.pending;
      Hashtbl.reset c.pending)
    s.conns

(* Closed loop: each connection keeps [window] jobs outstanding.  Returns
   completed jobs per second. *)
let closed_loop tally st s ~duration =
  refill st 400;
  let start = Sample.now () in
  let stop = start +. duration in
  let done_ok = ref 0 in
  Array.iter (fun c -> for _ = 1 to window do submit c st ~due:(Sample.now ()) done) s.conns;
  let on_reply c line ~now =
    match receive tally st c line ~now with
    | Some o ->
        if now < stop then begin
          if Float.is_finite o.latency then incr done_ok;
          submit c st ~due:now
        end
    | None -> ()
  in
  while Sample.now () < stop do
    poll s ~timeout:(stop -. Sample.now ()) on_reply
  done;
  let elapsed = Sample.now () -. start in
  drain tally s on_reply;
  float_of_int !done_ok /. elapsed

type open_result = { outcomes : outcome list; late : float list }

(* Open loop: job i is due at start + i/rate whatever the replies do, and
   its latency runs from that due time, so a stall also charges the jobs
   queued behind it.  [late] is how far behind schedule each send went. *)
let open_loop tally st s ~rate ~duration =
  let n = max 1 (int_of_float (rate *. duration)) in
  refill st ((n / 8) + 100);
  let start = Sample.now () +. 0.01 in
  let outcomes = ref [] and late = ref [] in
  let on_reply c line ~now =
    Option.iter (fun o -> outcomes := o :: !outcomes) (receive tally st c line ~now)
  in
  for i = 0 to n - 1 do
    let due = start +. (float_of_int i /. rate) in
    while Sample.now () < due do
      poll s ~timeout:(due -. Sample.now ()) on_reply
    done;
    late := (Sample.now () -. due) :: !late;
    submit s.conns.(i mod connections) st ~due
  done;
  drain tally s on_reply;
  (* a job that never answered still missed every limit *)
  let answered = List.length !outcomes in
  let missing = List.init (n - answered) (fun _ -> { latency = infinity; kind = Miss }) in
  { outcomes = missing @ !outcomes; late = !late }

let ms xs = List.map (fun x -> x *. 1000.0) xs

let latencies ?kind r =
  ms
    (List.filter_map
       (fun o ->
         match (kind, o.kind) with
         | None, _ | Some `Hit, Hit _ | Some `Miss, Miss -> Some o.latency
         | _ -> None)
       r.outcomes)
