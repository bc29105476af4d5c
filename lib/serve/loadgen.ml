module Json = Asim_batch.Json

type config = {
  host : string;
  port : int;
  connections : int;
  jobs_per_connection : int;
  spec : string;
  cycles : int option;
  engine : Asim.engine;
  scrape : bool;
}

type report = {
  connections : int;
  jobs_sent : int;
  ok : int;
  errors : int;
  timeouts : int;
  overloaded : int;
  dropped : int;
  duplicates : int;
  upload_failures : int;
  wall_s : float;
  jobs_per_sec : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
  cache_hit_rate : float option;
}

(* one connection's tally, merged under the run mutex when it finishes *)
type tally = {
  mutable t_sent : int;
  mutable t_ok : int;
  mutable t_errors : int;
  mutable t_timeouts : int;
  mutable t_overloaded : int;
  mutable t_dropped : int;
  mutable t_duplicates : int;
  mutable t_upload_failures : int;
  mutable t_latencies : float list;  (** seconds, submit -> reply *)
}

let fresh_tally () =
  {
    t_sent = 0;
    t_ok = 0;
    t_errors = 0;
    t_timeouts = 0;
    t_overloaded = 0;
    t_dropped = 0;
    t_duplicates = 0;
    t_upload_failures = 0;
    t_latencies = [];
  }

let connect ~host ~port =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
      | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
      | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (addr, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  fd

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

(* a minimal blocking line reader; loadgen connections are one thread each *)
let line_reader fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 8192 in
  let pending = ref [] in
  let rec next () =
    match !pending with
    | line :: rest ->
        pending := rest;
        Some line
    | [] -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> next ()
        | exception Unix.Unix_error (_, _, _) -> None
        | 0 ->
            if Buffer.length buf = 0 then None
            else begin
              let line = Buffer.contents buf in
              Buffer.clear buf;
              Some line
            end
        | n ->
            let pos = ref 0 in
            for i = 0 to n - 1 do
              if Bytes.get chunk i = '\n' then begin
                Buffer.add_subbytes buf chunk !pos (i - !pos);
                pending := Buffer.contents buf :: !pending;
                Buffer.clear buf;
                pos := i + 1
              end
            done;
            Buffer.add_subbytes buf chunk !pos (n - !pos);
            pending := List.rev !pending;
            next ())
  in
  next

let job_line ~cid ~j ~hash ~cycles ~engine =
  let fields =
    [
      ("spec_hash", Json.String hash);
      ("engine", Json.String (Asim.engine_to_string engine));
      ("id", Json.String (Printf.sprintf "c%d-%d" cid j));
      ("want", Json.List []);
    ]
    @ match cycles with Some n -> [ ("cycles", Json.Int n) ] | None -> []
  in
  Json.to_string (Json.Obj fields)

(* The server's default per-client quota: a connection keeps this many
   jobs in flight, which is all the server admits from it at once. *)
let window = Server.default_config.Server.max_in_flight

let drive (cfg : config) ~cid tally =
  match connect ~host:cfg.host ~port:cfg.port with
  | exception _ ->
      tally.t_upload_failures <- tally.t_upload_failures + 1;
      tally.t_dropped <- tally.t_dropped + cfg.jobs_per_connection
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let next = line_reader fd in
          (* index 0: upload the spec, learn its hash *)
          write_all fd
            (Json.to_string
               (Json.Obj
                  [
                    ("control", Json.String "upload");
                    ("spec", Json.String cfg.spec);
                  ])
            ^ "\n");
          let hash =
            match next () with
            | None -> None
            | Some line -> (
                match Json.parse line with
                | exception Json.Parse_error _ -> None
                | json -> (
                    match
                      (Json.member "status" json, Json.member "hash" json)
                    with
                    | Some (Json.String "ok"), Some (Json.String h) -> Some h
                    | _ -> None))
          in
          match hash with
          | None ->
              tally.t_upload_failures <- tally.t_upload_failures + 1;
              tally.t_dropped <- tally.t_dropped + cfg.jobs_per_connection
          | Some hash ->
              let jobs = cfg.jobs_per_connection in
              let sent_at = Array.make (jobs + 1) 0.0 in
              let answered = Array.make (jobs + 1) 0 in
              answered.(0) <- 1 (* the upload reply *);
              let remaining = ref 0 (* sent and not yet answered *) in
              (* Read one reply; false once the connection has closed. *)
              let collect_one () =
                match next () with
                | None -> false
                | Some line ->
                    (match Json.parse line with
                    | exception Json.Parse_error _ -> ()
                    | json -> (
                        match Json.member "index" json with
                        | Some (Json.Int i) when i >= 1 && i <= jobs ->
                            answered.(i) <- answered.(i) + 1;
                            if answered.(i) > 1 then
                              tally.t_duplicates <- tally.t_duplicates + 1
                            else begin
                              decr remaining;
                              tally.t_latencies <-
                                (Asim_obs.Clock.now () -. sent_at.(i))
                                :: tally.t_latencies;
                              match Json.member "status" json with
                              | Some (Json.String "ok") ->
                                  tally.t_ok <- tally.t_ok + 1
                              | Some (Json.String "timeout") ->
                                  tally.t_timeouts <- tally.t_timeouts + 1
                              | Some (Json.String "overload") ->
                                  tally.t_overloaded <- tally.t_overloaded + 1
                              | _ -> tally.t_errors <- tally.t_errors + 1
                            end
                        | _ -> ()));
                    true
              in
              (* At most [window] jobs go unanswered: a job beyond it waits
                 for a reply, so the replies never pile up in the socket
                 while both sides block on writes. *)
              let rec send j =
                if j <= jobs then
                  if !remaining >= window then (if collect_one () then send j)
                  else begin
                    sent_at.(j) <- Asim_obs.Clock.now ();
                    write_all fd
                      (job_line ~cid ~j ~hash ~cycles:cfg.cycles ~engine:cfg.engine
                      ^ "\n");
                    tally.t_sent <- tally.t_sent + 1;
                    incr remaining;
                    send (j + 1)
                  end
              in
              send 1;
              let rec drain () = if !remaining > 0 && collect_one () then drain () in
              drain ();
              for j = 1 to jobs do
                if answered.(j) = 0 then tally.t_dropped <- tally.t_dropped + 1
              done)

let scrape_hit_rate (cfg : config) =
  match connect ~host:cfg.host ~port:cfg.port with
  | exception _ -> None
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          write_all fd "{\"control\":\"metrics\"}\n";
          let next = line_reader fd in
          match next () with
          | None -> None
          | Some line -> (
              match Json.parse line with
              | exception Json.Parse_error _ -> None
              | json -> (
                  match Json.member "metrics" json with
                  | Some (Json.String text) ->
                      String.split_on_char '\n' text
                      |> List.find_map (fun l ->
                             match String.split_on_char ' ' l with
                             | [ "asim_cache_hit_ratio"; v ] ->
                                 float_of_string_opt v
                             | _ -> None)
                  | _ -> None)))

let run (cfg : config) =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let connections = max 1 cfg.connections in
  let t0 = Asim_obs.Clock.now () in
  let tallies = Array.init connections (fun _ -> fresh_tally ()) in
  let threads =
    Array.mapi
      (fun cid tally -> Thread.create (fun () -> drive cfg ~cid tally) ())
      tallies
  in
  Array.iter Thread.join threads;
  let wall_s = Asim_obs.Clock.now () -. t0 in
  let cache_hit_rate = if cfg.scrape then scrape_hit_rate cfg else None in
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  let latencies =
    Array.fold_left (fun acc t -> List.rev_append t.t_latencies acc) [] tallies
    |> Array.of_list
  in
  Array.sort compare latencies;
  let ms p = Asim_batch.Metrics.percentile latencies p *. 1000.0 in
  let ok = sum (fun t -> t.t_ok) in
  {
    connections;
    jobs_sent = sum (fun t -> t.t_sent);
    ok;
    errors = sum (fun t -> t.t_errors);
    timeouts = sum (fun t -> t.t_timeouts);
    overloaded = sum (fun t -> t.t_overloaded);
    dropped = sum (fun t -> t.t_dropped);
    duplicates = sum (fun t -> t.t_duplicates);
    upload_failures = sum (fun t -> t.t_upload_failures);
    wall_s;
    jobs_per_sec = (if wall_s > 0.0 then float_of_int ok /. wall_s else 0.0);
    p50_ms = ms 50.0;
    p90_ms = ms 90.0;
    p99_ms = ms 99.0;
    max_ms =
      (if Array.length latencies = 0 then 0.0
       else latencies.(Array.length latencies - 1) *. 1000.0);
    cache_hit_rate;
  }

let report_to_json r =
  Json.Obj
    ([
       ("connections", Json.Int r.connections);
       ("jobs_sent", Json.Int r.jobs_sent);
       ("ok", Json.Int r.ok);
       ("errors", Json.Int r.errors);
       ("timeouts", Json.Int r.timeouts);
       ("overloaded", Json.Int r.overloaded);
       ("dropped", Json.Int r.dropped);
       ("duplicates", Json.Int r.duplicates);
       ("upload_failures", Json.Int r.upload_failures);
       ("wall_s", Json.Float r.wall_s);
       ("jobs_per_sec", Json.Float r.jobs_per_sec);
       ("p50_ms", Json.Float r.p50_ms);
       ("p90_ms", Json.Float r.p90_ms);
       ("p99_ms", Json.Float r.p99_ms);
       ("max_ms", Json.Float r.max_ms);
     ]
    @
    match r.cache_hit_rate with
    | Some v -> [ ("cache_hit_rate", Json.Float v) ]
    | None -> [])

let report_to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "loadgen: %d connections, %d jobs (%d ok, %d errors, %d timeouts, %d \
        overload) in %.3fs — %.1f jobs/sec\n"
       r.connections r.jobs_sent r.ok r.errors r.timeouts r.overloaded r.wall_s
       r.jobs_per_sec);
  Buffer.add_string buf
    (Printf.sprintf
       "integrity: %d dropped, %d duplicated, %d upload failures\n" r.dropped
       r.duplicates r.upload_failures);
  Buffer.add_string buf
    (Printf.sprintf "latency: p50 %.2f ms  p90 %.2f ms  p99 %.2f ms  max %.2f ms\n"
       r.p50_ms r.p90_ms r.p99_ms r.max_ms);
  (match r.cache_hit_rate with
  | Some v ->
      Buffer.add_string buf
        (Printf.sprintf "server cache hit rate: %.1f%%\n" (100.0 *. v))
  | None -> ());
  Buffer.contents buf
