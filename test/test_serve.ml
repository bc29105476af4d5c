(* The network simulation service: content-addressed spec store, TCP
   frontend (upload / submit-by-hash, admission that waits, streaming
   completion order, no file access for remote clients), and graceful
   shutdown of the CLI. *)

open Asim_serve

let counter = "# counter\n= 8\ncount* inc .\nA inc 4 count 1\nM count 0 inc 1 1\n.\n"

(* The same machine reformatted: must canonicalize to the same digest. *)
let counter_reformatted =
  "# counter\n\n=   8\n  count*    inc  .\n\nA inc 4 count 1   { the adder }\nM count 0 inc 1 1\n.\n"

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

module Json = Asim_batch.Json

(* --- spec store ------------------------------------------------------------- *)

let test_store_roundtrip () =
  let store = Store.create () in
  let u1 =
    match Store.upload store counter with
    | Ok u -> u
    | Error e -> Alcotest.failf "upload failed: %s" e
  in
  Alcotest.(check bool) "fresh" true u1.Store.fresh;
  Alcotest.(check int) "components" 2 u1.Store.components;
  Alcotest.(check bool) "md5 hex digest" true (Asim_batch.Proto.is_md5_hex u1.Store.digest);
  (* the reformatted source is the same spec: same digest, not fresh *)
  (match Store.upload store counter_reformatted with
  | Ok u2 ->
      Alcotest.(check string) "same canonical digest" u1.Store.digest u2.Store.digest;
      Alcotest.(check bool) "dedup" false u2.Store.fresh
  | Error e -> Alcotest.failf "re-upload failed: %s" e);
  Alcotest.(check int) "one stored spec" 1 (Store.count store);
  Alcotest.(check int) "two accepted uploads" 2 (Store.uploads store);
  (match Store.find store u1.Store.digest with
  | Some canonical ->
      Alcotest.(check bool) "stores the canonical form" true
        (contains canonical "A inc 4 count 1")
  | None -> Alcotest.fail "digest not found");
  Alcotest.(check (option string)) "unknown digest" None
    (Store.find store (String.make 32 '0'))

let test_store_rejects_bad_spec () =
  let store = Store.create () in
  match Store.upload store "this is not a spec" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> Alcotest.(check int) "nothing stored" 0 (Store.count store)

let test_store_capacity () =
  let store = Store.create ~capacity:1 () in
  (match Store.upload store counter with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first upload failed: %s" e);
  let other = "# other\n= 4\nx* y .\nA y 4 x 1\nM x 0 y 1 1\n.\n" in
  (match Store.upload store other with
  | Ok _ -> Alcotest.fail "exceeded capacity"
  | Error msg -> Alcotest.(check bool) "names the limit" true (contains msg "full"));
  (* duplicates of a stored spec still land at capacity *)
  match Store.upload store counter_reformatted with
  | Ok u -> Alcotest.(check bool) "duplicate accepted" false u.Store.fresh
  | Error e -> Alcotest.failf "duplicate refused: %s" e

(* --- in-process TCP server --------------------------------------------------- *)

let with_server ?(config = Server.default_config) f =
  let server = Server.create ~config () in
  let port = Server.listen server (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  let th = Thread.create Server.serve server in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Thread.join th)
    (fun () -> f server port)

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* blocking reader; returns the next reply line *)
let reader fd =
  let ic = Unix.in_channel_of_descr fd in
  fun () -> input_line ic

let int_field json key =
  match Json.member key json with Some (Json.Int i) -> Some i | _ -> None

let str_field json key =
  match Json.member key json with Some (Json.String s) -> Some s | _ -> None

let test_upload_submit_roundtrip () =
  with_server (fun _server port ->
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let next = reader fd in
          send fd (Printf.sprintf {|{"control":"upload","spec":%s,"id":"up"}|}
                     (Json.to_string (Json.String counter)));
          let up = Json.parse (next ()) in
          Alcotest.(check (option string)) "upload ok" (Some "ok") (str_field up "status");
          Alcotest.(check (option string)) "echoes id" (Some "up") (str_field up "id");
          let hash = Option.get (str_field up "hash") in
          (* duplicate upload: same hash, fresh=false *)
          send fd (Printf.sprintf {|{"control":"upload","spec":%s}|}
                     (Json.to_string (Json.String counter_reformatted)));
          let up2 = Json.parse (next ()) in
          Alcotest.(check (option string)) "same hash" (Some hash) (str_field up2 "hash");
          Alcotest.(check bool) "not fresh" true
            (Json.member "fresh" up2 = Some (Json.Bool false));
          (* submit by hash, twice: the second run must hit the warm cache *)
          send fd (Printf.sprintf {|{"spec_hash":"%s"}|} hash);
          let r1 = Json.parse (next ()) in
          Alcotest.(check (option string)) "job ok" (Some "ok") (str_field r1 "status");
          Alcotest.(check (option int)) "counter runs 8 cycles" (Some 8)
            (int_field r1 "cycles");
          send fd (Printf.sprintf {|{"spec_hash":"%s"}|} hash);
          let r2 = Json.parse (next ()) in
          Alcotest.(check (option string)) "second job ok" (Some "ok")
            (str_field r2 "status");
          (* metrics scrape shows the warm hit on the cache *)
          send fd {|{"control":"metrics"}|};
          let m = Json.parse (next ()) in
          let text = Option.get (str_field m "metrics") in
          Alcotest.(check bool) "served from the cache" true
            (contains text "asim_cache_hits 1");
          Alcotest.(check bool) "store gauge" true
            (contains text "asim_serve_store_specs 1")))

let test_cache_warm_span () =
  (* tracer-level proof that a repeat submit-by-hash is a cache hit *)
  let tracer = Asim_obs.Tracer.create () in
  let config = { Server.default_config with Server.tracer } in
  with_server ~config (fun _server port ->
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let next = reader fd in
          send fd (Printf.sprintf {|{"control":"upload","spec":%s}|}
                     (Json.to_string (Json.String counter)));
          let hash = Option.get (str_field (Json.parse (next ())) "hash") in
          send fd (Printf.sprintf {|{"spec_hash":"%s"}|} hash);
          ignore (next ());
          send fd (Printf.sprintf {|{"spec_hash":"%s"}|} hash);
          ignore (next ());
          send fd {|{"control":"metrics"}|};
          let text = Option.get (str_field (Json.parse (next ())) "metrics") in
          Alcotest.(check bool) "the cache counted the hit" true
            (contains text "asim_cache_hits 1")));
  let lookups =
    List.filter
      (fun (e : Asim_obs.Tracer.event) -> e.name = "batch.cache_lookup")
      (Asim_obs.Tracer.events tracer)
  in
  let outcome (e : Asim_obs.Tracer.event) = List.assoc_opt "outcome" e.args in
  Alcotest.(check int) "two lookups" 2 (List.length lookups);
  Alcotest.(check bool) "first is the compile" true
    (List.exists (fun e -> outcome e = Some "miss") lookups);
  Alcotest.(check bool) "second hits warm" true
    (List.exists (fun e -> outcome e = Some "hit") lookups)

let test_unknown_hash () =
  with_server (fun _server port ->
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let next = reader fd in
          let bogus = String.make 32 'a' in
          send fd (Printf.sprintf {|{"spec_hash":"%s","id":"j1"}|} bogus);
          let r = Json.parse (next ()) in
          Alcotest.(check (option string)) "status error" (Some "error")
            (str_field r "status");
          Alcotest.(check (option string)) "echoes id" (Some "j1") (str_field r "id");
          Alcotest.(check bool) "names the hash" true
            (contains (Option.get (str_field r "error")) bogus);
          (* the connection survives and still serves jobs *)
          send fd {|{"example":"counter"}|};
          Alcotest.(check (option string)) "next job ok" (Some "ok")
            (str_field (Json.parse (next ())) "status")))

let slow_job ?id () =
  (* an interpreter job big enough to occupy a worker, bounded so tests
     never hang: it ends as ok or timeout, either is fine *)
  Printf.sprintf
    {|{"example":"counter","engine":"interp","cycles":100000000,"timeout_s":0.3%s}|}
    (match id with Some i -> Printf.sprintf {|,"id":"%s"|} i | None -> "")

(* The scrape's value of one series, or 0 when it is absent. *)
let scraped text series =
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         let n = String.length series in
         if String.length l > n && String.sub l 0 n = series && l.[n] = ' ' then
           float_of_string_opt (String.sub l (n + 1) (String.length l - n - 1))
         else None)
  |> Option.value ~default:0.0

(* Three slow jobs pipelined past a limit: every one runs, none is
   refused, and the scrape counts the waits under [reason]. *)
let check_admission_waits ~config ~reason =
  with_server ~config (fun _server port ->
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let next = reader fd in
          send fd (slow_job ~id:"a" ());
          send fd (slow_job ~id:"b" ());
          send fd (slow_job ~id:"c" ());
          let replies = List.init 3 (fun _ -> Json.parse (next ())) in
          List.iter
            (fun r ->
              match str_field r "status" with
              | Some ("ok" | "timeout") -> ()
              | s ->
                  Alcotest.failf "job %s answered %s"
                    (Option.value (str_field r "id") ~default:"?")
                    (Option.value s ~default:"no status"))
            replies;
          Alcotest.(check (list string)) "each job answered once" [ "a"; "b"; "c" ]
            (List.sort compare (List.filter_map (fun r -> str_field r "id") replies));
          send fd {|{"control":"metrics"}|};
          let text = Option.get (str_field (Json.parse (next ())) "metrics") in
          Alcotest.(check bool) "the waits are counted" true
            (scraped text
               (Printf.sprintf {|asim_serve_rejected_total{reason="%s"}|} reason)
            >= 1.0)))

let test_quota_waits () =
  check_admission_waits ~reason:"quota"
    ~config:{ Server.default_config with Server.max_in_flight = 1; queue_depth = 16 }

let test_queue_full_waits () =
  check_admission_waits ~reason:"queue_full"
    ~config:{ Server.default_config with Server.shards = 1; queue_depth = 1 }

let test_drain_wakes_waiting_reader () =
  let config = { Server.default_config with Server.max_in_flight = 1 } in
  let server = Server.create ~config () in
  let port = Server.listen server (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  let th = Thread.create Server.serve server in
  let fd = connect port in
  let next = reader fd in
  send fd
    {|{"example":"counter","engine":"interp","cycles":100000000,"timeout_s":2.0,"id":"running"}|};
  send fd {|{"example":"counter","id":"waiting"}|};
  (* a second client watches the scrape until the second job waits *)
  let watch = connect port in
  let watch_next = reader watch in
  let rec await n =
    send watch {|{"control":"metrics"}|};
    let text = Option.get (str_field (Json.parse (watch_next ())) "metrics") in
    if scraped text {|asim_serve_rejected_total{reason="quota"}|} >= 1.0 then ()
    else if n = 0 then Alcotest.fail "the second job never waited at its quota"
    else begin
      Unix.sleepf 0.01;
      await (n - 1)
    end
  in
  await 200;
  Server.shutdown server;
  Thread.join th;
  let replies = List.init 2 (fun _ -> Json.parse (next ())) in
  let status id =
    List.find_map
      (fun r -> if str_field r "id" = Some id then str_field r "status" else None)
      replies
  in
  Alcotest.(check (option string)) "the waiting job is refused" (Some "overload")
    (status "waiting");
  Alcotest.(check bool) "the running job finishes" true
    (List.mem (status "running") [ Some "ok"; Some "timeout" ]);
  Unix.close fd;
  Unix.close watch

let test_spec_file_refused_over_tcp () =
  let path = Filename.temp_file "asim-serve" ".asim" in
  Out_channel.with_open_bin path (fun oc -> output_string oc counter);
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      with_server (fun _server port ->
          let fd = connect port in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let next = reader fd in
              let ask file =
                send fd
                  (Printf.sprintf {|{"spec_file":%s,"cycles":1,"id":"f"}|}
                     (Json.to_string (Json.String file)));
                Json.parse (next ())
              in
              let present = ask path in
              Alcotest.(check (option string)) "error" (Some "error")
                (str_field present "status");
              Alcotest.(check bool) "no outputs" true (Json.member "outputs" present = None);
              Alcotest.(check bool) "says why" true
                (contains (Option.get (str_field present "error")) "local session");
              (* a missing file reads the same: nothing to probe *)
              let missing = ask (path ^ ".missing") in
              Alcotest.(check (option string)) "same reply for a missing file"
                (str_field present "error") (str_field missing "error"))))

let test_mid_job_disconnect () =
  let server = Server.create () in
  let port = Server.listen server (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) in
  let th = Thread.create Server.serve server in
  let fd = connect port in
  send fd (slow_job ());
  (* SO_LINGER 0: close sends RST, so the server's reply write fails fast *)
  Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
  Unix.close fd;
  (* the server survives the loss and keeps serving other clients *)
  let fd2 = connect port in
  send fd2 {|{"example":"counter"}|};
  let r = Json.parse (reader fd2 ()) in
  Alcotest.(check (option string)) "other client unaffected" (Some "ok")
    (str_field r "status");
  Unix.close fd2;
  Server.shutdown server;
  Thread.join th;
  (* the orphaned result was counted, not silently lost *)
  let text = Server.prometheus server in
  let dropped =
    String.split_on_char '\n' text
    |> List.find_map (fun l ->
           match String.split_on_char ' ' l with
           | [ "asim_serve_dropped_results_total"; v ] -> int_of_string_opt v
           | _ -> None)
  in
  match dropped with
  | Some n when n >= 1 -> ()
  | Some n -> Alcotest.failf "dropped counter is %d, want >= 1" n
  | None -> Alcotest.fail "no dropped-results counter in scrape"

let test_oversized_and_malformed_lines () =
  let config = { Server.default_config with Server.max_line_bytes = 128 } in
  with_server ~config (fun _server port ->
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let next = reader fd in
          (* far past the limit, and not even JSON *)
          send fd (String.make 500 'x');
          let r0 = Json.parse (next ()) in
          Alcotest.(check (option string)) "oversized is an error reply"
            (Some "error") (str_field r0 "status");
          Alcotest.(check bool) "names the limit" true
            (contains (Option.get (str_field r0 "error")) "128 bytes");
          (* malformed JSON *)
          send fd "{nope";
          let r1 = Json.parse (next ()) in
          Alcotest.(check (option string)) "parse error reply" (Some "error")
            (str_field r1 "status");
          (* well-formed JSON, unknown field *)
          send fd {|{"example":"counter","bogus":1}|};
          let r2 = Json.parse (next ()) in
          Alcotest.(check bool) "names the field" true
            (contains (Option.get (str_field r2 "error")) "bogus");
          (* line numbers kept counting: 3 requests -> line 3 *)
          Alcotest.(check (option int)) "line numbering survives" (Some 3)
            (int_field r2 "line");
          (* and the connection still works *)
          send fd {|{"example":"counter"}|};
          Alcotest.(check (option string)) "still serving" (Some "ok")
            (str_field (Json.parse (next ())) "status")))

let test_completion_order_streaming () =
  (* two workers: a fast job queued behind a slow one must not wait for it *)
  let config = { Server.default_config with Server.shards = 2 } in
  with_server ~config (fun _server port ->
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let next = reader fd in
          send fd
            (Printf.sprintf
               {|{"spec":%s,"engine":"interp","cycles":100000000,"timeout_s":0.5,"id":"slow"}|}
               (Json.to_string (Json.String counter)));
          send fd
            (Printf.sprintf {|{"spec":%s,"id":"fast"}|}
               (Json.to_string (Json.String counter)));
          let first = Json.parse (next ()) in
          Alcotest.(check (option string)) "fast job streams back first"
            (Some "fast") (str_field first "id");
          Alcotest.(check (option int)) "with its own index" (Some 1)
            (int_field first "index");
          let second = Json.parse (next ()) in
          Alcotest.(check (option string)) "slow job follows" (Some "slow")
            (str_field second "id")))

(* --- load generator ------------------------------------------------------------ *)

(* One connection pipelines 100,000 jobs.  The load generator reads replies
   while it writes, so neither side stalls on a full socket buffer.  A
   deadlock cannot be undone from here, so a watchdog ends the process if
   the run has not finished in 120 s: the suite fails instead of hanging. *)
let test_loadgen_one_long_connection () =
  with_server ~config:{ Server.default_config with shards = 2 } (fun _server port ->
      let finished = Atomic.make false in
      let watchdog =
        Thread.create
          (fun () ->
            let deadline = Unix.gettimeofday () +. 120.0 in
            while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
              Thread.delay 0.1
            done;
            if not (Atomic.get finished) then begin
              prerr_endline "loadgen: 100000 jobs on one connection did not finish in 120 s";
              Unix._exit 1
            end)
          ()
      in
      let r =
        Fun.protect
          ~finally:(fun () ->
            Atomic.set finished true;
            Thread.join watchdog)
          (fun () ->
            Loadgen.run
              {
                Loadgen.host = "127.0.0.1";
                port;
                connections = 1;
                jobs_per_connection = 100_000;
                spec = counter;
                cycles = None;
                engine = `Compiled;
                scrape = false;
              })
      in
      Alcotest.(check int) "all ok" 100_000 r.Loadgen.ok;
      Alcotest.(check int) "none dropped" 0 r.Loadgen.dropped;
      Alcotest.(check int) "no duplicates" 0 r.Loadgen.duplicates)

(* --- CLI: graceful shutdown -------------------------------------------------- *)

let binary =
  let dir = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.concat (Filename.concat dir Filename.parent_dir_name) "bin")
    "main.exe"

let test_cli_sigterm_graceful () =
  let port_file = Filename.temp_file "asim-serve" ".port" in
  Sys.remove port_file;
  let out = Filename.temp_file "asim-serve" ".out" in
  let out_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process binary
      [| binary; "serve"; "--tcp"; "0"; "--port-file"; port_file |]
      Unix.stdin out_fd out_fd
  in
  Unix.close out_fd;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove port_file with Sys_error _ -> ());
      try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let rec await n =
        if n = 0 then Alcotest.fail "server never wrote its port file"
        else if Sys.file_exists port_file && (Unix.stat port_file).Unix.st_size > 0
        then ()
        else begin
          Unix.sleepf 0.1;
          await (n - 1)
        end
      in
      await 100;
      let ic = open_in port_file in
      let port = int_of_string (String.trim (input_line ic)) in
      close_in ic;
      (* run one real job through the TCP frontend *)
      let fd = connect port in
      send fd {|{"example":"counter"}|};
      let r = Json.parse (reader fd ()) in
      Alcotest.(check (option string)) "job served over TCP" (Some "ok")
        (str_field r "status");
      Unix.close fd;
      Unix.kill pid Sys.sigterm;
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "server exited %d" n
      | Unix.WSIGNALED s -> Alcotest.failf "server killed by signal %d" s
      | Unix.WSTOPPED _ -> Alcotest.fail "server stopped");
      (* the drain printed the final metrics summary *)
      let ic = open_in out in
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      Alcotest.(check bool) "final summary emitted" true (contains text "batch:"))

let () =
  Alcotest.run "serve"
    [
      ( "store",
        [
          Alcotest.test_case "upload round trip and dedup" `Quick test_store_roundtrip;
          Alcotest.test_case "rejects unparsable specs" `Quick test_store_rejects_bad_spec;
          Alcotest.test_case "bounded capacity" `Quick test_store_capacity;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "upload / submit-by-hash round trip" `Quick
            test_upload_submit_roundtrip;
          Alcotest.test_case "repeat hash submit hits warm cache" `Quick
            test_cache_warm_span;
          Alcotest.test_case "unknown hash is a structured error" `Quick
            test_unknown_hash;
          Alcotest.test_case "per-client quota" `Quick test_quota_waits;
          Alcotest.test_case "queue-full backpressure" `Quick test_queue_full_waits;
          Alcotest.test_case "drain wakes a reader waiting at its quota" `Quick
            test_drain_wakes_waiting_reader;
          Alcotest.test_case "spec_file is refused over TCP" `Quick
            test_spec_file_refused_over_tcp;
          Alcotest.test_case "mid-job disconnect" `Quick test_mid_job_disconnect;
          Alcotest.test_case "oversized and malformed lines" `Quick
            test_oversized_and_malformed_lines;
          Alcotest.test_case "results stream in completion order" `Quick
            test_completion_order_streaming;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "100,000 jobs on one connection" `Quick
            test_loadgen_one_long_connection;
        ] );
      ( "cli",
        [
          Alcotest.test_case "SIGTERM drains and exits 0" `Quick
            test_cli_sigterm_graceful;
        ] );
    ]
