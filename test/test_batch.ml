(* The batch subsystem: JSON codec, compiled-spec cache, worker pool, the
   job runner (timeouts, structured errors), and manifests run the way
   [asim batch] runs them — a local session of the server, replies in job
   order (malformed input, determinism, cache sharing, uploads). *)

open Asim_batch

let counter = "# counter\n= 8\ncount* inc .\nA inc 4 count 1\nM count 0 inc 1 1\n.\n"

(* The same machine, formatted differently: extra whitespace, blank lines
   and a brace comment that the lexer discards.  Parses to the same spec
   modulo the title, so it must hash to the same cache key. *)
let counter_reformatted =
  "# counter\n\n=   8\n  count*    inc  .\n\nA inc 4 count 1   { the adder }\nM count 0 inc 1 1\n.\n"

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- Json ------------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\n\t");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ]
  in
  Alcotest.(check bool) "print/parse round trip" true (Json.parse (Json.to_string v) = v);
  (* Field order is preserved, which is what byte-determinism rests on. *)
  Alcotest.(check string) "deterministic field order"
    {|{"b":2,"a":1}|}
    (Json.to_string (Json.Obj [ ("b", Json.Int 2); ("a", Json.Int 1) ]))

let test_json_parse_errors () =
  let fails s =
    match Json.parse s with
    | exception Json.Parse_error _ -> ()
    | v -> Alcotest.failf "%S parsed as %s" s (Json.to_string v)
  in
  List.iter fails [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"open"; "{} trailing"; "1 2" ];
  (match Json.parse "[1, x]" with
  | exception Json.Parse_error msg ->
      Alcotest.(check bool) "error names an offset" true (contains msg "offset")
  | _ -> Alcotest.fail "accepted [1, x]")

let test_json_accessors () =
  let v = Json.parse {|{"a":1,"b":"two","c":[true,null],"d":2.5}|} in
  Alcotest.(check (option int)) "int member" (Some 1)
    (Option.bind (Json.member "a" v) Json.to_int);
  Alcotest.(check (option string)) "string member" (Some "two")
    (Option.bind (Json.member "b" v) Json.to_string_opt);
  Alcotest.(check (option int)) "absent member" None
    (Option.bind (Json.member "z" v) Json.to_int);
  Alcotest.(check bool) "to_float accepts ints" true
    (Option.bind (Json.member "a" v) Json.to_float = Some 1.0);
  Alcotest.(check bool) "list member" true
    (Option.bind (Json.member "c" v) Json.to_list = Some [ Json.Bool true; Json.Null ])

(* --- cache key -------------------------------------------------------------- *)

let test_cache_key_stable () =
  let spec = Asim.Parser.parse_string counter in
  let key s = Runner.cache_key ~opt:Asim.Opt.O2 ~keep_all:false s in
  (* Pretty-print round trip: same spec, same key. *)
  let roundtripped = Asim.Parser.parse_string (Asim.Pretty.spec spec) in
  Alcotest.(check string) "stable across pretty-print round trip" (key spec)
    (key roundtripped);
  (* Reformatting the source (comments, blank lines) changes nothing. *)
  let reformatted = Asim.Parser.parse_string counter_reformatted in
  Alcotest.(check string) "stable across reformatting" (key spec) (key reformatted);
  (* The cached post-middle-end analysis depends on the level and on
     whether every component was pinned live, and on nothing else. *)
  Alcotest.(check bool) "level qualifies the key" true
    (key spec <> Runner.cache_key ~opt:Asim.Opt.O0 ~keep_all:false spec);
  Alcotest.(check bool) "keep-all qualifies the key" true
    (key spec <> Runner.cache_key ~opt:Asim.Opt.O2 ~keep_all:true spec)

(* --- cache ------------------------------------------------------------------ *)

let test_cache_accounting () =
  let c = Cache.create ~capacity:4 in
  let computes = ref 0 in
  let get key =
    Cache.find_or_compute c ~key (fun () ->
        incr computes;
        String.uppercase_ascii key)
  in
  Alcotest.(check string) "computed" "A" (get "a");
  Alcotest.(check string) "cached" "A" (get "a");
  Alcotest.(check string) "second key" "B" (get "b");
  Alcotest.(check int) "compute ran once per key" 2 !computes;
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 2 s.Cache.misses;
  Alcotest.(check int) "entries" 2 s.Cache.entries;
  Alcotest.(check int) "no evictions yet" 0 s.Cache.evictions;
  Alcotest.(check bool) "hit rate" true (abs_float (Cache.hit_rate s -. (1.0 /. 3.0)) < 1e-9)

let test_cache_eviction () =
  let c = Cache.create ~capacity:2 in
  let get key = Cache.find_or_compute c ~key (fun () -> key) in
  ignore (get "a" : string);
  ignore (get "b" : string);
  ignore (get "c" : string);
  (* capacity 2, third key evicts *)
  let s = Cache.stats c in
  Alcotest.(check int) "evicted one" 1 s.Cache.evictions;
  Alcotest.(check int) "still at capacity" 2 s.Cache.entries;
  (* "a" was the least recently used, so it is the one gone. *)
  ignore (get "a" : string);
  Alcotest.(check int) "evicted key recomputes" 4 (Cache.stats c).Cache.misses;
  (* Touching an entry protects it: a-b-touch(a)-c evicts b, not a. *)
  let c = Cache.create ~capacity:2 in
  let get key = Cache.find_or_compute c ~key (fun () -> key) in
  ignore (get "a" : string);
  ignore (get "b" : string);
  ignore (get "a" : string);
  ignore (get "c" : string);
  ignore (get "a" : string);
  let s = Cache.stats c in
  Alcotest.(check int) "recently used survived" 2 s.Cache.hits

let test_cache_failure_retries () =
  let c = Cache.create ~capacity:4 in
  let attempts = ref 0 in
  let compute () =
    incr attempts;
    if !attempts = 1 then failwith "transient" else "ok"
  in
  (match Cache.find_or_compute c ~key:"k" compute with
  | exception Failure m -> Alcotest.(check string) "first compute raises" "transient" m
  | v -> Alcotest.failf "expected failure, got %S" v);
  (* The failed entry is not cached; the next call retries. *)
  Alcotest.(check string) "retry succeeds" "ok" (Cache.find_or_compute c ~key:"k" compute);
  Alcotest.(check string) "and is now cached" "ok"
    (Cache.find_or_compute c ~key:"k" compute);
  Alcotest.(check int) "two computes total" 2 !attempts

let test_cache_single_flight () =
  (* Four domains race on one cold key: exactly one compute runs.  The
     compute holds the in-flight entry open until every domain has reached
     [find_or_compute] — a deterministic race window (no wall-clock sleep):
     all four arrivals are guaranteed to land while the key is cold or
     in flight. *)
  let c = Cache.create ~capacity:4 in
  let computes = Atomic.make 0 in
  let arrived = Atomic.make 0 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr arrived;
            Cache.find_or_compute c ~key:"shared" (fun () ->
                Atomic.incr computes;
                while Atomic.get arrived < 4 do
                  Domain.cpu_relax ()
                done;
                "value")))
  in
  let results = List.map Domain.join domains in
  Alcotest.(check int) "one compute" 1 (Atomic.get computes);
  List.iter (fun r -> Alcotest.(check string) "all see the value" "value" r) results;
  let s = Cache.stats c in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "three hits" 3 s.Cache.hits

(* --- pool ------------------------------------------------------------------- *)

let test_pool_ordered_emission () =
  (* Jobs finish in deliberately reversed order, but must emit in submission
     order.  With 4 workers and 4 jobs, every job runs concurrently; Atomic
     flags force job 3 to complete first, then 2, 1, 0 — a deterministic
     out-of-order completion, no wall-clock sleeps. *)
  let emitted = ref [] in
  let completed = Array.init 4 (fun _ -> Atomic.make false) in
  let pool =
    Pool.create ~jobs:4
      ~on_crash:(fun _ exn -> raise exn)
      ~emit:(fun index r -> emitted := (index, r) :: !emitted)
  in
  for i = 0 to 3 do
    Pool.submit pool (fun index ->
        (* wait until every later-submitted job has finished its compute *)
        for later = i + 1 to 3 do
          while not (Atomic.get completed.(later)) do
            Domain.cpu_relax ()
          done
        done;
        Atomic.set completed.(i) true;
        index * 10)
  done;
  Alcotest.(check int) "all processed" 4 (Pool.finish pool);
  let emitted = List.rev !emitted in
  Alcotest.(check (list (pair int int))) "consecutive indices, computed results"
    (List.init 4 (fun i -> (i, i * 10)))
    emitted

let test_pool_ordered_emission_realtime () =
  (* The one real-time smoke: finish order scrambled by actual sleeps,
     emission order still strict.  Kept tiny so a slow box cannot make it
     flaky — the deterministic variant above carries the ordering logic. *)
  let emitted = ref [] in
  let pool =
    Pool.create ~jobs:4
      ~on_crash:(fun _ exn -> raise exn)
      ~emit:(fun index r -> emitted := (index, r) :: !emitted)
  in
  for i = 0 to 15 do
    Pool.submit pool (fun index ->
        Unix.sleepf (float_of_int ((15 - i) mod 4) *. 0.002);
        index * 10)
  done;
  Alcotest.(check int) "all processed" 16 (Pool.finish pool);
  let emitted = List.rev !emitted in
  Alcotest.(check (list (pair int int))) "consecutive indices, computed results"
    (List.init 16 (fun i -> (i, i * 10)))
    emitted

let test_pool_crash_isolation () =
  (* A raising job becomes a structured result; its worker keeps going. *)
  let results =
    Pool.run_list ~jobs:2
      ~on_crash:(fun index exn -> Printf.sprintf "crash %d: %s" index (Printexc.to_string exn))
      (List.init 8 (fun i ->
           fun index ->
            if i = 3 then failwith "boom" else Printf.sprintf "ok %d" index))
  in
  Alcotest.(check int) "every job yields a result" 8 (List.length results);
  List.iteri
    (fun i r ->
      if i = 3 then Alcotest.(check bool) "crash is structured" true (contains r "boom")
      else Alcotest.(check string) "survivors unaffected" (Printf.sprintf "ok %d" i) r)
    results

let test_pool_sync_is_immediate () =
  (* jobs=1 runs in the calling domain: emit happens during submit. *)
  let emitted = ref [] in
  let pool =
    Pool.create ~jobs:1 ~on_crash:(fun _ e -> raise e)
      ~emit:(fun i r -> emitted := (i, r) :: !emitted)
  in
  Pool.submit pool (fun i -> i + 100);
  Alcotest.(check (list (pair int int))) "emitted synchronously" [ (0, 100) ] !emitted;
  Alcotest.(check int) "finish count" 1 (Pool.finish pool)

(* --- runner ----------------------------------------------------------------- *)

let job ?id ?(engine = `Compiled) ?cycles ?(inputs = []) ?(want = [ Proto.Outputs ])
    ?timeout_s source =
  { Proto.id; trace_id = None; source; engine; opt = None; cycles; inputs; want; timeout_s }

let test_runner_cached_equals_fresh () =
  (* The same job through a warm cache must render the identical result line
     (trace included) as through a cold one. *)
  let render t j = Json.to_string (Proto.result_to_json ~index:0 (Runner.run_job t j)) in
  let j = job (Proto.Inline counter) ~want:[ Proto.Outputs; Proto.Memory; Proto.Trace; Proto.Stats ] in
  let cold = Runner.create () in
  let fresh = render cold j in
  let warm = Runner.create () in
  ignore (Runner.run_job warm j : Proto.outcome);
  let cached = render warm j in
  Alcotest.(check string) "cache does not change results" fresh cached;
  Alcotest.(check int) "warm runner hit the cache" 1 (Runner.cache_stats warm).Cache.hits

let test_runner_outputs () =
  let t = Runner.create () in
  let o = Runner.run_job t (job (Proto.Inline counter)) in
  Alcotest.(check bool) "ok" true (o.Proto.status = Proto.Ok_);
  Alcotest.(check int) "ran the spec's cycle directive" 8 o.Proto.cycles_run;
  Alcotest.(check (option int)) "counter wrapped to 8 mod 16" (Some 8)
    (List.assoc_opt "count" o.Proto.outputs)

let test_runner_timeout () =
  let t = Runner.create () in
  (* A zero budget expires before the first cycle: structured timeout. *)
  let o = Runner.run_job t (job (Proto.Inline counter) ~cycles:1_000_000 ~timeout_s:0.0) in
  (match o.Proto.status with
  | Proto.Timeout done_ -> Alcotest.(check int) "stopped before any cycle" 0 done_
  | _ -> Alcotest.fail "expected a timeout status");
  (* The runner (and its cache) is still healthy afterwards. *)
  let o2 = Runner.run_job t (job (Proto.Inline counter)) in
  Alcotest.(check bool) "next job runs fine" true (o2.Proto.status = Proto.Ok_);
  let line = Json.to_string (Proto.result_to_json ~index:7 o) in
  Alcotest.(check bool) "timeout line carries cycles_done" true
    (contains line {|"status":"timeout"|} && contains line {|"cycles_done":0|})

let test_runner_errors_are_structured () =
  let t = Runner.create () in
  let bad = Runner.run_job t (job (Proto.Example "no-such-example")) in
  (match bad.Proto.status with
  | Proto.Error_ msg -> Alcotest.(check bool) "names the example" true (contains msg "no-such-example")
  | _ -> Alcotest.fail "expected an error status");
  let unparsable = Runner.run_job t (job (Proto.Inline "# bad\nx .\nQ x\n.\n")) in
  Alcotest.(check bool) "parse failure is structured" true
    (Proto.status_class unparsable.Proto.status = `Error)

(* Run manifest [lines] on [jobs] worker domains as [asim batch] does:
   the result lines in job order, and the cache counters after the run. *)
let drive ~jobs lines =
  let path = Filename.temp_file "asim-batch" ".jsonl" in
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  let server =
    Asim_serve.Server.create
      ~config:{ Asim_serve.Server.default_config with shards = jobs } ()
  in
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let out = ref [] in
  Asim_serve.Server.batch server fd (fun l -> out := l :: !out);
  Asim_serve.Server.drain server;
  Unix.close fd;
  Sys.remove path;
  (List.rev !out, Asim_serve.Server.summary server)

let counter_job_line = {|{"spec":"# counter\n= 8\ncount* inc .\nA inc 4 count 1\nM count 0 inc 1 1\n.\n"}|}

let test_process_malformed_lines () =
  let out, _ =
    drive ~jobs:2
      [ counter_job_line; "this is not json"; ""; {|{"example":"counter","frobnicate":1}|};
        counter_job_line ]
  in
  Alcotest.(check int) "four results (blank line skipped)" 4 (List.length out);
  let line i = List.nth out i in
  Alcotest.(check bool) "good job before still ran" true (contains (line 0) {|"status":"ok"|});
  Alcotest.(check bool) "malformed names its line" true
    (contains (line 1) {|"line":2|} && contains (line 1) {|"status":"error"|});
  Alcotest.(check bool) "unknown field names its line" true
    (contains (line 2) {|"line":4|} && contains (line 2) "frobnicate");
  Alcotest.(check bool) "good job after still ran" true (contains (line 3) {|"status":"ok"|});
  (* The closure compiler without §4.4 is the "unoptimized" engine; the old
     boolean field is as unknown as any other. *)
  Alcotest.(check (result reject string))
    "optimize field" (Error {|unknown field "optimize"|})
    (Proto.job_of_json (Json.parse {|{"example":"counter","optimize":false}|}))

let test_process_byte_identical_across_jobs () =
  let lines =
    List.init 12 (fun i ->
        if i mod 3 = 2 then "garbage line " ^ string_of_int i else counter_job_line)
  in
  let run jobs = fst (drive ~jobs lines) in
  let sequential = run 1 in
  Alcotest.(check (list string)) "jobs=2 byte-identical" sequential (run 2);
  Alcotest.(check (list string)) "jobs=4 byte-identical" sequential (run 4)

(* --- Metrics ---------------------------------------------------------------- *)

let feq = Alcotest.(check (float 1e-9))

let test_percentile_edge_cases () =
  (* 0 samples: every rank answers 0. *)
  feq "empty p50" 0.0 (Metrics.percentile [||] 50.0);
  feq "empty p99" 0.0 (Metrics.percentile [||] 99.0);
  (* 1 sample: every rank answers that sample. *)
  let one = [| 7.5 |] in
  List.iter
    (fun p -> feq (Printf.sprintf "single sample p%g" p) 7.5 (Metrics.percentile one p))
    [ 0.0; 50.0; 90.0; 99.0; 100.0 ];
  (* p99 with n < 100: the nearest rank is the last element, never out of
     bounds, and p50 is the conventional middle. *)
  let ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  feq "p99 of 10 is the max" 10.0 (Metrics.percentile ten 99.0);
  feq "p90 of 10" 9.0 (Metrics.percentile ten 90.0);
  feq "p50 of 10" 5.0 (Metrics.percentile ten 50.0)

let test_summary_zero_wall () =
  (* A frozen clock (or an instantaneous run) gives wall_s = 0; throughput
     must come back 0, not inf or nan. *)
  let m = Metrics.create () in
  Metrics.record m ~engine:"compiled" ~status:`Ok ~elapsed:0.0;
  let cache = Cache.stats (Cache.create ~capacity:4 : unit Cache.t) in
  let s = Metrics.summarize m ~cache ~wall_s:0.0 in
  Alcotest.(check int) "one job" 1 s.Metrics.jobs;
  feq "zero throughput, finite" 0.0 s.Metrics.jobs_per_sec;
  Alcotest.(check bool) "finite in JSON too" true
    (Float.is_finite s.Metrics.jobs_per_sec);
  let s' = Metrics.summarize m ~cache ~wall_s:(-1.0) in
  feq "negative wall also 0" 0.0 s'.Metrics.jobs_per_sec

let test_summary_latencies () =
  let m = Metrics.create () in
  List.iter
    (fun e -> Metrics.record m ~engine:"compiled" ~status:`Ok ~elapsed:e)
    [ 0.010; 0.020; 0.030 ];
  Metrics.record m ~engine:"interp" ~status:`Error ~elapsed:0.5;
  Metrics.record m ~engine:"interp" ~status:`Timeout ~elapsed:1.0;
  let cache = Cache.stats (Cache.create ~capacity:4 : unit Cache.t) in
  let s = Metrics.summarize m ~cache ~wall_s:2.0 in
  Alcotest.(check int) "jobs" 5 s.Metrics.jobs;
  Alcotest.(check int) "ok" 3 s.Metrics.ok;
  Alcotest.(check int) "errors" 1 s.Metrics.errors;
  Alcotest.(check int) "timeouts" 1 s.Metrics.timeouts;
  feq "throughput" 2.5 s.Metrics.jobs_per_sec;
  match s.Metrics.latencies with
  | [ a; b ] ->
      (* sorted by engine name *)
      Alcotest.(check string) "first engine" "compiled" a.Metrics.engine;
      Alcotest.(check int) "compiled count" 3 a.Metrics.count;
      feq "compiled p50 ms" 20.0 a.Metrics.p50_ms;
      feq "compiled max ms" 30.0 a.Metrics.max_ms;
      Alcotest.(check string) "second engine" "interp" b.Metrics.engine;
      feq "interp p99 ms (n<100)" 1000.0 b.Metrics.p99_ms
  | l -> Alcotest.failf "expected 2 engines, got %d" (List.length l)

(* A long-lived server keeps only the most recent [Metrics.window]
   latencies per engine: count and max still cover every job (the
   histogram's), the percentiles only the window. *)
let test_summary_window () =
  let m = Metrics.create () in
  let old = 1000 in
  for _ = 1 to old do
    Metrics.record m ~engine:"flat" ~status:`Ok ~elapsed:100.0
  done;
  for i = 1 to Metrics.window do
    Metrics.record m ~engine:"flat" ~status:`Ok ~elapsed:(float_of_int i *. 1e-6)
  done;
  let cache = Cache.stats (Cache.create ~capacity:4 : unit Cache.t) in
  match (Metrics.summarize m ~cache ~wall_s:1.0).Metrics.latencies with
  | [ l ] ->
      Alcotest.(check int) "count covers every job" (old + Metrics.window) l.Metrics.count;
      feq "max covers every job" 100_000.0 l.Metrics.max_ms;
      let rank p = ceil (p /. 100.0 *. float_of_int Metrics.window) *. 1e-3 in
      Alcotest.(check (float 1e-6)) "p50 from the window" (rank 50.0) l.Metrics.p50_ms;
      Alcotest.(check (float 1e-6)) "p99 from the window" (rank 99.0) l.Metrics.p99_ms
  | l -> Alcotest.failf "expected 1 engine, got %d" (List.length l)

let test_metrics_prometheus_names () =
  (* The live registry view follows the documented naming conventions. *)
  let m = Metrics.create () in
  Metrics.record m ~engine:"compiled" ~status:`Ok ~elapsed:0.004;
  let cache = Cache.stats (Cache.create ~capacity:4 : unit Cache.t) in
  Metrics.set_cache m cache;
  let text = Asim_obs.Registry.to_prometheus (Metrics.registry m) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exports " ^ needle) true (contains text needle))
    [
      {|asim_jobs_total{status="ok"} 1|};
      "# TYPE asim_jobs_total counter";
      "# TYPE asim_job_duration_seconds histogram";
      {|asim_job_duration_seconds_count{engine="compiled"} 1|};
      "asim_cache_capacity 4";
      "# TYPE asim_cache_hits gauge";
    ]

(* The cache holds the analysis, which no engine choice changes: the same
   spec on compiled, flat and compiled without the §4.4 optimizations is
   one entry. *)
let test_process_cache_shared_across_engines () =
  let out, { Metrics.cache = s; _ } =
    drive ~jobs:1
      [
        {|{"example":"stack-machine-sieve","engine":"compiled"}|};
        {|{"example":"stack-machine-sieve","engine":"flat"}|};
        {|{"example":"stack-machine-sieve","engine":"unoptimized"}|};
        {|{"example":"stack-machine-sieve","engine":"flat"}|};
      ]
  in
  Alcotest.(check int) "all ran" 4 (List.length out);
  List.iter
    (fun line -> Alcotest.(check bool) "ok" true (contains line {|"status":"ok"|}))
    out;
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "three hits" 3 s.Cache.hits;
  Alcotest.(check int) "one entry" 1 s.Cache.entries

(* Engines without counters answer a profile request with a structured
   error, not a crash. *)
let test_process_profile_unsupported () =
  let out, _ =
    drive ~jobs:1
      [
        {|{"example":"counter","engine":"native","want":["profile"]}|};
        {|{"example":"counter","engine":"par","want":["profile"]}|};
      ]
  in
  List.iter
    (fun line ->
      Alcotest.(check bool) "error status" true (contains line {|"status":"error"|});
      Alcotest.(check bool) "says why" true
        (contains line "does not support profiling"))
    out

let test_process_cache_hit_rate () =
  (* 64 identical jobs: 1 miss, 63 hits — the >90% acceptance bar. *)
  let out, { Metrics.cache = s; _ } = drive ~jobs:4 (List.init 64 (fun _ -> counter_job_line)) in
  Alcotest.(check int) "all ran" 64 (List.length out);
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "the rest hit" 63 s.Cache.hits;
  Alcotest.(check bool) "hit rate clears 90%" true (Cache.hit_rate s > 0.9)

(* A manifest can upload a spec and then run it by hash, as a serve client
   can; a hash nobody uploaded is a structured error. *)
let test_process_upload_then_hash () =
  let hash =
    Digest.to_hex (Digest.string (Asim.Pretty.spec (Asim.Parser.parse_string counter)))
  in
  let out, { Metrics.cache = s; _ } =
    drive ~jobs:2
      [
        Printf.sprintf {|{"control":"upload","spec":%s}|}
          (Json.to_string (Json.String counter_reformatted));
        Printf.sprintf {|{"spec_hash":"%s","id":"by-hash"}|} hash;
        Printf.sprintf {|{"spec_hash":"%s","id":"unknown"}|} (String.make 32 'a');
        counter_job_line;
      ]
  in
  match out with
  | [ up; by_hash; unknown; inline ] ->
      Alcotest.(check bool) "upload answers the canonical hash" true
        (contains up (Printf.sprintf {|"hash":"%s"|} hash));
      Alcotest.(check bool) "hash job runs the uploaded spec" true
        (contains by_hash {|{"index":1,"id":"by-hash","status":"ok","cycles":8,|});
      Alcotest.(check bool) "unknown hash is an error" true
        (contains unknown {|"status":"error"|} && contains unknown "unknown spec hash");
      Alcotest.(check bool) "inline job ok" true (contains inline {|"status":"ok"|});
      (* the inline job is the uploaded spec: it hits the hash job's entry *)
      Alcotest.(check int) "one compile" 1 s.Cache.misses
  | _ -> Alcotest.failf "expected 4 result lines, got %d" (List.length out)

(* A spec_file naming a FIFO is refused, instead of holding the worker in
   open(2) until a writer appears, and the next job is still answered.  A
   watchdog opens the FIFO for writing if the manifest has not finished
   after 10 s: that releases a blocked reader, so a blocking open fails
   this test instead of hanging it. *)
let test_process_spec_file_fifo () =
  let fifo = Filename.temp_file "asim-spec" ".fifo" in
  Sys.remove fifo;
  Unix.mkfifo fifo 0o600;
  let finished = Atomic.make false and unblocked = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        let deadline = Unix.gettimeofday () +. 10.0 in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
          Thread.delay 0.05
        done;
        if not (Atomic.get finished) then
          match Unix.openfile fifo [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 with
          | fd ->
              Atomic.set unblocked true;
              Unix.close fd
          | exception Unix.Unix_error _ -> ())
      ()
  in
  let out =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set finished true;
        Thread.join watchdog;
        Sys.remove fifo)
      (fun () ->
        fst
          (drive ~jobs:1
             [
               Printf.sprintf {|{"spec_file":%s}|} (Json.to_string (Json.String fifo));
               {|{"example":"counter"}|};
             ]))
  in
  Alcotest.(check bool) "answered without a writer" false (Atomic.get unblocked);
  match out with
  | [ fifo_line; counter_line ] ->
      Alcotest.(check bool) "FIFO is an error naming the path" true
        (contains fifo_line {|"status":"error"|}
        && contains fifo_line "not a regular file"
        && contains fifo_line (Filename.basename fifo));
      Alcotest.(check bool) "next job ok" true (contains counter_line {|"status":"ok"|})
  | _ -> Alcotest.failf "expected 2 result lines, got %d" (List.length out)

(* The native engine's compile fails on every job of a batch (the artifact
   cache points inside /dev/null, so creating it fails): each job gets a
   structured error, and the workers live on to run the jobs after them. *)
let crash_spec = "#crashy\n= 6\nr* n .\nA n 4 r 7\nM r 0 n 1 1\n.\n"

let test_compile_failure_mid_batch () =
  let var = "ASIM_JIT_CACHE_DIR" in
  let old = Sys.getenv_opt var in
  Unix.putenv var "/dev/null/nowhere";
  Asim.Jit.clear_memory_cache ();
  let job engine =
    Printf.sprintf {|{"spec":%s,"engine":"%s"}|} (Json.to_string (Json.String crash_spec)) engine
  in
  let out =
    Fun.protect
      ~finally:(fun () -> Unix.putenv var (Option.value old ~default:""))
      (fun () ->
        fst
          (drive ~jobs:2
             (List.init 4 (fun _ -> job "native") @ List.init 2 (fun _ -> job "flat"))))
  in
  Alcotest.(check int) "every job answered" 6 (List.length out);
  List.iteri
    (fun i line ->
      let expected = if i < 4 then {|"status":"error"|} else {|"status":"ok"|} in
      Alcotest.(check bool) (Printf.sprintf "job %d" i) true (contains line expected))
    out

(* The same unusable artifact cache, with a toolchain present: the engine
   itself answers with an error naming the path, so the job is not a crash
   caught by the server ([internal:]) and counts under its own engine. *)
let test_native_cache_dir_error () =
  if Asim.Jit.available () then begin
    let var = "ASIM_JIT_CACHE_DIR" in
    let old = Sys.getenv_opt var in
    Unix.putenv var "/dev/null/nowhere";
    Asim.Jit.clear_memory_cache ();
    let out, summary =
      Fun.protect
        ~finally:(fun () -> Unix.putenv var (Option.value old ~default:""))
        (fun () ->
          drive ~jobs:1
            [
              Printf.sprintf {|{"spec":%s,"engine":"native"}|}
                (Json.to_string (Json.String crash_spec));
            ])
    in
    (match out with
    | [ line ] ->
        Alcotest.(check bool) "structured error naming the path" true
          (contains line {|"status":"error"|}
          && contains line "cannot create directory /dev/null/nowhere"
          && not (contains line "internal:"))
    | _ -> Alcotest.failf "expected 1 result line, got %d" (List.length out));
    Alcotest.(check (list string)) "counted under its engine" [ "native" ]
      (List.map (fun (l : Metrics.engine_latency) -> l.Metrics.engine) summary.Metrics.latencies)
  end

let () =
  Alcotest.run "batch"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "cache",
        [
          Alcotest.test_case "key stability" `Quick test_cache_key_stable;
          Alcotest.test_case "hit/miss accounting" `Quick test_cache_accounting;
          Alcotest.test_case "eviction at capacity" `Quick test_cache_eviction;
          Alcotest.test_case "failed compute retries" `Quick test_cache_failure_retries;
          Alcotest.test_case "single flight" `Quick test_cache_single_flight;
        ] );
      ( "pool",
        [
          Alcotest.test_case "ordered emission" `Quick test_pool_ordered_emission;
          Alcotest.test_case "ordered emission (real-time smoke)" `Quick
            test_pool_ordered_emission_realtime;
          Alcotest.test_case "crash isolation" `Quick test_pool_crash_isolation;
          Alcotest.test_case "sync mode" `Quick test_pool_sync_is_immediate;
        ] );
      ( "runner",
        [
          Alcotest.test_case "outputs" `Quick test_runner_outputs;
          Alcotest.test_case "cached equals fresh" `Quick test_runner_cached_equals_fresh;
          Alcotest.test_case "timeout" `Quick test_runner_timeout;
          Alcotest.test_case "structured errors" `Quick test_runner_errors_are_structured;
          Alcotest.test_case "malformed lines" `Quick test_process_malformed_lines;
          Alcotest.test_case "byte-identical across jobs" `Quick
            test_process_byte_identical_across_jobs;
          Alcotest.test_case "cache hit rate" `Quick test_process_cache_hit_rate;
          Alcotest.test_case "cache shared across engines" `Quick
            test_process_cache_shared_across_engines;
          Alcotest.test_case "profile on a counterless engine" `Quick
            test_process_profile_unsupported;
          Alcotest.test_case "upload then run by hash" `Quick
            test_process_upload_then_hash;
          Alcotest.test_case "spec_file on a FIFO" `Quick test_process_spec_file_fifo;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "compile failure mid-batch" `Quick
            test_compile_failure_mid_batch;
          Alcotest.test_case "artifact cache cannot be created" `Quick
            test_native_cache_dir_error;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "percentile edge cases" `Quick test_percentile_edge_cases;
          Alcotest.test_case "zero wall clock" `Quick test_summary_zero_wall;
          Alcotest.test_case "latency summary" `Quick test_summary_latencies;
          Alcotest.test_case "latency window" `Quick test_summary_window;
          Alcotest.test_case "prometheus names" `Quick test_metrics_prometheus_names;
        ] );
    ]
