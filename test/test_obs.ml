(* The observability core: mockable clock, metrics registry, span tracer —
   and the determinism the mock clock buys in the layers built on top. *)

open Asim_obs

let feq = Alcotest.(check (float 1e-9))

(* --- clock ----------------------------------------------------------------- *)

let test_clock_manual () =
  let c = Clock.manual ~start:100.0 () in
  Clock.with_source (Clock.manual_source c) (fun () ->
      feq "frozen now" 100.0 (Clock.now ());
      feq "frozen elapsed" 0.0 (Clock.elapsed (Clock.now ()));
      Clock.advance c 2.5;
      feq "advanced" 102.5 (Clock.now ());
      feq "elapsed since start" 2.5 (Clock.elapsed 100.0))

let test_clock_restores () =
  let c = Clock.manual ~start:7.0 () in
  (try
     Clock.with_source (Clock.manual_source c) (fun () -> failwith "boom")
   with Failure _ -> ());
  (* Back on the real clock: two reads straddle real time, not 7.0. *)
  Alcotest.(check bool) "real clock restored" true (Clock.now () > 1e9)

let test_clock_set_reset () =
  Clock.set_source (fun () -> 42.0);
  feq "overridden" 42.0 (Clock.now ());
  Clock.reset ();
  Alcotest.(check bool) "reset to real time" true (Clock.now () > 1e9)

(* A frozen clock makes a deadline-driven fuzz campaign fully deterministic:
   with the budget already exhausted, every index is skipped and the elapsed
   time is exactly zero — on every run, on every machine. *)
let test_fuzz_deterministic_under_mock_clock () =
  let c = Clock.manual ~start:1000.0 () in
  Clock.with_source (Clock.manual_source c) (fun () ->
      let size = { Asim_fuzz.Gen.max_comb = 3; max_mem = 1; cycles = 5; wide = false } in
      let outcome =
        Asim_fuzz.Runner.run ~time_budget:(-1.0) ~seed:0 ~count:10 ~size ()
      in
      Alcotest.(check int) "no spec started" 0 outcome.Asim_fuzz.Runner.tested;
      feq "elapsed exactly zero" 0.0 outcome.Asim_fuzz.Runner.elapsed;
      (* and with time, the same clock still never advances mid-campaign *)
      Clock.advance c 50.0;
      let outcome2 =
        Asim_fuzz.Runner.run ~seed:0 ~count:3 ~size ()
      in
      Alcotest.(check int) "all specs tested" 3 outcome2.Asim_fuzz.Runner.tested;
      feq "frozen campaign elapsed" 0.0 outcome2.Asim_fuzz.Runner.elapsed)

let counter_spec = "# counter\n= 4\ncount* inc .\nA inc 4 count 1\nM count 0 inc 1 1\n.\n"

let test_batch_job_deterministic_under_mock_clock () =
  let c = Clock.manual ~start:500.0 () in
  Clock.with_source (Clock.manual_source c) (fun () ->
      let t = Asim_batch.Runner.create () in
      let job =
        {
          Asim_batch.Proto.id = Some "frozen";
          trace_id = None;
          source = Asim_batch.Proto.Inline counter_spec;
          engine = `Compiled;
          cycles = None;
          inputs = [];
          want = [ Asim_batch.Proto.Outputs ];
          timeout_s = Some 10.0;
          opt = None;
        }
      in
      let outcome = Asim_batch.Runner.run_job t job in
      (match outcome.Asim_batch.Proto.status with
      | Asim_batch.Proto.Ok_ -> ()
      | Asim_batch.Proto.Error_ e -> Alcotest.failf "job errored: %s" e
      | Asim_batch.Proto.Timeout c -> Alcotest.failf "job timed out at cycle %d" c);
      feq "elapsed_s exactly zero" 0.0 outcome.Asim_batch.Proto.elapsed_s)

(* --- registry -------------------------------------------------------------- *)

let test_counter () =
  let reg = Registry.create () in
  let jobs = Registry.counter reg "asim_test_total" ~help:"h" in
  Registry.inc jobs;
  Registry.add jobs 2.5;
  Registry.add jobs (-10.0);
  feq "monotonic" 3.5 (Registry.counter_value jobs);
  (* same identity -> same instrument *)
  let again = Registry.counter reg "asim_test_total" in
  Registry.inc again;
  feq "shared series" 4.5 (Registry.counter_value jobs)

let test_kind_clash () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "asim_clash" : Registry.counter);
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Registry: asim_clash already registered as a counter, not a gauge")
    (fun () -> ignore (Registry.gauge reg "asim_clash" : Registry.gauge))

let test_gauge () =
  let reg = Registry.create () in
  let g = Registry.gauge reg "asim_depth" ~labels:[ ("pool", "a") ] in
  Registry.set g 5.0;
  Registry.gauge_add g (-2.0);
  feq "gauge value" 3.0 (Registry.gauge_value g)

let test_histogram_quantiles () =
  let reg = Registry.create () in
  let empty = Registry.histogram reg "asim_empty_seconds" in
  feq "empty p50" 0.0 (Registry.quantile empty 0.5);
  feq "empty max" 0.0 (Registry.hist_max empty);
  Alcotest.(check int) "empty count" 0 (Registry.hist_count empty);
  let one = Registry.histogram reg "asim_one_seconds" in
  Registry.observe one 0.037;
  List.iter
    (fun q -> feq (Printf.sprintf "single sample at q=%g" q) 0.037 (Registry.quantile one q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  let many = Registry.histogram reg "asim_many_seconds" in
  for i = 1 to 100 do
    Registry.observe many (0.001 *. float_of_int i)
  done;
  feq "q=1 is the exact max" 0.1 (Registry.quantile many 1.0);
  Alcotest.(check bool) "p50 in a sane bucket" true
    (let p50 = Registry.quantile many 0.5 in
     p50 >= 0.05 && p50 <= 0.1);
  Alcotest.(check int) "count" 100 (Registry.hist_count many);
  feq "sum" 5.05 (Registry.hist_sum many)

let test_prometheus_export () =
  let reg = Registry.create () in
  let jobs = Registry.counter reg "asim_jobs_total" ~help:"Jobs" ~labels:[ ("status", "ok") ] in
  Registry.add jobs 3.0;
  let g = Registry.gauge reg "asim_cache_entries" ~help:"Entries" in
  Registry.set g 2.0;
  let h =
    Registry.histogram reg "asim_lat_seconds" ~buckets:[| 0.1; 1.0 |] ~help:"Latency"
  in
  Registry.observe h 0.05;
  Registry.observe h 5.0;
  let text = Registry.to_prometheus reg in
  let has needle =
    Alcotest.(check bool) ("export contains " ^ needle) true
      (let len = String.length needle in
       let n = String.length text in
       let rec at i = i + len <= n && (String.sub text i len = needle || at (i + 1)) in
       at 0)
  in
  has "# TYPE asim_jobs_total counter";
  has "# HELP asim_jobs_total Jobs";
  has "asim_jobs_total{status=\"ok\"} 3";
  has "# TYPE asim_cache_entries gauge";
  has "asim_cache_entries 2";
  has "# TYPE asim_lat_seconds histogram";
  has "asim_lat_seconds_bucket{le=\"0.1\"} 1";
  has "asim_lat_seconds_bucket{le=\"+Inf\"} 2";
  has "asim_lat_seconds_count 2";
  (* deterministic: same state renders byte-identically *)
  Alcotest.(check string) "stable render" text (Registry.to_prometheus reg)

(* Percentile export must stay sound while writers are mid-flight: four
   domains hammer one histogram while a scraper thread renders the
   registry and reads quantiles the whole time.  The scraper records any
   violation (exception, non-monotone p50/p90/p99) instead of raising —
   an exception inside a Thread would only kill that thread, not fail
   the test — and the main thread asserts afterwards. *)
let test_concurrent_histogram () =
  let reg = Registry.create () in
  let h = Registry.histogram reg "asim_conc_seconds" ~help:"h" in
  let writers = 4 and per = 5_000 in
  let stop = Atomic.make false in
  let bad = ref None in
  let scrapes = ref 0 in
  let scraper =
    Thread.create
      (fun () ->
        try
          while not (Atomic.get stop) do
            ignore (String.length (Registry.to_prometheus reg));
            let p50 = Registry.quantile h 0.5 in
            let p90 = Registry.quantile h 0.9 in
            let p99 = Registry.quantile h 0.99 in
            if not (p50 <= p90 && p90 <= p99) then
              bad :=
                Some
                  (Printf.sprintf "non-monotone quantiles: %g / %g / %g" p50
                     p90 p99);
            incr scrapes;
            Thread.yield ()
          done
        with e -> bad := Some ("scraper raised: " ^ Printexc.to_string e))
      ()
  in
  let domains =
    List.init writers (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              Registry.observe h
                (0.001 *. float_of_int ((((d * per) + i) mod 97) + 1))
            done))
  in
  List.iter Domain.join domains;
  Atomic.set stop true;
  Thread.join scraper;
  (match !bad with Some msg -> Alcotest.fail msg | None -> ());
  Alcotest.(check bool) "scraper ran" true (!scrapes > 0);
  Alcotest.(check int) "no observation lost" (writers * per)
    (Registry.hist_count h);
  Alcotest.(check bool) "final quantiles monotone" true
    (Registry.quantile h 0.5 <= Registry.quantile h 0.99)

(* --- tracer ---------------------------------------------------------------- *)

let test_null_tracer () =
  Alcotest.(check bool) "inactive" false (Tracer.is_active Tracer.null);
  let r = Tracer.span Tracer.null "anything" (fun () -> 41 + 1) in
  Alcotest.(check int) "thunk result" 42 r;
  Tracer.span_at Tracer.null "marker" ~ts:0.0 ~dur:1.0;
  Alcotest.(check int) "nothing recorded" 0 (Tracer.event_count Tracer.null)

let test_span_records () =
  let c = Clock.manual ~start:10.0 () in
  Clock.with_source (Clock.manual_source c) (fun () ->
      let tr = Tracer.create () in
      let v =
        Tracer.span tr "stage" ~args:[ ("k", "v") ] (fun () ->
            Clock.advance c 0.25;
            "done")
      in
      Alcotest.(check string) "result" "done" v;
      (try Tracer.span tr "failing" (fun () -> failwith "boom") with Failure _ -> ());
      Tracer.span_at tr "wait" ~ts:5.0 ~dur:0.5;
      match Tracer.events tr with
      | [ a; b; m ] ->
          Alcotest.(check string) "first name" "stage" a.Tracer.name;
          feq "ts us" 10_000_000.0 a.Tracer.ts_us;
          feq "dur us" 250_000.0 a.Tracer.dur_us;
          Alcotest.(check (list (pair string string))) "args" [ ("k", "v") ] a.Tracer.args;
          Alcotest.(check string) "raise still recorded" "failing" b.Tracer.name;
          Alcotest.(check string) "span_at" "wait" m.Tracer.name;
          feq "span_at dur" 500_000.0 m.Tracer.dur_us
      | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs))

let test_chrome_json () =
  let tr = Tracer.create () in
  Tracer.span tr "a\"quoted\"" ~args:[ ("file", "x\\y") ] (fun () -> ());
  Tracer.span_at tr "b" ~ts:1.0 ~dur:2.0;
  let json = Asim_batch.Json.parse (Tracer.to_chrome_json tr) in
  match Asim_batch.Json.to_list json with
  | Some [ a; b ] ->
      let str field j =
        match Asim_batch.Json.(Option.bind (member field j) to_string_opt) with
        | Some s -> s
        | None -> Alcotest.failf "missing %s" field
      in
      let num field j =
        match Asim_batch.Json.(Option.bind (member field j) to_float) with
        | Some f -> f
        | None -> Alcotest.failf "missing %s" field
      in
      Alcotest.(check string) "escaped name" "a\"quoted\"" (str "name" a);
      Alcotest.(check string) "ph" "X" (str "ph" a);
      Alcotest.(check string) "cat" "asim" (str "cat" a);
      ignore (num "ts" a);
      ignore (num "dur" a);
      ignore (num "pid" a);
      ignore (num "tid" a);
      (match Asim_batch.Json.member "args" a with
      | Some args -> Alcotest.(check string) "escaped arg" "x\\y" (str "file" args)
      | None -> Alcotest.fail "missing args");
      feq "explicit ts" 1_000_000.0 (num "ts" b);
      feq "explicit dur" 2_000_000.0 (num "dur" b)
  | _ -> Alcotest.fail "expected a 2-event array"

(* [with_args] derives a tagged view over the same buffer: every span it
   records carries the context pairs after its own args, deriving again
   accumulates, and the degenerate cases (null tracer, empty list) are
   identities. *)
let test_with_args () =
  let c = Clock.manual ~start:0.0 () in
  Clock.with_source (Clock.manual_source c) (fun () ->
      Alcotest.(check bool) "null stays null" false
        (Tracer.is_active (Tracer.with_args Tracer.null [ ("id", "x") ]));
      let tr = Tracer.create () in
      Alcotest.(check bool) "empty args is identity" true
        (Tracer.with_args tr [] == tr);
      let tagged = Tracer.with_args tr [ ("job", "j1") ] in
      Alcotest.(check bool) "tagged view active" true (Tracer.is_active tagged);
      Tracer.span tagged "work" ~args:[ ("k", "v") ] (fun () ->
          Clock.advance c 0.1);
      let more = Tracer.with_args tagged [ ("trace", "t9") ] in
      Tracer.span_at more "mark" ~ts:1.0 ~dur:0.5;
      Alcotest.(check int) "one shared buffer" 2 (Tracer.event_count tr);
      match Tracer.events tr with
      | [ a; b ] ->
          Alcotest.(check (list (pair string string)))
            "own args first, then the tag"
            [ ("k", "v"); ("job", "j1") ]
            a.Tracer.args;
          Alcotest.(check (list (pair string string)))
            "derived view accumulates tags"
            [ ("job", "j1"); ("trace", "t9") ]
            b.Tracer.args
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "manual source" `Quick test_clock_manual;
          Alcotest.test_case "with_source restores" `Quick test_clock_restores;
          Alcotest.test_case "set/reset" `Quick test_clock_set_reset;
          Alcotest.test_case "fuzz deterministic" `Quick
            test_fuzz_deterministic_under_mock_clock;
          Alcotest.test_case "batch job deterministic" `Quick
            test_batch_job_deterministic_under_mock_clock;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "prometheus export" `Quick test_prometheus_export;
          Alcotest.test_case "concurrent writers vs scraper" `Quick
            test_concurrent_histogram;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "null is free" `Quick test_null_tracer;
          Alcotest.test_case "span records" `Quick test_span_records;
          Alcotest.test_case "chrome json" `Quick test_chrome_json;
          Alcotest.test_case "with_args tagging" `Quick test_with_args;
        ] );
    ]
