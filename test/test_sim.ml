(* The simulation runtime pieces: I/O handlers, statistics, trace sinks,
   fault plans, VCD output. *)

open Asim

(* --- Io ------------------------------------------------------------------- *)

let test_recording_feed () =
  let io, events = Io.recording ~feed:[ 10; 20 ] () in
  Alcotest.(check int) "first" 10 (io.Io.input ~address:1);
  Alcotest.(check int) "second" 20 (io.Io.input ~address:0);
  Alcotest.(check int) "exhausted" 0 (io.Io.input ~address:1);
  io.Io.output ~address:2 ~data:99;
  match events () with
  | [ Io.Input { address = 1; data = 10 }; Io.Input { address = 0; data = 20 };
      Io.Input { address = 1; data = 0 }; Io.Output { address = 2; data = 99 } ] ->
      ()
  | evs -> Alcotest.failf "unexpected events (%d)" (List.length evs)

let test_null_io () =
  Alcotest.(check int) "null input" 0 (Io.null.Io.input ~address:5);
  Io.null.Io.output ~address:5 ~data:1

let test_event_to_string () =
  Alcotest.(check string) "input" "input[1] -> 3"
    (Io.event_to_string (Io.Input { address = 1; data = 3 }));
  Alcotest.(check string) "output" "output[0] <- 65"
    (Io.event_to_string (Io.Output { address = 0; data = 65 }))

(* --- Stats ------------------------------------------------------------------ *)

let test_stats_counters () =
  let stats = Stats.create ~memories:[ "a"; "b" ] in
  Stats.bump_cycle stats;
  Stats.bump_cycle stats;
  Stats.count_op stats "a" Component.Op_read;
  Stats.count_op stats "a" Component.Op_write;
  Stats.count_op stats "b" Component.Op_input;
  Stats.count_op stats "b" Component.Op_output;
  Stats.count_op stats "b" Component.Op_output;
  Alcotest.(check int) "cycles" 2 (Stats.cycles stats);
  Alcotest.(check int) "a reads" 1 (Stats.memory stats "a").Stats.reads;
  Alcotest.(check int) "b outputs" 2 (Stats.memory stats "b").Stats.outputs;
  Alcotest.(check int) "total" 5 (Stats.total_accesses stats);
  Alcotest.(check bool) "report mentions memories" true
    (String.length (Stats.to_string stats) > 0)

(* --- Trace ------------------------------------------------------------------- *)

let test_trace_formats () =
  Alcotest.(check string) "cycle, no traced" "Cycle   7" (Trace.cycle_line ~cycle:7 []);
  Alcotest.(check string) "cycle with values" "Cycle  12 pc= 3 ac= 99"
    (Trace.cycle_line ~cycle:12 [ ("pc", 3); ("ac", 99) ]);
  Alcotest.(check string) "wide cycle numbers don't truncate" "Cycle 5545"
    (Trace.cycle_line ~cycle:5545 []);
  Alcotest.(check string) "write" "Write to ram at 15: 42"
    (Trace.write_line ~memory:"ram" ~address:15 ~data:42);
  Alcotest.(check string) "read" "Read from ram at 0: -5"
    (Trace.read_line ~memory:"ram" ~address:0 ~data:(-5))

let test_trace_sinks () =
  let buf = Buffer.create 64 in
  let sink = Trace.buffer_sink buf in
  sink "one";
  sink "two";
  Alcotest.(check string) "buffer" "one\ntwo\n" (Buffer.contents buf);
  let sink, lines = Trace.list_sink () in
  sink "a";
  sink "b";
  Alcotest.(check (list string)) "list" [ "a"; "b" ] (lines ());
  Trace.null_sink "dropped"

(* --- Fault ------------------------------------------------------------------- *)

let test_fault_windows () =
  let f = Fault.stuck_at ~first_cycle:5 ~last_cycle:7 "x" 1 in
  Alcotest.(check bool) "before" false (Fault.active f ~cycle:4);
  Alcotest.(check bool) "start" true (Fault.active f ~cycle:5);
  Alcotest.(check bool) "end" true (Fault.active f ~cycle:7);
  Alcotest.(check bool) "after" false (Fault.active f ~cycle:8);
  let forever = Fault.stuck_at "x" 1 in
  Alcotest.(check bool) "open-ended" true (Fault.active forever ~cycle:1000000)

let test_fault_kinds () =
  let apply fault v = Fault.apply [ fault ] ~cycle:0 ~component:"x" v in
  Alcotest.(check int) "stuck-at" 9 (apply (Fault.stuck_at "x" 9) 5);
  Alcotest.(check int) "flip" 4 (apply (Fault.flip_bit "x" 0) 5);
  Alcotest.(check int) "other component untouched" 5
    (Fault.apply [ Fault.stuck_at "y" 9 ] ~cycle:0 ~component:"x" 5)

let test_fault_stacking () =
  (* Two faults on the same component compose in order. *)
  let plan = [ Fault.stuck_at "x" 0; Fault.flip_bit "x" 3 ] in
  Alcotest.(check int) "stuck then flipped" 8 (Fault.apply plan ~cycle:0 ~component:"x" 5)

let test_fault_targets () =
  let plan = [ Fault.stuck_at "a" 0; Fault.flip_bit "b" 1; Fault.stuck_at "a" 1 ] in
  Alcotest.(check (list string)) "deduplicated" [ "a"; "b" ] (Fault.targets plan)

(* --- Vcd --------------------------------------------------------------------- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_vcd_structure () =
  let analysis = load_string Specs.divider in
  let machine = machine ~config:Machine.quiet_config analysis in
  let vcd = Vcd.record machine ~cycles:8 in
  List.iter
    (fun needle ->
      if not (contains vcd needle) then Alcotest.failf "VCD missing %S" needle)
    [
      "$timescale"; "$enddefinitions $end"; "$var wire 1 ! d0 $end"; "#0"; "#8";
    ];
  (* d0 toggles every cycle: its identifier '!' must appear at every step. *)
  let toggles =
    List.length
      (List.filter
         (fun line -> line = "0!" || line = "1!")
         (String.split_on_char '\n' vcd))
  in
  Alcotest.(check int) "d0 changes every cycle" 9 toggles

let test_vcd_skips_unchanged () =
  let analysis = load_string Specs.divider in
  let machine = machine ~config:Machine.quiet_config analysis in
  (* d2 only toggles every fourth cycle: over two cycles it never changes,
     so only the initial sample appears. *)
  let vcd = Vcd.record ~names:[ "d2" ] machine ~cycles:2 in
  let changes =
    List.length
      (List.filter
         (fun line -> String.length line > 1 && (line.[0] = 'b' || line.[0] = '0' || line.[0] = '1'))
         (String.split_on_char '\n' vcd))
  in
  Alcotest.(check bool) "fewer changes than samples" true (changes <= 2)

let test_vcd_defaults_to_traced () =
  let analysis = load_string Specs.divider in
  let machine = machine ~config:Machine.quiet_config analysis in
  let vcd = Vcd.record machine ~cycles:2 in
  Alcotest.(check bool) "d2 present" true (contains vcd " d2 $end");
  Alcotest.(check bool) "untraced n0 absent" false (contains vcd " n0 $end")

(* --- Profile ------------------------------------------------------------------- *)

let test_profile_histogram () =
  let analysis = load_string Specs.counter in
  let m = machine ~config:Machine.quiet_config analysis in
  let profiles = Profile.run m ~cycles:8 ~components:[ "count" ] in
  match profiles with
  | [ ("count", histogram) ] ->
      (* count takes values 1..8, once each *)
      Alcotest.(check int) "distinct values" 8 (List.length histogram);
      List.iter (fun (_, n) -> Alcotest.(check int) "each once" 1 n) histogram
  | _ -> Alcotest.fail "unexpected profile shape"

let test_profile_duty_cycle () =
  let analysis = load_string Specs.divider in
  let m = machine ~config:Machine.quiet_config analysis in
  let profiles = Profile.run m ~cycles:16 ~components:[ "d0"; "d2" ] in
  let hist name = List.assoc name profiles in
  (* d0 toggles every cycle: bit 0 high half the time; d2 every 4 cycles *)
  Alcotest.(check (float 0.01)) "d0 duty" 0.5 (Profile.duty_cycle (hist "d0") ~bit:0);
  Alcotest.(check (float 0.01)) "d2 duty" 0.5 (Profile.duty_cycle (hist "d2") ~bit:0)

let test_profile_top () =
  let histogram = [ (7, 100); (3, 50); (1, 2) ] in
  Alcotest.(check (list (pair int int))) "top 2" [ (7, 100); (3, 50) ]
    (Profile.top ~n:2 histogram);
  Alcotest.(check bool) "report text" true
    (String.length (Profile.to_string [ ("x", histogram) ]) > 0)

(* --- Coverage ---------------------------------------------------------------------- *)

let engine_fn config a = Compile.create ~config a

let test_coverage_counter () =
  let analysis = load_string Specs.counter in
  let faults = Coverage.stuck_at_faults ~bits_per_component:6 analysis in
  (* count and inc, 6 bits each, stuck low + stuck high *)
  Alcotest.(check int) "fault population" (2 * 6 * 2) (List.length faults);
  let report = Coverage.run ~engine:engine_fn analysis ~faults in
  Alcotest.(check int) "total" (List.length faults) report.Coverage.total;
  (* In 8 cycles count reaches 8: bits 0..3 matter, bits 4,5 stuck LOW are
     invisible, stuck HIGH are visible. *)
  let find component kind =
    List.find
      (fun r -> r.Coverage.fault.Fault.component = component && r.Coverage.fault.Fault.kind = kind)
      report.Coverage.results
  in
  Alcotest.(check bool) "count bit0 low detected" true
    (find "count" (Fault.Stuck_bit_low 0)).Coverage.detected;
  Alcotest.(check bool) "count bit5 high detected" true
    (find "count" (Fault.Stuck_bit_high 5)).Coverage.detected;
  Alcotest.(check bool) "count bit5 low undetected" false
    (find "count" (Fault.Stuck_bit_low 5)).Coverage.detected;
  Alcotest.(check bool) "coverage between 0 and 1" true
    (Coverage.coverage report > 0.4 && Coverage.coverage report < 1.0);
  Alcotest.(check bool) "report text" true
    (String.length (Coverage.to_string report) > 0)

let test_coverage_divergence_cycle () =
  let analysis = load_string Specs.counter in
  let fault =
    { Fault.component = "count"; kind = Fault.Stuck_bit_low 1; first_cycle = 0;
      last_cycle = None }
  in
  let report = Coverage.run ~engine:engine_fn analysis ~faults:[ fault ] in
  match report.Coverage.results with
  | [ r ] ->
      Alcotest.(check bool) "detected" true r.Coverage.detected;
      (* count first carries bit 1 at value 2 — the second sample (row 1) *)
      Alcotest.(check (option int)) "first divergence" (Some 1) r.Coverage.first_divergence
  | _ -> Alcotest.fail "one result expected"

let test_coverage_io_observation () =
  (* Observing only I/O: faults that never disturb the output stream are
     undetected even if internal values change. *)
  let source = "#io\nc inc out .\nA inc 4 c 1\nM out 2 c.0.1 3 1\nM c 0 inc 1 1\n.\n" in
  let analysis = load_string source in
  let faults =
    [
      { Fault.component = "c"; kind = Fault.Stuck_bit_low 0; first_cycle = 0;
        last_cycle = None };
      { Fault.component = "c"; kind = Fault.Stuck_bit_low 8; first_cycle = 0;
        last_cycle = None };
    ]
  in
  let report =
    Coverage.run ~observe:Coverage.Io_events ~cycles:12 ~engine:engine_fn analysis
      ~faults
  in
  match report.Coverage.results with
  | [ low; high ] ->
      Alcotest.(check bool) "low bit visible in output" true low.Coverage.detected;
      Alcotest.(check bool) "bit 8 invisible through out.0.1" false
        high.Coverage.detected
  | _ -> Alcotest.fail "two results expected"

(* --- Vcd parse / diff ------------------------------------------------------------ *)

let record_gray faults =
  let analysis = load_string Specs.gray_code in
  let config = { Machine.quiet_config with faults } in
  let m = machine ~config analysis in
  Vcd.record ~names:[ "count"; "gray" ] m ~cycles:16

let test_vcd_parse_roundtrip () =
  let waves = Vcd.parse (record_gray Fault.none) in
  Alcotest.(check (list string)) "signals" [ "count"; "gray" ]
    (List.map (fun w -> w.Vcd.signal) waves);
  let gray = List.find (fun w -> w.Vcd.signal = "gray") waves in
  Alcotest.(check int) "width" 4 gray.Vcd.bits;
  (* Gray code: one change per sample, 16 changes after the initial dump. *)
  Alcotest.(check int) "changes" 16 (List.length gray.Vcd.changes);
  (* Value reconstruction: the sample at time t pairs the post-update
     register with the combinational value computed from the pre-update
     register, so gray(t) = graycode(count(t-1)). *)
  let count = List.find (fun w -> w.Vcd.signal = "count") waves in
  for t = 1 to 16 do
    let c = Vcd.value_at count (t - 1) in
    Alcotest.(check int)
      (Printf.sprintf "gray at %d" t)
      ((c lxor (c lsr 1)) land 15)
      (Vcd.value_at gray t)
  done

let test_vcd_diff () =
  let healthy = Vcd.parse (record_gray Fault.none) in
  Alcotest.(check (list (pair string (list int)))) "self-diff is empty" []
    (Vcd.diff healthy healthy);
  let faulty =
    Vcd.parse (record_gray [ Fault.flip_bit ~first_cycle:5 ~last_cycle:8 "gray" 2 ])
  in
  (match Vcd.diff healthy faulty with
  | [ ("gray", times) ] ->
      Alcotest.(check int) "four divergent samples" 4 (List.length times)
  | other -> Alcotest.failf "unexpected diff (%d entries)" (List.length other));
  (* missing signal reported *)
  let only_count = List.filter (fun w -> w.Vcd.signal = "count") healthy in
  Alcotest.(check bool) "missing signal flagged" true
    (List.mem ("gray", [ -1 ]) (Vcd.diff healthy only_count))

let test_vcd_parse_errors () =
  let bad text =
    match Vcd.parse text with
    | exception Error.Error { phase = Error.Parsing; _ } -> ()
    | _ -> Alcotest.failf "expected parse error for %S" text
  in
  bad "#notanumber x";
  bad "b1010";
  bad "1? x";
  bad "$var wire x ! sig $end"

(* --- engine dispatch ----------------------------------------------------------- *)

let test_engine_names () =
  Alcotest.(check bool) "unknown" true (engine_of_string "verilog" = None);
  Alcotest.(check string) "to_string" "interp" (engine_to_string `Interp);
  (* One name per engine: each printed name parses back to its engine... *)
  List.iter
    (fun e ->
      let name = engine_to_string e in
      Alcotest.(check bool) (name ^ " parses back") true
        (Option.map engine_to_string (engine_of_string name) = Some name))
    [ `Interp; `Compiled; `Flat; `Native; `Par { domains = 1; costs = [] } ];
  (* ...and every other spelling the table once took, the two deleted
     ablation engines included, is unknown. *)
  List.iter
    (fun alias ->
      Alcotest.(check bool) (alias ^ " is unknown") true (engine_of_string alias = None))
    [
      "asim"; "ASIM2"; "interpreter"; "compile"; "asim2"; "asimii"; "unoptimized";
      "unopt"; "flat-kernel"; "flatkernel"; "flat-full"; "flat_full"; "flatfull";
      "FlatFull"; "jit"; "bsp"; "partitioned"; "Interp"; "FLAT";
    ]

let test_run_string_uses_spec_cycles () =
  let m = run_string ~config:Machine.quiet_config Specs.counter in
  Alcotest.(check int) "= 8 respected" 8 (m.Machine.current_cycle ())

let () =
  Alcotest.run "sim"
    [
      ( "io",
        [
          Alcotest.test_case "recording" `Quick test_recording_feed;
          Alcotest.test_case "null" `Quick test_null_io;
          Alcotest.test_case "event text" `Quick test_event_to_string;
        ] );
      ("stats", [ Alcotest.test_case "counters" `Quick test_stats_counters ]);
      ( "trace",
        [
          Alcotest.test_case "formats" `Quick test_trace_formats;
          Alcotest.test_case "sinks" `Quick test_trace_sinks;
        ] );
      ( "fault",
        [
          Alcotest.test_case "windows" `Quick test_fault_windows;
          Alcotest.test_case "kinds" `Quick test_fault_kinds;
          Alcotest.test_case "stacking" `Quick test_fault_stacking;
          Alcotest.test_case "targets" `Quick test_fault_targets;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "counter stuck-ats" `Quick test_coverage_counter;
          Alcotest.test_case "divergence cycle" `Quick test_coverage_divergence_cycle;
          Alcotest.test_case "io-only observation" `Quick test_coverage_io_observation;
        ] );
      ( "profile",
        [
          Alcotest.test_case "histogram" `Quick test_profile_histogram;
          Alcotest.test_case "duty cycle" `Quick test_profile_duty_cycle;
          Alcotest.test_case "top" `Quick test_profile_top;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "structure" `Quick test_vcd_structure;
          Alcotest.test_case "deduplication" `Quick test_vcd_skips_unchanged;
          Alcotest.test_case "default signals" `Quick test_vcd_defaults_to_traced;
          Alcotest.test_case "parse round-trip" `Quick test_vcd_parse_roundtrip;
          Alcotest.test_case "waveform diff" `Quick test_vcd_diff;
          Alcotest.test_case "parse errors" `Quick test_vcd_parse_errors;
        ] );
      ( "driver",
        [
          Alcotest.test_case "engine names" `Quick test_engine_names;
          Alcotest.test_case "spec cycles" `Quick test_run_string_uses_spec_cycles;
        ] );
    ]
