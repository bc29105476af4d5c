(* Cycle semantics of every engine: registers delay one cycle, memories
   snapshot address/op before latching, trace output matches the generated-
   Pascal format, runtime errors fire, faults apply.  The engine list comes
   from the fuzz oracle (Asim_fuzz.Oracle.all), so any engine added to the
   differential-fuzzing set automatically inherits these semantic tests.
   Engines that cannot run here (native without an OCaml toolchain) are
   left out, as the oracle's own default list leaves them out. *)

open Asim

let builders =
  List.map
    (fun engine ->
      ( Asim_fuzz.Oracle.engine_to_string engine,
        fun config analysis -> Asim_fuzz.Oracle.build engine ~config analysis ))
    (List.filter Asim_fuzz.Oracle.available Asim_fuzz.Oracle.all)

let machines ?(config = Machine.quiet_config) source =
  let analysis = load_string source in
  List.map (fun (label, build) -> (label, build config analysis)) builders

let each ?config source f =
  List.iter (fun (label, m) -> f label m) (machines ?config source)

let counter = "#c\ncount* inc .\nA inc 4 count 1\nM count 0 inc 1 1\n.\n"

let test_register_delay () =
  each counter (fun label m ->
      (* Before any step everything is zero. *)
      Alcotest.(check int) (label ^ " initial") 0 (m.Machine.read "count");
      m.Machine.step ();
      (* After one cycle the register latched inc = 0+1, but its *output*
         (the temp) shows the value written during that cycle. *)
      Alcotest.(check int) (label ^ " after 1") 1 (m.Machine.read "count");
      Machine.run m ~cycles:9;
      Alcotest.(check int) (label ^ " after 10") 10 (m.Machine.read "count");
      Alcotest.(check int) (label ^ " cell") 10 (m.Machine.read_cell "count" 0);
      Alcotest.(check int) (label ^ " cycle count") 10 (m.Machine.current_cycle ()))

let test_trace_format () =
  let reference = ref None in
  List.iter
    (fun (label, build) ->
      let analysis = load_string counter in
      let buf = Buffer.create 256 in
      let config = { Machine.quiet_config with trace = Trace.buffer_sink buf } in
      let m : Machine.t = build config analysis in
      Machine.run m ~cycles:3;
      let got = Buffer.contents buf in
      Alcotest.(check string)
        (label ^ " trace")
        "Cycle   0 count= 0\nCycle   1 count= 1\nCycle   2 count= 2\n" got;
      (match !reference with
      | None -> reference := Some got
      | Some r -> Alcotest.(check string) (label ^ " agrees") r got))
    builders

let test_selector_out_of_range () =
  let source = "#c\nsel count inc .\nA inc 4 count 1\nS sel count 10 20\nM count 0 inc 1 1\n.\n" in
  each source (fun label m ->
      (* count reaches 2 after two cycles; the 2-case selector then traps. *)
      match Machine.run m ~cycles:5 with
      | exception Error.Error { phase = Error.Runtime; _ } -> ()
      | () -> Alcotest.failf "%s: expected selector range error" label)

let test_memory_address_out_of_range () =
  let source = "#c\nm inc .\nA inc 4 m 1\nM m inc inc 1 2\n.\n" in
  each source (fun label m ->
      match Machine.run m ~cycles:8 with
      | exception Error.Error { phase = Error.Runtime; _ } -> ()
      | () -> Alcotest.failf "%s: expected address range error" label)

(* Memory operation semantics: a 4-cell memory cycling read/write. *)
let test_memory_write_then_read () =
  (* addr alternates 0/1 via counter bit 0; op = write always; data = counter. *)
  let source =
    "#c\nc inc m .\nA inc 4 c 1\nM m c.0 c 1 2\nM c 0 inc 1 1\n.\n"
  in
  each source (fun label m ->
      Machine.run m ~cycles:4;
      (* cycle k writes c(temp)=k at address k land 1 *)
      Alcotest.(check int) (label ^ " cell0") 2 (m.Machine.read_cell "m" 0);
      Alcotest.(check int) (label ^ " cell1") 3 (m.Machine.read_cell "m" 1))

let test_memory_mapped_io () =
  (* op=3: outputs data each cycle at address 2. *)
  let source = "#c\nc inc out .\nA inc 4 c 1\nM out 2 c 3 1\nM c 0 inc 1 1\n.\n" in
  List.iter
    (fun (label, build) ->
      let analysis = load_string source in
      let io, events = Io.recording () in
      let config = { Machine.quiet_config with io } in
      let m : Machine.t = build config analysis in
      Machine.run m ~cycles:3;
      let outs =
        List.filter_map
          (function Io.Output { address; data } -> Some (address, data) | _ -> None)
          (events ())
      in
      Alcotest.(check (list (pair int int)))
        (label ^ " outputs")
        [ (2, 0); (2, 1); (2, 2) ]
        outs)
    builders

let test_memory_input () =
  let source = "#c\nc inc m .\nA inc 4 c 1\nM m 1 0 2 1\nM c 0 inc 1 1\n.\n" in
  List.iter
    (fun (label, build) ->
      let analysis = load_string source in
      let io, events = Io.recording ~feed:[ 7; 8; 9 ] () in
      let config = { Machine.quiet_config with io } in
      let m : Machine.t = build config analysis in
      Machine.run m ~cycles:2;
      Alcotest.(check int) (label ^ " latched input") 8 (m.Machine.read "m");
      Alcotest.(check int) (label ^ " events") 2 (List.length (events ())))
    builders

let test_write_trace_lines () =
  (* op 5 = write + trace-writes. *)
  let source = "#c\nc inc m .\nA inc 4 c 1\nM m 0 c 5 1\nM c 0 inc 1 1\n.\n" in
  List.iter
    (fun (label, build) ->
      let analysis = load_string source in
      let buf = Buffer.create 256 in
      let config = { Machine.quiet_config with trace = Trace.buffer_sink buf } in
      let m : Machine.t = build config analysis in
      Machine.run m ~cycles:2;
      Alcotest.(check string)
        (label ^ " write trace")
        "Cycle   0\nWrite to m at 0: 0\nCycle   1\nWrite to m at 0: 1\n"
        (Buffer.contents buf))
    builders

let test_read_trace_runtime_condition () =
  (* op = c.0.3: alternates 0 (read, no trace) and 8 (read + trace). *)
  let source = "#c\nc inc m .\nA inc 4 c 8\nM m 0 0 c.0.3 1\nM c 0 inc 1 1\n.\n" in
  List.iter
    (fun (label, build) ->
      let analysis = load_string source in
      let buf = Buffer.create 256 in
      let config = { Machine.quiet_config with trace = Trace.buffer_sink buf } in
      let m : Machine.t = build config analysis in
      Machine.run m ~cycles:2;
      Alcotest.(check string)
        (label ^ " read trace on cycle 1 only")
        "Cycle   0\nCycle   1\nRead from m at 0: 0\n"
        (Buffer.contents buf))
    builders

let test_stats () =
  each counter (fun label m ->
      Machine.run m ~cycles:7;
      Alcotest.(check int) (label ^ " cycles") 7 (Stats.cycles m.Machine.stats);
      let c = Stats.memory m.Machine.stats "count" in
      Alcotest.(check int) (label ^ " writes") 7 c.Stats.writes;
      Alcotest.(check int) (label ^ " reads") 0 c.Stats.reads;
      Alcotest.(check int) (label ^ " total") 7 (Stats.total_accesses m.Machine.stats))

let test_alu_functions () =
  (* One ALU per function over register inputs; checks dologic end to end. *)
  let source =
    "#c\na b f0 f1 f2 f3 f4 f5 f6 f7 f8 f9 f10 f11 f12 f13 .\n\
     A f0 0 a b\nA f1 1 a b\nA f2 2 a b\nA f3 3 a b\nA f4 4 a b\nA f5 5 a b\n\
     A f6 6 a b\nA f7 7 a b\nA f8 8 a b\nA f9 9 a b\nA f10 10 a b\nA f11 11 a b\n\
     A f12 12 a b\nA f13 13 a b\n\
     M a 0 12 1 1\nM b 0 5 1 1\n.\n"
  in
  each source (fun label m ->
      Machine.run m ~cycles:2;
      (* a=12, b=5 after the first cycle *)
      let f n = m.Machine.read (Printf.sprintf "f%d" n) in
      let mask = Asim_core.Bits.mask in
      List.iter
        (fun (fn, expected) ->
          Alcotest.(check int) (Printf.sprintf "%s f%d" label fn) expected (f fn))
        [
          (0, 0); (1, 5); (2, 12); (3, mask - 12); (4, 17); (5, 7); (6, 12 * 32);
          (7, 60); (8, 4); (9, 13); (10, 9); (11, 0); (12, 0); (13, 0);
        ])

let test_comparison_functions () =
  let source = "#c\neq lt a .\nA eq 12 a 3 \nA lt 13 a 4\nM a 0 3 1 1\n.\n" in
  each source (fun label m ->
      Machine.run m ~cycles:2;
      Alcotest.(check int) (label ^ " eq") 1 (m.Machine.read "eq");
      Alcotest.(check int) (label ^ " lt") 1 (m.Machine.read "lt"))

let test_dynamic_alu_function () =
  (* The ALU function itself computed by the circuit: f = a.0.3 cycles
     through dologic codes. *)
  let source = "#c\ninc a f .\nA inc 4 a 1\nA f a.0.3 6 3\nM a 0 inc 1 1\n.\n" in
  each source (fun label m ->
      m.Machine.step ();
      (* a=1 -> function 1 -> right = 3 *)
      m.Machine.step ();
      Alcotest.(check int) (label ^ " fn1") 3 (m.Machine.read "f");
      m.Machine.step ();
      (* a=2 -> pass left *)
      Alcotest.(check int) (label ^ " fn2") 6 (m.Machine.read "f");
      m.Machine.step ();
      (* a=3 -> NOT left *)
      Alcotest.(check int)
        (label ^ " fn3")
        (Asim_core.Bits.mask - 6)
        (m.Machine.read "f"))

let test_exotic_literals () =
  (* Field indices written in binary/hex, summed numbers, powers of two:
     every engine must read them identically. *)
  let source =
    "#x\nc inc a b s m .\n\
     A inc 4 c 1\n\
     A a 4 c.%10.$3 ^2\n\
     A b 8 c.0.7 $F+%10000\n\
     S s c.%0 a.0.3 b.0.3\n\
     M m 0 a 1 1\n\
     M c 0 inc 1 1\n\
     .\n"
  in
  let run build =
    let analysis = load_string source in
    let m : Machine.t = build analysis in
    Machine.run m ~cycles:12;
    List.map m.Machine.read [ "a"; "b"; "s"; "m" ]
  in
  let interp = run (fun a -> Interp.create ~config:Machine.quiet_config a) in
  List.iter
    (fun (label, build) ->
      Alcotest.(check (list int))
        (label ^ " agrees on exotic literals")
        interp
        (run (fun a -> build Machine.quiet_config a)))
    builders;
  (* sanity: the last evaluation sees c = 11: a = bits 2..3 of 11 (= 2) + 4;
     b = 11 land 31; s = (bit 0 of 11 = 1) -> b.0.3; m latched a *)
  Alcotest.(check (list int)) "expected values" [ 6; 11; 11; 6 ] interp

let test_fault_injection_equivalence () =
  let run faults build =
    let analysis = load_string counter in
    let buf = Buffer.create 256 in
    let config =
      { Machine.quiet_config with trace = Trace.buffer_sink buf; faults }
    in
    let m : Machine.t = build config analysis in
    Machine.run m ~cycles:10;
    Buffer.contents buf
  in
  let faults =
    [
      Fault.stuck_at ~first_cycle:2 ~last_cycle:4 "inc" 0;
      Fault.flip_bit ~first_cycle:6 "count" 1;
    ]
  in
  let interp = run faults (fun config a -> Interp.create ~config a) in
  List.iter
    (fun (label, build) ->
      Alcotest.(check string) (label ^ " faulty trace agrees") interp (run faults build))
    builders;
  let healthy = run Fault.none (fun config a -> Interp.create ~config a) in
  Alcotest.(check bool) "fault changes the trace" true (interp <> healthy)

let test_stuck_at_fault_behaviour () =
  let analysis = load_string counter in
  let config =
    { Machine.quiet_config with faults = [ Fault.stuck_at "inc" 42 ] }
  in
  let m = Compile.create ~config analysis in
  Machine.run m ~cycles:2;
  Alcotest.(check int) "register latched the stuck value" 42 (m.Machine.read "count")

let test_run_until () =
  let analysis = load_string counter in
  let m = Compile.create ~config:Machine.quiet_config analysis in
  let steps =
    Machine.run_until m ~max_cycles:100 ~stop:(fun m -> m.Machine.read "count" >= 5)
  in
  Alcotest.(check int) "stopped at 5" 5 steps

let test_write_cell () =
  (* A 4-cell ROM scanned by a counter: poke a cell, see it stream out.
     Beside it a ROM read at a constant address, which has nothing left to
     evaluate once it has read: the poke itself must reach its output. *)
  let source =
    "#c\nc inc r k .\nA inc 4 c 1\nM r c.0.1 0 0 4\nM k 1 0 0 4\nM c 0 inc 1 1\n.\n"
  in
  each source (fun label m ->
      m.Machine.write_cell "r" 2 55;
      Machine.run m ~cycles:3;
      Alcotest.(check int) (label ^ " poked value streamed out") 55 (m.Machine.read "r");
      Alcotest.(check int) (label ^ " read_cell sees it too") 55 (m.Machine.read_cell "r" 2);
      Alcotest.(check int) (label ^ " constant address before") 0 (m.Machine.read "k");
      m.Machine.write_cell "k" 1 66;
      m.Machine.step ();
      Alcotest.(check int) (label ^ " constant address poked") 66 (m.Machine.read "k"))

let () =
  Alcotest.run "engines"
    [
      ( "semantics",
        [
          Alcotest.test_case "register delay" `Quick test_register_delay;
          Alcotest.test_case "trace format" `Quick test_trace_format;
          Alcotest.test_case "memory write/read" `Quick test_memory_write_then_read;
          Alcotest.test_case "memory-mapped output" `Quick test_memory_mapped_io;
          Alcotest.test_case "memory-mapped input" `Quick test_memory_input;
          Alcotest.test_case "write trace lines" `Quick test_write_trace_lines;
          Alcotest.test_case "runtime read trace" `Quick test_read_trace_runtime_condition;
          Alcotest.test_case "statistics" `Quick test_stats;
        ] );
      ( "alu",
        [
          Alcotest.test_case "all functions" `Quick test_alu_functions;
          Alcotest.test_case "comparisons" `Quick test_comparison_functions;
          Alcotest.test_case "dynamic function" `Quick test_dynamic_alu_function;
        ] );
      ( "errors",
        [
          Alcotest.test_case "selector range" `Quick test_selector_out_of_range;
          Alcotest.test_case "address range" `Quick test_memory_address_out_of_range;
        ] );
      ( "faults and control",
        [
          Alcotest.test_case "exotic literals" `Quick test_exotic_literals;
          Alcotest.test_case "fault equivalence" `Quick test_fault_injection_equivalence;
          Alcotest.test_case "stuck-at behaviour" `Quick test_stuck_at_fault_behaviour;
          Alcotest.test_case "run_until" `Quick test_run_until;
          Alcotest.test_case "write_cell" `Quick test_write_cell;
        ] );
    ]
