(* The swap-point lockstep harness for the tiered engine
   ([Asim_tiered.Tiered]): flat-first execution with a background JIT
   hot-swap.  The engine's one load-bearing claim is that the handoff is
   invisible — at any cycle boundary, swapping from the flat kernel to the
   native engine changes no observable.  These tests force the swap at
   adversarial cycles (0, 1, mid-I/O, the final cycle, past the end, and
   never) on the demo machines and on generated fuzz specs, and compare
   every observable the paper recognizes (per-cycle outputs, trace text,
   I/O event streams, final memory images, access statistics, faults,
   runtime errors) against single-engine runs.  A planted off-by-one
   ([ASIM_TIERED_SKEW=1]) proves the harness has teeth.

   The tiered engine is always available — without a toolchain it degrades
   to flat-only with identical observables — so the lockstep legs run
   unconditionally; only the assertions about a *successful* swap (status,
   spans, native lockstep) gate on the toolchain like test_jit does. *)

module Machine = Asim.Machine
module Tiered = Asim.Tiered
module Jit = Asim.Jit
module Io = Asim.Io
module Gen = Asim_fuzz.Gen
module Oracle = Asim_fuzz.Oracle
module Runner = Asim_batch.Runner
module Proto = Asim_batch.Proto
module Tracer = Asim_obs.Tracer

let quiet = Machine.quiet_config

(* One shared artifact cache for the whole binary (the test_jit idiom),
   routed through the environment so oracle- and batch-built machines land
   in it too. *)
let cache_dir =
  let dir = Filename.temp_file "asim-test-tiered" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Unix.putenv "ASIM_JIT_CACHE_DIR" dir;
  dir

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let () = at_exit (fun () -> remove_tree cache_dir)

let toolchain = Jit.available ()

let if_toolchain f () = if toolchain then f ()

(* Scoped environment override, for the skew switch and the artifact
   cache path.  An empty value is how this codebase spells "unset". *)
let with_env var value f =
  let old = Sys.getenv_opt var in
  Unix.putenv var value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv var (Option.value old ~default:""))
    f

(* ------------------------------------------------------------------ *)
(* The swap-point lockstep harness                                    *)
(* ------------------------------------------------------------------ *)

(* Flat-only is the reference; native-only (when the toolchain answers) and
   tiered must agree with it on everything.  [Native] before [Tiered] warms
   the in-process plugin memo, so the tiered observation swaps without
   spawning a compile domain. *)
let lineup swap : Oracle.engine list =
  (`Flat :: (if toolchain then [ `Native ] else [])) @ [ `Tiered swap ]

let check_at ~what ~cycles spec swap =
  match Oracle.check ~cycles ~engines:(lineup swap) spec with
  | None -> ()
  | Some d ->
      Alcotest.failf "%s, swap at %s: %s" what (Tiered.policy_to_string swap)
        (Oracle.divergence_to_string d)

(* The adversarial swap points for an [n]-cycle run: the very first
   boundary, the second, the middle, the last boundary before the run ends,
   one past the end (the forced swap never fires: the run must still
   terminate on flat), and an explicit [never]. *)
let swap_points ~cycles =
  Tiered.[ At 0; At 1; At (cycles / 2); At (cycles - 1); At cycles; Never ]

let sweep ~what ~cycles spec =
  List.iter (check_at ~what ~cycles spec) (swap_points ~cycles)

let counter = "#c\n= 8\ncount* inc .\nA inc 4 count 1\nM count 0 inc 1 1\n.\n"

let test_swap_points_counter () =
  sweep ~what:"counter" ~cycles:8 (Asim.Parser.parse_string counter)

let test_swap_points_sieve () =
  sweep ~what:"stackm-sieve" ~cycles:1200
    (Asim_stackm.Microcode.spec ~program:Asim_stackm.Demos.sieve_reassembled ())

let test_swap_points_tinyc () =
  sweep ~what:"tinyc-demo" ~cycles:800
    (Asim_tinyc.Machine.spec ~program:Asim_tinyc.Machine.demo_image ())

(* Generated fuzz specs: each sweeps the same adversarial points.  Runtime
   errors are in the oracle's observation record, so specs that trap midway
   check that the tiered engine traps at the same cycle with the same
   message. *)
let test_swap_points_generated () =
  for index = 0 to 5 do
    let spec = Gen.(spec_at default_size) ~seed:0x5a1d ~index in
    sweep ~what:(Printf.sprintf "generated spec %d" index) ~cycles:24 spec
  done

(* Mid-I/O: pick a spec that performs memory-mapped I/O and force the swap
   at a boundary strictly between two I/O events, so the recorded event
   stream must stitch together across the handoff. *)
let io_cycles spec ~cycles =
  let analysis = Asim.Analysis.analyze spec in
  let io, events = Io.recording ~feed:Oracle.default_feed () in
  let m = Asim.Flat.create ~config:{ quiet with Machine.io } analysis in
  let cycles_with_io = ref [] in
  let seen = ref 0 in
  for cycle = 0 to cycles - 1 do
    Machine.run m ~cycles:1;
    let n = List.length (events ()) in
    if n > !seen then begin
      seen := n;
      cycles_with_io := cycle :: !cycles_with_io
    end
  done;
  List.rev !cycles_with_io

let test_swap_mid_io () =
  (* Scan the generated-campaign specs for ones that do I/O on at least two
     distinct cycles; swap strictly between the first and last I/O cycle. *)
  let tested = ref 0 in
  for index = 0 to 19 do
    let spec = Gen.(spec_at default_size) ~seed:0x10a7 ~index in
    match io_cycles spec ~cycles:24 with
    | first :: (_ :: _ as rest) ->
        let last = List.nth rest (List.length rest - 1) in
        if last > first + 1 then begin
          incr tested;
          check_at
            ~what:(Printf.sprintf "generated spec %d mid-I/O" index)
            ~cycles:24 spec
            (Tiered.At ((first + last + 1) / 2))
        end
    | _ -> ()
  done;
  if !tested = 0 then
    Alcotest.fail "no generated spec with two I/O cycles — weak self-test"

(* Embedded examples under the default (Auto) policy: whenever the
   background compile lands is whenever it lands — the result must not
   depend on it. *)
let test_auto_policy_examples () =
  List.iter
    (fun (name, source) ->
      let spec = Asim.Parser.parse_string source in
      match Oracle.check ~cycles:120 ~engines:(lineup Tiered.Auto) spec with
      | None -> ()
      | Some d ->
          Alcotest.failf "example %s diverged: %s" name
            (Oracle.divergence_to_string d))
    Asim.Specs.all

(* Fault injection crosses the swap: faults enter both engines through the
   same host closures, so a fault window straddling the handoff must
   produce the interpreter-identical trace, character for character. *)
let test_fault_across_swap =
  if_toolchain (fun () ->
      let run build =
        let analysis = Asim.load_string counter in
        let buf = Buffer.create 256 in
        let config =
          {
            quiet with
            Machine.trace = Asim.Trace.buffer_sink buf;
            faults =
              [
                Asim.Fault.stuck_at ~first_cycle:2 ~last_cycle:4 "inc" 0;
                Asim.Fault.flip_bit ~first_cycle:6 "count" 1;
              ];
          }
        in
        let m : Machine.t = build config analysis in
        Machine.run m ~cycles:10;
        Buffer.contents buf
      in
      let interp = run (fun config a -> Asim.Interp.create ~config a) in
      (* Swap at cycle 3: inside the stuck-at window, before the bit flip. *)
      let tiered =
        run (fun config a ->
            Tiered.create ~config ~cache_dir ~swap_at:(Tiered.At 3) a)
      in
      Alcotest.(check string) "faulty trace agrees across the swap" interp tiered)

(* The planted skew: ASIM_TIERED_SKEW=1 mis-numbers the native engine's
   first cycle by one at the handoff.  The harness must catch it — if this
   test fails, the lockstep comparisons above prove nothing. *)
let test_skew_is_caught =
  if_toolchain (fun () ->
      with_env "ASIM_TIERED_SKEW" "1" (fun () ->
          let spec = Asim.Parser.parse_string counter in
          match Oracle.check ~engines:[ `Flat; `Tiered (Tiered.At 3) ] spec with
          | Some _ -> ()
          | None ->
              Alcotest.fail "harness failed to catch a deliberately skewed handoff"))

(* ------------------------------------------------------------------ *)
(* Status, spans, and policy plumbing                                 *)
(* ------------------------------------------------------------------ *)

let swap_spans tracer =
  List.filter
    (fun (e : Tracer.event) -> e.Tracer.name = "tiered.swap")
    (Tracer.events tracer)

let arg name (e : Tracer.event) = List.assoc_opt name e.Tracer.args

let test_status_swapped =
  if_toolchain (fun () ->
      let analysis = Asim.load_string counter in
      let tracer = Tracer.create () in
      let m, status =
        Tiered.create_status ~config:quiet ~tracer ~cache_dir
          ~swap_at:(Tiered.At 3) analysis
      in
      Alcotest.(check string) "starts on flat" "flat" (status ()).Tiered.engine;
      Machine.run m ~cycles:8;
      (match (status ()).Tiered.state with
      | Tiered.Swapped 3 -> ()
      | s ->
          Alcotest.failf "expected swapped at 3, got %s"
            (Tiered.swap_state_to_string s));
      Alcotest.(check string) "now on native" "native" (status ()).Tiered.engine;
      Alcotest.(check int) "cycle count carried over" 8
        (m.Machine.current_cycle ());
      match swap_spans tracer with
      | [ e ] ->
          Alcotest.(check (option string)) "span cycle" (Some "3") (arg "cycle" e);
          Alcotest.(check (option string))
            "span outcome" (Some "swapped") (arg "outcome" e);
          (match arg "mode" e with
          | Some ("wait" | "ready") -> ()
          | m ->
              Alcotest.failf "span mode %S"
                (Option.value m ~default:"<missing>"))
      | spans -> Alcotest.failf "expected exactly one swap span, got %d"
                   (List.length spans))

let test_never_policy () =
  let analysis = Asim.load_string counter in
  let m, status =
    Tiered.create_status ~config:quiet ~cache_dir ~swap_at:Tiered.Never analysis
  in
  Machine.run m ~cycles:8;
  Alcotest.(check bool) "disabled" true ((status ()).Tiered.state = Tiered.Disabled);
  Alcotest.(check string) "stays on flat" "flat" (status ()).Tiered.engine;
  let flat = Asim.run_string ~config:quiet ~engine:`Flat counter in
  Alcotest.(check int) "same result as flat" (flat.Machine.read "count")
    (m.Machine.read "count")

let test_swap_past_end_stays_pending =
  if_toolchain (fun () ->
      (* A forced swap point beyond the run: the handoff never fires, the
         run completes on flat, and nothing blocks on the compile. *)
      let analysis = Asim.load_string counter in
      let m, status =
        Tiered.create_status ~config:quiet ~cache_dir ~swap_at:(Tiered.At 100)
          analysis
      in
      Machine.run m ~cycles:8;
      (match (status ()).Tiered.state with
      | Tiered.Pending | Tiered.Swapped _ -> ()
      (* Pending is the expected terminal state here; Swapped cannot
         actually occur with At 100 but the match keeps the assertion about
         what must NOT happen: Failed/Unavailable/Disabled. *)
      | s ->
          Alcotest.failf "unexpected state %s" (Tiered.swap_state_to_string s));
      Alcotest.(check string) "still on flat" "flat" (status ()).Tiered.engine)

(* The Auto policy defers the compile: a run shorter than
   [Tiered.auto_spawn_cycles] must never spawn the background domain (no
   compile span, state still Pending), and a run that crosses the
   threshold must eventually swap and keep flat's observables. *)
let test_auto_defers_then_swaps =
  if_toolchain (fun () ->
      let defer_spec = "#defer\n= 6\nr* n .\nA n 4 r 5\nM r 0 n 1 1\n.\n" in
      let analysis = Asim.load_string defer_spec in
      let artifact = Jit.artifact_path ~cache_dir analysis in
      if Sys.file_exists artifact then Sys.remove artifact;
      Jit.clear_memory_cache ();
      let tracer = Tracer.create () in
      let m, status =
        Tiered.create_status ~config:quiet ~tracer ~cache_dir
          ~swap_at:Tiered.Auto analysis
      in
      Machine.run m ~cycles:2048;
      Alcotest.(check bool) "short run stays pending" true
        ((status ()).Tiered.state = Tiered.Pending);
      Alcotest.(check int) "no compile span before the threshold" 0
        (List.length
           (List.filter
              (fun (e : Tracer.event) ->
                e.Tracer.name = "codegen.native.compile")
              (Tracer.events tracer)));
      (* Cross the threshold: the spawn fires, and within the deadline the
         compile lands and some later boundary swaps. *)
      Machine.run m ~cycles:Tiered.auto_spawn_cycles;
      let deadline = Unix.gettimeofday () +. 120.0 in
      let rec wait_for_swap () =
        match (status ()).Tiered.state with
        | Tiered.Swapped _ -> ()
        | Tiered.Pending when Unix.gettimeofday () < deadline ->
            Machine.run m ~cycles:1024;
            wait_for_swap ()
        | s ->
            Alcotest.failf "auto swap did not land: %s"
              (Tiered.swap_state_to_string s)
      in
      wait_for_swap ();
      Alcotest.(check string) "now on native" "native" (status ()).Tiered.engine;
      (* The swap cycle depends on compile timing, but the observable must
         not: replay the same cycle count flat-only. *)
      let total = m.Machine.current_cycle () in
      let flat = Asim.Flat.create ~config:quiet analysis in
      Machine.run flat ~cycles:total;
      Alcotest.(check int) "agrees with flat after the auto swap"
        (flat.Machine.read "r") (m.Machine.read "r"))

let test_policy_strings () =
  List.iter
    (fun (s, p) ->
      Alcotest.(check bool) ("parse " ^ s) true (Tiered.policy_of_string s = Some p))
    [ ("auto", Tiered.Auto); ("never", Tiered.Never); ("off", Tiered.Never);
      ("0", Tiered.At 0); ("42", Tiered.At 42) ];
  List.iter
    (fun s ->
      Alcotest.(check bool) ("reject " ^ s) true (Tiered.policy_of_string s = None))
    [ "-1"; "later"; "1.5"; "" ];
  List.iter
    (fun p ->
      Alcotest.(check bool) "round trip" true
        (Tiered.policy_of_string (Tiered.policy_to_string p) = Some p))
    [ Tiered.Auto; Tiered.Never; Tiered.At 7 ]

(* ------------------------------------------------------------------ *)
(* QCheck: swap timing is observably irrelevant                       *)
(* ------------------------------------------------------------------ *)

(* Random (spec index, swap cycle, halt cycle) triples: tiered under a
   forced swap must equal flat-only and native-only however the three
   numbers land — including swaps at 0, at the halt cycle, and far past it.
   The spec space is a fixed-seed slice of the fuzz generator's campaign
   (so QCheck shrinks over a small index domain and every counterexample is
   replayable as [Gen.spec_at ~seed:0x71e6 ~index]); the triple itself
   shrinks through QCheck's integer shrinkers. *)
let swap_equivalence_test =
  QCheck.Test.make ~name:"tiered = flat-only = native-only at random swap points"
    ~count:40
    QCheck.(triple (int_bound 7) (int_bound 30) (int_range 1 24))
    (fun (index, swap, halt) ->
      if not toolchain then true
      else begin
        let spec = Gen.(spec_at default_size) ~seed:0x71e6 ~index in
        match Oracle.check ~cycles:halt ~engines:(lineup (Tiered.At swap)) spec with
        | None -> true
        | Some d ->
            QCheck.Test.fail_reportf "spec %d, swap at %d, halt at %d: %s" index
              swap halt (Oracle.divergence_to_string d)
      end)

(* ------------------------------------------------------------------ *)
(* Concurrency: single-flight and crash isolation                     *)
(* ------------------------------------------------------------------ *)

(* A spec of its own so this test controls its cold-cache state. *)
let sflight_spec = "#sflight\n= 6\nr* n .\nA n 4 r 3\nM r 0 n 1 1\n.\n"

let test_single_flight =
  if_toolchain (fun () ->
      (* Four workers race tiered machines on the same cold spec, each
         forcing the swap at cycle 0 (so each blocks until the compile is
         decided).  The single-flight locks must run the out-of-process
         compiler exactly once, and everyone must finish with the flat
         kernel's answer. *)
      let analysis = Asim.load_string sflight_spec in
      let artifact = Jit.artifact_path ~cache_dir analysis in
      if Sys.file_exists artifact then Sys.remove artifact;
      Jit.clear_memory_cache ();
      let tracers = List.init 4 (fun _ -> Tracer.create ()) in
      let workers =
        List.map
          (fun tracer ->
            Domain.spawn (fun () ->
                let m =
                  Tiered.create ~config:quiet ~tracer ~cache_dir
                    ~swap_at:(Tiered.At 0) analysis
                in
                Machine.run m ~cycles:6;
                m.Machine.read "r"))
          tracers
      in
      let results = List.map Domain.join workers in
      let flat = Asim.run_string ~config:quiet ~engine:`Flat sflight_spec in
      List.iter
        (fun r ->
          Alcotest.(check int) "worker agrees with flat" (flat.Machine.read "r") r)
        results;
      let misses =
        List.concat_map
          (fun tracer ->
            List.filter_map
              (fun (e : Tracer.event) ->
                if e.Tracer.name = "codegen.native.compile" then
                  match arg "cache" e with Some "miss" -> Some () | _ -> None
                else None)
              (Tracer.events tracer))
          tracers
      in
      Alcotest.(check int) "exactly one compile across four workers" 1
        (List.length misses))

(* A spec this process has never compiled, so the batch crash-isolation
   test below really exercises a failing background compile. *)
let crash_spec = "#crashy\n= 6\nr* n .\nA n 4 r 7\nM r 0 n 1 1\n.\n"

(* [n] jobs of [spec] on [engine] through a [jobs]-wide pool sharing one
   runner, as the worker domains of [asim batch] share one; the result
   lines come back in job order.  The jobs are built as values because a
   forced swap point is an engine setting the JSON protocol does not
   carry. *)
let batch_drive ~jobs ~engine n spec =
  let t = Runner.create () in
  let job =
    { Proto.id = None; trace_id = None; source = Proto.Inline spec; engine;
      opt = None; cycles = None; inputs = []; want = [ Proto.Outputs ];
      timeout_s = None }
  in
  let out = ref [] in
  let pool =
    Asim_batch.Pool.create ~jobs
      ~on_crash:(fun _ e -> "crashed: " ^ Printexc.to_string e)
      ~emit:(fun _ line -> out := line :: !out)
  in
  for _ = 1 to n do
    Asim_batch.Pool.submit pool (fun index ->
        Asim_batch.Json.to_string
          (Proto.result_to_json ~index (Runner.run_job t job)))
  done;
  let count = Asim_batch.Pool.finish pool in
  (count, List.rev !out)

let test_batch_crash_isolation () =
  (* The background compile fails mid-batch (the artifact cache points
     inside /dev/null, so mkdir traps).  Every tiered job must still
     complete on the flat kernel — no deadlock, no dead worker — and render
     the same results as flat-engine jobs. *)
  Jit.clear_memory_cache ();
  with_env "ASIM_JIT_CACHE_DIR" "/dev/null/nowhere" (fun () ->
      let n, tiered_out =
        batch_drive ~jobs:2 ~engine:(`Tiered (Tiered.At 2)) 4 crash_spec
      in
      Alcotest.(check int) "all jobs completed" 4 n;
      List.iter
        (fun line ->
          Alcotest.(check bool) "job ok" true
            (let needle = {|"status":"ok"|} in
             let nl = String.length needle and hl = String.length line in
             let rec go i =
               i + nl <= hl && (String.sub line i nl = needle || go (i + 1))
             in
             go 0))
        tiered_out;
      (* Strip per-line indices aside: tiered-under-failure must render
         exactly what the flat engine renders. *)
      let _, flat_out = batch_drive ~jobs:2 ~engine:`Flat 4 crash_spec in
      Alcotest.(check (list string)) "identical to flat results" flat_out
        tiered_out)

let test_batch_jobs_no_double_compile =
  if_toolchain (fun () ->
      (* Tiered under a parallel batch: same spec, forced cycle-0 swap,
         four workers.  Must terminate, agree with jobs=1, and leave a
         single artifact behind. *)
      let engine = `Tiered (Tiered.At 0) in
      let n1, seq = batch_drive ~jobs:1 ~engine 8 sflight_spec in
      let n4, par = batch_drive ~jobs:4 ~engine 8 sflight_spec in
      Alcotest.(check int) "sequential count" 8 n1;
      Alcotest.(check int) "parallel count" 8 n4;
      Alcotest.(check (list string)) "byte-identical results" seq par)

let () =
  Alcotest.run "tiered"
    [
      ( "swap points",
        [
          Alcotest.test_case "counter at adversarial cycles" `Quick
            test_swap_points_counter;
          Alcotest.test_case "stackm-sieve at adversarial cycles" `Slow
            test_swap_points_sieve;
          Alcotest.test_case "tinyc-demo at adversarial cycles" `Slow
            test_swap_points_tinyc;
          Alcotest.test_case "generated specs at adversarial cycles" `Slow
            test_swap_points_generated;
          Alcotest.test_case "swap between I/O events" `Slow test_swap_mid_io;
          Alcotest.test_case "auto policy on the examples" `Slow
            test_auto_policy_examples;
          Alcotest.test_case "fault window straddles the swap" `Quick
            test_fault_across_swap;
          Alcotest.test_case "planted skew is caught" `Quick test_skew_is_caught;
        ] );
      ( "status and policy",
        [
          Alcotest.test_case "status and span after a forced swap" `Quick
            test_status_swapped;
          Alcotest.test_case "never policy stays on flat" `Quick test_never_policy;
          Alcotest.test_case "swap point past the end" `Quick
            test_swap_past_end_stays_pending;
          Alcotest.test_case "auto defers the compile, then swaps" `Slow
            test_auto_defers_then_swaps;
          Alcotest.test_case "policy strings" `Quick test_policy_strings;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest swap_equivalence_test ] );
      ( "concurrency",
        [
          Alcotest.test_case "single flight across domains" `Quick
            test_single_flight;
          Alcotest.test_case "compile failure mid-batch" `Quick
            test_batch_crash_isolation;
          Alcotest.test_case "parallel batch determinism" `Quick
            test_batch_jobs_no_double_compile;
        ] );
    ]
