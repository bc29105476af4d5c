(* The simulated-machine profiler: cross-engine count identity, the
   activity-schedule accounting invariant, memory counters against the
   engine statistics, the report surfaces, and the profiled hot path's
   allocation discipline. *)

open Asim

let quiet = Machine.quiet_config

let sieve_analysis () =
  Analysis.analyze
    (Asim_stackm.Microcode.spec ~program:Asim_stackm.Demos.sieve_reassembled ())

let cycles = Asim_stackm.Programs.sieve_cycles

(* Build a machine with a fresh profile attached, run the sieve to
   completion, finalize, and hand back both. *)
let profiled build =
  let analysis = sieve_analysis () in
  let prof = Prof.create analysis in
  let m = build prof analysis in
  Machine.run m ~cycles;
  Prof.finalize prof;
  (prof, m)

(* The acceptance identity: the closure compiler, like the interpreter,
   evaluates every combinational component exactly once per cycle, so its
   per-slot evaluation counts must equal an independent interpreter recount
   of the same run.  The memory traffic depends on no schedule, so the flat
   kernel's must agree too, since the simulations are semantically
   identical. *)
let test_cross_engine_identity () =
  let interp, _ = profiled (fun prof a -> Interp.create ~config:quiet ~prof a) in
  let compiled, _ =
    profiled (fun prof a -> Compile.create ~config:quiet ~prof a)
  in
  let flat, _ = profiled (fun prof a -> Flat.create ~config:quiet ~prof a) in
  Alcotest.(check (array int))
    "compiled evals == interp recount" interp.Prof.evals compiled.Prof.evals;
  Alcotest.(check (array int)) "reads agree" interp.Prof.reads flat.Prof.reads;
  Alcotest.(check (array int))
    "writes agree" interp.Prof.writes flat.Prof.writes;
  Alcotest.(check int) "cycles recorded" cycles flat.Prof.cycles;
  (* and the run did real work: some component evaluated every cycle *)
  Alcotest.(check bool) "hot component exists" true
    (Array.exists (fun n -> n = cycles) flat.Prof.evals)

(* Under activity scheduling every combinational slot is considered
   exactly once per cycle — evaluated or skipped — so evals + skips must
   equal the cycle count, and the schedule must actually skip something
   on this workload (the flat kernel's whole premise). *)
let test_activity_accounting () =
  let prof, _ =
    profiled (fun prof a -> Flat.create ~config:quiet ~prof a)
  in
  Array.iteri
    (fun slot kind ->
      if kind <> 'M' then
        Alcotest.(check int)
          (Printf.sprintf "evals+skips=cycles for %s" prof.Prof.names.(slot))
          cycles
          (prof.Prof.evals.(slot) + prof.Prof.skips.(slot)))
    prof.Prof.kinds;
  Alcotest.(check bool) "something was skipped" true
    (Array.exists (fun s -> s > 0) prof.Prof.skips)

(* The per-memory counters are copied from the engine's Stats at finalize
   time; both views of the same run must agree exactly. *)
let test_memory_counters_match_stats () =
  let prof, m =
    profiled (fun prof a -> Flat.create ~config:quiet ~prof a)
  in
  let some_traffic = ref false in
  Array.iteri
    (fun slot kind ->
      if kind = 'M' then begin
        let name = prof.Prof.names.(slot) in
        let c = Stats.memory m.Machine.stats name in
        Alcotest.(check int) (name ^ " reads") c.Stats.reads
          prof.Prof.reads.(slot);
        Alcotest.(check int) (name ^ " writes") c.Stats.writes
          prof.Prof.writes.(slot);
        Alcotest.(check int) (name ^ " inputs") c.Stats.inputs
          prof.Prof.inputs.(slot);
        Alcotest.(check int) (name ^ " outputs") c.Stats.outputs
          prof.Prof.outputs.(slot);
        if c.Stats.reads + c.Stats.writes > 0 then some_traffic := true
      end)
    prof.Prof.kinds;
  Alcotest.(check bool) "the sieve touches memory" true !some_traffic

(* Report surfaces: the human report names the hottest component, the
   flame stacks parse as [frames count] lines, the registry export grows
   asim_prof_* families, the JSON document carries one object per
   component, and the sampled cycle profiler emits spans. *)
let test_report_surfaces () =
  let prof, _ =
    profiled (fun prof a -> Flat.create ~config:quiet ~prof a)
  in
  let report = Prof.report prof in
  Alcotest.(check bool) "report has header" true
    (String.length report > 0
    && String.sub report 0 8 = "profile:");
  (match Prof.hot ~top:1 prof with
  | [ hottest ] ->
      let contains needle hay =
        let n = String.length needle and h = String.length hay in
        let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool)
        ("report names " ^ hottest.Prof.r_name)
        true
        (contains hottest.Prof.r_name report)
  | rows -> Alcotest.failf "hot ~top:1 returned %d rows" (List.length rows));
  let flame = Prof.to_flame prof in
  String.split_on_char '\n' flame
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         match String.rindex_opt line ' ' with
         | None -> Alcotest.failf "flame line without count: %S" line
         | Some i -> (
             let count = String.sub line (i + 1) (String.length line - i - 1) in
             match int_of_string_opt count with
             | Some n when n >= 0 -> ()
             | _ -> Alcotest.failf "flame count not a number: %S" line));
  let reg = Asim_obs.Registry.create () in
  Prof.export prof ~spec:"testspec" reg;
  let text = Asim_obs.Registry.to_prometheus reg in
  Alcotest.(check bool) "asim_prof_* exported" true
    (let needle = "asim_prof_" in
     let n = String.length needle and h = String.length text in
     let rec at i = i + n <= h && (String.sub text i n = needle || at (i + 1)) in
     at 0);
  let json = Asim_batch.Runner.prof_to_json prof in
  (match Asim_batch.Json.member "components" json with
  | Some comps -> (
      match Asim_batch.Json.to_list comps with
      | Some l ->
          Alcotest.(check int) "one JSON object per component"
            (Array.length prof.Prof.names)
            (List.length l)
      | None -> Alcotest.fail "components is not a list")
  | None -> Alcotest.fail "profile JSON lacks components");
  (match Asim_batch.Json.(Option.bind (member "engine" json) to_string_opt) with
  | Some e -> Alcotest.(check string) "engine label" "flat" e
  | None -> Alcotest.fail "profile JSON lacks engine");
  let tr = Asim_obs.Tracer.create () in
  Prof.emit_spans prof tr;
  Alcotest.(check bool) "sampled spans emitted" true
    (Asim_obs.Tracer.event_count tr > 0
    && prof.Prof.sampled_cycles > 0)

(* Supernode scans are an exact work count.  A chain fed by a constant
   settles on the first cycle, so each of its four supernodes is scanned
   once; a chain fed by the counter register changes end to end every
   cycle, so every supernode is scanned every cycle.  An engine without
   supernodes reports none.  Every 7th cycle takes the sampled level-major
   loop, which must count the same. *)
let test_supernode_scans () =
  let cycles = 50 in
  let run engine analysis =
    let prof = Prof.create ~sample_every:7 analysis in
    let m = Asim.profiled ~config:quiet ~engine prof analysis in
    Machine.run m ~cycles;
    prof
  in
  let check what (prof : Prof.t) ~supernodes ~scans =
    Alcotest.(check int) (what ^ ": supernodes") supernodes prof.Prof.supernodes;
    Alcotest.(check int) (what ^ ": scans") scans prof.Prof.supernode_scans
  in
  let constant = Supernode_designs.chain_spec 400
  and counting = Supernode_designs.counting_chain 400 in
  check "constant chain" (run `Flat constant) ~supernodes:4 ~scans:4;
  check "counting chain" (run `Flat counting) ~supernodes:4 ~scans:(4 * cycles);
  check "interpreter" (run `Interp counting) ~supernodes:0 ~scans:0;
  let json = Asim_batch.Runner.prof_to_json (run `Flat constant) in
  List.iter
    (fun (field, expected) ->
      Alcotest.(check (option int)) ("JSON " ^ field) (Some expected)
        Asim_batch.Json.(Option.bind (member field json) to_int))
    [ ("supernodes", 4); ("supernode_scans", 4) ]

(* The instrumented hot path is one int-array increment per evaluation:
   off the sampled cycles it must allocate nothing beyond test_flat's
   fixed allowance (a sampling period longer than the loop keeps the
   clock reads out of the window). *)
let test_profiled_step_zero_alloc () =
  let analysis = sieve_analysis () in
  let prof = Prof.create ~sample_every:1_000_000 analysis in
  let m = Flat.create ~config:quiet ~prof analysis in
  Machine.run m ~cycles:64;
  let before = Gc.minor_words () in
  for _ = 1 to 2000 do
    m.Machine.step ()
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256.0 then
    Alcotest.failf "profiled flat step allocated %.0f minor words over 2000 cycles"
      delta

(* A profiled native or par machine does not type-check ([Asim.profiled]
   takes counting engines only; test_cli covers the run-time refusal of
   [-e native --profile]).  Every counting engine builds its own
   instrumented machine: the profile names the engine that ran by its -e
   name and counts every cycle. *)
let test_engine_dispatch () =
  let analysis = sieve_analysis () in
  List.iter
    (fun engine ->
      let prof = Prof.create analysis in
      let m = Asim.profiled ~config:quiet ~engine prof analysis in
      Machine.run m ~cycles:100;
      Prof.finalize prof;
      let name = Asim.engine_to_string engine in
      Alcotest.(check string) (name ^ " names itself") name prof.Prof.engine;
      Alcotest.(check int) (name ^ " counted its cycles") 100 prof.Prof.cycles)
    [ `Interp; `Compiled; `Flat ]

let () =
  Alcotest.run "prof"
    [
      ( "counters",
        [
          Alcotest.test_case "cross-engine identity" `Quick
            test_cross_engine_identity;
          Alcotest.test_case "activity accounting" `Quick
            test_activity_accounting;
          Alcotest.test_case "memory counters match stats" `Quick
            test_memory_counters_match_stats;
          Alcotest.test_case "supernode scans" `Quick test_supernode_scans;
        ] );
      ( "reports",
        [ Alcotest.test_case "report surfaces" `Quick test_report_surfaces ] );
      ( "discipline",
        [
          Alcotest.test_case "profiled step zero-alloc" `Quick
            test_profiled_step_zero_alloc;
          Alcotest.test_case "engine dispatch" `Quick test_engine_dispatch;
        ] );
    ]
