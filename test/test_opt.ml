(* The optimizing middle-end: every pass (and every pass prefix) must
   preserve observables — traces, I/O, cells, stats, errors, and the
   per-cycle values of everything DCE did not prove dead — across engines,
   opt levels, fault plans and generated specs.  The planted ASIM_OPT_SKEW
   miscompile must be caught. *)

open Asim
module Opt = Asim_opt.Opt
module Gen = Asim_fuzz.Gen
module Oracle = Asim_fuzz.Oracle

let with_env var value f =
  let old = Sys.getenv_opt var in
  Unix.putenv var value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv var (Option.value old ~default:""))
    f

let par = Option.get (Asim.engine_of_string "par")

(* Observe one engine over [spec]: per-cycle snapshots of every component
   (dead names masked to a fixed marker), the trace stream, I/O events,
   final cells, statistics and any runtime error. *)
type obs = {
  snaps : (string * int) list list;
  trace : string;
  events : Io.event list;
  cells : (string * int list) list;
  accesses : int;
  error : string option;
}

let observe ?(faults = []) ?(cycles = 20) ~engine ~dead analysis' (spec : Spec.t) =
  let buf = Buffer.create 256 in
  let io, events = Io.recording ~feed:[ 3; 1; 4; 1; 5; 9; 2; 6 ] () in
  let config = { Machine.io; trace = Trace.buffer_sink buf; faults } in
  let m = Asim.machine ~config ~engine analysis' in
  let masked = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace masked n ()) dead;
  let names = List.map (fun (c : Component.t) -> c.name) spec.Spec.components in
  let snaps = ref [] in
  let error = ref None in
  (try
     for _ = 1 to cycles do
       Machine.run m ~cycles:1;
       snaps :=
         List.map
           (fun n -> (n, if Hashtbl.mem masked n then 0 else m.Machine.read n))
           names
         :: !snaps
     done
   with Error.Error { phase = Error.Runtime; message; _ } -> error := Some message);
  let cells =
    List.filter_map
      (fun (c : Component.t) ->
        match c.kind with
        | Component.Memory { cells; _ } ->
            Some (c.name, List.init cells (fun i -> m.Machine.read_cell c.name i))
        | _ -> None)
      spec.Spec.components
  in
  {
    snaps = List.rev !snaps;
    trace = Buffer.contents buf;
    events = events ();
    cells;
    accesses = Stats.total_accesses m.Machine.stats;
    error = !error;
  }

let gen_spec ~wide ~seed ~index =
  Gen.spec_at { Gen.default_size with Gen.wide } ~seed ~index

(* Reference: interpreter over the raw analysis.  Candidate: [engine] over
   the pass-optimized analysis.  Dead components are masked on both
   sides. *)
let observations ?(faults = []) ~passes ~engine spec =
  let analysis = Analysis.analyze spec in
  let keep = Fault.targets faults in
  let r = Opt.run_result ~passes ~keep analysis in
  let reference =
    observe ~faults ~engine:`Interp ~dead:r.Opt.dead analysis spec
  in
  let candidate = observe ~faults ~engine ~dead:r.Opt.dead r.Opt.analysis spec in
  (reference, candidate)

let check_equiv ?faults ~passes ~engine spec =
  let reference, candidate = observations ?faults ~passes ~engine spec in
  if reference <> candidate then
    Alcotest.failf "divergence (%s, passes [%s]):\nref trace:\n%s\nopt trace:\n%s\nerrors: %s vs %s"
      (Asim.engine_to_string engine)
      (String.concat "," (List.map Opt.pass_to_string passes))
      reference.trace candidate.trace
      (Option.value ~default:"-" reference.error)
      (Option.value ~default:"-" candidate.error)

let pass_prefixes =
  [
    [ Opt.Constprop ];
    [ Opt.Constprop; Opt.Fuse ];
    [ Opt.Constprop; Opt.Fuse; Opt.Narrow ];
    [ Opt.Constprop; Opt.Fuse; Opt.Narrow; Opt.Cse ];
    [ Opt.Constprop; Opt.Fuse; Opt.Narrow; Opt.Cse; Opt.Dce ];
    Opt.all_passes;
    (* each pass alone, too *)
    [ Opt.Fuse ];
    [ Opt.Narrow ];
    [ Opt.Cse ];
    [ Opt.Dce ];
    [ Opt.Schedule ];
  ]

let test_per_pass_equivalence () =
  for seed = 1 to 3 do
    for index = 0 to 11 do
      let wide = index mod 2 = 1 in
      let spec = gen_spec ~wide ~seed ~index in
      List.iter
        (fun passes ->
          check_equiv ~passes ~engine:`Flat spec;
          check_equiv ~passes ~engine:`Compiled spec)
        pass_prefixes
    done
  done

let test_equivalence_examples () =
  List.iter
    (fun source ->
      let spec = Parser.parse_string source in
      List.iter
        (fun passes ->
          check_equiv ~passes ~engine:`Flat spec;
          check_equiv ~passes ~engine:par spec)
        [ Opt.all_passes; [ Opt.Constprop; Opt.Fuse; Opt.Narrow ] ])
    [ Specs.counter; Specs.traffic_light; Specs.divider ]

let test_structured_specs () =
  let mesh = Gen.mesh ~cycles:12 ~width:6 ~height:5 ~seed:3 () in
  let pipe = Gen.pipeline ~cycles:12 ~cores:5 ~depth:6 ~seed:3 () in
  List.iter
    (fun spec ->
      check_equiv ~passes:Opt.all_passes ~engine:`Flat spec;
      check_equiv ~passes:Opt.all_passes ~engine:par spec)
    [ mesh; pipe ]

(* Fault plans force kept (and width-untrusted) components: observables
   must survive optimization with the targets perturbed mid-run. *)
let test_faults_preserved () =
  for seed = 1 to 2 do
    for index = 0 to 5 do
      let spec = gen_spec ~wide:false ~seed ~index in
      let target =
        match spec.Spec.components with
        | c :: _ -> c.Component.name
        | [] -> assert false
      in
      let faults =
        [
          Fault.flip_bit ~first_cycle:3 ~last_cycle:9 target 2;
          Fault.stuck_at ~first_cycle:11 target 5;
        ]
      in
      check_equiv ~faults ~passes:Opt.all_passes ~engine:`Flat spec
    done
  done

(* DCE must never stub observable state: every traced component, fault
   target and memory input survives verbatim value-wise (checked by
   equivalence above); here we check the dead report is disjoint from the
   roots. *)
let test_dce_respects_roots () =
  for index = 0 to 9 do
    let spec = gen_spec ~wide:false ~seed:7 ~index in
    let analysis = Analysis.analyze spec in
    let keep = [ (List.hd spec.Spec.components).Component.name ] in
    let r = Opt.run_result ~level:Opt.O2 ~keep analysis in
    let traced = Spec.traced_names spec in
    List.iter
      (fun d ->
        if List.mem d traced then Alcotest.failf "DCE stubbed traced %s" d;
        if List.mem d keep then Alcotest.failf "DCE stubbed kept %s" d)
      r.Opt.dead
  done

(* Width narrowing is idempotent: a second run over an already-narrowed
   spec changes nothing. *)
let test_narrow_idempotent () =
  for index = 0 to 9 do
    let spec = gen_spec ~wide:(index mod 2 = 0) ~seed:5 ~index in
    let analysis = Analysis.analyze spec in
    let once = Opt.run ~passes:[ Opt.Narrow ] analysis in
    let twice = Opt.run ~passes:[ Opt.Narrow ] once in
    Alcotest.(check string)
      "narrow fixpoint" (Pretty.spec once.Analysis.spec)
      (Pretty.spec twice.Analysis.spec)
  done

(* O0 is the identity. *)
let test_o0_identity () =
  let spec = gen_spec ~wide:true ~seed:2 ~index:4 in
  let analysis = Analysis.analyze spec in
  let r = Opt.run_result ~level:Opt.O0 analysis in
  Alcotest.(check bool) "same analysis" true (r.Opt.analysis == analysis);
  Alcotest.(check (list string)) "no dead" [] r.Opt.dead

(* The planted miscompile: with ASIM_OPT_SKEW=1 and CSE active, a
   multi-component spec must diverge from the reference (the deliberate
   stale-read across the evaluation-order boundary), and without the env
   the very same spec must agree.  [Gen.pipeline] chains combinational
   stages, so the reversed order is guaranteed to read stale values. *)
let test_skew_must_fail () =
  let spec = Gen.pipeline ~cycles:12 ~cores:3 ~depth:5 ~seed:1 () in
  check_equiv ~passes:Opt.all_passes ~engine:`Flat spec;
  with_env Opt.skew_env_var "1" (fun () ->
      let reference, candidate =
        observations ~passes:Opt.all_passes ~engine:`Flat spec
      in
      if reference = candidate then
        Alcotest.fail
          "ASIM_OPT_SKEW=1 was not observable — dead must-fail harness")

(* The skew rides the oracle too (the CI must-fail path). *)
let test_skew_oracle () =
  let spec = Gen.pipeline ~cycles:10 ~cores:2 ~depth:4 ~seed:2 () in
  (match Oracle.check ~opt:Opt.O2 ~engines:[ `Interp; `Flat ] spec with
  | None -> ()
  | Some d ->
      Alcotest.failf "unexpected divergence without skew: %s"
        (Oracle.divergence_to_string d));
  with_env Opt.skew_env_var "1" (fun () ->
      match
        Oracle.check ~opt:Opt.O2 ~engines:[ `Interp; `Flat ] spec
      with
      | Some _ -> ()
      | None -> Alcotest.fail "oracle missed the planted skew")

(* The optimizer actually does something on the structured workloads: the
   flat program shrinks at O2 (honest floor: strictly smaller). *)
let test_optimizer_wins () =
  let spec = Gen.mesh ~cycles:8 ~width:12 ~height:8 ~seed:1 () in
  let analysis = Analysis.analyze spec in
  let raw = Flat.program_size analysis in
  let opt = Flat.program_size (Opt.run ~level:Opt.O2 analysis) in
  if opt >= raw then
    Alcotest.failf "O2 did not shrink the flat program (%d -> %d words)" raw opt

let () =
  Alcotest.run "opt"
    [
      ( "equivalence",
        [
          Alcotest.test_case "per-pass generated specs" `Quick
            test_per_pass_equivalence;
          Alcotest.test_case "examples" `Quick test_equivalence_examples;
          Alcotest.test_case "structured specs" `Quick test_structured_specs;
          Alcotest.test_case "fault plans" `Quick test_faults_preserved;
        ] );
      ( "passes",
        [
          Alcotest.test_case "dce respects roots" `Quick test_dce_respects_roots;
          Alcotest.test_case "narrow idempotent" `Quick test_narrow_idempotent;
          Alcotest.test_case "O0 identity" `Quick test_o0_identity;
          Alcotest.test_case "optimizer wins" `Quick test_optimizer_wins;
        ] );
      ( "honesty",
        [
          Alcotest.test_case "skew must-fail" `Quick test_skew_must_fail;
          Alcotest.test_case "skew oracle" `Quick test_skew_oracle;
        ] );
    ]
