(* Tests specific to the partitioned engine ([Asim_par.Par]): the
   sense-reversing barrier and batched mailbox in isolation, cycle-for-cycle
   equivalence of the BSP wave against the flat kernel under random and
   structured partition assignments, the sequential error-replay contract,
   the ASIM_PAR_SKEW must-fail (a planted lost update the barrier + mailbox
   discipline exists to prevent), the par@1 zero-allocation ablation, and
   partitioner/generator determinism.  The generic five-engine matrix lives
   in test_equiv.ml via [Oracle.all]. *)

module Machine = Asim.Machine
module Par = Asim.Par
module Flat = Asim.Flat
module Barrier = Asim_par.Barrier
module Mailbox = Asim_par.Mailbox
module Gen = Asim_fuzz.Gen
module Oracle = Asim_fuzz.Oracle

let quiet = Machine.quiet_config

let with_env var value f =
  let old = Sys.getenv_opt var in
  Unix.putenv var value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv var (Option.value old ~default:""))
    f

(* ------------------------------------------------------------------ *)
(* Barrier                                                            *)
(* ------------------------------------------------------------------ *)

let test_barrier_single_party () =
  let b = Barrier.create 1 in
  Alcotest.(check int) "parties" 1 (Barrier.parties b);
  let h = Barrier.handle b in
  (* with one party every wait returns immediately, any number of times *)
  for _ = 1 to 100 do
    Barrier.wait h
  done

let test_barrier_rejects_zero () =
  match Barrier.create 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Barrier.create 0 should raise"

(* Many rounds over one barrier object: between two waits of the same round
   every party must observe all [n] increments of that round — this fails
   if the sense ever stops reversing or a party slips a round ahead. *)
let test_barrier_rounds () =
  let n = 3 and rounds = 200 in
  let b = Barrier.create n in
  let count = Atomic.make 0 in
  let failures = Atomic.make 0 in
  let party () =
    let h = Barrier.handle b in
    for round = 1 to rounds do
      Atomic.incr count;
      Barrier.wait h;
      if Atomic.get count <> n * round then Atomic.incr failures;
      (* second barrier: nobody starts round [r+1]'s increment before
         everyone has checked round [r] *)
      Barrier.wait h
    done
  in
  let workers = List.init (n - 1) (fun _ -> Domain.spawn party) in
  party ();
  List.iter Domain.join workers;
  Alcotest.(check int) "all rounds saw all parties" 0 (Atomic.get failures)

(* ------------------------------------------------------------------ *)
(* Mailbox                                                            *)
(* ------------------------------------------------------------------ *)

let test_mailbox_post_import () =
  let mb = Mailbox.create 8 in
  Alcotest.(check int) "length" 8 (Mailbox.length mb);
  let src = Array.init 8 (fun i -> 100 + i) in
  let slots = [| 1; 3; 5 |] in
  Mailbox.post mb ~src ~slots ~lo:0 ~hi:3;
  List.iter
    (fun s -> Alcotest.(check int) (Printf.sprintf "slot %d posted" s) (100 + s) (Mailbox.get mb s))
    [ 1; 3; 5 ];
  Alcotest.(check int) "unposted slot untouched" 0 (Mailbox.get mb 2);
  (* import into a dst that already holds slot 3's value: [changed] must
     fire for 1 and 5 only — the activity rule across partitions *)
  let dst = Array.make 8 0 in
  dst.(3) <- 103;
  let woken = ref [] in
  Mailbox.import mb ~dst ~slots ~lo:0 ~hi:3 ~changed:(fun s -> woken := s :: !woken);
  Alcotest.(check (list int)) "only real changes wake" [ 1; 5 ] (List.sort compare !woken);
  List.iter
    (fun s -> Alcotest.(check int) (Printf.sprintf "slot %d imported" s) (100 + s) dst.(s))
    [ 1; 3; 5 ]

let test_mailbox_window () =
  let mb = Mailbox.create 4 in
  let src = [| 7; 8; 9; 10 |] in
  let slots = [| 0; 1; 2; 3 |] in
  (* only the lo..hi-1 window of the slot list moves *)
  Mailbox.post mb ~src ~slots ~lo:1 ~hi:3;
  Alcotest.(check int) "below window" 0 (Mailbox.get mb 0);
  Alcotest.(check int) "in window" 8 (Mailbox.get mb 1);
  Alcotest.(check int) "in window" 9 (Mailbox.get mb 2);
  Alcotest.(check int) "above window" 0 (Mailbox.get mb 3);
  Mailbox.set mb 0 42;
  Alcotest.(check int) "set/get" 42 (Mailbox.get mb 0)

(* ------------------------------------------------------------------ *)
(* Flat-vs-par observation harness                                    *)
(* ------------------------------------------------------------------ *)

(* Everything the oracle treats as observable, recorded per machine so par
   variants with explicit [~domains]/[~assign] (which [Oracle.observe]
   cannot express) compare against flat with [=]. *)
type obs = {
  snapshots : (string * int) list array;
  trace : string;
  events : Asim.Io.event list;
  cells : (string * int list) list;
  outputs : (string * int) list;
  total_accesses : int;
  error : string option;
}

let observe_with build ?cycles (spec : Asim.Spec.t) =
  let cycles =
    match cycles with
    | Some n -> n
    | None -> Option.value spec.Asim.Spec.cycles ~default:20
  in
  let analysis = Asim.Analysis.analyze spec in
  let buf = Buffer.create 512 in
  let io, events = Asim.Io.recording ~feed:Oracle.default_feed () in
  let config = { Machine.io; trace = Asim.Trace.buffer_sink buf; faults = [] } in
  let m = build ~config analysis in
  let names =
    List.map (fun (c : Asim.Component.t) -> c.Asim.Component.name)
      spec.Asim.Spec.components
  in
  let snaps = ref [] in
  let error = ref None in
  (try
     for _ = 1 to cycles do
       m.Machine.step ();
       snaps := List.map (fun n -> (n, m.Machine.read n)) names :: !snaps
     done
   with Asim.Error.Error { phase = Asim.Error.Runtime; message; _ } ->
     error := Some message);
  let cells =
    List.filter_map
      (fun (c : Asim.Component.t) ->
        match c.Asim.Component.kind with
        | Asim.Component.Memory { cells; _ } ->
            Some
              ( c.Asim.Component.name,
                List.init cells (fun i -> m.Machine.read_cell c.Asim.Component.name i) )
        | _ -> None)
      spec.Asim.Spec.components
  in
  {
    snapshots = Array.of_list (List.rev !snaps);
    trace = Buffer.contents buf;
    events = events ();
    cells;
    outputs = List.map (fun n -> (n, m.Machine.read n)) names;
    total_accesses = Asim.Stats.total_accesses m.Machine.stats;
    error = !error;
  }

let observe_flat = observe_with (fun ~config a -> Flat.create ~config a)

let observe_par ?domains ?assign =
  observe_with (fun ~config a -> Par.create ~config ?domains ?assign a)

let ncomb (spec : Asim.Spec.t) =
  List.length
    (List.filter
       (fun c -> not (Asim.Component.is_memory c))
       spec.Asim.Spec.components)

(* ------------------------------------------------------------------ *)
(* Equivalence under random partition assignments                     *)
(* ------------------------------------------------------------------ *)

(* The partitioner's placement must never matter: any assignment of
   components to any number of domains yields the flat observation.  The
   random assignment drives the cross-partition import machinery much
   harder than the cost-balanced partitioner would. *)
let arbitrary_spec_and_assign =
  let gen st =
    let spec = Gen.spec Gen.default_size st in
    let assign = Array.init (ncomb spec) (fun _ -> Random.State.int st 4) in
    (spec, assign)
  in
  let print (spec, assign) =
    Printf.sprintf "%s\nassign: [%s]" (Asim.Pretty.spec spec)
      (String.concat ";" (Array.to_list (Array.map string_of_int assign)))
  in
  QCheck.make ~print gen

let random_assign_test =
  QCheck.Test.make ~name:"par matches flat under random assignments" ~count:60
    arbitrary_spec_and_assign (fun (spec, assign) ->
      let reference = observe_flat spec in
      List.for_all
        (fun domains ->
          let got = observe_par ~domains ~assign spec in
          got = reference
          || QCheck.Test.fail_reportf "par@%d diverges from flat" domains)
        [ 1; 2; 3; 4 ])

(* ------------------------------------------------------------------ *)
(* Equivalence on the structured genspec workloads                    *)
(* ------------------------------------------------------------------ *)

let test_structured_lockstep () =
  List.iter
    (fun (name, spec) ->
      let reference = observe_flat ~cycles:50 spec in
      Alcotest.(check bool) (name ^ " ran error-free") true (reference.error = None);
      List.iter
        (fun domains ->
          if observe_par ~domains ~cycles:50 spec <> reference then
            Alcotest.failf "%s: par@%d diverges from flat" name domains)
        [ 1; 2; 4 ])
    [
      ("pipeline", Gen.pipeline ~cores:6 ~depth:4 ~seed:3 ());
      ("mesh", Gen.mesh ~width:5 ~height:4 ~seed:3 ());
    ]

(* ------------------------------------------------------------------ *)
(* Runtime-error replay                                               *)
(* ------------------------------------------------------------------ *)

(* inc = m + 1 crosses a partition boundary into a two-case selector, and
   walks out of range on the second cycle.  The par machine must discard
   the wave, replay the cycle sequentially, and raise exactly the flat
   error with exactly the flat partial state; re-stepping re-raises. *)
let trap_spec =
  Asim.Parser.parse_string
    "#parerr\n= 8\ninc sel m .\nA inc 4 m 1\nS sel inc 5 6\nM m 0 inc 1 1\n.\n"

let runtime_error m =
  match m.Machine.step () with
  | () -> None
  | exception Asim.Error.Error { phase = Asim.Error.Runtime; message; _ } ->
      Some message

let test_error_replay () =
  let analysis = Asim.Analysis.analyze trap_spec in
  let flat = Flat.create ~config:quiet analysis in
  (* split the two combinational components across partitions so the
     failing selector's input arrives through the mailbox *)
  let par = Par.create ~config:quiet ~domains:2 ~assign:[| 0; 1 |] analysis in
  List.iter (fun m -> m.Machine.step ()) [ flat; par ];
  let flat_err = runtime_error flat and par_err = runtime_error par in
  if flat_err = None then Alcotest.fail "trap spec did not trap on flat";
  Alcotest.(check (option string)) "same runtime error" flat_err par_err;
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ " partial state matches")
        (flat.Machine.read name) (par.Machine.read name))
    [ "inc"; "sel"; "m" ];
  Alcotest.(check int) "cell matches" (flat.Machine.read_cell "m" 0)
    (par.Machine.read_cell "m" 0);
  Alcotest.(check int) "same cycle count" (flat.Machine.current_cycle ())
    (par.Machine.current_cycle ());
  (* a trapped machine stays trapped, on both engines *)
  Alcotest.(check (option string)) "re-step re-raises" flat_err (runtime_error par)

(* ------------------------------------------------------------------ *)
(* The skew must-fail                                                 *)
(* ------------------------------------------------------------------ *)

(* ASIM_PAR_SKEW=1 makes the first importing partition drop its import
   phase — the lost update a missing barrier would permit.  The harness is
   only trustworthy if that plant visibly diverges; the clean run of the
   same spec must stay in lockstep. *)
let skew_spec = Gen.pipeline ~cores:8 ~depth:6 ~seed:1 ()

let test_skew_diverges () =
  let reference = observe_flat ~cycles:100 skew_spec in
  with_env Par.skew_env "1" (fun () ->
      if observe_par ~domains:4 ~cycles:100 skew_spec = reference then
        Alcotest.fail "planted lost update was not observable — dead harness")

let test_no_skew_lockstep () =
  let reference = observe_flat ~cycles:100 skew_spec in
  if observe_par ~domains:4 ~cycles:100 skew_spec <> reference then
    Alcotest.fail "par@4 diverges from flat without skew"

(* skew touches nothing with a single partition: par@1 has no imports *)
let test_skew_noop_at_one_domain () =
  let reference = observe_flat ~cycles:50 skew_spec in
  with_env Par.skew_env "1" (fun () ->
      if observe_par ~domains:1 ~cycles:50 skew_spec <> reference then
        Alcotest.fail "skew perturbed the single-partition machine")

(* ------------------------------------------------------------------ *)
(* par@1 zero allocation                                              *)
(* ------------------------------------------------------------------ *)

(* The single-partition ablation is the flat activity loop plus one
   indirection, and must inherit its zero-per-cycle-allocation guarantee
   (same allowance as test_flat's: one-off boxes only, nothing scaling
   with the cycle count).  Multi-domain steps are exempt — a barrier
   falling back to [Condition.wait] may allocate in the runtime. *)
let test_par1_zero_allocation () =
  let analysis =
    Asim.Analysis.analyze
      (Asim_stackm.Microcode.spec ~program:Asim_stackm.Demos.sieve_reassembled ())
  in
  let m = Par.create ~config:quiet ~domains:1 analysis in
  Machine.run m ~cycles:64;
  let before = Gc.minor_words () in
  for _ = 1 to 2000 do
    m.Machine.step ()
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256.0 then
    Alcotest.failf "par@1 allocated %.0f minor words over 2000 cycles" delta

(* ------------------------------------------------------------------ *)
(* Partitioner plan                                                   *)
(* ------------------------------------------------------------------ *)

let plan_spec = Gen.pipeline ~cores:8 ~depth:6 ~seed:1 ()

let test_plan_deterministic () =
  let analysis = Asim.Analysis.analyze plan_spec in
  let a = Par.plan ~domains:4 analysis and b = Par.plan ~domains:4 analysis in
  Alcotest.(check bool) "same plan" true (a = b)

let test_plan_clamps_domains () =
  let analysis = Asim.Analysis.analyze plan_spec in
  let n = ncomb plan_spec in
  let pl = Par.plan ~domains:1000 analysis in
  Alcotest.(check bool) "clamped to min 16 ncomb" true
    (pl.Par.p_domains <= min 16 n);
  let one = Par.plan ~domains:(-3) analysis in
  Alcotest.(check int) "negative clamps to one" 1 one.Par.p_domains

let test_plan_accounts_all_components () =
  let analysis = Asim.Analysis.analyze plan_spec in
  let pl = Par.plan ~domains:4 analysis in
  Alcotest.(check int) "assign covers every comb component" (ncomb plan_spec)
    (Array.length pl.Par.p_assign);
  Array.iter
    (fun t ->
      if t < 0 || t >= pl.Par.p_domains then
        Alcotest.failf "partition %d out of range" t)
    pl.Par.p_assign;
  Alcotest.(check bool) "positive total load" true
    (Array.fold_left ( +. ) 0.0 pl.Par.p_loads > 0.0);
  Alcotest.(check bool) "at least one sync group" true (pl.Par.p_ngroups >= 1)

let test_plan_assign_override () =
  let analysis = Asim.Analysis.analyze plan_spec in
  let n = ncomb plan_spec in
  let forced = Array.init n (fun i -> i) in
  let pl = Par.plan ~assign:forced ~domains:3 analysis in
  Array.iteri
    (fun i t -> Alcotest.(check int) (Printf.sprintf "pos %d" i) (i mod 3) t)
    pl.Par.p_assign

(* A measured cost model shifts the balance but never the semantics: a plan
   under wildly skewed costs still matches flat. *)
let test_costed_plan_still_lockstep () =
  let spec = plan_spec in
  let costs =
    List.filteri (fun i _ -> i mod 7 = 0) (List.map (fun (c : Asim.Component.t) -> (c.Asim.Component.name, 1000.0)) spec.Asim.Spec.components)
  in
  let reference = observe_flat ~cycles:50 spec in
  let got =
    observe_with
      (fun ~config a -> Par.create ~config ~domains:4 ~costs a)
      ~cycles:50 spec
  in
  if got <> reference then Alcotest.fail "costed par@4 diverges from flat"

(* ------------------------------------------------------------------ *)
(* genspec determinism and oracle agreement                            *)
(* ------------------------------------------------------------------ *)

let test_genspec_deterministic () =
  let p seed = Asim.Pretty.spec (Gen.pipeline ~cores:4 ~depth:3 ~seed ()) in
  let m seed = Asim.Pretty.spec (Gen.mesh ~width:4 ~height:3 ~seed ()) in
  Alcotest.(check string) "pipeline regenerates identically" (p 7) (p 7);
  Alcotest.(check string) "mesh regenerates identically" (m 7) (m 7);
  Alcotest.(check bool) "pipeline seeds differ" true (p 7 <> p 8);
  Alcotest.(check bool) "mesh seeds differ" true (m 7 <> m 8)

let test_genspec_shape () =
  let spec = Gen.pipeline ~cores:5 ~depth:4 ~seed:2 () in
  Alcotest.(check int) "cores*(depth+1) components" 25
    (List.length spec.Asim.Spec.components);
  let mesh = Gen.mesh ~width:6 ~height:3 ~seed:2 () in
  Alcotest.(check int) "height*(width+1) components" 21
    (List.length mesh.Asim.Spec.components);
  (* both round-trip through the concrete syntax *)
  List.iter
    (fun s ->
      if Asim.Parser.parse_string (Asim.Pretty.spec s) <> s then
        Alcotest.fail "genspec spec does not print/parse round-trip")
    [ spec; mesh ]

let test_genspec_passes_oracle () =
  List.iter
    (fun spec ->
      match
        Oracle.check ~cycles:30
          ~engines:[ `Interp; `Flat; Option.get (Oracle.engine_of_string "par") ]
          spec
      with
      | None -> ()
      | Some d -> Alcotest.failf "%s" (Oracle.divergence_to_string d))
    [
      Gen.pipeline ~cores:4 ~depth:3 ~seed:5 ();
      Gen.mesh ~width:4 ~height:3 ~seed:5 ();
    ]

let () =
  Alcotest.run "par"
    [
      ( "barrier",
        [
          Alcotest.test_case "single party returns immediately" `Quick
            test_barrier_single_party;
          Alcotest.test_case "zero parties rejected" `Quick test_barrier_rejects_zero;
          Alcotest.test_case "many rounds, sense reversal" `Quick test_barrier_rounds;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "post/import, change detection" `Quick
            test_mailbox_post_import;
          Alcotest.test_case "windowed batches" `Quick test_mailbox_window;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest random_assign_test;
          Alcotest.test_case "structured workloads in lockstep" `Quick
            test_structured_lockstep;
          Alcotest.test_case "costed plan still in lockstep" `Quick
            test_costed_plan_still_lockstep;
        ] );
      ( "errors",
        [ Alcotest.test_case "sequential replay of a trapping wave" `Quick
            test_error_replay ] );
      ( "skew",
        [
          Alcotest.test_case "planted lost update diverges (must-fail)" `Quick
            test_skew_diverges;
          Alcotest.test_case "clean run stays in lockstep" `Quick
            test_no_skew_lockstep;
          Alcotest.test_case "no-op with one partition" `Quick
            test_skew_noop_at_one_domain;
        ] );
      ( "allocation",
        [ Alcotest.test_case "par@1 step loop allocates nothing" `Quick
            test_par1_zero_allocation ] );
      ( "plan",
        [
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "domain clamping" `Quick test_plan_clamps_domains;
          Alcotest.test_case "covers all components" `Quick
            test_plan_accounts_all_components;
          Alcotest.test_case "explicit assignment respected" `Quick
            test_plan_assign_override;
        ] );
      ( "genspec",
        [
          Alcotest.test_case "deterministic per seed" `Quick
            test_genspec_deterministic;
          Alcotest.test_case "documented shape, round-trips" `Quick
            test_genspec_shape;
          Alcotest.test_case "small instances pass the oracle" `Quick
            test_genspec_passes_oracle;
        ] );
    ]
