module Oracle = Asim_fuzz.Oracle
module Json = Asim_batch.Json
module Tiered = Asim_tiered.Tiered

type engine_run = {
  engine : string;
  build_s : float;
  wall_s : float;
  ns_per_cycle : float;
  compiler : string option;
  domains : int option;
}

type profiling = {
  prof_cycles : int;
  off_ns_per_cycle : float;
  on_ns_per_cycle : float;
  overhead : float;
  off_zero_alloc : bool;
}

type workload = {
  name : string;
  cycles : int;
  components : int;
  flat_words : int;
  flat_skip_rate : float;
  agreement : string option;
  tiered_swap : string;
  engines : engine_run list;
  profiling : profiling;
}

type par_run = {
  pr_domains : int;
  pr_build_s : float;
  pr_wall_s : float;
  pr_ns_per_cycle : float;
  pr_ngroups : int;
  pr_cut : int;
  pr_speedup_vs_par1 : float;
  pr_scaling_valid : bool;
}

type par_scaling = {
  ps_workload : string;
  ps_components : int;
  ps_cycles : int;
  ps_cores_online : int;
  ps_compile_span_ms : float;
  ps_flat_wall_s : float;
  ps_par1_overhead_vs_flat : float;
  ps_lockstep : bool;
  ps_runs : par_run list;
}

type opt_step = {
  os_label : string;
  os_passes : string list;
  os_flat_words : int;
  os_delta_words : int;
      (* words saved vs the previous step; <= 0 allowed and reported *)
  os_flat_ns_per_cycle : float;
}

type opt_ablation = {
  oa_workload : string;
  oa_components : int;
  oa_cycles : int;
  oa_cores_online : int;
  oa_dead_components : int;
  oa_scheduled : bool;
  oa_steps : opt_step list;  (* first step is the -O0 baseline *)
  oa_flat_speedup_o2_vs_o0 : float;
  oa_native_o0_ns : float option;  (* None without a toolchain *)
  oa_native_o2_ns : float option;
  oa_native_speedup_o2_vs_o0 : float option;
  oa_lockstep : bool;  (* flat -O2 vs flat -O0 observables agree *)
}

type t = {
  cycles : int;
  reps : int;
  cores_online : int;
  workloads : workload list;
  par_scaling : par_scaling list;
  opt_ablation : opt_ablation list;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* The engines the harness times.  [Unoptimized] is the closure engine's
   own ablation and already covered by bench/main.ml's §4.4 figure;
   [FlatFull] is the activity-scheduling ablation; [Native] joins only
   when an OCaml toolchain answers on PATH.  The tiered engine needs its
   own cache choreography and is benched separately (see [bench_tiered]
   below), not through this list. *)
let measured () =
  (* [par] at its default domain count — the core count, capped at 8; on a
     one-core box this row is the par@1 overhead ablation *)
  List.map
    (fun name -> Option.get (Oracle.engine_of_string name))
    [ "interp"; "compiled"; "lowered"; "flat"; "flat-full"; "par" ]
  @ (if Oracle.available `Native then [ `Native ] else [])

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter
        (fun entry -> remove_tree (Filename.concat path entry))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* The native engine benches against a fresh, empty artifact cache so its
   [build_s] is an honest cold compile+dynlink — the prep the paper's
   Figure 5.1 amortization argument is about — rather than a warm
   cache hit that would flatter [speedup_incl_prep]. *)
let with_temp_jit_cache f =
  let dir = Filename.temp_file "asim-bench-jit" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let build_machine ~config ~jit_cache_dir analysis = function
  | `Native -> Asim_jit.Jit.create ~config ~cache_dir:jit_cache_dir analysis
  | e -> Oracle.build e ~config analysis

let bench_engine ~reps ~cycles ~jit_cache_dir analysis engine =
  let config = Asim.Machine.quiet_config in
  let build () = build_machine ~config ~jit_cache_dir analysis engine in
  if engine = `Native then Asim_jit.Jit.clear_memory_cache ();
  let first, build_s = time build in
  (* Warm the code paths once, then take the best of [reps] fresh machines
     (state is cumulative, so each rep needs its own).  Rep rebuilds for
     the native engine hit the in-memory plugin cache, so only the first
     build above pays — and records — the compile. *)
  Asim.Machine.run first ~cycles:(min cycles 64);
  let wall = ref infinity in
  for _ = 1 to max 1 reps do
    let m = build () in
    let (), t = time (fun () -> Asim.Machine.run m ~cycles) in
    wall := Float.min !wall t
  done;
  {
    engine = Oracle.engine_to_string engine;
    build_s;
    wall_s = !wall;
    ns_per_cycle = !wall /. float_of_int (max 1 cycles) *. 1e9;
    compiler =
      (match engine with
      | `Native -> Asim_jit.Jit.toolchain_description ()
      | _ -> None);
    domains = (match engine with `Par { Asim.domains; _ } -> Some domains | _ -> None);
  }

(* The tiered row benches the engine exactly as a user hits it cold: empty
   artifact cache, empty in-process memo, default [Auto] policy.  Every rep
   re-colds both caches — a warm rep would measure the native engine with
   extra steps (that steady state gets its own ["tiered-warm"] row).  The
   claim this row exists to check is tiered ≈ max(flat, native) including
   prep: short runs must ride flat (the [Auto] deferral never spawns the
   compile), long runs must swap and converge on native.  Returns the final
   rep's swap state alongside the timing so the report can say which side
   of the threshold the budget landed on. *)
let bench_tiered ~reps ~cycles ~jit_cache_dir analysis =
  let config = Asim.Machine.quiet_config in
  Tiered.mute_warning ();
  let swap = ref Tiered.Pending in
  let bench rep =
    Asim_jit.Jit.clear_memory_cache ();
    let dir =
      Filename.concat jit_cache_dir (Printf.sprintf "tiered-cold-%d" rep)
    in
    remove_tree dir;
    (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let (m, status), build_s =
      time (fun () ->
          Tiered.create_status ~config ~cache_dir:dir ~swap_at:Tiered.Auto
            analysis)
    in
    let (), wall = time (fun () -> Asim.Machine.run m ~cycles) in
    swap := (status ()).Tiered.state;
    (build_s, wall)
  in
  ignore (bench 0);
  let build_s = ref infinity and wall = ref infinity in
  for rep = 1 to max 1 reps do
    let b, w = bench rep in
    build_s := Float.min !build_s b;
    wall := Float.min !wall w
  done;
  ( {
      engine = "tiered";
      build_s = !build_s;
      wall_s = !wall;
      ns_per_cycle = !wall /. float_of_int (max 1 cycles) *. 1e9;
      compiler = Asim_jit.Jit.toolchain_description ();
      domains = None;
    },
    Tiered.swap_state_to_string !swap )

(* The steady state the content-addressed artifact cache buys: the spec was
   compiled on an earlier run (here: by the native row, into the shared
   bench cache), so the tiered machine finds the plugin ready and swaps at
   cycle 0 — the whole run executes native.  [build_s] charges the
   artifact-hit dynlink and machine construction, not a compile. *)
let bench_tiered_warm ~reps ~cycles ~jit_cache_dir analysis =
  let config = Asim.Machine.quiet_config in
  let build () =
    Tiered.create ~config ~cache_dir:jit_cache_dir ~swap_at:Tiered.Auto analysis
  in
  Asim_jit.Jit.clear_memory_cache ();
  let first, build_s =
    time (fun () ->
        Asim_jit.Jit.prepare ~cache_dir:jit_cache_dir analysis;
        build ())
  in
  Asim.Machine.run first ~cycles:(min cycles 64);
  let wall = ref infinity in
  for _ = 1 to max 1 reps do
    let m = build () in
    let (), t = time (fun () -> Asim.Machine.run m ~cycles) in
    wall := Float.min !wall t
  done;
  {
    engine = "tiered-warm";
    build_s;
    wall_s = !wall;
    ns_per_cycle = !wall /. float_of_int (max 1 cycles) *. 1e9;
    compiler = Asim_jit.Jit.toolchain_description ();
    domains = None;
  }

(* Profiling overhead: the flat kernel with per-component counters on
   versus off.  The engine-comparison budget (5545 cycles by default, as
   low as 300 in CI) is too short for a stable percentage — a single
   timer quantum swamps it — so this row gets its own budget with a
   50k-cycle floor and the min of at least three repetitions a side.
   The off side also re-asserts the hot loop's zero-allocation property
   (the same bound test_flat enforces: a fixed allowance that must not
   scale with the cycle count), so the "profiling off costs nothing"
   claim ships next to the overhead number it justifies. *)
let bench_profiling ~reps ~cycles analysis =
  let config = Asim.Machine.quiet_config in
  let prof_cycles = max 50_000 cycles in
  let reps = max 5 reps in
  let one prof_on =
    let prof = if prof_on then Some (Asim.Prof.create analysis) else None in
    let m = Asim_flat.Flat.create ~config ?prof analysis in
    Asim.Machine.run m ~cycles:64;
    let (), t = time (fun () -> Asim.Machine.run m ~cycles:prof_cycles) in
    t /. float_of_int prof_cycles *. 1e9
  in
  (* Interleave the off/on reps: measuring all of one side first would
     let clock-frequency and cache drift masquerade as (even negative)
     overhead. *)
  ignore (one false);
  ignore (one true);
  let off = ref infinity and on = ref infinity in
  for _ = 1 to reps do
    off := Float.min !off (one false);
    on := Float.min !on (one true)
  done;
  let off = !off and on = !on in
  let off_zero_alloc =
    let m = Asim_flat.Flat.create ~config analysis in
    Asim.Machine.run m ~cycles:64;
    let before = Gc.minor_words () in
    for _ = 1 to 2000 do
      m.Asim.Machine.step ()
    done;
    Gc.minor_words () -. before <= 256.0
  in
  {
    prof_cycles;
    off_ns_per_cycle = off;
    on_ns_per_cycle = on;
    overhead = (if off > 0.0 then (on -. off) /. off else 0.0);
    off_zero_alloc;
  }

let run_workload ~reps ~cycles ~check_cycles ~jit_cache_dir ~name
    (spec : Asim.Spec.t) =
  let analysis = Asim.Analysis.analyze spec in
  (* Measured before the engine rows: the native and tiered benches spawn
     compiler processes and background domains whose tail can pollute a
     timing taken right after them. *)
  let profiling = bench_profiling ~reps ~cycles analysis in
  let base =
    List.map (bench_engine ~reps ~cycles ~jit_cache_dir analysis) (measured ())
  in
  let tiered, tiered_swap = bench_tiered ~reps ~cycles ~jit_cache_dir analysis in
  let warm =
    if Oracle.available `Native then
      [ bench_tiered_warm ~reps ~cycles ~jit_cache_dir analysis ]
    else []
  in
  let engines = base @ (tiered :: warm) in
  let flat_words = Asim_flat.Flat.program_size analysis in
  let flat_skip_rate =
    let m, counts =
      Asim_flat.Flat.create_debug ~config:Asim.Machine.quiet_config analysis
    in
    Asim.Machine.run m ~cycles;
    let per_component = counts () in
    let ncomb = List.length per_component in
    let total = List.fold_left (fun acc (_, n) -> acc + n) 0 per_component in
    if ncomb = 0 || cycles = 0 then 0.0
    else 1.0 -. (float_of_int total /. float_of_int (ncomb * cycles))
  in
  let agreement =
    Oracle.check ~cycles:check_cycles spec |> Option.map Oracle.divergence_to_string
  in
  {
    name;
    cycles;
    components = List.length spec.Asim.Spec.components;
    flat_words;
    flat_skip_rate;
    agreement;
    tiered_swap;
    engines;
    profiling;
  }

(* The partitioned engine's scaling figure: a generated 10k-component spec
   (far past the fixed workloads' ~40 components — the regime the BSP
   engine exists for), the flat kernel as the baseline, then par at 1, 2, 4
   and 8 domains.  The par@1 row is the overhead ablation: the same
   partition-major program through the engine's dispatch with no pool,
   barrier or mailbox — recorded even when it loses to flat.  Rows where
   the host has fewer cores than the row has domains are tagged
   [pr_scaling_valid = false]: timing domains the scheduler must
   time-slice says nothing about the algorithm, and the figure must not
   pretend otherwise.  A short lockstep check against flat rides along so
   the speedup curve always travels with a correctness witness. *)
let bench_par_scaling ~reps ~name (spec : Asim.Spec.t) =
  let cores_online = Domain.recommended_domain_count () in
  let cycles = Option.value spec.Asim.Spec.cycles ~default:200 in
  (* the compile span the observatory records for this spec — satellite
     evidence that building a 10k-component flat program is milliseconds *)
  let tracer = Asim_obs.Tracer.create () in
  let analysis = Asim.Analysis.analyze spec in
  ignore (Asim_flat.Flat.compile ~tracer analysis);
  let compile_span_ms =
    List.fold_left
      (fun acc (e : Asim_obs.Tracer.event) ->
        if e.name = "codegen.flat.compile" then acc +. (e.dur_us /. 1000.0)
        else acc)
      0.0
      (Asim_obs.Tracer.events tracer)
  in
  let config = Asim.Machine.quiet_config in
  let bench build =
    let first, build_s = time build in
    Asim.Machine.run first ~cycles:(min cycles 64);
    let wall = ref infinity in
    for _ = 1 to max 1 reps do
      let m = build () in
      let (), t = time (fun () -> Asim.Machine.run m ~cycles) in
      wall := Float.min !wall t
    done;
    (build_s, !wall)
  in
  let _, flat_wall = bench (fun () -> Asim_flat.Flat.create ~config analysis) in
  let runs =
    List.map
      (fun domains ->
        let plan = Asim_par.Par.plan ~domains analysis in
        let build_s, wall =
          bench (fun () -> Asim_par.Par.create ~config ~domains analysis)
        in
        {
          pr_domains = domains;
          pr_build_s = build_s;
          pr_wall_s = wall;
          pr_ns_per_cycle = wall /. float_of_int (max 1 cycles) *. 1e9;
          pr_ngroups = plan.Asim_par.Par.p_ngroups;
          pr_cut = plan.Asim_par.Par.p_cut;
          pr_speedup_vs_par1 = 0.0 (* filled below *);
          pr_scaling_valid = domains <= cores_online;
        })
      [ 1; 2; 4; 8 ]
  in
  let par1_wall =
    match runs with r :: _ -> r.pr_wall_s | [] -> infinity
  in
  let runs =
    List.map
      (fun r ->
        {
          r with
          pr_speedup_vs_par1 =
            (if r.pr_wall_s > 0.0 then par1_wall /. r.pr_wall_s else 0.0);
        })
      runs
  in
  let lockstep =
    let check = min cycles 50 in
    let mflat = Asim_flat.Flat.create ~config analysis in
    let mpar = Asim_par.Par.create ~config ~domains:4 analysis in
    let names =
      List.map (fun (c : Asim.Component.t) -> c.name) spec.Asim.Spec.components
    in
    (try
       for _ = 1 to check do
         mflat.Asim.Machine.step ();
         mpar.Asim.Machine.step ();
         List.iter
           (fun n ->
             if mflat.Asim.Machine.read n <> mpar.Asim.Machine.read n then
               raise Exit)
           names
       done;
       true
     with Exit -> false)
  in
  {
    ps_workload = name;
    ps_components = List.length spec.Asim.Spec.components;
    ps_cycles = cycles;
    ps_cores_online = cores_online;
    ps_compile_span_ms = compile_span_ms;
    ps_flat_wall_s = flat_wall;
    ps_par1_overhead_vs_flat =
      (if flat_wall > 0.0 then par1_wall /. flat_wall else 0.0);
    ps_lockstep = lockstep;
    ps_runs = runs;
  }

(* The middle-end ablation: each pass added cumulatively on top of the
   previous ones (the pipeline's own order), measured as flat program words
   and flat ns/cycle per step, plus the native engine at the -O0/-O2
   endpoints (each endpoint is a separate plugin compile — the optimizer
   changes the generated source).  Deltas are reported signed: a pass that
   buys nothing on a workload shows 0 (or a regression shows negative
   savings) instead of being dropped.  A short flat -O2 vs -O0 lockstep
   check over the live (non-DCE'd) components rides along as the
   correctness witness. *)
let cumulative_passes =
  List.rev
    (List.fold_left
       (fun acc p ->
         let prev = match acc with [] -> [] | ps :: _ -> ps in
         (prev @ [ p ]) :: acc)
       [] Asim.Opt.all_passes)

let bench_opt_ablation ~reps ~jit_cache_dir ~name (spec : Asim.Spec.t) =
  let cycles = Option.value spec.Asim.Spec.cycles ~default:200 in
  let config = Asim.Machine.quiet_config in
  let analysis = Asim.Analysis.analyze spec in
  let flat_ns analysis =
    let build () = Asim_flat.Flat.create ~config analysis in
    let first = build () in
    Asim.Machine.run first ~cycles:(min cycles 64);
    let wall = ref infinity in
    for _ = 1 to max 1 reps do
      let m = build () in
      let (), t = time (fun () -> Asim.Machine.run m ~cycles) in
      wall := Float.min !wall t
    done;
    !wall /. float_of_int (max 1 cycles) *. 1e9
  in
  let o0_words = Asim_flat.Flat.program_size analysis in
  let o0_ns = flat_ns analysis in
  let steps, _ =
    List.fold_left
      (fun (acc, prev_words) passes ->
        let r = Asim.Opt.run_result ~passes analysis in
        let words = Asim_flat.Flat.program_size r.Asim.Opt.analysis in
        let step =
          {
            os_label =
              "+"
              ^ Asim.Opt.pass_to_string (List.nth passes (List.length passes - 1));
            os_passes = List.map Asim.Opt.pass_to_string passes;
            os_flat_words = words;
            os_delta_words = prev_words - words;
            os_flat_ns_per_cycle = flat_ns r.Asim.Opt.analysis;
          }
        in
        (step :: acc, words))
      ( [
          {
            os_label = "O0";
            os_passes = [];
            os_flat_words = o0_words;
            os_delta_words = 0;
            os_flat_ns_per_cycle = o0_ns;
          };
        ],
        o0_words )
      cumulative_passes
  in
  let steps = List.rev steps in
  let full = Asim.Opt.run_result ~level:Asim.Opt.O2 analysis in
  let o2_ns =
    match List.rev steps with last :: _ -> last.os_flat_ns_per_cycle | [] -> o0_ns
  in
  let native_ns analysis =
    if not (Oracle.available `Native) then None
    else begin
      Asim_jit.Jit.clear_memory_cache ();
      let build () =
        Asim_jit.Jit.create ~config ~cache_dir:jit_cache_dir analysis
      in
      let first = build () in
      Asim.Machine.run first ~cycles:(min cycles 64);
      let wall = ref infinity in
      for _ = 1 to max 1 reps do
        let m = build () in
        let (), t = time (fun () -> Asim.Machine.run m ~cycles) in
        wall := Float.min !wall t
      done;
      Some (!wall /. float_of_int (max 1 cycles) *. 1e9)
    end
  in
  let native_o0 = native_ns analysis in
  let native_o2 = native_ns full.Asim.Opt.analysis in
  let lockstep =
    let masked = Hashtbl.create 16 in
    List.iter (fun n -> Hashtbl.replace masked n ()) full.Asim.Opt.dead;
    let check = min cycles 50 in
    let m0 = Asim_flat.Flat.create ~config analysis in
    let m2 = Asim_flat.Flat.create ~config full.Asim.Opt.analysis in
    let names =
      List.filter
        (fun n -> not (Hashtbl.mem masked n))
        (List.map (fun (c : Asim.Component.t) -> c.name) spec.Asim.Spec.components)
    in
    try
      for _ = 1 to check do
        m0.Asim.Machine.step ();
        m2.Asim.Machine.step ();
        List.iter
          (fun n ->
            if m0.Asim.Machine.read n <> m2.Asim.Machine.read n then raise Exit)
          names
      done;
      true
    with Exit -> false
  in
  {
    oa_workload = name;
    oa_components = List.length spec.Asim.Spec.components;
    oa_cycles = cycles;
    oa_cores_online = Domain.recommended_domain_count ();
    oa_dead_components = List.length full.Asim.Opt.dead;
    oa_scheduled = full.Asim.Opt.stats.Asim.Opt.scheduled;
    oa_steps = steps;
    oa_flat_speedup_o2_vs_o0 = (if o2_ns > 0.0 then o0_ns /. o2_ns else 0.0);
    oa_native_o0_ns = native_o0;
    oa_native_o2_ns = native_o2;
    oa_native_speedup_o2_vs_o0 =
      (match (native_o0, native_o2) with
      | Some a, Some b when b > 0.0 -> Some (a /. b)
      | _ -> None);
    oa_lockstep = lockstep;
  }

(* Both workloads park in halt spins, so any cycle budget is safe. *)
let sieve_spec () =
  Asim_stackm.Microcode.spec ~program:Asim_stackm.Demos.sieve_reassembled ()

let tinyc_spec () =
  Asim_tinyc.Machine.spec ~program:Asim_tinyc.Machine.demo_image ()

let run ?(cycles = Asim_stackm.Programs.sieve_cycles) ?(reps = 3)
    ?(check_cycles = 300) ?(par_cycles = 200) () =
  with_temp_jit_cache (fun jit_cache_dir ->
      {
        cycles;
        reps;
        cores_online = Domain.recommended_domain_count ();
        workloads =
          [
            run_workload ~reps ~cycles ~check_cycles ~jit_cache_dir
              ~name:"stackm-sieve" (sieve_spec ());
            run_workload ~reps ~cycles ~check_cycles ~jit_cache_dir
              ~name:"tinyc-demo" (tinyc_spec ());
          ];
        par_scaling =
          [
            (* 100 rows x (99 nodes + 1 register): inter-row traffic flows
               through registers, so a row-aligned partition has no
               cross-partition combinational edges — the engine's best case *)
            bench_par_scaling ~reps ~name:"genspec-mesh-10k"
              (Asim_fuzz.Gen.mesh ~cycles:par_cycles ~width:99 ~height:100
                 ~seed:1 ());
            (* 100 cores x 100 stages with combinational cross-core edges:
               partition boundaries cost sync groups, the engine's hard
               case *)
            bench_par_scaling ~reps ~name:"genspec-pipeline-10k"
              (Asim_fuzz.Gen.pipeline ~cycles:par_cycles ~cores:100 ~depth:99
                 ~seed:1 ());
          ];
        opt_ablation =
          [
            bench_opt_ablation ~reps ~jit_cache_dir ~name:"genspec-mesh-10k"
              (Asim_fuzz.Gen.mesh ~cycles:par_cycles ~width:99 ~height:100
                 ~seed:1 ());
            bench_opt_ablation ~reps ~jit_cache_dir
              ~name:"genspec-pipeline-10k"
              (Asim_fuzz.Gen.pipeline ~cycles:par_cycles ~cores:100 ~depth:99
                 ~seed:1 ());
          ];
      })

let engine_row w engine =
  List.find_opt (fun (e : engine_run) -> e.engine = engine) w.engines

let wall w engine = Option.map (fun e -> e.wall_s) (engine_row w engine)

let ratio w a b =
  match (wall w a, wall w b) with
  | Some x, Some y when y > 0.0 -> Some (x /. y)
  | _ -> None

(* Figure 5.1's second column: the speedup once the engine's preparation
   (machine construction — for the native engine, generating, compiling
   and dynlinking the plugin) is charged to the run.  The paper reports
   ~20x raw and ~2.5x including translate+compile for the 5545-cycle
   sieve; this is the same honesty applied to every engine here. *)
let incl_prep_ratio w engine =
  match (engine_row w "interp", engine_row w engine) with
  | Some i, Some e when e.build_s +. e.wall_s > 0.0 ->
      Some ((i.build_s +. i.wall_s) /. (e.build_s +. e.wall_s))
  | _ -> None

(* Cycles after which the engine's extra prep over the interpreter is paid
   back by its faster per-cycle rate; [Some 0.] when prep is no more
   expensive, [None] when the engine is not faster per cycle (the debt is
   never repaid). *)
let amortization_cycles w engine =
  match (engine_row w "interp", engine_row w engine) with
  | Some i, Some e when e.ns_per_cycle < i.ns_per_cycle ->
      let extra = e.build_s -. i.build_s in
      if extra <= 0.0 then Some 0.0
      else Some (extra /. ((i.ns_per_cycle -. e.ns_per_cycle) *. 1e-9))
  | _ -> None

(* Acceptance ratio for the tiered row: its prep-inclusive speedup against
   the better of flat and native — "tiered ≈ max(flat, native)" made a
   number.  The driver's floor is 0.95: below that the engine taxed the run
   it was supposed to protect (eager compile contention, swap overhead). *)
let tiered_vs_best w =
  match incl_prep_ratio w "tiered" with
  | None -> None
  | Some t ->
      let best =
        List.filter_map (incl_prep_ratio w) [ "flat"; "native" ]
        |> List.fold_left Float.max 0.0
      in
      if best > 0.0 then Some (t /. best) else None

let agree t =
  List.for_all (fun w -> w.agreement = None) t.workloads
  && List.for_all (fun p -> p.ps_lockstep) t.par_scaling
  && List.for_all (fun o -> o.oa_lockstep) t.opt_ablation

let opt_ratio_str w a b =
  match ratio w a b with Some r -> Printf.sprintf "%.2fx" r | None -> "-"

let table t =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun w ->
      pr "workload %s: %d cycles, %d components, flat program %d words\n"
        w.name w.cycles w.components w.flat_words;
      pr "  %-10s %12s %12s %12s %10s %10s\n" "engine" "build (s)" "wall (s)"
        "ns/cycle" "vs interp" "incl prep";
      List.iter
        (fun e ->
          pr "  %-10s %12.6f %12.4f %12.0f %10s %10s\n" e.engine e.build_s
            e.wall_s e.ns_per_cycle
            (opt_ratio_str w "interp" e.engine)
            (match incl_prep_ratio w e.engine with
            | Some r -> Printf.sprintf "%.2fx" r
            | None -> "-"))
        w.engines;
      pr "  flat vs compiled: %s   activity ablation (full/activity): %s   skip rate: %.1f%%\n"
        (opt_ratio_str w "compiled" "flat")
        (opt_ratio_str w "flat-full" "flat")
        (100.0 *. w.flat_skip_rate);
      (match engine_row w "native" with
      | None ->
          pr "  native engine: unavailable (no OCaml toolchain on PATH), skipped\n"
      | Some e ->
          pr "  native%s: %s raw, %s incl prep%s\n"
            (match e.compiler with Some c -> " (" ^ c ^ ")" | None -> "")
            (opt_ratio_str w "interp" "native")
            (match incl_prep_ratio w "native" with
            | Some r -> Printf.sprintf "%.2fx" r
            | None -> "-")
            (match amortization_cycles w "native" with
            | Some n when n > 0.0 -> Printf.sprintf ", amortizes after ~%.0f cycles" n
            | Some _ -> ", prep already cheaper than interp's"
            | None -> ", never amortizes here"));
      (match engine_row w "tiered" with
      | None -> ()
      | Some _ ->
          pr "  tiered: swap=%s%s%s\n" w.tiered_swap
            (match tiered_vs_best w with
            | Some r ->
                Printf.sprintf ", incl prep vs best(flat, native): %.2fx (floor 0.95)"
                  r
            | None -> "")
            (match incl_prep_ratio w "tiered-warm" with
            | Some r -> Printf.sprintf "; warm artifact cache: %.2fx incl prep" r
            | None -> ""));
      pr
        "  profiling (flat, %d cycles): off %.0f ns/cycle, on %.0f ns/cycle, \
         overhead %.1f%%; zero-alloc with counters off: %s\n"
        w.profiling.prof_cycles w.profiling.off_ns_per_cycle
        w.profiling.on_ns_per_cycle
        (100.0 *. w.profiling.overhead)
        (if w.profiling.off_zero_alloc then "yes" else "NO");
      (match w.agreement with
      | None -> pr "  differential check: all engines agree\n"
      | Some d -> pr "  differential check FAILED: %s\n" d);
      pr "\n")
    t.workloads;
  List.iter
    (fun p ->
      pr
        "par scaling %s: %d components, %d cycles, %d core%s online, flat \
         compile %.1f ms\n"
        p.ps_workload p.ps_components p.ps_cycles p.ps_cores_online
        (if p.ps_cores_online = 1 then "" else "s")
        p.ps_compile_span_ms;
      pr "  %-10s %12s %12s %12s %10s %8s %8s\n" "engine" "wall (s)" "ns/cycle"
        "vs par@1" "scaling?" "groups" "cut";
      pr "  %-10s %12.4f %12.0f %12s %10s %8s %8s\n" "flat" p.ps_flat_wall_s
        (p.ps_flat_wall_s /. float_of_int (max 1 p.ps_cycles) *. 1e9)
        "-" "-" "-" "-";
      List.iter
        (fun r ->
          pr "  %-10s %12.4f %12.0f %11.2fx %10s %8d %8d\n"
            (Printf.sprintf "par@%d" r.pr_domains)
            r.pr_wall_s r.pr_ns_per_cycle r.pr_speedup_vs_par1
            (if r.pr_scaling_valid then "valid" else "INVALID")
            r.pr_ngroups r.pr_cut)
        p.ps_runs;
      pr "  par@1 overhead vs flat: %.2fx (recorded even when >1.0)\n"
        p.ps_par1_overhead_vs_flat;
      pr "  lockstep with flat (par@4, %d cycles): %s\n"
        (min p.ps_cycles 50)
        (if p.ps_lockstep then "yes" else "NO — DIVERGED");
      if p.ps_cores_online = 1 then
        pr
          "  note: one core online — every multi-domain row is time-sliced, \
           so the speedup column is tagged invalid rather than claimed\n";
      pr "\n")
    t.par_scaling;
  List.iter
    (fun o ->
      pr
        "opt ablation %s: %d components, %d cycles, %d core%s online, %d dead \
         component%s at O2, scheduler %s\n"
        o.oa_workload o.oa_components o.oa_cycles o.oa_cores_online
        (if o.oa_cores_online = 1 then "" else "s")
        o.oa_dead_components
        (if o.oa_dead_components = 1 then "" else "s")
        (if o.oa_scheduled then "ran" else "gated off");
      pr "  %-12s %12s %12s %14s\n" "step" "flat words" "words saved"
        "flat ns/cycle";
      List.iter
        (fun s ->
          pr "  %-12s %12d %12d %14.0f\n" s.os_label s.os_flat_words
            s.os_delta_words s.os_flat_ns_per_cycle)
        o.oa_steps;
      pr "  flat O2 vs O0: %.2fx\n" o.oa_flat_speedup_o2_vs_o0;
      (match (o.oa_native_o0_ns, o.oa_native_o2_ns) with
      | Some a, Some b ->
          pr "  native: O0 %.0f ns/cycle, O2 %.0f ns/cycle%s\n" a b
            (match o.oa_native_speedup_o2_vs_o0 with
            | Some r -> Printf.sprintf " (%.2fx)" r
            | None -> "")
      | _ -> pr "  native endpoints: unavailable (no OCaml toolchain), skipped\n");
      pr "  lockstep flat O2 vs O0 (%d cycles, live components): %s\n"
        (min o.oa_cycles 50)
        (if o.oa_lockstep then "yes" else "NO — DIVERGED");
      pr "\n")
    t.opt_ablation;
  (match List.find_opt (fun w -> w.name = "stackm-sieve") t.workloads with
  | Some w ->
      (match ratio w "interp" "compiled" with
      | Some r ->
          pr
            "paper Figure 5.1 context: interp vs compiled here %.1fx (paper: ~20.7x)\n"
            r
      | None -> ());
      (match (ratio w "interp" "native", incl_prep_ratio w "native") with
      | Some raw, Some prep ->
          pr
            "paper Figure 5.1, native: %.1fx raw, %.2fx incl compile+dynlink \
             (paper: ~20.7x raw, ~2.5x incl translate+compile)\n"
            raw prep
      | _ -> ())
  | None -> ());
  Buffer.contents buf

let engine_json w (e : engine_run) =
  Json.Obj
    [
      ("engine", Json.String e.engine);
      ("build_s", Json.Float e.build_s);
      ("wall_s", Json.Float e.wall_s);
      ("ns_per_cycle", Json.Float e.ns_per_cycle);
      ( "speedup_vs_interp",
        match ratio w "interp" e.engine with
        | Some r -> Json.Float r
        | None -> Json.Null );
      ( "speedup_incl_prep",
        match incl_prep_ratio w e.engine with
        | Some r -> Json.Float r
        | None -> Json.Null );
      ( "amortization_cycles",
        match amortization_cycles w e.engine with
        | Some n -> Json.Float n
        | None -> Json.Null );
      ( "compiler",
        match e.compiler with Some c -> Json.String c | None -> Json.Null );
      ( "domains",
        match e.domains with Some d -> Json.Int d | None -> Json.Null );
    ]

let workload_json w =
  let r name a b =
    (name, match ratio w a b with Some r -> Json.Float r | None -> Json.Null)
  in
  Json.Obj
    [
      ("workload", Json.String w.name);
      ("cycles", Json.Int w.cycles);
      ("components", Json.Int w.components);
      ("flat_program_words", Json.Int w.flat_words);
      ("engines", Json.List (List.map (engine_json w) w.engines));
      r "interp_vs_compiled" "interp" "compiled";
      r "interp_vs_flat" "interp" "flat";
      r "flat_vs_compiled" "compiled" "flat";
      r "activity_ablation_speedup" "flat-full" "flat";
      ("tiered_swap", Json.String w.tiered_swap);
      ( "tiered_vs_best_incl_prep",
        match tiered_vs_best w with Some r -> Json.Float r | None -> Json.Null );
      ("flat_skip_rate", Json.Float w.flat_skip_rate);
      ("profiling_overhead", Json.Float w.profiling.overhead);
      ("prof_off_zero_alloc", Json.Bool w.profiling.off_zero_alloc);
      ( "profiling",
        Json.Obj
          [
            ("engine", Json.String "flat");
            ("cycles", Json.Int w.profiling.prof_cycles);
            ("off_ns_per_cycle", Json.Float w.profiling.off_ns_per_cycle);
            ("on_ns_per_cycle", Json.Float w.profiling.on_ns_per_cycle);
            ("overhead", Json.Float w.profiling.overhead);
            ("off_zero_alloc", Json.Bool w.profiling.off_zero_alloc);
          ] );
      ("agree", Json.Bool (w.agreement = None));
      ( "divergence",
        match w.agreement with Some d -> Json.String d | None -> Json.Null );
    ]

let par_run_json (r : par_run) =
  Json.Obj
    [
      ("domains", Json.Int r.pr_domains);
      ("build_s", Json.Float r.pr_build_s);
      ("wall_s", Json.Float r.pr_wall_s);
      ("ns_per_cycle", Json.Float r.pr_ns_per_cycle);
      ("sync_groups", Json.Int r.pr_ngroups);
      ("cut_edges", Json.Int r.pr_cut);
      ("speedup_vs_par1", Json.Float r.pr_speedup_vs_par1);
      ("scaling_valid", Json.Bool r.pr_scaling_valid);
    ]

let par_scaling_json (p : par_scaling) =
  Json.Obj
    [
      ("workload", Json.String p.ps_workload);
      ("engine", Json.String "par");
      ("components", Json.Int p.ps_components);
      ("cycles", Json.Int p.ps_cycles);
      ("cores_online", Json.Int p.ps_cores_online);
      ("flat_compile_span_ms", Json.Float p.ps_compile_span_ms);
      ("flat_wall_s", Json.Float p.ps_flat_wall_s);
      ("par1_overhead_vs_flat", Json.Float p.ps_par1_overhead_vs_flat);
      ("lockstep_with_flat", Json.Bool p.ps_lockstep);
      ("runs", Json.List (List.map par_run_json p.ps_runs));
    ]

let opt_step_json (s : opt_step) =
  Json.Obj
    [
      ("step", Json.String s.os_label);
      ("passes", Json.List (List.map (fun p -> Json.String p) s.os_passes));
      ("flat_program_words", Json.Int s.os_flat_words);
      (* signed: a pass that buys nothing (or loses) on this workload is
         reported, not dropped *)
      ("words_saved_vs_prev", Json.Int s.os_delta_words);
      ("flat_ns_per_cycle", Json.Float s.os_flat_ns_per_cycle);
    ]

let opt_ablation_json (o : opt_ablation) =
  Json.Obj
    [
      ("workload", Json.String o.oa_workload);
      ("components", Json.Int o.oa_components);
      ("cycles", Json.Int o.oa_cycles);
      ("cores_online", Json.Int o.oa_cores_online);
      ("dead_components", Json.Int o.oa_dead_components);
      ("scheduler_ran", Json.Bool o.oa_scheduled);
      ("steps", Json.List (List.map opt_step_json o.oa_steps));
      ("flat_speedup_o2_vs_o0", Json.Float o.oa_flat_speedup_o2_vs_o0);
      ( "native_o0_ns_per_cycle",
        match o.oa_native_o0_ns with Some v -> Json.Float v | None -> Json.Null );
      ( "native_o2_ns_per_cycle",
        match o.oa_native_o2_ns with Some v -> Json.Float v | None -> Json.Null );
      ( "native_speedup_o2_vs_o0",
        match o.oa_native_speedup_o2_vs_o0 with
        | Some v -> Json.Float v
        | None -> Json.Null );
      ("lockstep_with_o0", Json.Bool o.oa_lockstep);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String "asim-bench-engines/1");
      ("cycles", Json.Int t.cycles);
      ("reps", Json.Int t.reps);
      ("cores_online", Json.Int t.cores_online);
      ("workloads", Json.List (List.map workload_json t.workloads));
      ("par_scaling", Json.List (List.map par_scaling_json t.par_scaling));
      ("opt_ablation", Json.List (List.map opt_ablation_json t.opt_ablation));
      ( "paper",
        Json.Obj
          [
            ("figure", Json.String "5.1");
            ("interp_vs_compiled_paper", Json.Float (310.6 /. 15.0));
            ( "note",
              Json.String
                "Paper timings are VAX 11/780 seconds for the 5545-cycle \
                 sieve; compare ratios, not absolute times.  The flat \
                 kernel is the rung below the paper's compiled simulator: \
                 same semantics, no per-component closures, and \
                 activity-driven scheduling on top." );
          ] );
    ]

let write_json t ~path =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc
