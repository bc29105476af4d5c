(* Benchmark harness: the thesis's code-listing figures, the §4.4 closure
   ablation, two extensions, and the ablations the benchmark suite does not
   measure yet.  Engine speed and Figure 5.1 come from bench/suite alone
   (sh bench/suite/bench.sh --workload fig51-sieve ...).

     dune exec bench/main.exe                # everything + Bechamel micro-benchmarks
     dune exec bench/main.exe -- quick       # skip the Bechamel pass
     dune exec bench/main.exe -- ablations   # the ablations section alone

   Figures:
   - Figure 3.1  bit-concatenation layout
   - Figure 4.1  ALU code generation (generic vs optimized)
   - Figure 4.2  Selector code generation
   - Figure 4.3  Memory code generation

   The run exits 1 when an ablation's correctness witness fails or the
   profiling overhead reaches its ceiling.
*)

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Figure 3.1                                                          *)
(* ------------------------------------------------------------------ *)

let figure_3_1 () =
  hr "Figure 3.1 — bit concatenation: mem.3.4,#01,count.1";
  let expr = Asim.Parser.parse_expr "mem.3.4,#01,count.1" in
  let mem = 0b11000 and count = 0b10 in
  let v =
    Asim.Expr.eval ~read:(function "mem" -> mem | _ -> count) expr
  in
  Printf.printf "mem   = %s (bits 3..4 = 11)\n" (Asim.Bits.to_binary_string ~width:8 mem);
  Printf.printf "count = %s (bit 1 = 1)\n" (Asim.Bits.to_binary_string ~width:8 count);
  Printf.printf "mem.3.4,#01,count.1 = %s (= %d): fields packed msb-first\n"
    (Asim.Bits.to_binary_string ~width:5 v)
    v;
  Printf.printf "width = %d bits\n" (Asim.Expr.width expr)

(* ------------------------------------------------------------------ *)
(* Figures 4.1 / 4.2 / 4.3                                             *)
(* ------------------------------------------------------------------ *)

let show_spec_and_lines title source ~pick =
  hr title;
  print_string "Specification:\n\n";
  String.split_on_char '\n' source
  |> List.iteri (fun i line -> if i > 0 && line <> "" && line <> "." then Printf.printf "  %s\n" line);
  print_string "\nCode generated (Pascal backend):\n\n";
  let code = Asim_codegen.Pascal.generate (Asim.load_string source) in
  String.split_on_char '\n' code
  |> List.iter (fun line ->
         let t = String.trim line in
         if pick t then Printf.printf "  %s\n" t)

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let figure_4_1 () =
  show_spec_and_lines
    "Figure 4.1 — ALU specification and code generated"
    "# fig 4.1\nalu add compute left .\nA alu compute left 3048\nA add 4 left 3048\nA compute 1 0 7\nA left 1 0 1\n.\n"
    ~pick:(fun l -> starts_with "ljbalu :=" l || starts_with "ljbadd :=" l)

let figure_4_2 () =
  show_spec_and_lines
    "Figure 4.2 — Selector specification and code generated"
    "# fig 4.2\nselector index value0 value1 value2 value3 .\nS selector index value0 value1 value2 value3\nA index 1 0 2\nA value0 1 0 10\nA value1 1 0 11\nA value2 1 0 12\nA value3 1 0 13\n.\n"
    ~pick:(fun l ->
      starts_with "case ljbindex" l || starts_with "0:" l || starts_with "1:" l
      || starts_with "2:" l || starts_with "3:" l || l = "end;")

let figure_4_3 () =
  show_spec_and_lines
    "Figure 4.3 — Memory specification and code generated"
    "# fig 4.3\nmemory address data operation .\nM memory address data operation -4 12 34 56 78\nA address 1 0 1\nA data 1 0 99\nA operation 1 0 13\n.\n"
    ~pick:(fun l ->
      starts_with "ljbmemory[" l || starts_with "case land(opnmemory" l
      || starts_with "tempmemory :=" l || starts_with "soutput" l
      || starts_with "if land(opnmemory" l || starts_with "writeln('Write" l
      || starts_with "writeln('Read" l)

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

(* Monotonic, as in bench/suite/sample.ml: a wall-clock step can never show
   up as a measured time. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let sieve_analysis () =
  Asim.Analysis.analyze
    (Asim_stackm.Microcode.spec ~cycles:Asim_stackm.Programs.sieve_cycles
       ~program:Asim_stackm.Programs.sieve ())

(* Time one engine running the 5545-cycle sieve [reps] times and keep the
   best run.  Min, not mean: scheduler noise and GC pauses only ever add
   time, so the minimum is the least-contaminated estimate. *)
let sim_time ~reps build =
  let analysis = sieve_analysis () in
  (* Building is part of "preparation", not simulation. *)
  let machines = List.init reps (fun _ -> build analysis) in
  List.fold_left
    (fun best m ->
      let (), t =
        time (fun () ->
            Asim.Machine.run m ~cycles:Asim_stackm.Programs.sieve_cycles)
      in
      Float.min best t)
    infinity machines

(* ------------------------------------------------------------------ *)
(* §4.4 closure ablation (DESIGN.md)                                   *)
(* ------------------------------------------------------------------ *)

let figure_ablation () =
  hr "Ablation — §4.4 optimizations in the closure engine";
  let reps = 5 in
  let optimized =
    sim_time ~reps (fun a ->
        Asim.Compile.create ~config:Asim.Machine.quiet_config ~optimize:true a)
  in
  let unoptimized =
    sim_time ~reps (fun a ->
        Asim.Compile.create ~config:Asim.Machine.quiet_config ~optimize:false a)
  in
  let interp =
    sim_time ~reps (fun a -> Asim.Interp.create ~config:Asim.Machine.quiet_config a)
  in
  Printf.printf "sieve, 5545 cycles, seconds per run:\n";
  Printf.printf "  interpreter (symbol-table walk):        %.4f\n" interp;
  Printf.printf "  closures, optimizations disabled:       %.4f\n" unoptimized;
  Printf.printf "  closures, constant fn/op specialized:   %.4f\n" optimized;
  Printf.printf "optimization contribution: %.2fx of the closure engine's win\n"
    (unoptimized /. max 1e-9 optimized)

(* ------------------------------------------------------------------ *)
(* Scaling: the interpretation tax as specifications grow              *)
(* ------------------------------------------------------------------ *)

(* A synthetic machine with [n] chained adders feeding one register, so the
   combinational work grows linearly with [n]. *)
let chain_spec n =
  let open Asim in
  let open Asim.Expr in
  let alu name fn left right =
    { Asim.Component.name; kind = Asim.Component.Alu { fn; left; right } }
  in
  let first = alu "a0" [ num 4 ] [ ref_ "r" ] [ num 1 ] in
  let rest =
    List.init (n - 1) (fun i ->
        alu
          (Printf.sprintf "a%d" (i + 1))
          [ num 4 ]
          [ Expr.ref_range (Printf.sprintf "a%d" i) 0 15 ]
          [ num_w (i land 7) ~width:3 ])
  in
  let reg =
    {
      Asim.Component.name = "r";
      kind =
        Asim.Component.Memory
          {
            addr = [ num 0 ];
            data = [ Expr.ref_range (Printf.sprintf "a%d" (n - 1)) 0 15 ];
            op = [ num 1 ];
            cells = 1;
            init = None;
          };
    }
  in
  Asim.Analysis.analyze (Asim.Spec.make ((first :: rest) @ [ reg ]))

let figure_scaling () =
  hr "Extension — per-cycle cost vs specification size (who wins, where)";
  Printf.printf "%8s %16s %16s %8s\n" "ALUs" "interp ns/cycle" "compiled ns/cycle"
    "ratio";
  List.iter
    (fun n ->
      let analysis = chain_spec n in
      let cycles = max 200 (2_000_000 / n) in
      let per_cycle build =
        let m : Asim.Machine.t = build analysis in
        (* warm up *)
        Asim.Machine.run m ~cycles:10;
        let _, t = time (fun () -> Asim.Machine.run m ~cycles) in
        t /. float_of_int cycles *. 1e9
      in
      let interp =
        per_cycle (fun a -> Asim.Interp.create ~config:Asim.Machine.quiet_config a)
      in
      let compiled =
        per_cycle (fun a -> Asim.Compile.create ~config:Asim.Machine.quiet_config a)
      in
      Printf.printf "%8d %16.0f %16.0f %7.1fx\n" n interp compiled
        (interp /. compiled))
    [ 4; 16; 64; 256; 1024 ];
  Printf.printf
    "(the compiled engine wins at every size; the gap is the per-reference\n\
    \ symbol interpretation ASIM II eliminates)\n"

(* ------------------------------------------------------------------ *)
(* Levels of abstraction (§1.2, §1.3, §2.2): ISP vs RTL                *)
(* ------------------------------------------------------------------ *)

let figure_levels () =
  hr "Extension — abstraction levels: instruction set (ISP) vs register transfer";
  let reps = 5 in
  let instructions =
    let t = Asim_stackm.Ispsim.create Asim_stackm.Programs.sieve in
    Asim_stackm.Ispsim.run t
  in
  let _, isp_time =
    time (fun () ->
        for _ = 1 to reps do
          ignore (Asim_stackm.Ispsim.run (Asim_stackm.Ispsim.create Asim_stackm.Programs.sieve))
        done)
  in
  let isp_time = isp_time /. float_of_int reps in
  let rtl_time =
    sim_time ~reps (fun a -> Asim.Compile.create ~config:Asim.Machine.quiet_config a)
  in
  Printf.printf
    "sieve workload: %d instructions at the ISP level, %d cycles at the RTL\n"
    instructions Asim_stackm.Programs.sieve_cycles;
  Printf.printf "  cycles per instruction: %.2f (timing detail the ISP cannot see, §1.3)\n"
    (float_of_int Asim_stackm.Programs.sieve_cycles /. float_of_int instructions);
  Printf.printf "  ISP run %.5f s, compiled RTL run %.5f s -> ISP is %.0fx faster\n"
    isp_time rtl_time (rtl_time /. max 1e-9 isp_time);
  (* ...and one level further down: the boolean network of §2.2.2. *)
  let analysis = sieve_analysis () in
  let gates = Asim_gates.Circuit.of_analysis analysis in
  let g_stats = Asim_gates.Circuit.stats gates in
  let _, gate_time =
    time (fun () ->
        Asim_gates.Circuit.run gates ~cycles:Asim_stackm.Programs.sieve_cycles)
  in
  Printf.printf
    "  gate-level run %.4f s through %d gates / %d flip-flops / %d macros\n"
    gate_time g_stats.Asim_gates.Circuit.gate_count
    g_stats.Asim_gates.Circuit.dff_count g_stats.Asim_gates.Circuit.macro_count;
  Printf.printf "  ladder (per sieve run): ISP %.5f s < RTL %.5f s < gates %.4f s\n"
    isp_time rtl_time gate_time;
  Printf.printf
    "  (the classic trade: each level up simulates faster and reveals less —\n\
    \   the ISP gives no concurrency, timing, or interconnection data, §2.1.2)\n"

(* ------------------------------------------------------------------ *)
(* Ablations the benchmark suite does not report yet                   *)
(* ------------------------------------------------------------------ *)

(* Two measurements kept here, methods unchanged, until bench/suite
   reports them as per-layer metrics: the per-pass optimizer ablation on the
   suite's two 10k-component specs and the flat kernel's profiling
   overhead.  Each part carries its witness; [ablations] is false when one
   fails. *)

let quiet = Asim.Machine.quiet_config

(* The profiling row fails at or above this overhead ([(on - off) / off]),
   and the counters-off hot loop may allocate at most this many minor words
   over 2000 steps — the fixed allowance test_flat enforces, which must not
   scale with the cycle count.  50k cycles, because one timer quantum swamps
   a shorter run, and the min of 5 reps a side. *)
let overhead_ceiling = 0.05
let alloc_allowance = 256.0
let prof_cycles = 50_000
let prof_reps = 5

(* The suite's two 10k-component specs. *)
let mesh_10k () = Asim_fuzz.Gen.mesh ~width:99 ~height:100 ~seed:1 ()
let pipeline_10k () = Asim_fuzz.Gen.pipeline ~cores:100 ~depth:99 ~seed:1 ()

(* Both thesis machines park in halt spins, so any cycle budget is safe. *)
let sieve_spec () =
  Asim_stackm.Microcode.spec ~program:Asim_stackm.Demos.sieve_reassembled ()

let tinyc_spec () =
  Asim_tinyc.Machine.spec ~program:Asim_tinyc.Machine.demo_image ()

let per_cycle_ns ~cycles wall = wall /. float_of_int (max 1 cycles) *. 1e9

(* Build one machine (timed: the preparation), warm the code paths on it,
   then keep the best [cycles]-cycle run over [reps] fresh machines — state
   is cumulative, so each rep needs its own. *)
let bench_machine ~reps ~cycles build =
  let first, build_s = time build in
  Asim.Machine.run first ~cycles:(min cycles 64);
  let wall = ref infinity in
  for _ = 1 to max 1 reps do
    let m = build () in
    let (), t = time (fun () -> Asim.Machine.run m ~cycles) in
    wall := Float.min !wall t
  done;
  (build_s, !wall)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter
        (fun entry -> remove_tree (Filename.concat path entry))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* Native builds go to a fresh, empty artifact cache, so the first build of
   each spec is an honest cold generate+compile+dynlink. *)
let with_temp_jit_cache f =
  let dir = Filename.temp_file "asim-bench-jit" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

(* [bench_machine] on the native engine, [None] without a toolchain.  The
   in-process memo is cleared first, so the first (timed) build compiles the
   plugin into [jit_cache_dir] or loads it from there; the rep builds reuse
   it. *)
let native_run ~reps ~cycles ~jit_cache_dir analysis =
  if not (Asim.Jit.available ()) then None
  else begin
    Asim.Jit.clear_memory_cache ();
    Some
      (bench_machine ~reps ~cycles (fun () ->
           Asim.Jit.create ~config:quiet ~cache_dir:jit_cache_dir analysis))
  end

(* 1. Profiling overhead: the flat kernel with per-component counters on
   versus off, the reps interleaved so clock-frequency and cache drift
   cannot pass for (even negative) overhead. *)
let profiling_overhead ~name spec =
  let analysis = Asim.Analysis.analyze spec in
  let cycles = prof_cycles in
  let one prof_on =
    let prof = if prof_on then Some (Asim.Prof.create analysis) else None in
    let m = Asim.Flat.create ~config:quiet ?prof analysis in
    Asim.Machine.run m ~cycles:64;
    let (), t = time (fun () -> Asim.Machine.run m ~cycles) in
    per_cycle_ns ~cycles t
  in
  ignore (one false);
  ignore (one true);
  let off = ref infinity and on = ref infinity in
  for _ = 1 to prof_reps do
    off := Float.min !off (one false);
    on := Float.min !on (one true)
  done;
  let off = !off and on = !on in
  let overhead = if off > 0.0 then (on -. off) /. off else 0.0 in
  let off_words =
    let m = Asim.Flat.create ~config:quiet analysis in
    Asim.Machine.run m ~cycles:64;
    let before = Gc.minor_words () in
    for _ = 1 to 2000 do
      m.Asim.Machine.step ()
    done;
    Gc.minor_words () -. before
  in
  let ok = overhead < overhead_ceiling && off_words <= alloc_allowance in
  Printf.printf
    "  %-12s off %6.0f ns/cycle, on %6.0f ns/cycle, overhead %+5.1f%%; \
     counters-off allocation %.0f words / 2000 steps%s\n"
    name off on (100.0 *. overhead) off_words
    (if ok then "" else "  FAILED");
  ok

let profiling_section () =
  Printf.printf
    "Profiling overhead (flat, %d cycles, min of %d interleaved reps; \
     ceiling %.0f%%, allocation allowance %.0f words):\n"
    prof_cycles prof_reps (100.0 *. overhead_ceiling) alloc_allowance;
  let sieve = profiling_overhead ~name:"stackm-sieve" (sieve_spec ()) in
  let tinyc = profiling_overhead ~name:"tinyc-demo" (tinyc_spec ()) in
  sieve && tinyc

(* 2. The per-pass optimizer ablation: each pass added cumulatively in
   pipeline order, as flat program words and flat ns/cycle per step, plus
   native at the -O0/-O2 endpoints (separate plugin compiles: the optimizer
   changes the generated source).  Words saved are signed, so a pass that
   buys nothing shows 0 instead of being dropped.  The witness: flat -O2
   and flat -O0 agree on every live (not DCE'd) component for 50 cycles. *)
let cumulative_passes =
  List.init (List.length Asim.Opt.all_passes) (fun k ->
      List.filteri (fun i _ -> i <= k) Asim.Opt.all_passes)

let lockstep_live ~cycles (a0 : Asim.Analysis.t) (full : Asim.Opt.result) =
  let dead = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace dead n ()) full.Asim.Opt.dead;
  let names =
    List.filter
      (fun n -> not (Hashtbl.mem dead n))
      (List.map
         (fun (c : Asim.Component.t) -> c.name)
         a0.Asim.Analysis.spec.Asim.Spec.components)
  in
  let m0 = Asim.Flat.create ~config:quiet a0 in
  let m2 = Asim.Flat.create ~config:quiet full.Asim.Opt.analysis in
  try
    for _ = 1 to cycles do
      m0.Asim.Machine.step ();
      m2.Asim.Machine.step ();
      List.iter
        (fun n ->
          if m0.Asim.Machine.read n <> m2.Asim.Machine.read n then raise Exit)
        names
    done;
    true
  with Exit -> false

let opt_ablation ~jit_cache_dir ~name (spec : Asim.Spec.t) =
  let reps = 3 in
  let cycles = Option.value spec.Asim.Spec.cycles ~default:200 in
  let analysis = Asim.Analysis.analyze spec in
  let flat_ns a =
    let _, wall =
      bench_machine ~reps ~cycles (fun () -> Asim.Flat.create ~config:quiet a)
    in
    per_cycle_ns ~cycles wall
  in
  let full = Asim.Opt.run_result ~level:Asim.Opt.O2 analysis in
  let dead = List.length full.Asim.Opt.dead in
  Printf.printf
    "%s: %d components, %d cycles, %d dead component%s at O2, scheduler %s\n"
    name
    (List.length spec.Asim.Spec.components)
    cycles dead
    (if dead = 1 then "" else "s")
    (if full.Asim.Opt.stats.Asim.Opt.scheduled then "ran" else "gated off");
  Printf.printf "  %-12s %12s %12s %14s\n" "step" "flat words" "words saved"
    "flat ns/cycle";
  let row label words saved ns =
    Printf.printf "  %-12s %12d %12d %14.0f\n" label words saved ns
  in
  let o0_words = Asim.Flat.program_size analysis in
  let o0_ns = flat_ns analysis in
  row "O0" o0_words 0 o0_ns;
  let o2_ns =
    List.fold_left
      (fun (prev_words, _) passes ->
        let r = Asim.Opt.run_result ~passes analysis in
        let words = Asim.Flat.program_size r.Asim.Opt.analysis in
        let ns = flat_ns r.Asim.Opt.analysis in
        let last = List.nth passes (List.length passes - 1) in
        row ("+" ^ Asim.Opt.pass_to_string last) words (prev_words - words) ns;
        (words, ns))
      (o0_words, o0_ns) cumulative_passes
    |> snd
  in
  Printf.printf "  flat O2 vs O0: %.2fx\n" (o0_ns /. o2_ns);
  let native a =
    Option.map
      (fun (_, wall) -> per_cycle_ns ~cycles wall)
      (native_run ~reps ~cycles ~jit_cache_dir a)
  in
  let native_o0 = native analysis in
  let native_o2 = native full.Asim.Opt.analysis in
  (match (native_o0, native_o2) with
  | Some a, Some b ->
      Printf.printf "  native: O0 %.0f ns/cycle, O2 %.0f ns/cycle (%.2fx)\n" a b
        (a /. b)
  | _ -> print_endline "  native: no OCaml toolchain on PATH, skipped");
  let check = min cycles 50 in
  let ok = lockstep_live ~cycles:check analysis full in
  Printf.printf "  lockstep flat O2 vs O0 (%d cycles, live components): %s\n\n"
    check
    (if ok then "yes" else "NO — DIVERGED");
  ok

let opt_section ~jit_cache_dir =
  print_endline "Per-pass optimizer ablation (cumulative, pipeline order):";
  let mesh = opt_ablation ~jit_cache_dir ~name:"genspec-mesh-10k" (mesh_10k ()) in
  let pipeline =
    opt_ablation ~jit_cache_dir ~name:"genspec-pipeline-10k" (pipeline_10k ())
  in
  mesh && pipeline

let ablations () =
  hr "Ablations — kept here until bench/suite reports them";
  Printf.printf "(%d core(s) online)\n\n" (Domain.recommended_domain_count ());
  with_temp_jit_cache (fun jit_cache_dir ->
      let profiling_ok = profiling_section () in
      print_newline ();
      let opt_ok = opt_section ~jit_cache_dir in
      profiling_ok && opt_ok)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure           *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let fig31_test =
  let expr = Asim.Parser.parse_expr "mem.3.4,#01,count.1" in
  Test.make ~name:"fig3.1/concat-eval"
    (Staged.stage (fun () ->
         ignore (Asim.Expr.eval ~read:(fun _ -> 0b11010) expr : int)))

let codegen_test name source =
  let analysis = Asim.load_string source in
  Test.make ~name (Staged.stage (fun () ->
      ignore (Asim_codegen.Pascal.generate analysis : string)))

let fig41_test =
  codegen_test "fig4.1/alu-codegen"
    "# f\nalu add compute left .\nA alu compute left 3048\nA add 4 left 3048\nA compute 1 0 7\nA left 1 0 1\n.\n"

let fig42_test =
  codegen_test "fig4.2/selector-codegen"
    "# f\ns i v0 v1 v2 v3 .\nS s i v0 v1 v2 v3\nA i 1 0 2\nA v0 1 0 1\nA v1 1 0 2\nA v2 1 0 3\nA v3 1 0 4\n.\n"

let fig43_test =
  codegen_test "fig4.3/memory-codegen"
    "# f\nm a d o .\nM m a d o -4 12 34 56 78\nA a 1 0 1\nA d 1 0 9\nA o 1 0 13\n.\n"

let isp_level_test =
  (* Restart the image when it halts so every call executes a real
     instruction (creation cost amortizes over the ~1000-instruction run). *)
  let machine = ref (Asim_stackm.Ispsim.create Asim_stackm.Demos.sieve_reassembled) in
  Test.make ~name:"levels/isp-instruction"
    (Staged.stage (fun () ->
         if not (Asim_stackm.Ispsim.step !machine) then
           machine := Asim_stackm.Ispsim.create Asim_stackm.Demos.sieve_reassembled))

let gate_level_test =
  let analysis =
    Asim.Analysis.analyze
      (Asim_stackm.Microcode.spec ~program:Asim_stackm.Demos.sieve_reassembled ())
  in
  let c = Asim_gates.Circuit.of_analysis analysis in
  Test.make ~name:"levels/gate-cycle"
    (Staged.stage (fun () -> Asim_gates.Circuit.step c))

let appf_netlist_test =
  let spec = Asim_tinyc.Machine.spec ~program:Asim_tinyc.Machine.demo_image () in
  Test.make ~name:"appF/tinyc-netlist"
    (Staged.stage (fun () -> ignore (Asim_netlist.Synth.synthesize spec : Asim_netlist.Synth.t)))

let run_bechamel () =
  hr "Bechamel micro-benchmarks (ns per call, OLS on monotonic clock)";
  let tests =
    [
      fig31_test; fig41_test; fig42_test; fig43_test; isp_level_test;
      gate_level_test; appf_netlist_test;
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ Instance.monotonic_clock ] (Test.make_grouped ~name:"g" [ test ]) in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> e
            | _ -> nan
          in
          Printf.printf "  %-36s %12.1f ns/run\n" name ns)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)

let () =
  let quick = Array.exists (fun a -> a = "quick") Sys.argv in
  let ablations_only = Array.exists (fun a -> a = "ablations") Sys.argv in
  let ok =
    if ablations_only then ablations ()
    else begin
      figure_3_1 ();
      figure_4_1 ();
      figure_4_2 ();
      figure_4_3 ();
      figure_ablation ();
      figure_scaling ();
      figure_levels ();
      let ok = ablations () in
      if not quick then run_bechamel ();
      ok
    end
  in
  print_newline ();
  if not ok then exit 1
