(* Benchmark harness: regenerates every table and figure of the thesis's
   evaluation, plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe            # figures + Bechamel micro-benchmarks
     dune exec bench/main.exe -- quick   # skip the Bechamel pass

   Figures:
   - Figure 3.1  bit-concatenation layout
   - Figure 4.1  ALU code generation (generic vs optimized)
   - Figure 4.2  Selector code generation
   - Figure 4.3  Memory code generation
   - Figure 5.1  execution-time comparison of ASIM and ASIM II on the stack
                 machine sieve (5545 cycles)
*)

open Bechamel
open Toolkit

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
(* Figure 5.1                                                          *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let sieve_analysis () =
  Asim.Analysis.analyze
    (Asim_stackm.Microcode.spec ~cycles:Asim_stackm.Programs.sieve_cycles
       ~program:Asim_stackm.Programs.sieve ())

(* Time one engine running the 5545-cycle sieve [reps] times and keep the
   best run.  Min, not mean: scheduler noise and GC pauses only ever add
   time, so the minimum is the least-contaminated estimate (and matches
   what the benchkit harness reports). *)
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

let figure_5_1 () =
  hr "Figure 5.1 — execution time comparison of ASIM and ASIM II";
  Printf.printf
    "Workload: Itty Bitty Stack Machine running the Sieve of Eratosthenes,\n\
     5545 cycles (the paper's exact configuration).  Paper timings were on a\n\
     VAX 11/780; ours are on this machine — compare shapes and ratios, not\n\
     absolute numbers.\n\n";

  let reps = 5 in
  (* ASIM: read the specification into tables, then interpret. *)
  let _, asim_prepare =
    time (fun () ->
        for _ = 1 to reps do
          ignore (Asim.Interp.create ~config:Asim.Machine.quiet_config (sieve_analysis ()))
        done)
  in
  let asim_prepare = asim_prepare /. float_of_int reps in
  let asim_sim =
    sim_time ~reps (fun a -> Asim.Interp.create ~config:Asim.Machine.quiet_config a)
  in

  (* ASIM II: generate a simulator program, compile it, execute it. *)
  let pipeline =
    Asim_codegen.Pipeline.run ~cycles:Asim_stackm.Programs.sieve_cycles
      ~lang:Asim_codegen.Codegen.Ocaml (sieve_analysis ())
  in

  (* ASIM II, in-process variant: compile the spec to closures. *)
  let _, closures_prepare =
    time (fun () ->
        for _ = 1 to reps do
          ignore (Asim.Compile.create ~config:Asim.Machine.quiet_config (sieve_analysis ()))
        done)
  in
  let closures_prepare = closures_prepare /. float_of_int reps in
  let closures_sim =
    sim_time ~reps (fun a -> Asim.Compile.create ~config:Asim.Machine.quiet_config a)
  in

  Printf.printf "%-46s %12s %12s\n" "" "paper (s)" "here (s)";
  let row label paper here = Printf.printf "%-46s %12s %12.4f\n" label paper here in
  Printf.printf "ASIM (interpreter)\n";
  row "  Generate tables" "10.8" asim_prepare;
  row "  Simulation time" "310.6" asim_sim;
  (match pipeline with
  | Ok r ->
      let t = r.Asim_codegen.Pipeline.timings in
      Printf.printf "ASIM II (generate + compile + execute)\n";
      row "  Generate code" "34.2" t.Asim_codegen.Pipeline.generate_s;
      row "  Compile" "43.2" t.Asim_codegen.Pipeline.compile_s;
      row "  Simulation time" "15.0" t.Asim_codegen.Pipeline.run_s;
      Printf.printf "ASIM II (in-process closure compiler)\n";
      row "  Compile to closures" "-" closures_prepare;
      row "  Simulation time" "-" closures_sim;
      Printf.printf "Traditional methods (reported, not measured)\n";
      Printf.printf "%-46s %12s %12s\n" "  Generate prototype" "100000" "-";
      Printf.printf "%-46s %12s %12s\n" "  Run prototype" "0.01" "-";
      print_newline ();
      let sim_ratio = asim_sim /. max 1e-9 t.Asim_codegen.Pipeline.run_s in
      let closure_ratio = asim_sim /. max 1e-9 closures_sim in
      let end_to_end =
        (asim_prepare +. asim_sim)
        /. max 1e-9
             (t.Asim_codegen.Pipeline.generate_s
             +. t.Asim_codegen.Pipeline.compile_s
             +. t.Asim_codegen.Pipeline.run_s)
      in
      Printf.printf "simulation-only speedup (paper: ~20x, abstract: \"approximately\n";
      Printf.printf "an order of magnitude\"):                        %6.1fx\n" sim_ratio;
      Printf.printf "closure-engine simulation speedup:              %6.1fx\n" closure_ratio;
      Printf.printf "end-to-end speedup incl. preparation (paper: ~2.5x): %.2fx\n" end_to_end;

      (* Where the crossover falls: the paper's extra preparation (66.6 s)
         was repaid after ~1250 cycles, so its 5545-cycle workload showed an
         end-to-end win.  Our compiler is relatively more expensive per
         cycle saved, so the crossover sits at more cycles. *)
      let interp_per_cycle = asim_sim /. 5545. in
      let binary_per_cycle = t.Asim_codegen.Pipeline.run_s /. 5545. in
      let extra_prep =
        t.Asim_codegen.Pipeline.generate_s +. t.Asim_codegen.Pipeline.compile_s
        -. asim_prepare
      in
      let crossover =
        extra_prep /. max 1e-12 (interp_per_cycle -. binary_per_cycle)
      in
      Printf.printf "\nend-to-end crossover: ASIM II wins beyond ~%.0f cycles\n" crossover;
      Printf.printf "(paper: ~%.0f cycles, so its 5545-cycle run was already past it)\n"
        (66.6 /. ((310.6 -. 15.0) /. 5545.));
      (* Verify with a long run: the re-assembled sieve parks in a halt
         spin, so it can execute any cycle budget. *)
      let long = int_of_float (4. *. crossover) in
      let long_spec () =
        Asim.Analysis.analyze
          (Asim_stackm.Microcode.spec ~program:Asim_stackm.Demos.sieve_reassembled ())
      in
      let _, interp_long =
        time (fun () ->
            let m = Asim.Interp.create ~config:Asim.Machine.quiet_config (long_spec ()) in
            Asim.Machine.run m ~cycles:long)
      in
      (match
         Asim_codegen.Pipeline.run ~cycles:long ~lang:Asim_codegen.Codegen.Ocaml
           (long_spec ())
       with
      | Ok r2 ->
          let t2 = r2.Asim_codegen.Pipeline.timings in
          let e2e =
            (asim_prepare +. interp_long)
            /. (t2.Asim_codegen.Pipeline.generate_s
               +. t2.Asim_codegen.Pipeline.compile_s
               +. t2.Asim_codegen.Pipeline.run_s)
          in
          Printf.printf
            "verification at %d cycles: ASIM %.3f s vs ASIM II %.3f s -> %.2fx end-to-end\n"
            long
            (asim_prepare +. interp_long)
            (t2.Asim_codegen.Pipeline.generate_s
            +. t2.Asim_codegen.Pipeline.compile_s
            +. t2.Asim_codegen.Pipeline.run_s)
            e2e
      | Error _ -> ())
  | Error e ->
      Printf.printf "ASIM II pipeline unavailable here (%s);\n" e;
      Printf.printf "in-process closure compiler stands in:\n";
      row "  Compile to closures" "34.2+43.2" closures_prepare;
      row "  Simulation time" "15.0" closures_sim;
      Printf.printf "simulation-only speedup (paper: ~20x): %6.1fx\n"
        (asim_sim /. max 1e-9 closures_sim))

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md)                                               *)
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
(* Batch throughput: same spec × 1..P worker domains                   *)
(* ------------------------------------------------------------------ *)

(* 64 identical jobs over the stack-machine sieve (5545 cycles each),
   executed at increasing pool widths.  Records jobs/sec, speedup vs one
   domain, and the compiled-spec cache hit rate to BENCH_batch.json, and
   checks that every width produces byte-identical result lines. *)
(* Serve under load: an in-process TCP server (hash-sharded worker
   domains, content-addressed spec store) driven by the load generator at
   256 concurrent connections.  Every connection uploads the counter spec
   (deduplicated to one store entry), then pipelines submit-by-hash jobs;
   the report proves zero dropped or duplicated replies and records the
   shard-cache hit rate those jobs enjoyed. *)
let figure_serve () =
  hr "Extension — serve under load: 256 TCP connections, submit-by-hash";
  let cores_online = Domain.recommended_domain_count () in
  let shards = max 1 (min 4 cores_online) in
  (* queue depth sized for the full offered load: this figure measures
     sustained throughput and latency, not the backpressure path (which
     test/test_serve.ml exercises on a deliberately tiny queue) *)
  let config =
    {
      Asim_serve.Server.default_config with
      Asim_serve.Server.shards;
      queue_depth = 2048;
    }
  in
  let server = Asim_serve.Server.create ~config () in
  let port =
    Asim_serve.Server.listen server (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
  in
  let th = Thread.create Asim_serve.Server.serve server in
  let report =
    Asim_serve.Loadgen.run
      {
        Asim_serve.Loadgen.default_config with
        Asim_serve.Loadgen.port;
        connections = 256;
        jobs_per_connection = 4;
        cycles = Some 2000;
      }
  in
  Asim_serve.Server.shutdown server;
  Thread.join th;
  print_string (Asim_serve.Loadgen.report_to_string report);
  Printf.printf "(%d shard domain(s), %d core(s) online)\n" shards cores_online;
  if
    report.Asim_serve.Loadgen.dropped > 0
    || report.Asim_serve.Loadgen.duplicates > 0
  then prerr_endline "WARNING: serve load run dropped or duplicated results";
  Asim_batch.Json.Obj
    [
      ("spec", Asim_batch.Json.String "counter");
      ("cycles_per_job", Asim_batch.Json.Int 2000);
      ("shards", Asim_batch.Json.Int shards);
      ("cores_online", Asim_batch.Json.Int cores_online);
      (* throughput on a starved core count is load-test plumbing, not a
         scaling claim — same honesty rule as the batch rows *)
      ("scaling_valid", Asim_batch.Json.Bool (cores_online > 1));
      ("loadgen", Asim_serve.Loadgen.report_to_json report);
    ]

let figure_batch ?serve () =
  hr "Extension — batch throughput: 64 sieve jobs across worker domains";
  let job_count = 64 in
  let manifest =
    List.init job_count (fun i ->
        Asim_batch.Json.to_string
          (Asim_batch.Proto.job_to_json
             {
               Asim_batch.Proto.id = Some (Printf.sprintf "sieve-%02d" i);
               trace_id = None;
               source = Asim_batch.Proto.Example "stack-machine-sieve";
               engine = `Compiled;
               cycles = None;
               inputs = [];
               want = [ Asim_batch.Proto.Outputs ];
               timeout_s = None;
               opt = None;
             }))
  in
  let run_at ?tracer domains =
    let t = Asim_batch.Runner.create ?tracer () in
    let lines = ref manifest in
    let next () =
      match !lines with
      | [] -> None
      | line :: rest ->
          lines := rest;
          Some line
    in
    let results = ref [] in
    let emit line = results := line :: !results in
    let (), wall = time (fun () ->
        ignore (Asim_batch.Runner.process t ~jobs:domains ~next ~emit : int))
    in
    let summary = Asim_batch.Runner.summary t ~wall_s:wall in
    (summary, wall, List.rev !results)
  in
  let widths =
    let cores = Domain.recommended_domain_count () in
    List.filter (fun w -> w = 1 || w <= max 2 cores) [ 1; 2; 4; 8 ]
  in
  let runs = List.map (fun w -> (w, run_at w)) widths in
  let _, (_, base_wall, base_results) = List.hd runs in
  let byte_identical =
    List.for_all (fun (_, (_, _, results)) -> results = base_results) runs
  in
  Printf.printf "%8s %12s %12s %10s %10s\n" "domains" "wall (s)" "jobs/sec" "speedup"
    "cache hit";
  List.iter
    (fun (w, (summary, wall, _)) ->
      Printf.printf "%8d %12.3f %12.1f %9.2fx %9.1f%%\n" w wall
        summary.Asim_batch.Metrics.jobs_per_sec (base_wall /. wall)
        (100.0 *. Asim_batch.Cache.hit_rate summary.Asim_batch.Metrics.cache))
    runs;
  Printf.printf "results byte-identical across widths: %b\n" byte_identical;
  Printf.printf "(only %d core(s) online here; speedup needs real parallel hardware)\n"
    (Domain.recommended_domain_count ());
  (* Instrumentation overhead: the same 64 jobs at width 1 with a live
     tracer vs without.  Plain and traced runs are interleaved (so clock
     drift, GC state and cache warmth bias neither side) and each side
     takes its minimum, which filters scheduler noise; target < 3%. *)
  let overhead_reps = 5 in
  let plain_wall = ref infinity and traced_wall = ref infinity in
  let span_count = ref 0 in
  for _ = 1 to overhead_reps do
    let _, plain, _ = run_at 1 in
    plain_wall := Float.min !plain_wall plain;
    let tracer = Asim_obs.Tracer.create () in
    let _, traced, _ = run_at ~tracer 1 in
    span_count := Asim_obs.Tracer.event_count tracer;
    traced_wall := Float.min !traced_wall traced
  done;
  let plain_wall = !plain_wall and traced_wall = !traced_wall in
  let overhead_pct = 100.0 *. ((traced_wall /. plain_wall) -. 1.0) in
  Printf.printf
    "tracing overhead at width 1: plain %.3f s, traced %.3f s (%+.2f%%, %d spans)\n"
    plain_wall traced_wall overhead_pct !span_count;
  let cores_online = Domain.recommended_domain_count () in
  let json =
    Asim_batch.Json.Obj
      ([
        ("spec", Asim_batch.Json.String "stack-machine-sieve");
        ("engine", Asim_batch.Json.String "compiled");
        ("jobs", Asim_batch.Json.Int job_count);
        ("cycles_per_job", Asim_batch.Json.Int Asim_stackm.Programs.sieve_cycles);
        ("cores_online", Asim_batch.Json.Int cores_online);
        ("byte_identical", Asim_batch.Json.Bool byte_identical);
        ( "runs",
          Asim_batch.Json.List
            (List.map
               (fun (w, (summary, wall, _)) ->
                 (* A multi-domain "speedup" measured on a single online
                    core is scheduler noise, not scaling — tag the row
                    instead of reporting a meaningless ratio. *)
                 let scaling_valid = w = 1 || cores_online > 1 in
                 Asim_batch.Json.Obj
                   ([
                      ("domains", Asim_batch.Json.Int w);
                      ("wall_s", Asim_batch.Json.Float wall);
                      ( "jobs_per_sec",
                        Asim_batch.Json.Float summary.Asim_batch.Metrics.jobs_per_sec );
                      ("scaling_valid", Asim_batch.Json.Bool scaling_valid);
                    ]
                   @ (if scaling_valid then
                        [ ("speedup_vs_1", Asim_batch.Json.Float (base_wall /. wall)) ]
                      else [])
                   @ [
                       ( "cache_hit_rate",
                         Asim_batch.Json.Float
                           (Asim_batch.Cache.hit_rate summary.Asim_batch.Metrics.cache) );
                       ( "metrics",
                         Asim_batch.Metrics.to_json summary );
                     ]))
               runs) );
        ( "tracing_overhead",
          Asim_batch.Json.Obj
            [
              ("plain_wall_s", Asim_batch.Json.Float plain_wall);
              ("traced_wall_s", Asim_batch.Json.Float traced_wall);
              ("overhead_pct", Asim_batch.Json.Float overhead_pct);
              ("span_count", Asim_batch.Json.Int !span_count);
            ] );
      ]
      @ match serve with Some j -> [ ("serve", j) ] | None -> [])
  in
  let oc = open_out "BENCH_batch.json" in
  output_string oc (Asim_batch.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_batch.json"

(* ------------------------------------------------------------------ *)
(* Engine comparison: interp / compiled / lowered / flat (+ ablation)  *)
(* ------------------------------------------------------------------ *)

let figure_engines () =
  hr "Extension — engine comparison: flat kernel vs closures vs interpreter";
  let t = Asim_benchkit.Benchkit.run () in
  print_string (Asim_benchkit.Benchkit.table t);
  Asim_benchkit.Benchkit.write_json t ~path:"BENCH_engines.json";
  print_endline "wrote BENCH_engines.json";
  if not (Asim_benchkit.Benchkit.agree t) then
    prerr_endline "WARNING: engine differential check failed (see table above)"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure           *)
(* ------------------------------------------------------------------ *)

let stepper build =
  (* A machine running the re-assembled sieve (it parks in a halt spin, so
     stepping beyond 5545 cycles is safe). *)
  let spec =
    Asim_stackm.Microcode.spec ~program:Asim_stackm.Demos.sieve_reassembled ()
  in
  let analysis = Asim.Analysis.analyze spec in
  let m : Asim.Machine.t = build analysis in
  Staged.stage (fun () -> m.Asim.Machine.step ())

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

let fig51_interp_test =
  Test.make ~name:"fig5.1/asim-interp-step"
    (stepper (fun a -> Asim.Interp.create ~config:Asim.Machine.quiet_config a))

let fig51_compiled_test =
  Test.make ~name:"fig5.1/asim2-compiled-step"
    (stepper (fun a -> Asim.Compile.create ~config:Asim.Machine.quiet_config a))

let ablation_test =
  Test.make ~name:"ablation/asim2-unoptimized-step"
    (stepper (fun a ->
         Asim.Compile.create ~config:Asim.Machine.quiet_config ~optimize:false a))

let flat_test =
  Test.make ~name:"engines/flat-kernel-step"
    (stepper (fun a -> Asim.Flat.create ~config:Asim.Machine.quiet_config a))

let flat_full_test =
  Test.make ~name:"engines/flat-full-step"
    (stepper (fun a ->
         Asim.Flat.create ~config:Asim.Machine.quiet_config
           ~schedule:Asim.Flat.Full a))

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
      fig31_test; fig41_test; fig42_test; fig43_test; fig51_interp_test;
      fig51_compiled_test; ablation_test; flat_test; flat_full_test;
      isp_level_test; gate_level_test; appf_netlist_test;
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
  let batch_only = Array.exists (fun a -> a = "batch") Sys.argv in
  let engines_only = Array.exists (fun a -> a = "engines") Sys.argv in
  if batch_only then figure_batch ~serve:(figure_serve ()) ()
  else if engines_only then figure_engines ()
  else begin
    figure_3_1 ();
    figure_4_1 ();
    figure_4_2 ();
    figure_4_3 ();
    figure_5_1 ();
    figure_ablation ();
    figure_scaling ();
    figure_levels ();
    figure_batch ~serve:(figure_serve ()) ();
    figure_engines ();
    if not quick then run_bechamel ()
  end;
  print_newline ()
