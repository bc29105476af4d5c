(* Traced runs only: the per-layer breakdown.  Each layer is timed around
   its public entry point; where a layer's entry point hides sub-steps, the
   program's own spans (codegen.native.*, serve.*, pipeline.*,
   batch.cache_lookup) fill them in. *)

module Opt = Asim.Opt
module Json = Asim_batch.Json
open Engines

let sum_over fronts f = List.fold_left (fun acc x -> acc +. f x) 0.0 fronts

(* Fastest of [reps] samples of the summed time of [f] on every item. *)
let timed ~reps fronts f =
  Sample.minimum (List.init reps (fun _ -> sum_over fronts (fun x -> snd (Sample.time (fun () -> f x)))))

let count fronts f = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 fronts)

(* Opt's passes are timed as cumulative-prefix differences: running the
   first k passes minus running the first k-1 (k = 0 being the DAG round
   trip with no pass at all). *)
let opt_passes ~reps fronts =
  let prefix k = List.filteri (fun i _ -> i < k) Opt.all_passes in
  let times =
    List.init
      (List.length Opt.all_passes + 1)
      (fun k -> timed ~reps fronts (fun f -> Opt.run_result ~passes:(prefix k) f.raw))
  in
  List.mapi
    (fun i p ->
      ("opt.pass." ^ Opt.pass_to_string p ^ "_s", List.nth times (i + 1) -. List.nth times i))
    Opt.all_passes

let front ~reps fronts =
  let lex = timed ~reps fronts (fun f -> Asim_syntax.Lexer.tokenize f.item.Workload.text) in
  let parse = timed ~reps fronts (fun f -> Asim.Parser.parse_string f.item.Workload.text) in
  let stat g = count fronts (fun f -> g f.opt.Opt.stats) in
  [
    ("syntax.lex_s", lex);
    ("syntax.parse_s", parse -. lex);
    ("analysis.analyze_s", timed ~reps fronts (fun f -> Asim.Analysis.analyze f.raw.spec));
    ("analysis.components", count fronts (fun f -> List.length f.raw.spec.components));
    ("opt.total_s", timed ~reps fronts (fun f -> Opt.run_result ~level:Opt.O2 f.raw));
  ]
  @ opt_passes ~reps fronts
  @ [
      ("opt.folded", stat (fun s -> s.folded));
      ("opt.rewired", stat (fun s -> s.rewired));
      ("opt.stubbed", stat (fun s -> s.stubbed));
      ("opt.fused", stat (fun s -> s.fused));
      ("opt.narrowed", stat (fun s -> s.narrowed));
      ("opt.scheduled", stat (fun s -> Bool.to_int s.scheduled));
    ]

(* Share of combinational evaluations the flat kernel's activity rule
   skipped over each item's own cycle count. *)
let skip_rate fronts =
  let evals, slots =
    List.fold_left
      (fun (evals, slots) f ->
        let m, counts = Asim.Flat.create_debug ~config:Asim.Machine.quiet_config f.opt.analysis in
        let cycles = f.item.Workload.cycles in
        Asim.Machine.run m ~cycles;
        let counts = counts () in
        ( evals + List.fold_left (fun acc (_, n) -> acc + n) 0 counts,
          slots + (cycles * List.length counts) ))
      (0, 0) fronts
  in
  if slots = 0 then 0.0 else 1.0 -. (float_of_int evals /. float_of_int slots)

let kernels ~reps fronts =
  let plans = List.map (fun f -> Asim.Par.plan ~domains:par_domains f.opt.analysis) fronts in
  let imbalance (p : Asim.Par.plan) =
    let loads = Array.to_list p.p_loads in
    let mean = List.fold_left ( +. ) 0.0 loads /. float_of_int (max 1 (List.length loads)) in
    if mean <= 0.0 then 1.0 else List.fold_left Float.max 0.0 loads /. mean
  in
  [
    ("flat.compile_s", timed ~reps fronts (fun f -> Asim.Flat.compile f.opt.analysis));
    ("flat.program_words", count fronts (fun f -> Asim.Flat.program_size f.opt.analysis));
    ("flat.program_words_o0", count fronts (fun f -> Asim.Flat.program_size f.raw));
    ("flat.skip_rate", skip_rate fronts);
    ("par.plan_s", timed ~reps fronts (fun f -> Asim.Par.plan ~domains:par_domains f.opt.analysis));
    ("par.sync_groups", float_of_int (List.fold_left (fun a (p : Asim.Par.plan) -> a + p.p_ngroups) 0 plans));
    ("par.cut_edges", float_of_int (List.fold_left (fun a (p : Asim.Par.plan) -> a + p.p_cut) 0 plans));
    ("par.load_imbalance", List.fold_left (fun a p -> Float.max a (imbalance p)) 1.0 plans);
  ]

(* Native build, split by the program's codegen.native.* spans: the compile
   span wraps source generation plus ocamlopt, so generation is timed on
   its own and subtracted. *)
let jit ~reps fronts (native : samples) =
  let codegen = timed ~reps fronts (fun f -> Asim.Jit.generate_source f.opt.analysis) in
  let span name =
    Sample.minimum
      (List.map (fun spans -> Option.value (List.assoc_opt name spans) ~default:0.0) native.jit_spans)
  in
  [
    ("jit.codegen_s", codegen);
    ("jit.source_bytes", count fronts (fun f -> String.length (Asim.Jit.generate_source f.opt.analysis)));
    ("jit.compile_s", span "codegen.native.compile" -. codegen);
    ("jit.dynlink_s", span "codegen.native.dynlink");
  ]

(* Each engine's time to result predicted from its layers, and how far the
   prediction misses the whole call.  Both sides take the fastest sample,
   the statistic the gated metrics use. *)
let layer_sum (w : Workload.t) phase ~front_end_s =
  List.concat_map
    (fun (s : samples) ->
      let name = engine_name s.engine in
      let ns = Sample.minimum s.ns *. 1e-9 in
      let run_s =
        match w.mode with
        | Workload.Runs -> ns *. float_of_int (total_cycles phase.fronts)
        | Workload.Continuous -> Sample.minimum s.firsts +. (float_of_int (s.k - 1) *. ns)
      in
      let result_s = front_end_s +. Sample.minimum s.builds +. run_s in
      let whole = Sample.minimum s.wholes in
      [
        ("result_s." ^ name, result_s);
        ("layer_sum_error." ^ name, Float.abs (result_s -. whole) /. whole);
      ])
    phase.samples

(* The same flat spec-text -> N-cycles call with the program's tracer off
   and on, interleaved. *)
let trace_overhead ctx (w : Workload.t) (flat : samples) =
  let cycles = whole_cycles w.mode flat in
  let pairs =
    List.init 5 (fun _ ->
        let plain = whole ctx Flat w.items ~cycles in
        let traced = whole ~tracer:(Asim_obs.Tracer.create ()) ctx Flat w.items ~cycles in
        (plain, traced))
  in
  let plain = Sample.minimum (List.map fst pairs) and traced = Sample.minimum (List.map snd pairs) in
  (traced -. plain) /. plain

(* Figure 5.1's two ratios on this workload, from the layers: steady-state
   speed, and time to result including preparation over the workload's own
   cycle count. *)
let fig51 phase ~front_end_s =
  let ns e = Sample.minimum (by_engine phase e).ns *. 1e-9 in
  let prep e = front_end_s +. Sample.minimum (by_engine phase e).builds in
  let n = float_of_int (total_cycles phase.fronts) in
  [
    ("fig51.sim_ratio.compiled", ns Interp /. ns Compiled);
    ("fig51.sim_ratio.flat", ns Interp /. ns Flat);
    ("fig51.incl_prep_ratio.native", (prep Interp +. (n *. ns Interp)) /. (prep Native +. (n *. ns Native)));
    ("fig51.crossover_cycles.native", (prep Native -. prep Interp) /. (ns Interp -. ns Native));
  ]

let serve ~ready report (r : Serve_phase.open_result) =
  let p99 = Sample.percentile 0.99 in
  let trace = Option.value (Json.member "trace" report) ~default:Json.Null in
  let span name q =
    Option.bind (Json.member "spans" trace) (Json.member name)
    |> Fun.flip Option.bind (Json.member q)
    |> Fun.flip Option.bind Json.to_float
    |> Option.value ~default:nan
  in
  let int name = Option.value (Option.bind (Json.member name trace) Json.to_int) ~default:0 in
  let hits = int "cache_hits" and misses = int "cache_misses" in
  let kb = Option.value (Option.bind (Json.member "vmhwm_kb" report) Json.to_int) ~default:0 in
  [
    ("serve.ready_s", ready);
    ("serve.p99_ms", p99 (Serve_phase.latencies r));
    ("serve.peak_rss_mb", float_of_int kb /. 1024.0);
    ("serve.queue_wait_ms.p50", span "serve.queue_wait" "p50");
    ("serve.queue_wait_ms.p99", span "serve.queue_wait" "p99");
    ("serve.execute_ms.p50", span "serve.execute" "p50");
    ("serve.execute_ms.p99", span "serve.execute" "p99");
  ]
  @ List.map
      (fun s -> ("serve.job." ^ s ^ "_ms.p50", span ("pipeline." ^ s) "p50"))
      [ "parse"; "analyze"; "optimize"; "build"; "simulate" ]
  @ [
      ("batch.cache_lookup_ms.p99", span "batch.cache_lookup" "p99");
      ("batch.cache_hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
      ("serve.hit_p99_ms", p99 (Serve_phase.latencies ~kind:`Hit r));
      ("serve.miss_p99_ms", p99 (Serve_phase.latencies ~kind:`Miss r));
      ("serve.p50_ms", Sample.median (Serve_phase.latencies r));
      ("serve.gen_late_ms.p99", p99 (Serve_phase.ms r.late));
    ]
