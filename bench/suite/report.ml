(* One workload run's metrics, failure tally and environment, and the JSON
   forms they travel in: worker to parent, result files, and the one-line
   summary of a single-workload run. *)

module Json = Asim_batch.Json

let engines = List.map Engines.engine_name Engines.engines
let per_engine prefix suffix unit_ = List.map (fun e -> (prefix ^ e ^ suffix, unit_)) engines

(* Engines whose host times are gated.  Par's two domains share the two
   cores with other tenants, which made its A/A spread 11-32%: its numbers
   are per-layer only. *)
let gated_engines = List.filter (fun e -> e <> Engines.engine_name Engines.Par) engines

(* The gated metrics, each measured on every workload with tracing off. *)
let end_to_end =
  [ ("setup_s", "s") ]
  @ List.map (fun e -> ("build_s." ^ e, "s")) [ "compiled"; "flat"; "native" ]
  @ List.map (fun e -> ("ns_per_cycle." ^ e, "ns")) gated_engines
  @ [ ("peak_rss_mb", "MB"); ("serve_jobs_per_s", "jobs/s") ]

(* The per-layer metrics of a traced run, named after the module measured. *)
let per_layer =
  [
    ("syntax.lex_s", "s");
    ("syntax.parse_s", "s");
    ("analysis.analyze_s", "s");
    ("analysis.components", "count");
    ("opt.total_s", "s");
  ]
  @ List.map (fun p -> ("opt.pass." ^ Asim.Opt.pass_to_string p ^ "_s", "s")) Asim.Opt.all_passes
  @ List.map
      (fun c -> ("opt." ^ c, "count"))
      [ "folded"; "rewired"; "stubbed"; "fused"; "narrowed"; "scheduled" ]
  @ [
      ("flat.compile_s", "s");
      ("flat.program_words", "count");
      ("flat.program_words_o0", "count");
      ("flat.skip_rate", "fraction");
      ("par.build_s", "s");
      ("par.plan_s", "s");
      ("par.sync_groups", "count");
      ("par.cut_edges", "count");
      ("par.load_imbalance", "ratio");
      ("jit.codegen_s", "s");
      ("jit.source_bytes", "bytes");
      ("jit.compile_s", "s");
      ("jit.dynlink_s", "s");
    ]
  @ per_engine "first_step_s." "" "s"
  @ per_engine "ns_per_cycle." ".p50" "ns"
  @ per_engine "ns_per_cycle." ".p90" "ns"
  @ per_engine "result_s." "" "s"
  @ [
      ("sim.mem_accesses", "count");
      ("fig51.sim_ratio.compiled", "ratio");
      ("fig51.sim_ratio.flat", "ratio");
      ("fig51.incl_prep_ratio.native", "ratio");
      ("fig51.crossover_cycles.native", "cycles");
      ("serve.ready_s", "s");
      ("serve.p99_ms", "ms");
      ("serve.peak_rss_mb", "MB");
      ("serve.queue_wait_ms.p50", "ms");
      ("serve.queue_wait_ms.p99", "ms");
      ("serve.execute_ms.p50", "ms");
      ("serve.execute_ms.p99", "ms");
    ]
  @ List.map
      (fun s -> ("serve.job." ^ s ^ "_ms.p50", "ms"))
      [ "parse"; "analyze"; "optimize"; "build"; "simulate" ]
  @ [
      ("batch.cache_lookup_ms.p99", "ms");
      ("batch.cache_hit_ratio", "fraction");
      ("serve.hit_p99_ms", "ms");
      ("serve.miss_p99_ms", "ms");
      ("serve.p50_ms", "ms");
      ("serve.gen_late_ms.p99", "ms");
      ("trace_overhead_frac", "fraction");
    ]
  @ per_engine "layer_sum_error." "" "fraction"

type metric = {
  name : string;
  value : float;
  unit_ : string;
  extra : (string * Json.t) list;  (** p50, p90, sample count, tags *)
}

type t = {
  workload : string;
  seed : int;
  traced : bool;
  env : (string * Json.t) list;
  attempted : int;
  failed : int;
  notes : string list;  (** one line per failed check *)
  metrics : metric list;
}

let correct r = r.failed = 0

(* A value JSON can carry: an infinite latency (jobs that never answered)
   is clamped so the file still parses; the failure count says why. *)
let finite v = if Float.is_finite v then v else if Float.is_nan v then 0.0 else 1e9

let metric_to_json m =
  Json.Obj
    ((("value", Json.Float (finite m.value)) :: ("unit", Json.String m.unit_) :: m.extra))

let to_json r =
  Json.Obj
    [
      ("workload", Json.String r.workload);
      ("seed", Json.Int r.seed);
      ("traced", Json.Bool r.traced);
      ("env", Json.Obj r.env);
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("notes", Json.List (List.map (fun s -> Json.String s) r.notes));
      ("metrics", Json.Obj (List.map (fun m -> (m.name, metric_to_json m)) r.metrics));
    ]

let field name conv json =
  match Option.bind (Json.member name json) conv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "result file: missing or ill-typed %S" name)

let of_json json =
  let metric (name, j) =
    {
      name;
      value = field "value" Json.to_float j;
      unit_ = field "unit" Json.to_string_opt j;
      extra =
        (match j with
        | Json.Obj fields -> List.filter (fun (k, _) -> k <> "value" && k <> "unit") fields
        | _ -> []);
    }
  in
  let obj = function Json.Obj fields -> Some fields | _ -> None in
  {
    workload = field "workload" Json.to_string_opt json;
    seed = field "seed" Json.to_int json;
    traced = field "traced" Json.to_bool json;
    env = field "env" obj json;
    attempted = field "attempted" Json.to_int json;
    failed = field "failed" Json.to_int json;
    notes = List.filter_map Json.to_string_opt (field "notes" Json.to_list json);
    metrics = List.map metric (field "metrics" obj json);
  }

(* The set a run must report: per-layer metrics when traced. *)
let expected ~traced = if traced then per_layer else end_to_end

let missing r =
  List.filter
    (fun (name, _) -> not (List.exists (fun m -> m.name = name) r.metrics))
    (expected ~traced:r.traced)

(* The one-line summary that ends a [--summary] run: exactly four keys, and
   only the metrics of the run's mode. *)
let summary_line r =
  let wanted = expected ~traced:r.traced in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (correct r && missing r = []));
         ("attempted", Json.Int (max 1 r.attempted));
         ("failed", Json.Int r.failed);
         ( "metrics",
           Json.Obj
             (List.filter_map
                (fun m ->
                  if List.mem_assoc m.name wanted then
                    Some
                      ( m.name,
                        Json.Obj
                          [ ("value", Json.Float (finite m.value)); ("unit", Json.String m.unit_) ]
                      )
                  else None)
                r.metrics) );
       ])

let print_lines r =
  List.iter
    (fun m ->
      Printf.printf "%s %s %.6g %s\n" r.workload m.name m.value m.unit_;
      List.iter
        (fun (k, v) ->
          match v with
          | Json.Float f -> Printf.printf "%s %s.%s %.6g %s\n" r.workload m.name k f m.unit_
          | Json.Int n -> Printf.printf "%s %s.%s %d count\n" r.workload m.name k n
          | Json.Bool b -> Printf.printf "%s %s.%s %b flag\n" r.workload m.name k b
          | _ -> ())
        m.extra)
    r.metrics
