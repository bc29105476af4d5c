(* The benchmark suite.

     suite.exe run [--workload W]... [--seed N] [--seconds S] [--traced]
                   [--smoke] [--out FILE] [--summary]
     suite.exe compare [--benchmark FILE] BASE.jsonl OTHER.jsonl...

   [run] measures each workload in a fresh child process and prints every
   metric as "workload metric value unit"; it exits non-zero if any
   correctness check fails or a metric is missing.  [--out] appends one
   JSON result per workload, the input of [compare].  [--summary] ends the
   output with the one-line JSON summary of a single workload.  See
   README.md for the workloads, metrics and statistics. *)

module Json = Asim_batch.Json
module Tracer = Asim_obs.Tracer

let default_seconds = 24.0

(* --- environment ------------------------------------------------------------- *)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let env_stamp ~seed =
  let cores = Domain.recommended_domain_count () in
  let loadavg =
    try
      In_channel.with_open_text "/proc/loadavg" In_channel.input_all
      |> String.split_on_char ' '
      |> List.filteri (fun i _ -> i < 3)
      |> String.concat " "
    with Sys_error _ -> "unknown"
  in
  [
    ("cores_online", Json.Int cores);
    ( "toolchain",
      Json.String (Option.value (Asim.Jit.toolchain_description ()) ~default:"none") );
    ("loadavg_at_start", Json.String loadavg);
    ("clock", Json.String "bechamel.monotonic_clock (CLOCK_MONOTONIC)");
    ("seed", Json.Int seed);
    ("par_domains", Json.Int Engines.par_domains);
    (* par rows only mean scaling when every domain has a core of its own *)
    ("par_scaling_valid", Json.Bool (Engines.par_domains <= cores));
  ]

(* --- one workload, in the child ----------------------------------------------- *)

let metric ?(extra = []) name value unit_ = { Report.name; value; unit_; extra }

(* Seconds of each closed-loop serve burst; one burst runs every round. *)
let burst_s = 0.25

let measure (w : Workload.t) ~seed ~seconds ~traced ~smoke ~work =
  let tally = Tally.create () in
  let ctx =
    {
      Engines.tracer = (if traced then Tracer.create () else Tracer.null);
      jit_root = Filename.concat work "jit";
      colds = 0;
      tally;
    }
  in
  (* Set-up: spec text to -O2 analysis for every item, then a server
     spawned and its hot set uploaded.  The first set-up's server is the one
     measured; the further set-up samples are spread over the rounds. *)
  let setup () =
    let fronts, fe = Sample.time (fun () -> List.map Engines.front_end w.items) in
    let server, ready = Sample.time (fun () -> Serve_phase.start ~traced w.hot) in
    (fronts, server, (fe, ready))
  in
  let fronts, server, first = setup () in
  let setups = ref [ first ] and bursts = ref [] in
  let stream = Serve_phase.stream ~seed w server in
  let budget = if smoke then 0.0 else 0.7 *. seconds in
  let more_setups = Engines.spread (if smoke then 0 else 4) ~budget in
  let each_round () =
    if Engines.due more_setups then begin
      let _, extra, times = setup () in
      ignore (Serve_phase.stop extra);
      setups := times :: !setups
    end;
    bursts := Serve_phase.closed_loop tally stream server ~duration:burst_s :: !bursts;
    Engines.pending more_setups
  in
  let phase =
    Engines.run ctx w fronts ~budget ~min_rounds:(if smoke then 1 else 3) ~seed ~traced ~each_round
  in
  let opened =
    Serve_phase.open_loop tally stream server
      ~rate:(if smoke then 100.0 else w.open_rate)
      ~duration:(if smoke then 0.6 else 0.3 *. seconds)
  in
  let report = Serve_phase.stop server in
  let setups = !setups in
  let server_kb = Option.value (Option.bind (Json.member "vmhwm_kb" report) Json.to_int) ~default:0 in
  let by e = Engines.by_engine phase e in
  let e2e =
    [
      metric "setup_s"
        (Sample.median (List.map (fun (fe, ready) -> fe +. ready) setups))
        "s"
        ~extra:[ ("n", Json.Int (List.length setups)) ];
    ]
    @ List.map
        (fun e ->
          let s = by e in
          metric
            ~extra:[ ("n", Json.Int (List.length s.builds)) ]
            ("build_s." ^ Engines.engine_name e)
            (Sample.minimum s.builds) "s")
        [ Engines.Compiled; Flat; Native ]
    @ List.map
        (fun (s : Engines.samples) ->
          metric
            ~extra:
              ([
                 ("p25", Json.Float (Sample.percentile 0.25 s.ns));
                 ("p50", Json.Float (Sample.median s.ns));
                 ("p90", Json.Float (Sample.percentile 0.9 s.ns));
                 ("n", Json.Int (List.length s.ns));
               ])
            ("ns_per_cycle." ^ Engines.engine_name s.engine)
            (Sample.minimum s.ns) "ns")
        (List.filter (fun (s : Engines.samples) -> s.engine <> Engines.Par) phase.samples)
    @ [
        metric "peak_rss_mb" (float_of_int (Serve_phase.vmhwm_kb () + server_kb) /. 1024.0) "MB";
        metric "serve_jobs_per_s"
          (List.fold_left Float.max 0.0 !bursts)
          "jobs/s"
          ~extra:[ ("n", Json.Int (List.length !bursts)) ];
      ]
  in
  let layers () =
    let front_end_s = Sample.minimum (List.map fst setups) in
    let layer_reps = if smoke then 1 else 3 in
    let unit_of name = Option.value (List.assoc_opt name Report.per_layer) ~default:"" in
    List.map
      (fun (name, v) -> metric name v (unit_of name))
      (Layers.front ~reps:layer_reps fronts
      @ [ ("par.build_s", Sample.median (by Engines.Par).builds) ]
      @ Layers.kernels ~reps:layer_reps fronts
      @ Layers.jit ~reps:layer_reps fronts (by Engines.Native)
      @ List.concat_map
          (fun (s : Engines.samples) ->
            let e = Engines.engine_name s.engine in
            [
              ("first_step_s." ^ e, Sample.median s.firsts);
              ("ns_per_cycle." ^ e ^ ".p50", Sample.median s.ns);
              ("ns_per_cycle." ^ e ^ ".p90", Sample.percentile 0.9 s.ns);
            ])
          phase.samples
      @ Layers.layer_sum w phase ~front_end_s
      @ [ ("sim.mem_accesses", float_of_int phase.mem_accesses) ]
      @ Layers.fig51 phase ~front_end_s
      @ Layers.serve ~ready:(Sample.median (List.map snd setups)) report opened
      @ [ ("trace_overhead_frac", Layers.trace_overhead ctx w (by Engines.Flat)) ])
  in
  (tally, if traced then e2e @ layers () else e2e)

let worker ~name ~seed ~seconds ~traced ~smoke =
  Asim_obs.Clock.set_source Sample.now;
  let env = env_stamp ~seed in
  let w = Option.get (Workload.make name ~seed ~smoke) in
  (* smoke runs make no cold native build beyond the first *)
  let w = if smoke then { w with native_cold = 1 } else w in
  (* Everything the run writes, ocamlopt's temporaries included, stays in a
     private directory under the working directory and is removed after. *)
  let work = Filename.concat (Sys.getcwd ()) (Printf.sprintf "_bench_work/%d" (Unix.getpid ())) in
  mkdir_p (Filename.concat work "tmp");
  Unix.putenv "TMPDIR" (Filename.concat work "tmp");
  Unix.putenv "ASIM_JIT_CACHE_DIR" (Filename.concat work "jit");
  let tally, metrics =
    Fun.protect
      ~finally:(fun () ->
        remove_tree work;
        try Sys.rmdir (Filename.dirname work) with Sys_error _ -> ())
      (fun () -> measure w ~seed ~seconds ~traced ~smoke ~work)
  in
  let r =
    {
      Report.workload = name;
      seed;
      traced;
      env;
      attempted = tally.attempted;
      failed = tally.failed;
      notes = List.rev tally.notes;
      metrics;
    }
  in
  print_endline (Json.to_string (Report.to_json r))

(* --- the parent --------------------------------------------------------------- *)

let spawn_worker ~name ~seed ~seconds ~traced ~smoke =
  let args =
    [ Sys.executable_name; "worker"; "--workload"; name; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds ]
    @ (if traced then [ "--traced" ] else [])
    @ if smoke then [ "--smoke" ] else []
  in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin child_out Unix.stderr in
  Unix.close child_out;
  let ic = Unix.in_channel_of_descr from_child in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let failed note =
    { Report.workload = name; seed; traced; env = env_stamp ~seed; attempted = 1; failed = 1; notes = [ note ]; metrics = [] }
  in
  match (status, List.rev (String.split_on_char '\n' (String.trim out))) with
  | Unix.WEXITED 0, last :: _ -> (
      try Report.of_json (Json.parse last) with Failure msg | Json.Parse_error msg -> failed msg)
  | _ -> failed "worker process failed"

(* The smoke run also holds BENCHMARK.json to the metrics and workloads
   this program measures, so the two cannot drift apart. *)
let check_benchmark file =
  let json = Json.parse (In_channel.with_open_text file In_channel.input_all) in
  let names key =
    List.filter_map
      (fun m ->
        match
          ( Option.bind (Json.member "name" m) Json.to_string_opt,
            Option.bind (Json.member "unit" m) Json.to_string_opt )
        with
        | Some n, Some u -> Some (n, u)
        | Some n, None -> Some (n, "")
        | None, _ -> None)
      (Option.value (Option.bind (Json.member key json) Json.to_list) ~default:[])
  in
  let ok = ref true in
  let expect what got want =
    if got <> want then begin
      ok := false;
      Printf.eprintf "%s: %s disagrees with the suite\n" file what
    end
  in
  expect "end_to_end" (names "end_to_end") Report.end_to_end;
  expect "per_layer" (names "per_layer") Report.per_layer;
  expect "workloads" (List.map fst (names "workloads")) Workload.names;
  !ok

let run ~workloads ~seed ~seconds ~traced ~smoke ~out ~summary ~benchmark =
  let workloads = if workloads = [] then Workload.names else workloads in
  List.iter
    (fun w -> if not (List.mem w Workload.names) then failwith ("unknown workload " ^ w))
    workloads;
  let results =
    List.map (fun name -> spawn_worker ~name ~seed ~seconds ~traced ~smoke) workloads
  in
  List.iter
    (fun (r : Report.t) ->
      List.iter (fun (k, v) -> Printf.printf "# %s env %s %s\n" r.workload k (Json.to_string v)) r.env;
      Report.print_lines r;
      (* failures also go to stderr, which smoke runs keep *)
      List.iter (fun n -> Printf.eprintf "%s FAILED %s\n" r.workload n) r.notes;
      List.iter (fun (n, _) -> Printf.eprintf "%s MISSING %s\n" r.workload n) (Report.missing r))
    results;
  Option.iter
    (fun file ->
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 file (fun oc ->
          List.iter (fun r -> output_string oc (Json.to_string (Report.to_json r) ^ "\n")) results))
    out;
  let benchmark_ok = Option.fold ~none:true ~some:check_benchmark benchmark in
  (match (summary, results) with
  | true, [ r ] -> print_endline (Report.summary_line r)
  | true, _ -> prerr_endline "--summary needs exactly one workload"
  | false, _ -> ());
  if benchmark_ok && List.for_all (fun r -> Report.correct r && Report.missing r = []) results then 0
  else 1

(* --- command line ------------------------------------------------------------ *)

let () =
  let argv = Array.to_list Sys.argv in
  let workloads = ref [] and seed = ref 1 and seconds = ref default_seconds in
  let traced = ref false and smoke = ref false and out = ref None and summary = ref false in
  let benchmark = ref None and files = ref [] in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workloads := !workloads @ [ w ];
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string n;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string s;
        parse rest
    | "--trace" :: t :: rest ->
        traced := t = "1";
        parse rest
    | "--traced" :: rest ->
        traced := true;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--out" :: f :: rest ->
        out := Some f;
        parse rest
    | "--summary" :: rest ->
        summary := true;
        parse rest
    | "--benchmark" :: f :: rest ->
        benchmark := Some f;
        parse rest
    | f :: rest when String.length f > 0 && f.[0] <> '-' ->
        files := !files @ [ f ];
        parse rest
    | arg :: _ -> failwith ("unknown argument " ^ arg)
    | [] -> ()
  in
  let code =
    match argv with
    | _ :: "run" :: rest ->
        parse rest;
        run ~workloads:!workloads ~seed:!seed ~seconds:!seconds ~traced:!traced ~smoke:!smoke ~out:!out
          ~summary:!summary ~benchmark:!benchmark
    | _ :: "compare" :: rest ->
        parse rest;
        Compare.run ~benchmark:(Option.value !benchmark ~default:"BENCHMARK.json") !files
    | _ :: "worker" :: rest ->
        parse rest;
        worker ~name:(List.hd !workloads) ~seed:!seed ~seconds:!seconds ~traced:!traced ~smoke:!smoke;
        0
    | _ :: "serve-child" :: rest ->
        parse rest;
        Serve_phase.child ~traced:!traced;
        0
    | _ ->
        prerr_endline "usage: suite.exe run|compare ... (see bench/suite/README.md)";
        2
  in
  exit code
