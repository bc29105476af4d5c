open Asim_core
module Clock = Asim_obs.Clock
module Tracer = Asim_obs.Tracer

type t = {
  cache : Asim_analysis.Analysis.t Cache.t;
  metrics : Metrics.t;
  tracer : Tracer.t;
  opt : Asim.Opt.level;
}

let create ?(cache_capacity = 64) ?(tracer = Tracer.null) ?(opt = Asim.Opt.O2) () =
  { cache = Cache.create ~capacity:cache_capacity; metrics = Metrics.create (); tracer; opt }

let metrics t = t.metrics
let cache_stats t = Cache.stats t.cache

let cache_key ~opt ~keep_all spec =
  let canonical = Pretty.spec spec in
  (* The cached value is the post-middle-end analysis, so the key carries
     the opt level and whether every component was pinned live (jobs that
     want raw outputs must see real values for all of them). *)
  Printf.sprintf "%s:O%s%s"
    (Digest.to_hex (Digest.string canonical))
    (Asim.Opt.level_to_string opt)
    (if keep_all then ":keepall" else "")

let resolve_source = function
  | Proto.Inline s -> s
  | Proto.Hash h -> failwith (Printf.sprintf "unknown spec hash %s" h)
  | Proto.File path -> (
      (* Opened without blocking and read only if regular: a FIFO or a
         device would otherwise hold a worker until a writer appears. *)
      match Unix.openfile path [ Unix.O_RDONLY; Unix.O_NONBLOCK; Unix.O_CLOEXEC ] 0 with
      | exception Unix.Unix_error (e, _, _) ->
          raise (Sys_error (path ^ ": " ^ Unix.error_message e))
      | fd ->
          let ic = Unix.in_channel_of_descr fd in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              match (Unix.fstat fd).Unix.st_kind with
              | Unix.S_REG -> really_input_string ic (in_channel_length ic)
              | _ -> failwith (Printf.sprintf "spec_file %s is not a regular file" path)))
  | Proto.Example name -> (
      match List.assoc_opt name Asim.Specs.all with
      | Some source -> source
      | None -> failwith (Printf.sprintf "unknown example %S" name))

let stats_to_json stats =
  Json.Obj
    [
      ("cycles", Json.Int (Asim.Stats.cycles stats));
      ( "memories",
        Json.Obj
          (List.map
             (fun (name, (c : Asim.Stats.memory_counters)) ->
               ( name,
                 Json.Obj
                   [
                     ("reads", Json.Int c.reads);
                     ("writes", Json.Int c.writes);
                     ("inputs", Json.Int c.inputs);
                     ("outputs", Json.Int c.outputs);
                   ] ))
             (Asim.Stats.per_memory stats)) );
      ("total_accesses", Json.Int (Asim.Stats.total_accesses stats));
    ]

let prof_to_json ?source (p : Asim.Prof.t) =
  Asim.Prof.finalize p;
  let rows = Asim.Prof.rows ?source p in
  Json.Obj
    [
      ("engine", Json.String p.engine);
      ("cycles", Json.Int p.cycles);
      ("sample_every", Json.Int p.sample_every);
      ("sampled_cycles", Json.Int p.sampled_cycles);
      ("levels", Json.Int p.nlevels);
      ("supernodes", Json.Int p.supernodes);
      ("supernode_scans", Json.Int p.supernode_scans);
      ("memory_skips", Json.Int p.memory_skips);
      ( "components",
        Json.List
          (List.map
             (fun (r : Asim.Prof.row) ->
               Json.Obj
                 [
                   ("slot", Json.Int r.r_slot);
                   ("name", Json.String r.r_name);
                   ("kind", Json.String (String.make 1 r.r_kind));
                   ("level", Json.Int r.r_level);
                   ("line", Json.Int r.r_line);
                   ("evals", Json.Int r.r_evals);
                   ("skips", Json.Int r.r_skips);
                   ("reads", Json.Int r.r_reads);
                   ("writes", Json.Int r.r_writes);
                   ("inputs", Json.Int r.r_inputs);
                   ("outputs", Json.Int r.r_outputs);
                   ("faults", Json.Int r.r_faults);
                   ("words", Json.Int r.r_words);
                   ("cost", Json.Int r.r_cost);
                 ])
             rows) );
      ( "sampled",
        Json.Obj
          [
            ( "level_ns",
              Json.List
                (Array.to_list (Array.map (fun v -> Json.Float v) p.level_ns))
            );
            ("mem_ns", Json.Float p.mem_ns);
            ("total_ns", Json.Float p.sampled_ns);
          ] );
      ( "io",
        Json.Obj
          [ ("events", Json.Int p.io_events); ("wait_ns", Json.Float p.io_ns) ]
      );
    ]

let memory_images (analysis : Asim.Analysis.t) (m : Asim.Machine.t) =
  List.filter_map
    (fun (c : Component.t) ->
      match c.kind with
      | Component.Memory { cells; _ } ->
          Some (c.name, List.init cells (fun i -> m.Asim.Machine.read_cell c.name i))
      | Component.Alu _ | Component.Selector _ -> None)
    analysis.Asim_analysis.Analysis.spec.Spec.components

let run_job t (job : Proto.job) =
  (* Client identity rides on a derived tracer, so every span the job emits
     — pipeline stages, batch internals, codegen, engine internals like
     codegen.native.compile — carries [id]/[trace_id] and one Perfetto filter
     isolates the job end to end. *)
  let ident =
    (match job.Proto.id with Some id -> [ ("id", id) ] | None -> [])
    @ match job.Proto.trace_id with Some x -> [ ("trace_id", x) ] | None -> []
  in
  let tr = Tracer.with_args t.tracer ident in
  let job_attr = [ ("engine", Asim.engine_to_string job.Proto.engine) ] in
  let t0 = Clock.now () in
  let wanted w = List.mem w job.Proto.want in
  let trace_sink, trace_lines =
    if wanted Proto.Trace then Asim.Trace.list_sink ()
    else (Asim.Trace.null_sink, fun () -> [])
  in
  let io, events = Asim.Io.recording ~feed:job.Proto.inputs () in
  let outcome =
    try
      let source = resolve_source job.Proto.source in
      let spec =
        Tracer.span tr ~args:job_attr "pipeline.parse" (fun () ->
            Asim_syntax.Parser.parse_string source)
      in
      let opt = Option.value job.Proto.opt ~default:t.opt in
      (* Jobs that want raw final outputs observe every component, so DCE
         (and the rest of the middle-end) must keep them all live. *)
      let keep_all = wanted Proto.Outputs in
      let key = cache_key ~opt ~keep_all spec in
      let hit = ref true in
      let lookup_t0 = Clock.now () in
      let analysis =
        Cache.find_or_compute t.cache ~key (fun () ->
            hit := false;
            let analysis =
              Tracer.span tr ~args:job_attr "pipeline.analyze" (fun () ->
                  Asim_analysis.Analysis.analyze spec)
            in
            match opt with
            | Asim.Opt.O0 -> analysis
            | level ->
                Tracer.span tr
                  ~args:(("level", Asim.Opt.level_to_string level) :: job_attr)
                  "pipeline.optimize"
                  (fun () ->
                    let keep =
                      if keep_all then
                        List.map
                          (fun (c : Component.t) -> c.name)
                          spec.Spec.components
                      else []
                    in
                    Asim.Opt.run ~level ~keep analysis))
      in
      Tracer.span_at tr
        ~args:(("outcome", if !hit then "hit" else "miss") :: job_attr)
        "batch.cache_lookup" ~ts:lookup_t0
        ~dur:(if Tracer.is_active tr then Clock.now () -. lookup_t0 else 0.0);
      let config = { Asim.Machine.io; trace = trace_sink; faults = Asim.Fault.none } in
      let prof =
        if wanted Proto.Profile then Some (Asim.Prof.create analysis) else None
      in
      let m =
        Tracer.span tr ~args:job_attr "pipeline.build" (fun () ->
            match prof with
            | None -> Asim.machine ~config ~tracer:tr ~engine:job.Proto.engine analysis
            | Some p ->
                Asim.profiled ~config ~tracer:tr
                  ~engine:(Asim.counting job.Proto.engine) p analysis)
      in
      let cycles =
        match job.Proto.cycles with
        | Some n -> n
        | None -> Asim.Machine.spec_cycles m ~default:0
      in
      let status =
        Tracer.span tr
          ~args:(("cycles", string_of_int cycles) :: job_attr)
          "pipeline.simulate"
          (fun () ->
            try
              match job.Proto.timeout_s with
              | None ->
                  Asim.Machine.run m ~cycles;
                  Proto.Ok_
              | Some budget -> (
                  let deadline = t0 +. budget in
                  match
                    Asim.Machine.run_bounded m ~cycles
                      ~should_stop:(fun () -> Clock.now () > deadline)
                      ()
                  with
                  | Asim.Machine.Completed -> Proto.Ok_
                  | Asim.Machine.Stopped done_ -> Proto.Timeout done_)
            with Error.Error e -> Proto.Error_ (Error.to_string e))
      in
      {
        Proto.job;
        status;
        cycles_run = m.Asim.Machine.current_cycle ();
        outputs =
          (if wanted Proto.Outputs then
             List.map
               (fun (c : Component.t) -> (c.name, m.Asim.Machine.read c.name))
               analysis.Asim_analysis.Analysis.spec.Spec.components
           else []);
        cells = (if wanted Proto.Memory then memory_images analysis m else []);
        trace = trace_lines ();
        events =
          (if wanted Proto.Events then List.map Asim.Io.event_to_string (events ())
           else []);
        stats_json = (if wanted Proto.Stats then Some (stats_to_json m.Asim.Machine.stats) else None);
        profile_json =
          (match prof with
          | None -> None
          | Some p ->
              Asim.Prof.finalize p;
              (* Accumulate into the shared registry under a short spec
                 digest label, and surface the sampled levels as synthetic
                 spans next to the job's pipeline spans. *)
              Asim.Prof.export p ~spec:(String.sub key 0 12)
                (Metrics.registry t.metrics);
              Asim.Prof.emit_spans p tr;
              Some (prof_to_json ~source p));
        elapsed_s = Clock.now () -. t0;
      }
    with
    | Error.Error e ->
        {
          Proto.job;
          status = Proto.Error_ (Error.to_string e);
          cycles_run = 0;
          outputs = [];
          cells = [];
          trace = trace_lines ();
          events = [];
          stats_json = None;
          profile_json = None;
          elapsed_s = Clock.now () -. t0;
        }
    | Sys_error msg | Failure msg ->
        {
          Proto.job;
          status = Proto.Error_ msg;
          cycles_run = 0;
          outputs = [];
          cells = [];
          trace = trace_lines ();
          events = [];
          stats_json = None;
          profile_json = None;
          elapsed_s = Clock.now () -. t0;
        }
  in
  Metrics.record t.metrics
    ~engine:(Asim.engine_to_string job.Proto.engine)
    ~status:(Proto.status_class outcome.Proto.status)
    ~elapsed:outcome.Proto.elapsed_s;
  outcome
