(* asim — the ASIM II reproduction's command-line front end.

   Subcommands: check, run, codegen, pipeline, netlist, gates, profile,
   asm, coverage, wavediff, fuzz, genspec, batch, serve, loadgen, fmt,
   example. *)

open Cmdliner
module Obs_clock = Asim_obs.Clock
module Obs_tracer = Asim_obs.Tracer

let load path =
  try Ok (Asim.load_file path) with
  | Asim.Error.Error e -> Error (Asim.Error.to_string e)
  | Sys_error msg -> Error msg

let write_text_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("asim: " ^ msg);
      exit 1

let print_warnings (analysis : Asim.Analysis.t) =
  List.iter
    (fun w -> prerr_endline (Asim.Error.warning_to_string w))
    analysis.Asim.Analysis.warnings

(* --- common arguments ---------------------------------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC" ~doc:"Specification file.")

let cycles_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "n"; "cycles" ] ~docv:"N"
        ~doc:"Number of cycles to simulate (default: the spec's = directive).")

let engine_arg_with default =
  let engine_conv =
    Arg.conv
      ( (fun s ->
          match Asim.engine_of_string s with
          | Some e -> Ok e
          | None -> Error (`Msg ("unknown engine " ^ s))),
        fun ppf e -> Format.pp_print_string ppf (Asim.engine_to_string e) )
  in
  Arg.(
    value
    & opt engine_conv default
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:
          "Simulation engine: $(b,interp) (the ASIM baseline), $(b,compiled) \
           (ASIM II), $(b,flat) (int-coded flat kernel with activity-driven \
           scheduling), $(b,native) (spec compiled to an OCaml module by the \
           host toolchain and Dynlinked in; needs ocamlfind/ocamlopt on \
           PATH) or $(b,par) (the flat kernel partitioned across domains and \
           run bulk-synchronously; see $(b,--domains)).")

let engine_arg = engine_arg_with `Compiled

let opt_level_conv =
  Arg.conv
    ( (fun s ->
        match Asim.Opt.level_of_string s with
        | Some l -> Ok l
        | None -> Error (`Msg ("unknown opt level " ^ s ^ " (expected 0, 1 or 2)"))),
      fun ppf l -> Format.pp_print_string ppf (Asim.Opt.level_to_string l) )

(* Worker counts ([--domains], [--jobs]): a count below 1 is a usage
   error, not something to clamp. *)
let positive_int =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | _ -> Error (`Msg ("invalid value " ^ s ^ ", expected a positive integer"))),
      Format.pp_print_int )

let opt_arg =
  Arg.(
    value
    & opt opt_level_conv Asim.Opt.O2
    & info [ "O"; "opt-level" ] ~docv:"LEVEL"
        ~doc:
          "Middle-end optimization level for the shared codegen IR \
           (docs/optimizer.md): $(b,0) disables it, $(b,1) runs constant \
           propagation, atom fusion and width narrowing, $(b,2) (the \
           default) adds common-subexpression elimination, dead-component \
           elimination and cost-driven scheduling.  Every engine consumes \
           the optimized spec; observables (traces, I/O, memory images, \
           statistics, faults, errors) are preserved at every level.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON of pipeline and runtime spans to \
           FILE — load it in Perfetto (ui.perfetto.dev) or chrome://tracing.  \
           See docs/observability.md.")

(* Build the tracer for a --trace-out flag; [None] costs nothing. *)
let tracer_for = function
  | None -> Obs_tracer.null
  | Some _ -> Obs_tracer.create ()

let write_trace trace_out tracer =
  match trace_out with None -> () | Some path -> Obs_tracer.write tracer path

(* --- check ---------------------------------------------------------------- *)

let check_cmd =
  let run path =
    let analysis = or_die (load path) in
    print_warnings analysis;
    let spec = analysis.Asim.Analysis.spec in
    Printf.printf "%d components read.\n" (List.length spec.Asim.Spec.components);
    Printf.printf "combinational order: %s\n"
      (String.concat " "
         (List.map
            (fun (c : Asim.Component.t) -> c.name)
            analysis.Asim.Analysis.order));
    let widths = Asim.Width.infer spec in
    List.iter
      (fun (c : Asim.Component.t) ->
        Printf.printf "  %c %-14s %2d bits\n" (Asim.Component.kind_letter c) c.name
          (try List.assoc c.name widths with Not_found -> 31))
      spec.Asim.Spec.components;
    List.iter
      (fun lint -> print_endline (Asim.Analysis.lint_to_string lint))
      (Asim.Analysis.lints analysis)
  in
  Cmd.v (Cmd.info "check" ~doc:"Parse, analyze and report on a specification.")
    Term.(const run $ file_arg)

(* --- run ------------------------------------------------------------------ *)

let fault_conv =
  (* component=stuck@V[:FROM[-TO]] or component=flip@BIT[:FROM[-TO]] *)
  let parse s =
    let fail () =
      Error
        (`Msg
          (Printf.sprintf
             "bad fault %S (expected comp=stuck@V[:FROM[-TO]] or comp=flip@BIT[:FROM[-TO]])"
             s))
    in
    match String.index_opt s '=' with
    | None -> fail ()
    | Some eq -> (
        let component = String.sub s 0 eq in
        let rest = String.sub s (eq + 1) (String.length s - eq - 1) in
        let spec, window =
          match String.index_opt rest ':' with
          | None -> (rest, None)
          | Some c ->
              ( String.sub rest 0 c,
                Some (String.sub rest (c + 1) (String.length rest - c - 1)) )
        in
        let first_cycle, last_cycle =
          match window with
          | None -> (0, None)
          | Some w -> (
              match String.index_opt w '-' with
              | None -> (int_of_string w, None)
              | Some d ->
                  ( int_of_string (String.sub w 0 d),
                    Some (int_of_string (String.sub w (d + 1) (String.length w - d - 1)))
                  ))
        in
        match String.index_opt spec '@' with
        | None -> fail ()
        | Some at -> (
            let kind = String.sub spec 0 at in
            let value = int_of_string (String.sub spec (at + 1) (String.length spec - at - 1)) in
            match kind with
            | "stuck" ->
                Ok (Asim.Fault.stuck_at ~first_cycle ?last_cycle component value)
            | "flip" ->
                Ok (Asim.Fault.flip_bit ~first_cycle ?last_cycle component value)
            | _ -> fail ()))
  in
  let parse s = try parse s with Failure _ -> Error (`Msg ("bad fault " ^ s)) in
  Arg.conv (parse, fun ppf (f : Asim.Fault.fault) -> Format.pp_print_string ppf f.component)

(* --par-profile accepts either shape a profile travels in: the `asim
   profile --json` document itself, or an `asim run --stats-json` file with
   the profile embedded under "profile".  Memory rows are dropped — the
   partitioner balances combinational work only. *)
let par_costs_of_file path =
  let json =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          Asim_batch.Json.parse (really_input_string ic (in_channel_length ic)))
    with
    | Sys_error msg ->
        prerr_endline ("asim: --par-profile: " ^ msg);
        exit 2
    | Failure msg ->
        prerr_endline ("asim: --par-profile: " ^ path ^ ": " ^ msg);
        exit 2
  in
  let open Asim_batch.Json in
  let doc = match member "profile" json with Some p -> p | None -> json in
  match Option.bind (member "components" doc) to_list with
  | None ->
      prerr_endline
        ("asim: --par-profile: " ^ path
       ^ ": no \"components\" list (expected `asim profile --json` or `asim \
          run --profile --stats-json` output)");
      exit 2
  | Some rows ->
      List.filter_map
        (fun row ->
          match
            ( Option.bind (member "name" row) to_string_opt,
              Option.bind (member "kind" row) to_string_opt,
              Option.bind (member "cost" row) to_int )
          with
          | Some _, Some "M", _ -> None
          | Some name, _, Some cost -> Some (name, float_of_int cost)
          | _ -> None)
        rows

let run_cmd =
  let run path engine cycles stats quiet vcd faults interactive trace_out stats_json
      profile domains par_profile level =
    let tracer = tracer_for trace_out in
    (* Stage timings come from {!Asim_obs.Clock} so --stats-json is
       deterministic under a mock clock; the same boundaries become
       pipeline.* spans when --trace-out is on. *)
    let timed name f =
      let t0 = Obs_clock.now () in
      match Obs_tracer.span tracer name f with
      | v -> (v, Obs_clock.now () -. t0)
      | exception Asim.Error.Error e ->
          write_trace trace_out tracer;
          prerr_endline ("asim: " ^ Asim.Error.to_string e);
          exit 1
      | exception Sys_error msg ->
          write_trace trace_out tracer;
          prerr_endline ("asim: " ^ msg);
          exit 1
    in
    let spec, parse_s = timed "pipeline.parse" (fun () -> Asim.Parser.parse_file path) in
    let analysis, analyze_s =
      timed "pipeline.analyze" (fun () -> Asim.Analysis.analyze spec)
    in
    print_warnings analysis;
    (* One middle-end run covers every engine below; fault targets stay
       live. *)
    let analysis, optimize_s =
      match level with
      | Asim.Opt.O0 -> (analysis, 0.0)
      | _ ->
          timed "pipeline.optimize" (fun () ->
              Asim.Opt.run ~level ~keep:(Asim.Fault.targets faults) analysis)
    in
    let trace = if quiet then Asim.Trace.null_sink else Asim.Trace.channel_sink stdout in
    let config = { Asim.Machine.default_config with trace; faults } in
    let prof = if profile then Some (Asim.Prof.create analysis) else None in
    let engine =
      match (engine, domains) with
      | `Par p, Some domains -> `Par { p with Asim.domains }
      | e, _ -> e
    in
    let engine =
      match (engine, par_profile) with
      | `Par p, Some path -> `Par { p with Asim.costs = par_costs_of_file path }
      | e, _ -> e
    in
    let machine, build_s =
      timed "pipeline.build" (fun () ->
          match prof with
          | None -> Asim.machine ~config ~tracer ~engine analysis
          | Some prof ->
              Asim.profiled ~config ~tracer ~engine:(Asim.counting engine) prof
                analysis)
    in
    let cycles =
      match cycles with Some n -> n | None -> Asim.Machine.spec_cycles machine ~default:0
    in
    let run_t0 = Obs_clock.now () in
    (try
       match vcd with
       | Some path ->
           Obs_tracer.span tracer "pipeline.simulate" (fun () ->
               Asim.Vcd.record_to_file machine ~cycles ~path)
       | None ->
           if interactive then begin
             (* The original's dialogue (Appendix A): ask for the cycle
                count when none is given, then keep offering to continue to
                an absolute cycle number; 0 quits. *)
             let read_int () = try Scanf.scanf " %d" (fun d -> d) with _ -> 0 in
             let target = ref cycles in
             if !target = 0 then begin
               print_endline "Number of cycles to trace";
               target := read_int ()
             end;
             let continue = ref true in
             while !continue && !target > 0 do
               let done_so_far = machine.Asim.Machine.current_cycle () in
               if !target > done_so_far then
                 Asim.Machine.run machine ~cycles:(!target - done_so_far);
               print_endline "Continue to cycle (0 to quit)";
               target := read_int ();
               if !target <= machine.Asim.Machine.current_cycle () then
                 continue := false
             done
           end
           else if Obs_tracer.is_active tracer then begin
             (* Chunked so the trace shows simulation progress over time
                rather than one opaque block. *)
             let chunk = 1000 in
             let rec go done_ =
               if done_ < cycles then begin
                 let n = min chunk (cycles - done_) in
                 Obs_tracer.span tracer "pipeline.simulate"
                   ~args:
                     [
                       ("start_cycle", string_of_int done_);
                       ("cycles", string_of_int n);
                     ]
                   (fun () -> Asim.Machine.run machine ~cycles:n);
                 go (done_ + n)
               end
             in
             go 0
           end
           else Asim.Machine.run machine ~cycles
     with Asim.Error.Error e ->
       write_trace trace_out tracer;
       prerr_endline ("asim: " ^ Asim.Error.to_string e);
       exit 1);
    let run_s = Obs_clock.now () -. run_t0 in
    if stats then print_endline (Asim.Stats.to_string machine.Asim.Machine.stats);
    let prof_source =
      match prof with
      | None -> None
      | Some _ -> (
          try
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> Some (really_input_string ic (in_channel_length ic)))
          with Sys_error _ -> None)
    in
    (match prof with
    | None -> ()
    | Some p ->
        Asim.Prof.finalize p;
        Asim.Prof.emit_spans p tracer;
        print_string (Asim.Prof.report ?source:prof_source p));
    (match stats_json with
    | None -> ()
    | Some out ->
        let open Asim_batch.Json in
        let json =
          Obj
            [
              ("spec", String path);
              ("engine", String (Asim.engine_to_string engine));
              ("cycles", Int (machine.Asim.Machine.current_cycle ()));
              ("stats", Asim_batch.Runner.stats_to_json machine.Asim.Machine.stats);
              ( "timings",
                Obj
                  [
                    ("parse_s", Float parse_s);
                    ("analyze_s", Float analyze_s);
                    ("optimize_s", Float optimize_s);
                    ("build_s", Float build_s);
                    ("run_s", Float run_s);
                  ] );
            ]
        in
        let json =
          match (json, prof) with
          | Obj fields, Some p ->
              Obj
                (fields
                @ [
                    ( "profile",
                      Asim_batch.Runner.prof_to_json ?source:prof_source p );
                  ])
          | _ -> json
        in
        write_text_file out (to_string json ^ "\n"));
    write_trace trace_out tracer
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print cycle and memory-access statistics.")
  in
  let stats_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "Write machine statistics, cycle count and per-stage wall-clock \
             timings to FILE as JSON.")
  in
  let quiet_arg = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress trace output.") in
  let vcd_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE" ~doc:"Record traced components to a VCD waveform file.")
  in
  let faults_arg =
    Arg.(
      value
      & opt_all fault_conv []
      & info [ "fault" ] ~docv:"FAULT"
          ~doc:
            "Inject a fault, e.g. $(b,alu=stuck@0:100-200) or $(b,count=flip@3).  Repeatable.")
  in
  let interactive_arg =
    Arg.(
      value & flag
      & info [ "i"; "interactive" ]
          ~doc:
            "The original's dialogue: prompt for the cycle count and offer to \
             continue to further cycles.")
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Attach per-component performance counters to the simulated \
             machine and print the profile report after the run (also \
             embedded in $(b,--stats-json) output).  Unsupported on the \
             $(b,native) and $(b,par) engines.")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Partition count for the $(b,par) engine (default: the \
             machine's core count, capped at 8).  Behavior is identical at \
             every count — only the schedule changes.  Other engines ignore \
             this.")
  in
  let par_profile_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "par-profile" ] ~docv:"FILE"
          ~doc:
            "Feed a measured cost model to the $(b,par) engine's \
             partitioner: FILE is $(b,asim profile --json) output (or an \
             $(b,asim run --profile --stats-json) file) from an earlier run \
             of the same spec.  Components the profile does not cover fall \
             back to static flat-program word counts.  Other engines ignore \
             this.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate a specification.")
    Term.(
      const run $ file_arg $ engine_arg $ cycles_arg $ stats_arg $ quiet_arg $ vcd_arg
      $ faults_arg $ interactive_arg $ trace_out_arg $ stats_json_arg $ profile_arg
      $ domains_arg $ par_profile_arg $ opt_arg)

(* --- codegen --------------------------------------------------------------- *)

let lang_arg =
  let lang_conv =
    Arg.conv
      ( (fun s ->
          match Asim_codegen.Codegen.lang_of_string s with
          | Some l -> Ok l
          | None -> Error (`Msg ("unknown language " ^ s))),
        fun ppf l ->
          Format.pp_print_string ppf (Asim_codegen.Codegen.lang_to_string l) )
  in
  Arg.(
    value
    & opt lang_conv Asim_codegen.Codegen.Pascal
    & info [ "l"; "lang" ] ~docv:"LANG"
        ~doc:"Target language: $(b,pascal) (the original's), $(b,ocaml) or $(b,c).")

let codegen_cmd =
  let run path lang output =
    let analysis = or_die (load path) in
    print_warnings analysis;
    let code = Asim_codegen.Codegen.generate lang analysis in
    match output with
    | None -> print_string code
    | Some path ->
        let oc = open_out path in
        output_string oc code;
        close_out oc
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:"Compile a specification to simulator source code (the ASIM II pipeline).")
    Term.(const run $ file_arg $ lang_arg $ output_arg)

(* --- pipeline --------------------------------------------------------------- *)

let pipeline_cmd =
  let run path lang cycles show_output trace_out =
    let analysis = or_die (load path) in
    let lang =
      match lang with
      | Asim_codegen.Codegen.Pascal ->
          prerr_endline "asim: no Pascal compiler here; using the OCaml backend";
          Asim_codegen.Codegen.Ocaml
      | l -> l
    in
    let tracer = tracer_for trace_out in
    let result = Asim_codegen.Pipeline.run ?cycles ~tracer ~lang analysis in
    write_trace trace_out tracer;
    match result with
    | Error msg ->
        prerr_endline ("asim: " ^ msg);
        exit 1
    | Ok r ->
        Printf.printf "Generate code    %8.3f s\n" r.timings.generate_s;
        Printf.printf "Compile          %8.3f s\n" r.timings.compile_s;
        Printf.printf "Simulation time  %8.3f s\n" r.timings.run_s;
        Printf.printf "(source: %s)\n" r.source_path;
        if show_output then print_string r.output
  in
  let show_output_arg =
    Arg.(value & flag & info [ "show-output" ] ~doc:"Echo the generated simulator's stdout.")
  in
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:"Generate, compile and execute a simulator binary; report stage timings.")
    Term.(const run $ file_arg $ lang_arg $ cycles_arg $ show_output_arg $ trace_out_arg)

(* --- netlist ---------------------------------------------------------------- *)

let netlist_cmd =
  let run path format =
    let analysis = or_die (load path) in
    let net = Asim_netlist.Synth.synthesize analysis.Asim.Analysis.spec in
    let text =
      match format with
      | "bom" -> Asim_netlist.Synth.bom_to_string net
      | "wiring" -> Asim_netlist.Synth.wiring_to_string net
      | "instances" -> Asim_netlist.Synth.instances_to_string net
      | "dot" -> Asim_netlist.Synth.to_dot net
      | other ->
          prerr_endline ("asim: unknown netlist format " ^ other);
          exit 1
    in
    print_endline text
  in
  let format_arg =
    Arg.(
      value
      & opt string "bom"
      & info [ "f"; "format" ] ~docv:"FORMAT"
          ~doc:"Output: $(b,bom), $(b,instances), $(b,wiring) or $(b,dot).")
  in
  Cmd.v
    (Cmd.info "netlist"
       ~doc:"Map a specification onto catalog hardware (Appendix F's construction aid).")
    Term.(const run $ file_arg $ format_arg)

(* --- asm --------------------------------------------------------------------- *)

let asm_cmd =
  let run path machine output run_it cycles =
    let read_source () =
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    in
    let spec =
      try
        match machine with
        | `Stack ->
            let program = Asim_stackm.Asmtext.assemble (read_source ()) in
            Asim_stackm.Microcode.spec ?cycles ~program ()
        | `Tiny ->
            let program = Asim_tinyc.Asmtext.assemble (read_source ()) in
            Asim_tinyc.Machine.spec ?cycles
              ~traced:[ "pc"; "ac"; "borrow" ]
              ~program ()
      with
      | Asim.Error.Error e ->
          prerr_endline ("asim: " ^ Asim.Error.to_string e);
          exit 1
      | Sys_error msg ->
          prerr_endline ("asim: " ^ msg);
          exit 1
    in
    let source = Asim.Pretty.spec spec in
    (match output with
    | Some path ->
        let oc = open_out path in
        output_string oc source;
        close_out oc
    | None -> if not run_it then print_string source);
    if run_it then begin
      let analysis = Asim.Analysis.analyze spec in
      let io, events = Asim.Io.recording () in
      let config = { Asim.Machine.quiet_config with io } in
      let m = Asim.machine ~config analysis in
      let cycles = match cycles with Some n -> n | None -> 100_000 in
      (try Asim.Machine.run m ~cycles
       with Asim.Error.Error e ->
         prerr_endline ("asim: " ^ Asim.Error.to_string e);
         exit 1);
      List.iter
        (fun ev -> print_endline (Asim.Io.event_to_string ev))
        (events ())
    end
  in
  let machine_conv =
    Arg.conv
      ( (fun s ->
          match String.lowercase_ascii s with
          | "stack" | "stackm" -> Ok `Stack
          | "tiny" | "tinyc" -> Ok `Tiny
          | other -> Error (`Msg ("unknown machine " ^ other))),
        fun ppf m ->
          Format.pp_print_string ppf (match m with `Stack -> "stack" | `Tiny -> "tiny") )
  in
  let machine_arg =
    Arg.(
      value
      & opt machine_conv `Stack
      & info [ "m"; "machine" ] ~docv:"MACHINE"
          ~doc:"Target machine: $(b,stack) (Appendix D) or $(b,tiny) (Appendix F).")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the generated machine specification to FILE.")
  in
  let run_arg =
    Arg.(value & flag & info [ "run" ] ~doc:"Run the program and print its I/O events.")
  in
  Cmd.v
    (Cmd.info "asm"
       ~doc:
         "Assemble a program for one of the thesis machines and emit (or run) the \
          complete machine specification.")
    Term.(const run $ file_arg $ machine_arg $ output_arg $ run_arg $ cycles_arg)

(* --- profile ----------------------------------------------------------------- *)

let profile_cmd =
  let occupancy engine cycles components (analysis : Asim.Analysis.t) =
    (* The original occupancy-histogram mode, kept under -c NAME: sample the
       named components every cycle and histogram their values. *)
    let machine = Asim.machine ~config:Asim.Machine.quiet_config ~engine analysis in
    let cycles =
      match cycles with Some n -> n | None -> Asim.Machine.spec_cycles machine ~default:100
    in
    let profiles =
      try Asim.Profile.run machine ~cycles ~components
      with Asim.Error.Error e ->
        prerr_endline ("asim: " ^ Asim.Error.to_string e);
        exit 1
    in
    Printf.printf "%d cycles\n\n" cycles;
    print_string (Asim.Profile.to_string profiles)
  in
  let run path engine cycles components top sample_every json flame trace_out =
    let analysis = or_die (load path) in
    if components <> [] then occupancy engine cycles components analysis
    else begin
      let prof =
        try Asim.Prof.create ~sample_every analysis
        with Invalid_argument msg ->
          prerr_endline ("asim: " ^ msg);
          exit 2
      in
      let tracer = tracer_for trace_out in
      (try
         let m =
           Asim.profiled ~config:Asim.Machine.quiet_config ~tracer
             ~engine:(Asim.counting engine) prof analysis
         in
         let cycles =
           match cycles with
           | Some n -> n
           | None -> Asim.Machine.spec_cycles m ~default:100
         in
         Asim.Machine.run m ~cycles
       with Asim.Error.Error e ->
         prerr_endline ("asim: " ^ Asim.Error.to_string e);
         exit 1);
      Asim.Prof.finalize prof;
      let source =
        try
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> Some (really_input_string ic (in_channel_length ic)))
        with Sys_error _ -> None
      in
      (match flame with
      | Some out -> write_text_file out (Asim.Prof.to_flame ?source prof)
      | None -> ());
      (match trace_out with
      | Some _ ->
          Asim.Prof.emit_spans prof tracer;
          write_trace trace_out tracer
      | None -> ());
      if json then
        print_endline
          (Asim_batch.Json.to_string (Asim_batch.Runner.prof_to_json ?source prof))
      else print_string (Asim.Prof.report ~top ?source prof)
    end
  in
  let components_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "c"; "component" ] ~docv:"NAME"
          ~doc:
            "Switch to the original occupancy-histogram mode: sample NAME \
             every cycle and report its value histogram (repeatable).")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Hot components to list in the report (default 10).")
  in
  let sample_every_arg =
    Arg.(
      value & opt int 256
      & info [ "sample-every" ] ~docv:"N"
          ~doc:
            "Cycle-profiler period: every Nth cycle is timed per topological \
             level (default 256; lower is finer but slower).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the full profile as JSON on stdout (the cost-model \
             document; schema in docs/profile.schema.json) instead of the \
             human-readable report.")
  in
  let flame_arg =
    Arg.(
      value & opt (some string) None
      & info [ "flame" ] ~docv:"FILE"
          ~doc:
            "Also write folded flame stacks (collapsed-stack format for \
             flamegraph tools) to FILE.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile the simulated machine: per-component evaluation counts, \
          dirty-skips, memory traffic and a sampled per-level cycle \
          profile, with source positions and an estimated cost model.  \
          With $(b,-c NAME), the original occupancy-histogram mode \
          instead.  Defaults to $(b,-e flat); $(b,-e compiled) and \
          $(b,-e interp) evaluate every combinational component every \
          cycle.  Unsupported on the $(b,native) and $(b,par) engines.")
    Term.(
      const run $ file_arg $ engine_arg_with `Flat $ cycles_arg $ components_arg
      $ top_arg $ sample_every_arg $ json_arg $ flame_arg $ trace_out_arg)

(* --- gates ------------------------------------------------------------------ *)

let gates_cmd =
  let run path check_cycles =
    let analysis = or_die (load path) in
    let circuit =
      try Asim_gates.Circuit.of_analysis analysis
      with Asim.Error.Error e ->
        prerr_endline ("asim: " ^ Asim.Error.to_string e);
        exit 1
    in
    print_endline (Asim_gates.Circuit.describe circuit);
    let s = Asim_gates.Circuit.stats circuit in
    Printf.printf "\ntotal: %d gates, %d flip-flops, %d behavioral macros\n"
      s.Asim_gates.Circuit.gate_count s.Asim_gates.Circuit.dff_count
      s.Asim_gates.Circuit.macro_count;
    match check_cycles with
    | None -> ()
    | Some cycles ->
        (* run gate level against the RTL engine and compare every component *)
        let rtl = Asim.machine ~config:Asim.Machine.quiet_config analysis in
        let names =
          List.map
            (fun (c : Asim.Component.t) -> c.name)
            analysis.Asim.Analysis.spec.Asim.Spec.components
        in
        let diverged = ref 0 in
        for cyc = 1 to cycles do
          Asim.Machine.run rtl ~cycles:1;
          Asim_gates.Circuit.step circuit;
          List.iter
            (fun name ->
              let w = max 1 (min 31 (Asim_gates.Circuit.width circuit name)) in
              let expected = rtl.Asim.Machine.read name land Asim.Bits.ones w in
              let got = Asim_gates.Circuit.read circuit name in
              if expected <> got then begin
                incr diverged;
                if !diverged <= 5 then
                  Printf.printf "cycle %d: %s rtl=%d gates=%d\n" cyc name expected got
              end)
            names
        done;
        if !diverged = 0 then
          Printf.printf "gate level matches the RTL engine over %d cycles\n" cycles
        else begin
          Printf.printf "%d divergences\n" !diverged;
          exit 1
        end
  in
  let check_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "verify" ] ~docv:"N"
          ~doc:"Run N cycles at both the gate level and the RTL and compare.")
  in
  Cmd.v
    (Cmd.info "gates"
       ~doc:"Lower a specification to a boolean network (logic-gate level) and report it.")
    Term.(const run $ file_arg $ check_arg)

(* --- coverage ---------------------------------------------------------------- *)

let coverage_cmd =
  let run path engine cycles bits all_values =
    let analysis = or_die (load path) in
    let faults = Asim.Coverage.stuck_at_faults ~bits_per_component:bits analysis in
    let observe = if all_values then Some Asim.Coverage.All_values else None in
    let engine_fn config a = Asim.machine ~config ~engine a in
    let report =
      try Asim.Coverage.run ?observe ?cycles ~engine:engine_fn analysis ~faults
      with Asim.Error.Error e ->
        prerr_endline ("asim: " ^ Asim.Error.to_string e);
        exit 1
    in
    print_string (Asim.Coverage.to_string report)
  in
  let bits_arg =
    Arg.(
      value
      & opt int 8
      & info [ "bits" ] ~docv:"N"
          ~doc:"Inject stuck-at faults on the low N bits of each component (default 8).")
  in
  let all_values_arg =
    Arg.(
      value & flag
      & info [ "all-values" ]
          ~doc:"Observe every component, not just the traced ones and I/O.")
  in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:
         "Fault-coverage analysis: inject every single stuck-at fault and report which \
          ones the workload detects.")
    Term.(const run $ file_arg $ engine_arg $ cycles_arg $ bits_arg $ all_values_arg)

(* --- wavediff ---------------------------------------------------------------- *)

let wavediff_cmd =
  let run a b =
    let read path =
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    in
    let parse path =
      try Asim.Vcd.parse (read path) with
      | Asim.Error.Error e ->
          prerr_endline ("asim: " ^ path ^ ": " ^ Asim.Error.to_string e);
          exit 1
      | Sys_error msg ->
          prerr_endline ("asim: " ^ msg);
          exit 1
    in
    match Asim.Vcd.diff (parse a) (parse b) with
    | [] -> print_endline "waveforms are equivalent"
    | diffs ->
        List.iter
          (fun (signal, times) ->
            match times with
            | [ -1 ] -> Printf.printf "%-16s only in one dump\n" signal
            | times ->
                Printf.printf "%-16s differs at %d times (first %s)\n" signal
                  (List.length times)
                  (String.concat ", "
                     (List.filteri (fun i _ -> i < 6) (List.map string_of_int times))))
          diffs;
        exit 1
  in
  let vcd_pos n doc = Arg.(required & pos n (some file) None & info [] ~docv:"VCD" ~doc) in
  Cmd.v
    (Cmd.info "wavediff"
       ~doc:"Compare two VCD waveform dumps (e.g. a healthy and a fault-injected run).")
    Term.(const run $ vcd_pos 0 "First waveform." $ vcd_pos 1 "Second waveform.")

(* --- fuzz ------------------------------------------------------------------- *)

let fuzz_cmd =
  let run seed count start max_comb max_mem cycles wide engines artifacts
      time_budget print_specs no_shrink quiet fuzz_jobs trace_out opt =
    let size = { Asim_fuzz.Gen.max_comb; max_mem; cycles; wide } in
    (match engines with
    | [] | [ _ ] ->
        prerr_endline "asim: fuzz needs at least two engines to compare";
        exit 2
    | _ -> ());
    let on_spec index spec =
      if print_specs then
        Printf.printf "# --- spec %d ---\n%s" index (Asim.Pretty.spec spec)
    in
    let log = if quiet then fun _ -> () else print_endline in
    let tracer = tracer_for trace_out in
    let outcome =
      Asim_fuzz.Runner.run ?artifacts_dir:artifacts ?time_budget ~tracer ~opt
        ~engines ~start ~shrink:(not no_shrink) ~on_spec ~log ~jobs:fuzz_jobs
        ~seed ~count ~size ()
    in
    write_trace trace_out tracer;
    List.iter
      (fun r -> print_endline (Asim_fuzz.Runner.report_to_string r))
      outcome.Asim_fuzz.Runner.reports;
    (* The summary names what actually ran: the campaign drops engines
       that cannot run here (native without a toolchain). *)
    let engines = List.filter Asim_fuzz.Oracle.available engines in
    print_endline (Asim_fuzz.Runner.summary ~seed ~engines outcome);
    if outcome.Asim_fuzz.Runner.reports <> [] then exit 1
  in
  let engine_conv =
    Arg.conv
      ( (fun s ->
          match Asim_fuzz.Oracle.engine_of_string s with
          | Some e -> Ok e
          | None -> Error (`Msg ("unknown engine " ^ s))),
        fun ppf e -> Format.pp_print_string ppf (Asim_fuzz.Oracle.engine_to_string e) )
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")
  in
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Number of random specifications to test.")
  in
  let start_arg =
    Arg.(
      value & opt int 0
      & info [ "start" ] ~docv:"N"
          ~doc:
            "First campaign index (reproducer bundles name the index of the \
             diverging spec; replay it with $(b,--start N --count 1)).")
  in
  let max_components_arg =
    Arg.(
      value & opt int 6
      & info [ "max-components" ] ~docv:"N"
          ~doc:"Upper bound on combinational components per spec.")
  in
  let max_memories_arg =
    Arg.(
      value & opt int 3
      & info [ "max-memories" ] ~docv:"N" ~doc:"Upper bound on memories per spec.")
  in
  let fuzz_cycles_arg =
    Arg.(
      value & opt int 20
      & info [ "cycles" ] ~docv:"N" ~doc:"Cycles to simulate each spec for.")
  in
  let wide_arg =
    Arg.(
      value & flag
      & info [ "wide" ]
          ~doc:
            "Also generate filling atoms (whole-word references, un-suffixed \
             constants): full-word values and negative intermediates.")
  in
  let engines_arg =
    Arg.(
      value
      & opt (list engine_conv) Asim_fuzz.Oracle.all
      & info [ "engines" ] ~docv:"LIST"
          ~doc:
            "Comma-separated engines to compare (first is the reference): \
             any $(b,-e) engine of $(b,asim run), plus $(b,buggy) (a \
             deliberately faulty compiler: constant ALU add computes sub), \
             which makes a campaign a self-test of the oracle and the \
             shrinker.  $(b,par) runs at $(b,asim run)'s default domain \
             count.  $(b,native) is dropped with a warning when no OCaml \
             toolchain answers on PATH.")
  in
  let artifacts_arg =
    Arg.(
      value
      & opt (some string) (Some "fuzz-artifacts")
      & info [ "artifacts-dir" ] ~docv:"DIR"
          ~doc:"Where to write reproducer bundles (created on first failure).")
  in
  let time_budget_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "time-budget" ] ~docv:"SECONDS"
          ~doc:"Stop starting new specs once this much wall-clock time has elapsed.")
  in
  let print_specs_arg =
    Arg.(
      value & flag
      & info [ "print-specs" ]
          ~doc:"Print every generated specification (deterministic per seed).")
  in
  let no_shrink_arg =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Skip minimizing failures.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress progress lines.")
  in
  let fuzz_jobs_arg =
    Arg.(
      value & opt positive_int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains to spread campaign indices over.  Reporting stays \
             deterministic for any N; $(b,--jobs 1) is byte-identical to the \
             sequential driver.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate random well-formed specifications \
          and check that every simulation engine observes identical behavior \
          (the paper's compiled-equals-interpreted claim); shrink and save \
          any counterexample.")
    Term.(
      const run $ seed_arg $ count_arg $ start_arg $ max_components_arg
      $ max_memories_arg $ fuzz_cycles_arg $ wide_arg $ engines_arg
      $ artifacts_arg $ time_budget_arg $ print_specs_arg
      $ no_shrink_arg $ quiet_arg $ fuzz_jobs_arg $ trace_out_arg $ opt_arg)

(* --- batch / serve ----------------------------------------------------------- *)

let jobs_arg =
  Arg.(
    value & opt positive_int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains to run jobs on; they share one job queue and one cache.")

let cache_capacity_arg =
  Arg.(
    value & opt int 64
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"Maximum analyzed specs held in the compiled-spec cache.")

let no_metrics_arg =
  Arg.(
    value & flag
    & info [ "no-metrics" ] ~doc:"Suppress the end-of-run metrics summary on stderr.")

let batch_cmd =
  let run manifest jobs cache_capacity output no_metrics trace_out profile opt =
    let tracer = tracer_for trace_out in
    let fd =
      try Unix.openfile manifest [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
      with Unix.Unix_error (e, _, _) ->
        prerr_endline ("asim: " ^ manifest ^ ": " ^ Unix.error_message e);
        exit 2
    in
    (* a local session of the server: one worker domain per job slot *)
    let server =
      Asim_serve.Server.create
        ~config:
          { Asim_serve.Server.default_config with shards = jobs; cache_capacity; opt; tracer }
        ()
    in
    let oc, close_oc =
      match output with
      | None -> (stdout, fun () -> flush stdout)
      | Some path ->
          let oc = open_out path in
          (oc, fun () -> close_out oc)
    in
    let emit line =
      output_string oc line;
      output_char oc '\n'
    in
    let extra_want = if profile then [ Asim_batch.Proto.Profile ] else [] in
    Asim_serve.Server.batch ~extra_want server fd emit;
    Asim_serve.Server.drain server;
    Unix.close fd;
    close_oc ();
    write_trace trace_out tracer;
    let s = Asim_serve.Server.summary server in
    if not no_metrics then prerr_string (Asim_batch.Metrics.to_string s);
    if s.Asim_batch.Metrics.errors + s.Asim_batch.Metrics.timeouts > 0 then exit 1
  in
  let manifest_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"MANIFEST" ~doc:"JSONL manifest: one job object per line.")
  in
  let output_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write result lines to FILE instead of stdout.")
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Add $(b,profile) to every job's $(b,want) list: each result \
             line gains a per-component $(b,profile) object (jobs on the \
             $(b,native) engine answer with an error).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run a JSONL manifest of simulation jobs as a local session of the \
          $(b,serve) core (worker domains sharing one compiled-spec cache); emit \
          one result line per request, in job order.")
    Term.(
      const run $ manifest_arg $ jobs_arg $ cache_capacity_arg $ output_arg
      $ no_metrics_arg $ trace_out_arg $ profile_arg $ opt_arg)

let serve_cmd =
  let run jobs cache_capacity socket tcp host port_file no_metrics metrics_file
      metrics_interval queue_depth max_in_flight max_line_bytes store_capacity
      timeout_s trace_out log_json opt =
    let tracer = tracer_for trace_out in
    let config =
      {
        Asim_serve.Server.shards = jobs;
        cache_capacity;
        queue_depth;
        max_in_flight;
        max_line_bytes;
        store_capacity;
        default_timeout_s = timeout_s;
        opt;
        tracer;
      }
    in
    let server = Asim_serve.Server.create ~config () in
    if log_json then Asim_serve.Server.log_json server stderr;
    (* Flush the Chrome-trace buffer as part of the drain itself: a
       SIGTERM/SIGINT shutdown then leaves a complete --trace-out file even
       though control never returns through the normal exit path. *)
    (match trace_out with
    | Some _ ->
        Asim_serve.Server.on_drain server (fun () -> write_trace trace_out tracer)
    | None -> ());
    (match metrics_file with
    | None -> ()
    | Some path ->
        Asim_serve.Server.metrics_file server ~path
          ~interval:(Float.max 0.1 metrics_interval));
    (* SIGINT/SIGTERM drain in-flight jobs, flush a final metrics snapshot
       and exit 0; Server.shutdown is safe to call from a handler. *)
    let handler = Sys.Signal_handle (fun _ -> Asim_serve.Server.shutdown server) in
    (try Sys.set_signal Sys.sigint handler with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ | Sys_error _ -> ());
    let finish () =
      Asim_serve.Server.drain server;
      write_trace trace_out tracer;
      if not no_metrics then
        prerr_string (Asim_batch.Metrics.to_string (Asim_serve.Server.summary server))
    in
    match (tcp, socket) with
    | Some port, _ ->
        let addr =
          try Unix.inet_addr_of_string host
          with Failure _ ->
            prerr_endline ("asim: bad --host address " ^ host);
            exit 2
        in
        let port = Asim_serve.Server.listen server (Unix.ADDR_INET (addr, port)) in
        Printf.eprintf "asim serve: listening on %s:%d (%d workers)\n%!" host port
          jobs;
        (match port_file with
        | Some path -> write_text_file path (string_of_int port ^ "\n")
        | None -> ());
        Asim_serve.Server.serve server;
        finish ()
    | None, Some path ->
        ignore (Asim_serve.Server.listen server (Unix.ADDR_UNIX path));
        Printf.eprintf "asim serve: listening on %s (%d workers)\n%!" path jobs;
        Asim_serve.Server.serve server;
        finish ()
    | None, None ->
        (* the stdio loop is the same core with one attached client *)
        Asim_serve.Server.attach server Unix.stdin Unix.stdout;
        finish ()
  in
  let socket_arg =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix socket instead of stdin/stdout; connections are \
             served concurrently and share the spec store and the cache.")
  in
  let tcp_arg =
    Arg.(
      value & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:
            "Listen on a TCP port (0 picks a free one; the bound port is \
             printed on stderr).  Takes precedence over $(b,--socket).")
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind $(b,--tcp) on.")
  in
  let port_file_arg =
    Arg.(
      value & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:"Write the bound TCP port to FILE (for scripts and CI).")
  in
  let metrics_file_arg =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-file" ] ~docv:"FILE"
          ~doc:
            "Periodically write the live metrics in Prometheus text format to \
             FILE (atomically, via rename).  Clients can also request the same \
             text in-band with a $(b,{\"control\":\"metrics\"}) line.")
  in
  let metrics_interval_arg =
    Arg.(
      value & opt float 10.0
      & info [ "metrics-interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between $(b,--metrics-file) writes (default 10).")
  in
  let queue_depth_arg =
    Arg.(
      value & opt int 256
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Jobs the shared queue holds; a job that finds it full waits at \
             admission, and its client is not read meanwhile.")
  in
  let max_in_flight_arg =
    Arg.(
      value & opt int 64
      & info [ "max-in-flight" ] ~docv:"N"
          ~doc:
            "Unanswered jobs one client may have; its next job waits at \
             admission, and the client is not read meanwhile.")
  in
  let max_line_bytes_arg =
    Arg.(
      value & opt int (1 lsl 20)
      & info [ "max-line-bytes" ] ~docv:"N"
          ~doc:"Longest accepted request line; longer lines get an error reply.")
  in
  let store_capacity_arg =
    Arg.(
      value & opt int 1024
      & info [ "store-capacity" ] ~docv:"N"
          ~doc:"Specs held by the content-addressed upload store.")
  in
  let timeout_arg =
    Arg.(
      value & opt (some float) None
      & info [ "timeout-s" ] ~docv:"SECONDS"
          ~doc:
            "Default per-job wall-clock budget for jobs that set none \
             (cooperative: long simulations stop at a cycle boundary).")
  in
  let log_json_arg =
    Arg.(
      value & flag
      & info [ "log-json" ]
          ~doc:
            "Structured logging: one JSON object per lifecycle event \
             (accept, reject, disconnect, drain) on stderr, each with a \
             $(b,ts) timestamp.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "The simulation service: accept JSONL jobs on stdin, a Unix socket or \
          a TCP port; run them on worker domains that share one queue and one \
          compiled-spec cache; stream results back in completion order.  \
          Specs can be uploaded once ($(b,{\"control\":\"upload\",...})) and \
          submitted by hash.  SIGINT/SIGTERM drain and exit cleanly.")
    Term.(
      const run $ jobs_arg $ cache_capacity_arg $ socket_arg $ tcp_arg $ host_arg
      $ port_file_arg $ no_metrics_arg $ metrics_file_arg $ metrics_interval_arg
      $ queue_depth_arg $ max_in_flight_arg $ max_line_bytes_arg
      $ store_capacity_arg $ timeout_arg $ trace_out_arg $ log_json_arg $ opt_arg)

let loadgen_cmd =
  let run host port connections jobs_per_connection example spec_file cycles
      engine no_scrape out =
    let spec =
      match spec_file with
      | Some path -> (
          try
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          with Sys_error msg ->
            prerr_endline ("asim: " ^ msg);
            exit 2)
      | None -> (
          match List.assoc_opt example Asim.Specs.all with
          | Some s -> s
          | None ->
              prerr_endline ("asim: unknown example " ^ example);
              exit 2)
    in
    let cfg =
      {
        Asim_serve.Loadgen.host;
        port;
        connections;
        jobs_per_connection;
        spec;
        cycles;
        engine;
        scrape = not no_scrape;
      }
    in
    let r = Asim_serve.Loadgen.run cfg in
    print_string (Asim_serve.Loadgen.report_to_string r);
    (match out with
    | Some path ->
        write_text_file path
          (Asim_batch.Json.to_string (Asim_serve.Loadgen.report_to_json r) ^ "\n")
    | None -> ());
    if
      r.Asim_serve.Loadgen.dropped > 0
      || r.Asim_serve.Loadgen.duplicates > 0
      || r.Asim_serve.Loadgen.upload_failures > 0
      || r.Asim_serve.Loadgen.ok = 0
    then begin
      prerr_endline "asim loadgen: integrity check failed";
      exit 1
    end
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")
  in
  let port_arg =
    Arg.(
      required & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server TCP port.")
  in
  let connections_arg =
    Arg.(
      value & opt int 256
      & info [ "c"; "connections" ] ~docv:"N"
          ~doc:"Concurrent client connections (default 256).")
  in
  let jobs_per_connection_arg =
    Arg.(
      value & opt int 4
      & info [ "n"; "jobs-per-connection" ] ~docv:"N"
          ~doc:"Jobs pipelined per connection after its upload (default 4).")
  in
  let example_arg =
    Arg.(
      value & opt string "counter"
      & info [ "example" ] ~docv:"NAME"
          ~doc:"Built-in example spec every connection uploads and runs.")
  in
  let spec_file_arg =
    Arg.(
      value & opt (some file) None
      & info [ "spec-file" ] ~docv:"FILE"
          ~doc:"Upload this spec file instead of a built-in example.")
  in
  let cycles_arg =
    Arg.(
      value & opt (some int) None
      & info [ "n-cycles"; "cycles" ] ~docv:"N"
          ~doc:"Cycle budget per job (default: the spec's own declaration).")
  in
  let no_scrape_arg =
    Arg.(
      value & flag
      & info [ "no-scrape" ]
          ~doc:"Skip the final in-band metrics scrape (cache hit rate).")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Also write the report as JSON.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Load-test a running $(b,asim serve --tcp) instance: open many \
          concurrent connections, upload one spec each (deduplicated by the \
          content-addressed store), pipeline submit-by-hash jobs, and report \
          throughput, latency percentiles and result integrity (zero dropped \
          or duplicated replies).  Exits nonzero on any integrity failure.")
    Term.(
      const run $ host_arg $ port_arg $ connections_arg $ jobs_per_connection_arg
      $ example_arg $ spec_file_arg $ cycles_arg $ engine_arg $ no_scrape_arg
      $ out_arg)

(* --- genspec ---------------------------------------------------------------- *)

let genspec_cmd =
  let run kind cores depth width height seed cycles out =
    let spec =
      match kind with
      | `Pipeline -> Asim_fuzz.Gen.pipeline ?cycles ~cores ~depth ~seed ()
      | `Mesh -> Asim_fuzz.Gen.mesh ?cycles ~width ~height ~seed ()
    in
    let text = Asim.Pretty.spec spec in
    match out with
    | None -> print_string text
    | Some path ->
        write_text_file path text;
        Printf.eprintf "wrote %s (%d components)\n" path
          (List.length spec.Asim.Spec.components)
  in
  let kind_arg =
    Arg.(
      value
      & opt (enum [ ("pipeline", `Pipeline); ("mesh", `Mesh) ]) `Pipeline
      & info [ "k"; "kind" ] ~docv:"KIND"
          ~doc:
            "Workload shape: $(b,pipeline) (replicated cores of chained \
             stages with deliberate cross-core combinational edges — the \
             partitioned engine's hard case) or $(b,mesh) (a 2-D grid whose \
             inter-row traffic flows through registers — its best case).")
  in
  let cores_arg =
    Arg.(
      value & opt int 10
      & info [ "cores" ] ~docv:"N"
          ~doc:"Pipeline replicas (components = cores x (depth+1)).")
  in
  let depth_arg =
    Arg.(
      value & opt int 9
      & info [ "depth" ] ~docv:"N" ~doc:"Combinational stages per pipeline core.")
  in
  let width_arg =
    Arg.(
      value & opt int 10
      & info [ "mesh-width" ] ~docv:"N"
          ~doc:"Mesh columns (components = height x (width+1)).")
  in
  let height_arg =
    Arg.(
      value & opt int 10 & info [ "mesh-height" ] ~docv:"N" ~doc:"Mesh rows.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Generator seed.  Output is a pure function of the shape \
             parameters and the seed — the same invocation always prints \
             byte-identical text.")
  in
  let gen_cycles_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "n"; "cycles" ] ~docv:"N"
          ~doc:"The emitted spec's = directive (default 200).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "genspec"
       ~doc:
         "Generate a structured benchmark specification (1k-100k components) \
          for exercising the partitioned engine: replicated pipelined cores \
          or a 2-D mesh, deterministic for a fixed seed, always within the \
          width/select/memory-op envelope every engine and the differential \
          oracle accept.")
    Term.(
      const run $ kind_arg $ cores_arg $ depth_arg $ width_arg $ height_arg
      $ seed_arg $ gen_cycles_arg $ out_arg)

(* --- fmt -------------------------------------------------------------------- *)

let fmt_cmd =
  let run path =
    let analysis = or_die (load path) in
    print_string (Asim.Pretty.spec analysis.Asim.Analysis.spec)
  in
  Cmd.v
    (Cmd.info "fmt" ~doc:"Echo a specification in canonical form (macros expanded).")
    Term.(const run $ file_arg)

(* --- example ---------------------------------------------------------------- *)

let example_cmd =
  let run name =
    match name with
    | None ->
        print_endline "available examples:";
        List.iter (fun (n, _) -> print_endline ("  " ^ n)) Asim.Specs.all
    | Some name -> (
        match List.assoc_opt name Asim.Specs.all with
        | Some source -> print_string source
        | None ->
            prerr_endline ("asim: unknown example " ^ name);
            exit 1)
  in
  let name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Example name.")
  in
  Cmd.v
    (Cmd.info "example" ~doc:"Print a built-in example specification (or list them).")
    Term.(const run $ name_arg)

let () =
  let doc = "ASIM II: architecture simulation using a register transfer language" in
  let info = Cmd.info "asim" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
    [ check_cmd; run_cmd; codegen_cmd; pipeline_cmd; netlist_cmd; gates_cmd;
      profile_cmd; asm_cmd; coverage_cmd; wavediff_cmd; fuzz_cmd; genspec_cmd;
      batch_cmd; serve_cmd; loadgen_cmd; fmt_cmd; example_cmd ]))
