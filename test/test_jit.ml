(* Tests for the native-compiled engine ([Asim_jit.Jit]): the spec lowered
   to an OCaml module, compiled by the host toolchain and Dynlinked back in.
   Covered here: cycle-level lockstep with the interpreter and the flat
   kernel on the two big demo machines, observable equality (trace text,
   I/O events, final memories, statistics, faults) through the fuzz
   oracle, chunk-activity plugins against flat on ~1k-component specs
   (faults over quiet chunks, re-stepping after runtime errors), flat's
   quiet memories against one-supernode plugins, span-verified artifact-cache hits, single flight across domains and per
   spec, and recovery from a corrupted on-disk artifact.  Every test no-ops
   when no OCaml toolchain answers on PATH — the engine's own availability
   probe is the gate. *)

module Machine = Asim.Machine
module Jit = Asim.Jit
module Oracle = Asim_fuzz.Oracle
module Tracer = Asim_obs.Tracer

let quiet = Machine.quiet_config

(* One shared artifact cache for the whole binary, so each distinct spec
   pays the out-of-process compiler exactly once; routed through the
   environment so oracle-built native machines land in it too. *)
let cache_dir =
  let dir = Filename.temp_file "asim-test-jit" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Unix.putenv "ASIM_JIT_CACHE_DIR" dir;
  dir

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let () = at_exit (fun () -> remove_tree cache_dir)

let if_toolchain f () = if Jit.available () then f ()

(* ------------------------------------------------------------------ *)
(* Cycle-for-cycle lockstep on the goldens                            *)
(* ------------------------------------------------------------------ *)

let lockstep name (spec : Asim.Spec.t) ~cycles =
  let analysis = Asim.Analysis.analyze spec in
  let names =
    List.map
      (fun (c : Asim.Component.t) -> c.Asim.Component.name)
      spec.Asim.Spec.components
  in
  let engines =
    [
      ("interp", Asim.Interp.create ~config:quiet analysis);
      ("flat", Asim.Flat.create ~config:quiet analysis);
      ("native", Jit.create ~config:quiet ~cache_dir analysis);
    ]
  in
  let reference = snd (List.hd engines) in
  for cycle = 1 to cycles do
    List.iter (fun (_, m) -> m.Machine.step ()) engines;
    List.iter
      (fun comp ->
        let expect = reference.Machine.read comp in
        List.iter
          (fun (ename, m) ->
            let got = m.Machine.read comp in
            if got <> expect then
              Alcotest.failf "%s: cycle %d, component %s: %s=%d, interp=%d" name
                cycle comp ename got expect)
          (List.tl engines))
      names
  done;
  List.iter
    (fun (c : Asim.Component.t) ->
      match c.Asim.Component.kind with
      | Asim.Component.Memory { cells; _ } ->
          for i = 0 to cells - 1 do
            let expect = reference.Machine.read_cell c.Asim.Component.name i in
            List.iter
              (fun (ename, m) ->
                Alcotest.(check int)
                  (Printf.sprintf "%s: %s cell %s[%d]" name ename
                     c.Asim.Component.name i)
                  expect
                  (m.Machine.read_cell c.Asim.Component.name i))
              (List.tl engines)
          done
      | _ -> ())
    spec.Asim.Spec.components

let test_lockstep_sieve =
  if_toolchain (fun () ->
      lockstep "stackm-sieve"
        (Asim_stackm.Microcode.spec ~program:Asim_stackm.Demos.sieve_reassembled ())
        ~cycles:1200)

let test_lockstep_tinyc =
  if_toolchain (fun () ->
      lockstep "tinyc-demo"
        (Asim_tinyc.Machine.spec ~program:Asim_tinyc.Machine.demo_image ())
        ~cycles:800)

(* ------------------------------------------------------------------ *)
(* Multi-chunk plugins: chunk activity against the flat kernel        *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The chunk tests below are about the activity-scheduled plugin, so each
   first checks the spec is big enough to get one. *)
let require_chunks analysis =
  Alcotest.(check bool) "plugin is split into chunks" true
    (contains (Jit.generate_source analysis) "let chunk_1 ")

(* Flat first: the reference the plugin must match. *)
let flat_and_native =
  [
    ("flat", fun config analysis -> Asim.Flat.create ~config analysis);
    ("native", fun config analysis -> Jit.create ~config ~cache_dir analysis);
  ]

let test_chunked_lockstep =
  if_toolchain (fun () ->
      List.iter
        (fun (what, analysis) ->
          require_chunks analysis;
          Alcotest.(check int) (what ^ ": no errors") 0
            (Supernode_designs.lockstep ~engines:flat_and_native what analysis ~cycles:300))
        (Supernode_designs.lockstep_designs ()))

let test_chunked_late_fault =
  if_toolchain (fun () ->
      List.iter
        (fun (what, analysis, cycles, faults) ->
          require_chunks analysis;
          ignore
            (Supernode_designs.lockstep ~engines:flat_and_native what analysis ~cycles
               ~faults))
        (Supernode_designs.late_fault_designs ()))

let test_chunked_error_restep =
  if_toolchain (fun () ->
      List.iter
        (fun (what, analysis, cycles, raising) ->
          require_chunks analysis;
          Alcotest.(check int) (what ^ ": raising steps") raising
            (Supernode_designs.lockstep ~engines:flat_and_native what analysis ~cycles))
        (Supernode_designs.error_designs ()))

(* The designs whose memories go quiet and wake fit in one supernode, so
   the plugin runs its straight-line step: here it is the reference for
   flat's memory activity beside the closure compiler (test_flat). *)
let test_quiet_memories =
  if_toolchain (fun () ->
      List.iter
        (fun (what, analysis, cycles, pokes, faults, raising) ->
          Alcotest.(check int) (what ^ ": raising steps") raising
            (Supernode_designs.lockstep ~engines:flat_and_native what analysis ~cycles ~pokes
               ~faults))
        (Supernode_designs.quiet_memory_designs ()))

(* ------------------------------------------------------------------ *)
(* Full observable equality through the oracle                        *)
(* ------------------------------------------------------------------ *)

(* [Oracle.check] compares everything the paper treats as observable:
   per-cycle outputs, trace text, I/O event streams, final memory images,
   access statistics and runtime errors. *)
let test_oracle_examples =
  if_toolchain (fun () ->
      assert (List.mem `Native Oracle.all);
      List.iter
        (fun (name, source) ->
          let spec = Asim.Parser.parse_string source in
          match Oracle.check ~engines:[ `Interp; `Native ] spec with
          | None -> ()
          | Some d ->
              Alcotest.failf "example %s diverged: %s" name
                (Oracle.divergence_to_string d))
        Asim.Specs.all)

let test_oracle_generated =
  if_toolchain (fun () ->
      for index = 0 to 11 do
        let spec = Asim_fuzz.Gen.(spec_at default_size) ~seed:0x1217 ~index in
        match
          Oracle.check ~cycles:40 ~engines:[ `Interp; `Native ] spec
        with
        | None -> ()
        | Some d ->
            Alcotest.failf "generated spec %d diverged: %s" index
              (Oracle.divergence_to_string d)
      done)

(* Fault injection enters the generated code through a host closure; the
   faulty trace must match the interpreter's character for character. *)
let counter = "#c\n= 8\ncount* inc .\nA inc 4 count 1\nM count 0 inc 1 1\n.\n"

let test_fault_differential =
  if_toolchain (fun () ->
      let run build =
        let analysis = Asim.load_string counter in
        let buf = Buffer.create 256 in
        let config =
          {
            quiet with
            Machine.trace = Asim.Trace.buffer_sink buf;
            faults =
              [
                Asim.Fault.stuck_at ~first_cycle:2 ~last_cycle:4 "inc" 0;
                Asim.Fault.flip_bit ~first_cycle:6 "count" 1;
              ];
          }
        in
        let m : Machine.t = build config analysis in
        Machine.run m ~cycles:10;
        Buffer.contents buf
      in
      let interp = run (fun config a -> Asim.Interp.create ~config a) in
      let native = run (fun config a -> Jit.create ~config ~cache_dir a) in
      Alcotest.(check string) "faulty trace agrees" interp native;
      Alcotest.(check bool) "fault changed the trace" true
        (interp <> run (fun config a ->
             Asim.Interp.create ~config:{ config with Machine.faults = [] } a)))

(* ------------------------------------------------------------------ *)
(* Artifact cache: spans, hits, and corruption recovery               *)
(* ------------------------------------------------------------------ *)

let span_cache tracer span_name =
  List.filter_map
    (fun (e : Tracer.event) ->
      if e.Tracer.name = span_name then List.assoc_opt "cache" e.Tracer.args
      else None)
    (Tracer.events tracer)

(* A spec of its own so this test controls the artifact's cache state. *)
let cache_spec = "#cachehit\n= 6\nr* n .\nA n 4 r 3\nM r 0 n 1 1\n.\n"

let test_cache_hit_spans =
  if_toolchain (fun () ->
      let analysis = Asim.load_string cache_spec in
      let artifact = Jit.artifact_path ~cache_dir analysis in
      if Sys.file_exists artifact then Sys.remove artifact;
      Jit.clear_memory_cache ();
      let t1 = Tracer.create () in
      let m1 = Jit.create ~config:quiet ~tracer:t1 ~cache_dir analysis in
      Alcotest.(check (list string))
        "first build compiles (cache miss)" [ "miss" ]
        (span_cache t1 "codegen.native.compile");
      Alcotest.(check bool) "dynlink span present" true
        (span_cache t1 "codegen.native.dynlink" <> []);
      (* Drop the in-process memo so the next create must go back to disk;
         the artifact is there now, so the compile span reports a hit. *)
      Jit.clear_memory_cache ();
      let t2 = Tracer.create () in
      let m2 = Jit.create ~config:quiet ~tracer:t2 ~cache_dir analysis in
      Alcotest.(check (list string))
        "second build reuses the artifact (cache hit)" [ "hit" ]
        (span_cache t2 "codegen.native.compile");
      Machine.run m1 ~cycles:6;
      Machine.run m2 ~cycles:6;
      Alcotest.(check int) "hit-built machine agrees" (m1.Machine.read "r")
        (m2.Machine.read "r"))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A stale cache file from a crashed or killed writer: garbage already
   sits at the artifact path when this process first looks.  (The spec
   must be one this binary has never Dynlinked: the system loader caches
   loaded plugins by path, so corruption of an already-loaded artifact is
   invisible until a fresh process.)  The engine must notice the load
   failure, rebuild once, and leave a good artifact behind. *)
let corrupt_spec = "#stale\n= 6\nr* n .\nA n 4 r 5\nM r 0 n 1 1\n.\n"

let test_corrupted_artifact_recompiles =
  if_toolchain (fun () ->
      let analysis = Asim.load_string corrupt_spec in
      let artifact = Jit.artifact_path ~cache_dir analysis in
      mkdir_p (Filename.dirname artifact);
      let oc = open_out artifact in
      output_string oc "not a plugin";
      close_out oc;
      Jit.clear_memory_cache ();
      let t = Tracer.create () in
      let m = Jit.create ~config:quiet ~tracer:t ~cache_dir analysis in
      let i = Asim.Interp.create ~config:quiet analysis in
      Machine.run m ~cycles:6;
      Machine.run i ~cycles:6;
      Alcotest.(check int) "recompiled plugin behaves" (i.Machine.read "r")
        (m.Machine.read "r");
      (* The spans tell the story: a hit on the stale bytes, then the
         rebuild's miss. *)
      Alcotest.(check (list string))
        "stale hit, then recompile" [ "hit"; "miss" ]
        (span_cache t "codegen.native.compile");
      (* The corrupt bytes were replaced by a working artifact. *)
      Alcotest.(check bool) "artifact repaired" true
        (Sys.file_exists artifact
        && (let ic = open_in_bin artifact in
            let n = in_channel_length ic in
            close_in ic;
            n > String.length "not a plugin")))

(* Single flight across domains: four domains build native machines on
   the same cold spec at once.  The out-of-process compiler runs exactly
   once (the other three wait for the first build), and every machine
   agrees with the flat kernel. *)
let sflight_spec = "#sflight\n= 6\nr* n .\nA n 4 r 9\nM r 0 n 1 1\n.\n"

let test_single_flight =
  if_toolchain (fun () ->
      let analysis = Asim.load_string sflight_spec in
      let artifact = Jit.artifact_path ~cache_dir analysis in
      if Sys.file_exists artifact then Sys.remove artifact;
      Jit.clear_memory_cache ();
      let tracers = List.init 4 (fun _ -> Tracer.create ()) in
      let workers =
        List.map
          (fun tracer ->
            Domain.spawn (fun () ->
                let m = Jit.create ~config:quiet ~tracer ~cache_dir analysis in
                Machine.run m ~cycles:6;
                m.Machine.read "r"))
          tracers
      in
      let results = List.map Domain.join workers in
      let flat = Asim.run_string ~config:quiet ~engine:`Flat sflight_spec in
      List.iter
        (fun r ->
          Alcotest.(check int) "domain agrees with flat" (flat.Machine.read "r") r)
        results;
      let misses =
        List.concat_map
          (fun t -> List.filter (String.equal "miss") (span_cache t "codegen.native.compile"))
          tracers
      in
      Alcotest.(check int) "exactly one compile across four domains" 1
        (List.length misses))

(* Single flight is per spec: while one domain compiles spec A, a spec B
   whose artifact is already on disk builds without waiting for A.  The
   in-process memo is dropped first, so B takes its own lock and Dynlinks
   again. *)
let prepared_spec = "#ready\n= 6\nr* n .\nA n 4 r 7\nM r 0 n 1 1\n.\n"

let test_prepared_during_compile =
  if_toolchain (fun () ->
      let b = Asim.load_string prepared_spec in
      ignore (Jit.create ~config:quiet ~cache_dir b : Machine.t);
      Jit.clear_memory_cache ();
      let a = Asim.Analysis.analyze (Asim_fuzz.Gen.mesh ~width:31 ~height:32 ~seed:11 ()) in
      let artifact = Jit.artifact_path ~cache_dir a in
      if Sys.file_exists artifact then Sys.remove artifact;
      (* A's build directory exists exactly while its compile is in flight. *)
      let build_prefix = "build-" ^ Filename.remove_extension (Filename.basename artifact) in
      let compiling () =
        try
          Array.exists
            (String.starts_with ~prefix:build_prefix)
            (Sys.readdir (Filename.dirname artifact))
        with Sys_error _ -> false
      in
      let a_done = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.set a_done true)
              (fun () -> Jit.create ~config:quiet ~cache_dir a))
      in
      let deadline = Unix.gettimeofday () +. 120.0 in
      while (not (compiling ())) && (not (Atomic.get a_done)) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      let in_flight = compiling () in
      let m = Jit.create ~config:quiet ~cache_dir b in
      Machine.run m ~cycles:3;
      let a_still_compiling = not (Atomic.get a_done) in
      let ma = Domain.join d in
      Machine.run ma ~cycles:3;
      Alcotest.(check bool) "A's compile was observed in flight" true in_flight;
      Alcotest.(check bool) "B answered before A's compile finished" true a_still_compiling;
      Alcotest.(check int) "A runs afterwards" 3 (ma.Machine.current_cycle ()))

(* The generated source is deterministic: the cache key (canonical form)
   and the cached artifact stay honest across runs. *)
let test_generated_source_deterministic =
  if_toolchain (fun () ->
      let analysis = Asim.load_string cache_spec in
      Alcotest.(check string) "same source twice"
        (Jit.generate_source analysis)
        (Jit.generate_source analysis))

let () =
  Alcotest.run "jit"
    [
      ( "lockstep",
        [
          Alcotest.test_case "stackm-sieve vs interp+flat" `Slow test_lockstep_sieve;
          Alcotest.test_case "tinyc-demo vs interp+flat" `Slow test_lockstep_tinyc;
        ] );
      ( "chunk activity",
        [
          Alcotest.test_case "1k mesh, pipeline and counting chain vs flat" `Slow test_chunked_lockstep;
          Alcotest.test_case "fault window over quiet chunks" `Slow test_chunked_late_fault;
          Alcotest.test_case "re-step after selector and address errors" `Slow
            test_chunked_error_restep;
          Alcotest.test_case "quiet memories vs flat" `Slow test_quiet_memories;
        ] );
      ( "observables",
        [
          Alcotest.test_case "embedded examples through the oracle" `Slow
            test_oracle_examples;
          Alcotest.test_case "generated specs through the oracle" `Slow
            test_oracle_generated;
          Alcotest.test_case "fault-injection differential" `Quick
            test_fault_differential;
        ] );
      ( "artifact cache",
        [
          Alcotest.test_case "compile spans report miss then hit" `Quick
            test_cache_hit_spans;
          Alcotest.test_case "corrupted artifact triggers recompile" `Quick
            test_corrupted_artifact_recompiles;
          Alcotest.test_case "generated source is deterministic" `Quick
            test_generated_source_deterministic;
          Alcotest.test_case "prepared answers during another spec's compile" `Slow
            test_prepared_during_compile;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "single flight across domains" `Quick
            test_single_flight;
        ] );
    ]
