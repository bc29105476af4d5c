(* End-to-end tests of the `asim` command-line interface: each case execs
   the built binary and inspects its output. *)

(* The CLI binary lives next to this test inside _build; resolve it from the
   test executable's own location so the tests work under both `dune
   runtest` and `dune exec`. *)
let binary =
  let dir = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.concat (Filename.concat dir Filename.parent_dir_name) "bin")
    "main.exe"

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Native plugins built by the CLI under test go to a private cache, not
   the user's default one under $HOME; every child inherits the variable. *)
let cache_dir =
  let dir = Filename.temp_file "asim-test-cli-jit" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Unix.putenv "ASIM_JIT_CACHE_DIR" dir;
  dir

let () = at_exit (fun () -> try remove_tree cache_dir with Sys_error _ -> ())

(* Run the CLI; returns (exit_code, combined stdout+stderr).  [env] is a
   space-separated list of VAR=value assignments applied to the child only
   (an empty value like PATH= clears the variable). *)
let run_cli ?(env = "") ?stdin_text args =
  let out = Filename.temp_file "asim-cli" ".out" in
  let stdin_redirect =
    match stdin_text with
    | None -> "< /dev/null"
    | Some text ->
        let path = Filename.temp_file "asim-cli" ".in" in
        write_file path text;
        "< " ^ Filename.quote path
  in
  let cmd =
    Printf.sprintf "%s%s %s %s > %s 2>&1"
      (if env = "" then "" else "env " ^ env ^ " ")
      (Filename.quote binary) args stdin_redirect (Filename.quote out)
  in
  let code = Sys.command cmd in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let with_spec source f =
  let path = Filename.temp_file "asim-cli" ".asim" in
  write_file path source;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let counter = "# counter\n= 8\ncount* inc .\nA inc 4 count 1\nM count 0 inc 1 1\n.\n"

let check_ok label (code, text) needles =
  if code <> 0 then Alcotest.failf "%s: exit %d:\n%s" label code text;
  List.iter
    (fun needle ->
      if not (contains text needle) then
        Alcotest.failf "%s: missing %S in:\n%s" label needle text)
    needles

let test_example_listing () =
  check_ok "example" (run_cli "example")
    [ "counter"; "stack-machine-sieve"; "tiny-computer"; "divider-modular" ]

let test_example_dump () =
  let code, text = run_cli "example counter" in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check bool) "is a spec" true (contains text "A inc 4 count 1")

let test_run_trace () =
  with_spec counter (fun path ->
      check_ok "run trace"
        (run_cli (Printf.sprintf "run %s" (Filename.quote path)))
        [ "Cycle   0 count= 0"; "Cycle   7 count= 7" ])

let test_run_stats () =
  with_spec counter (fun path ->
      check_ok "run stats"
        (run_cli (Printf.sprintf "run %s -q --stats" (Filename.quote path)))
        [ "cycles executed: 8"; "memory count" ])

let test_run_engines_agree () =
  with_spec counter (fun path ->
      let _, interp = run_cli (Printf.sprintf "run %s -e interp" (Filename.quote path)) in
      let _, compiled =
        run_cli (Printf.sprintf "run %s -e compiled" (Filename.quote path))
      in
      let _, flat = run_cli (Printf.sprintf "run %s -e flat" (Filename.quote path)) in
      Alcotest.(check string) "same trace" interp compiled;
      Alcotest.(check string) "flat trace" interp flat)

(* Each engine has one name: the deleted ablation engines and the old
   aliases are usage errors (cmdliner's exit 124), on run and fuzz alike, and
   so is the deleted --inject-bug (--engines ...,buggy adds that engine). *)
let test_removed_engine_names () =
  with_spec counter (fun path ->
      List.iter
        (fun (args, what) ->
          let code, text = run_cli args in
          Alcotest.(check int) (args ^ " exit") 124 code;
          Alcotest.(check bool) (args ^ " says why") true (contains text what))
        [
          (Printf.sprintf "run %s -e flat-full" (Filename.quote path), "unknown engine");
          (Printf.sprintf "run %s -e unoptimized" (Filename.quote path), "unknown engine");
          (Printf.sprintf "run %s -e jit" (Filename.quote path), "unknown engine");
          ("fuzz --engines interp,flat-full -q", "unknown engine");
          ("fuzz --inject-bug -q", "unknown option");
        ])

(* Worker counts are positive: a zero or negative [--domains] or [--jobs]
   is a usage error on every command that takes one, and a positive count
   still runs. *)
let test_worker_counts_positive () =
  with_spec counter @@ fun path ->
  with_spec "{\"example\":\"counter\"}\n" @@ fun manifest ->
  let spec = Filename.quote path and manifest = Filename.quote manifest in
  List.iter
    (fun args ->
      let code, text = run_cli args in
      Alcotest.(check int) (args ^ " exit") 124 code;
      Alcotest.(check bool) (args ^ " says why") true
        (contains text "expected a positive integer"))
    [
      Printf.sprintf "run %s -e par --domains 0" spec;
      Printf.sprintf "run %s -e par --domains=-3" spec;
      "fuzz --jobs=-2 --count 1 -q";
      "fuzz --jobs 0 --count 1 -q";
      Printf.sprintf "batch %s --jobs=0" manifest;
      Printf.sprintf "batch %s --jobs=-1" manifest;
      "serve --jobs 0";
    ];
  List.iter
    (fun args -> check_ok args (run_cli args) [])
    [
      Printf.sprintf "run %s -e par --domains 1 -q" spec;
      "fuzz --jobs 1 --count 2 --engines interp,flat -q";
      Printf.sprintf "batch %s --jobs 1 --no-metrics -o /dev/null" manifest;
    ]

let test_run_fault () =
  with_spec counter (fun path ->
      check_ok "run fault"
        (run_cli (Printf.sprintf "run %s --fault inc=stuck@42" (Filename.quote path)))
        [ "Cycle   2 count= 42" ])

let test_run_vcd () =
  with_spec counter (fun path ->
      let vcd = Filename.temp_file "asim-cli" ".vcd" in
      let _ =
        run_cli (Printf.sprintf "run %s -q --vcd %s" (Filename.quote path) (Filename.quote vcd))
      in
      let text = read_file vcd in
      Sys.remove vcd;
      Alcotest.(check bool) "vcd header" true (contains text "$enddefinitions $end"))

let test_check () =
  with_spec counter (fun path ->
      check_ok "check"
        (run_cli (Printf.sprintf "check %s" (Filename.quote path)))
        [ "2 components read."; "combinational order: inc" ])

let test_fmt_roundtrip () =
  with_spec counter (fun path ->
      let code, text = run_cli (Printf.sprintf "fmt %s" (Filename.quote path)) in
      Alcotest.(check int) "exit" 0 code;
      (* canonical output must itself parse *)
      let spec = Asim.Parser.parse_string text in
      Alcotest.(check int) "components" 2 (List.length spec.Asim.Spec.components))

let test_codegen () =
  with_spec counter (fun path ->
      check_ok "codegen pascal"
        (run_cli (Printf.sprintf "codegen %s -l pascal" (Filename.quote path)))
        [ "program simulator(input, output);"; "ljbinc := tempcount + 1;" ];
      check_ok "codegen ocaml"
        (run_cli (Printf.sprintf "codegen %s -l ocaml" (Filename.quote path)))
        [ "let dologic funct left right =" ];
      check_ok "codegen c"
        (run_cli (Printf.sprintf "codegen %s -l c" (Filename.quote path)))
        [ "#include <stdio.h>" ])

let test_netlist () =
  with_spec counter (fun path ->
      check_ok "netlist"
        (run_cli (Printf.sprintf "netlist %s" (Filename.quote path)))
        [ "4 bit adder" ];
      check_ok "netlist dot"
        (run_cli (Printf.sprintf "netlist %s -f dot" (Filename.quote path)))
        [ "digraph asim {" ])

let test_gates () =
  with_spec counter (fun path ->
      check_ok "gates"
        (run_cli (Printf.sprintf "gates %s --verify 10" (Filename.quote path)))
        [ "flip-flops"; "gate level matches the RTL engine over 10 cycles" ])

(* Needs ocamlopt on PATH, as test_pipeline does. *)
let test_pipeline () =
  if not (Asim_codegen.Pipeline.compiler_available Asim_codegen.Codegen.Ocaml) then
    print_endline "[skip] no ocaml compiler"
  else
    with_spec counter (fun path ->
        check_ok "pipeline"
          (run_cli (Printf.sprintf "pipeline %s -l ocaml" (Filename.quote path)))
          [ "Generate code"; "Compile"; "Simulation time" ])

let test_asm () =
  let source =
    "nop\nenter 2\npush 3\nstore 1\nloop: load 1\nout\nload 1\npush 1\nneg\n\
     add\ndupe\nstore 1\nbz done\njmp loop\ndone: jmp done\n"
  in
  let path = Filename.temp_file "asim-cli" ".s" in
  write_file path source;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      check_ok "asm run"
        (run_cli (Printf.sprintf "asm %s --run -n 1500" (Filename.quote path)))
        [ "output[1] <- 3"; "output[1] <- 2"; "output[1] <- 1" ];
      let code, text = run_cli (Printf.sprintf "asm %s" (Filename.quote path)) in
      Alcotest.(check int) "emits a spec" 0 code;
      let spec = Asim.Parser.parse_string text in
      Alcotest.(check bool) "spec has the machine" true
        (Asim.Spec.find spec "rom" <> None))

let test_profile () =
  with_spec counter (fun path ->
      check_ok "profile"
        (run_cli (Printf.sprintf "profile %s -c count -n 4" (Filename.quote path)))
        [ "4 cycles"; "count (4 samples):" ])

(* The default profiler mode: the human report names the spec's
   components, and the --json cost-model document's per-component eval
   counts under full scheduling exactly match an independent
   interp-engine recount — the acceptance identity, end-to-end through
   the CLI. *)
let test_profile_counters () =
  with_spec counter (fun path ->
      check_ok "profile report"
        (run_cli (Printf.sprintf "profile %s" (Filename.quote path)))
        [ "profile: engine=flat"; "inc"; "count" ];
      let evals_of args =
        let code, text =
          run_cli
            (Printf.sprintf "profile %s --json %s" (Filename.quote path) args)
        in
        if code <> 0 then Alcotest.failf "profile --json: exit %d:\n%s" code text;
        let j = Asim_batch.Json.parse text in
        match
          Option.bind (Asim_batch.Json.member "components" j)
            Asim_batch.Json.to_list
        with
        | None -> Alcotest.failf "profile --json: no components in:\n%s" text
        | Some comps ->
            List.map
              (fun c ->
                let str f =
                  Option.get
                    (Option.bind (Asim_batch.Json.member f c)
                       Asim_batch.Json.to_string_opt)
                in
                let num f =
                  Option.get
                    (Option.bind (Asim_batch.Json.member f c)
                       Asim_batch.Json.to_int)
                in
                (str "name", num "evals"))
              comps
      in
      let compiled = evals_of "-e compiled" in
      let interp = evals_of "-e interp" in
      Alcotest.(check (list (pair string int)))
        "compiled evals match interp recount" interp compiled)

(* Engines without counters refuse --profile at run time, with the reason,
   before simulating anything. *)
let test_profile_unsupported_engines () =
  with_spec counter (fun path ->
      List.iter
        (fun (engine, reason) ->
          let code, text =
            run_cli
              (Printf.sprintf "run %s --profile -e %s" (Filename.quote path) engine)
          in
          Alcotest.(check int) (engine ^ " exit") 1 code;
          Alcotest.(check bool) (engine ^ " says why") true (contains text reason))
        [
          ("native", "the native engine does not support profiling");
          ("par", "the partitioned engine does not support profiling");
        ])

let test_coverage () =
  with_spec counter (fun path ->
      check_ok "coverage"
        (run_cli (Printf.sprintf "coverage %s --bits 4" (Filename.quote path)))
        [ "fault coverage:"; "detected" ])

let test_wavediff () =
  with_spec counter (fun path ->
      let h = Filename.temp_file "asim-cli" ".vcd" in
      let f = Filename.temp_file "asim-cli" ".vcd" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove h;
          Sys.remove f)
        (fun () ->
          let _ = run_cli (Printf.sprintf "run %s -q --vcd %s" (Filename.quote path) (Filename.quote h)) in
          let _ =
            run_cli
              (Printf.sprintf "run %s -q --vcd %s --fault count=flip@0:3-5"
                 (Filename.quote path) (Filename.quote f))
          in
          let code, text =
            run_cli (Printf.sprintf "wavediff %s %s" (Filename.quote h) (Filename.quote h))
          in
          Alcotest.(check int) "identical dumps exit 0" 0 code;
          Alcotest.(check bool) "equivalent" true (contains text "equivalent");
          let code, text =
            run_cli (Printf.sprintf "wavediff %s %s" (Filename.quote h) (Filename.quote f))
          in
          Alcotest.(check int) "divergent dumps exit 1" 1 code;
          Alcotest.(check bool) "names the signal" true (contains text "count")))

let test_interactive () =
  with_spec counter (fun path ->
      check_ok "interactive dialogue"
        (run_cli ~stdin_text:"3\n6\n0\n"
           (Printf.sprintf "run %s -n 0 -i" (Filename.quote path)))
        [
          "Number of cycles to trace"; "Cycle   2 count= 2";
          "Continue to cycle (0 to quit)"; "Cycle   5 count= 5";
        ])

let test_fuzz_clean () =
  check_ok "fuzz clean"
    (run_cli "fuzz --seed 42 --count 50 -q")
    [ "50 specs tested (seed 42"; "no divergences" ]

let test_fuzz_replay_deterministic () =
  (* The same seed must replay the identical spec sequence byte for byte,
     including single-spec replay via --start. *)
  let code_a, a = run_cli "fuzz --seed 9 --count 3 --print-specs -q" in
  let code_b, b = run_cli "fuzz --seed 9 --count 3 --print-specs -q" in
  Alcotest.(check int) "first run exit" 0 code_a;
  Alcotest.(check int) "second run exit" 0 code_b;
  (* The summary's elapsed time is the one field that may differ: the first
     run can pay native compiles that the second finds cached. *)
  let mask_elapsed line =
    (* "fuzz: N specs tested (...) in 0.3s — ..." -> "... (...) in _s — ..." *)
    match String.rindex_opt line ')' with
    | Some i when contains line "specs tested" -> (
        let rest = String.sub line i (String.length line - i) in
        match String.index_opt rest 's' with
        | Some j -> String.sub line 0 (i + 1) ^ " in _" ^ String.sub rest j (String.length rest - j)
        | None -> line)
    | _ -> line
  in
  let without_elapsed out = List.map mask_elapsed (String.split_on_char '\n' out) in
  Alcotest.(check (list string)) "byte-identical replay" (without_elapsed a)
    (without_elapsed b);
  let _, single = run_cli "fuzz --seed 9 --start 2 --count 1 --print-specs -q" in
  (* Per-index seed derivation: replaying index 2 alone reprints the very
     spec the full campaign generated (modulo the differing summary line). *)
  String.split_on_char '\n' single
  |> List.iter (fun line ->
         if line <> "" && not (contains line "specs tested") then
           Alcotest.(check bool)
             (Printf.sprintf "replayed line %S appears in the sequence" line)
             true (contains a line))

(* The honest engines that need no toolchain, plus the planted-bug one. *)
let with_buggy = "interp,compiled,flat,par,buggy"

let test_fuzz_divergence_bundle () =
  (* The fault-injected engine forces a divergence; the campaign must report
     it, exit non-zero, and emit a shrunk reproducer bundle. *)
  let dir = Filename.temp_file "asim-fuzz" ".artifacts" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then remove_tree dir)
    (fun () ->
      let code, text =
        run_cli
          (Printf.sprintf
             "fuzz --seed 42 --count 60 --engines %s --artifacts-dir %s -q"
             with_buggy (Filename.quote dir))
      in
      Alcotest.(check int) "divergence exits 1" 1 code;
      Alcotest.(check bool) "names the buggy engine" true (contains text "buggy");
      Alcotest.(check bool) "reports a divergence" true (contains text "diverge");
      let bundles = Sys.readdir dir in
      Alcotest.(check bool) "bundle written" true (Array.length bundles > 0);
      let bundle = Filename.concat dir bundles.(0) in
      let repro = read_file (Filename.concat bundle "repro.asim") in
      let spec = Asim.Parser.parse_string repro in
      let n = List.length spec.Asim.Spec.components in
      if n > 5 then
        Alcotest.failf "reproducer not minimal (%d components):\n%s" n repro;
      Alcotest.(check bool) "bundle has metadata" true
        (Sys.file_exists (Filename.concat bundle "META.txt"));
      Alcotest.(check bool) "bundle keeps the original" true
        (Sys.file_exists (Filename.concat bundle "original.asim")))

let manifest_lines =
  [
    {|{"example":"counter","id":"a"}|};
    {|{"example":"counter","engine":"interp","id":"b","want":["outputs","stats"]}|};
    "not json at all";
    {|{"example":"counter","cycles":3,"id":"d"}|};
  ]

let with_manifest f =
  let path = Filename.temp_file "asim-cli" ".jsonl" in
  write_file path (String.concat "\n" manifest_lines ^ "\n");
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_batch_smoke () =
  with_manifest (fun path ->
      let code, text = run_cli (Printf.sprintf "batch %s --jobs 2" (Filename.quote path)) in
      (* The malformed line makes the whole run exit 1, but every job still
         gets its result line and the metrics summary still prints. *)
      Alcotest.(check int) "malformed line fails the run" 1 code;
      List.iter
        (fun needle -> Alcotest.(check bool) needle true (contains text needle))
        [
          {|{"index":0,"id":"a","status":"ok","cycles":8,"outputs":|};
          {|"index":2,"line":3,"status":"error"|};
          {|{"index":3,"id":"d","status":"ok","cycles":3,|};
          "batch: 4 jobs (3 ok, 1 errors, 0 timeouts)"; "cache:"; "hit rate";
        ])

let test_batch_jobs_byte_identical () =
  (* The acceptance bar: the same manifest at --jobs 1 and --jobs 2 writes
     byte-identical result files. *)
  with_manifest (fun path ->
      let out1 = Filename.temp_file "asim-cli" ".out1" in
      let out2 = Filename.temp_file "asim-cli" ".out2" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove out1;
          Sys.remove out2)
        (fun () ->
          let _ =
            run_cli
              (Printf.sprintf "batch %s --jobs 1 -o %s" (Filename.quote path)
                 (Filename.quote out1))
          in
          let _ =
            run_cli
              (Printf.sprintf "batch %s --jobs 2 -o %s" (Filename.quote path)
                 (Filename.quote out2))
          in
          Alcotest.(check string) "byte-identical results" (read_file out1)
            (read_file out2)))

let test_batch_missing_manifest () =
  let code, _ = run_cli "batch /nonexistent/manifest.jsonl" in
  Alcotest.(check bool) "unopenable manifest fails" true (code <> 0)

let test_serve_stdin () =
  let code, text =
    run_cli
      ~stdin_text:{|{"example":"counter"}
{"example":"stack-machine-sieve","want":[]}
|}
      "serve --no-metrics"
  in
  Alcotest.(check int) "clean session" 0 code;
  Alcotest.(check bool) "first result" true (contains text {|{"index":0,"status":"ok","cycles":8,"outputs":|});
  Alcotest.(check bool) "sieve ran its cycle directive" true
    (contains text {|{"index":1,"status":"ok","cycles":5545}|})

let test_fuzz_jobs_deterministic () =
  (* The parallel fuzz driver must report exactly what the sequential one
     does; only the timing in the summary line may differ. *)
  let strip text =
    String.split_on_char '\n' text |> List.filter (fun l -> not (contains l "specs tested"))
  in
  let code_seq, seq = run_cli "fuzz --seed 11 --count 40 --print-specs -q" in
  let code_par, par = run_cli "fuzz --seed 11 --count 40 --print-specs -q --jobs 2" in
  Alcotest.(check int) "sequential exit" 0 code_seq;
  Alcotest.(check int) "parallel exit" 0 code_par;
  Alcotest.(check (list string)) "identical output" (strip seq) (strip par);
  let bug = "fuzz --seed 42 --count 60 -q --engines " ^ with_buggy in
  let code_bug_seq, bug_seq = run_cli bug in
  let code_bug_par, bug_par = run_cli (bug ^ " --jobs 3") in
  Alcotest.(check int) "sequential divergence exit" 1 code_bug_seq;
  Alcotest.(check int) "parallel divergence exit" 1 code_bug_par;
  Alcotest.(check (list string)) "identical divergence reports" (strip bug_seq)
    (strip bug_par)

(* --- observability flags ---------------------------------------------------- *)

let in_temp suffix f =
  let path = Filename.temp_file "asim-cli" suffix in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* Parse a Chrome trace file and return its events, checking the envelope
   every event must carry (complete spans with microsecond ts/dur on a
   pid/tid track). *)
let trace_events path =
  let json = Asim_batch.Json.parse (read_file path) in
  let events =
    match Asim_batch.Json.to_list json with
    | Some evs -> evs
    | None -> Alcotest.failf "%s: trace is not a JSON array" path
  in
  List.iter
    (fun ev ->
      let field name = Asim_batch.Json.member name ev in
      (match Option.bind (field "ph") Asim_batch.Json.to_string_opt with
      | Some ("X" | "B" | "E") -> ()
      | _ -> Alcotest.failf "%s: event without a span phase" path);
      List.iter
        (fun name ->
          if Option.bind (field name) Asim_batch.Json.to_float = None then
            Alcotest.failf "%s: event missing %s" path name)
        [ "ts"; "dur"; "pid"; "tid" ])
    events;
  events

let span_names events =
  List.filter_map
    (fun ev ->
      Option.bind (Asim_batch.Json.member "name" ev) Asim_batch.Json.to_string_opt)
    events

let check_spans label events needed =
  let names = span_names events in
  List.iter
    (fun span ->
      Alcotest.(check bool)
        (Printf.sprintf "%s has %s" label span)
        true
        (List.mem span names))
    needed

let test_run_trace_and_stats_json () =
  with_spec counter (fun spec ->
      in_temp ".trace" (fun trace ->
          in_temp ".stats" (fun stats ->
              let code, text =
                run_cli
                  (Printf.sprintf "run %s -q -n 2500 --trace-out %s --stats-json %s"
                     (Filename.quote spec) (Filename.quote trace) (Filename.quote stats))
              in
              if code <> 0 then Alcotest.failf "run failed: %s" text;
              check_spans "run trace" (trace_events trace)
                [ "pipeline.parse"; "pipeline.analyze"; "pipeline.build"; "pipeline.simulate" ];
              let j = Asim_batch.Json.parse (read_file stats) in
              Alcotest.(check (option int)) "cycle count"
                (Some 2500)
                (Option.bind (Asim_batch.Json.member "cycles" j) Asim_batch.Json.to_int);
              (match Asim_batch.Json.member "stats" j with
              | Some s ->
                  Alcotest.(check bool) "per-memory stats" true
                    (Asim_batch.Json.member "memories" s <> None)
              | None -> Alcotest.fail "missing stats object");
              match Asim_batch.Json.member "timings" j with
              | Some t ->
                  List.iter
                    (fun stage ->
                      match
                        Option.bind (Asim_batch.Json.member stage t) Asim_batch.Json.to_float
                      with
                      | Some s when s >= 0.0 -> ()
                      | _ -> Alcotest.failf "bad timing %s" stage)
                    [ "parse_s"; "analyze_s"; "build_s"; "run_s" ]
              | None -> Alcotest.fail "missing timings object")))

let test_batch_trace () =
  with_manifest (fun manifest ->
      in_temp ".trace" (fun trace ->
          let code, _ =
            run_cli
              (Printf.sprintf "batch %s --jobs 2 --no-metrics -o /dev/null --trace-out %s"
                 (Filename.quote manifest) (Filename.quote trace))
          in
          (* the manifest's malformed line makes the run exit 1; the trace
             must still be written *)
          Alcotest.(check int) "manifest exit" 1 code;
          let events = trace_events trace in
          check_spans "batch trace" events
            [
              "batch.cache_lookup"; "serve.queue_wait"; "serve.execute";
              "batch.emit"; "pipeline.parse"; "pipeline.build"; "pipeline.simulate";
            ];
          (* cache-lookup spans carry their outcome; this manifest runs the
             counter example 3 times -> 1 miss then hits *)
          let outcomes =
            List.filter_map
              (fun ev ->
                match
                  Option.bind (Asim_batch.Json.member "name" ev)
                    Asim_batch.Json.to_string_opt
                with
                | Some "batch.cache_lookup" ->
                    Option.bind (Asim_batch.Json.member "args" ev) (fun args ->
                        Option.bind
                          (Asim_batch.Json.member "outcome" args)
                          Asim_batch.Json.to_string_opt)
                | _ -> None)
              events
          in
          Alcotest.(check bool) "records a miss" true (List.mem "miss" outcomes);
          Alcotest.(check bool) "records hits" true (List.mem "hit" outcomes)))

let test_fuzz_trace () =
  in_temp ".trace" (fun trace ->
      let code, text =
        run_cli (Printf.sprintf "fuzz --count 5 -q --trace-out %s" (Filename.quote trace))
      in
      if code <> 0 then Alcotest.failf "fuzz failed: %s" text;
      check_spans "fuzz trace" (trace_events trace) [ "fuzz.generate"; "fuzz.check" ])

let test_serve_metrics_request () =
  let code, text =
    run_cli
      ~stdin_text:{|{"example":"counter"}
{"control":"metrics"}
|}
      "serve --no-metrics"
  in
  Alcotest.(check int) "clean session" 0 code;
  let metrics_line =
    String.split_on_char '\n' text
    |> List.find_opt (fun l -> contains l {|"control":"metrics"|})
  in
  match metrics_line with
  | None -> Alcotest.failf "no metrics result line in:\n%s" text
  | Some line -> (
      let j = Asim_batch.Json.parse line in
      Alcotest.(check (option string)) "status"
        (Some "ok")
        (Option.bind (Asim_batch.Json.member "status" j) Asim_batch.Json.to_string_opt);
      match Option.bind (Asim_batch.Json.member "metrics" j) Asim_batch.Json.to_string_opt with
      | None -> Alcotest.fail "missing metrics text"
      | Some prom ->
          List.iter
            (fun needle ->
              Alcotest.(check bool) ("prometheus has " ^ needle) true (contains prom needle))
            [
              "# TYPE asim_jobs_total counter";
              {|asim_jobs_total{status="ok"} 1|};
              "# TYPE asim_job_duration_seconds histogram";
              "asim_cache_capacity 64";
            ])

(* Console input is one buffered stream, as with C's stdio: the integer
   read at address 1 and the character read at address 0 share it, so the
   character after "42" is its newline (10). *)
let io_probe = "# io probe\n= 2\na* b* .\nM a 1 0 2 1\nM b 0 0 2 1\n.\n"

let test_console_one_stream () =
  with_spec io_probe (fun path ->
      check_ok "run"
        (run_cli ~stdin_text:"42\nAB\n"
           (Printf.sprintf "run %s -e flat" (Filename.quote path)))
        [ "a= 42 b= 10" ])

(* --- toolchain-dependent cases ------------------------------------------------ *)

let answers cmd = Sys.command (cmd ^ " > /dev/null 2>&1") = 0

(* A native artifact cache that cannot be created (it would sit inside
   /dev/null) is a runtime error naming the path and the reason, not an
   uncaught exception.  Without a toolchain the engine refuses earlier. *)
let test_native_cache_dir_error () =
  if Asim.Jit.available () then
    with_spec counter (fun path ->
        let code, text =
          run_cli ~env:"ASIM_JIT_CACHE_DIR=/dev/null/nowhere"
            (Printf.sprintf "run %s -e native" (Filename.quote path))
        in
        Alcotest.(check int) "exit" 1 code;
        Alcotest.(check bool) "names the path and the reason" true
          (contains text
             "runtime error: native engine: cannot create directory /dev/null/nowhere: Not a \
              directory"))

(* Past its program ROM the sieve reads address 137 of 137 cells.  The
   engines stop on that cycle with a runtime error; the generated C and
   OCaml programs must print the same line (the CLI prefixes its own name)
   and exit 1 too, not index past the array. *)
let test_generated_address_check () =
  if answers "cc --version" && answers "ocamlfind ocamlopt -version" then begin
    let dir = Filename.temp_file "asim-cli-gen" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    Fun.protect
      ~finally:(fun () -> remove_tree dir)
      (fun () ->
        let file name = Filename.quote (Filename.concat dir name) in
        write_file (Filename.concat dir "sieve.asim")
          (List.assoc "stack-machine-sieve" Asim.Specs.all);
        let sh cmd = Alcotest.(check int) cmd 0 (Sys.command (cmd ^ " > /dev/null 2>&1")) in
        List.iter
          (fun (lang, out) ->
            sh
              (Printf.sprintf "%s codegen %s -l %s -o %s" (Filename.quote binary)
                 (file "sieve.asim") lang (file out)))
          [ ("c", "sieve.c"); ("ocaml", "sieve.ml") ];
        sh (Printf.sprintf "cc -O0 -o %s %s" (file "sieve_c") (file "sieve.c"));
        sh
          (Printf.sprintf "cd %s && ocamlfind ocamlopt -o sieve_ml sieve.ml"
             (Filename.quote dir));
        let expected =
          "runtime error (component <prog>): cycle 5555: memory address 137 outside \
           declared range 0..136"
        in
        List.iter
          (fun (what, cmd, line) ->
            let code =
              Sys.command
                (Printf.sprintf "%s < /dev/null > /dev/null 2> %s" cmd (file "err"))
            in
            let lines =
              String.split_on_char '\n' (String.trim (read_file (Filename.concat dir "err")))
            in
            Alcotest.(check int) (what ^ " exit") 1 code;
            Alcotest.(check string) (what ^ " error line") line
              (List.nth lines (List.length lines - 1)))
          [
            ( "flat",
              Printf.sprintf "%s run %s -e flat -n 10000" (Filename.quote binary)
                (file "sieve.asim"),
              "asim: " ^ expected );
            ("C program", file "sieve_c" ^ " 10000", expected);
            ("OCaml program", file "sieve_ml" ^ " 10000", expected);
          ])
  end

(* --- the partitioned engine and its workload generator ---------------------- *)

(* `asim genspec` is byte-deterministic for a fixed seed, reports its shape,
   and its output runs under `-e par` in lockstep with the flat engine (the
   CLI face of the library-level tests in test_par.ml). *)
let test_genspec_deterministic () =
  let gen () = run_cli "genspec -k pipeline --cores 6 --depth 4 --seed 9" in
  let code_a, a = gen () in
  let code_b, b = gen () in
  Alcotest.(check int) "first exit" 0 code_a;
  Alcotest.(check int) "second exit" 0 code_b;
  Alcotest.(check string) "byte-identical regeneration" a b;
  let _, other = run_cli "genspec -k pipeline --cores 6 --depth 4 --seed 10" in
  Alcotest.(check bool) "seeds differ" true (a <> other);
  let spec = Asim.Parser.parse_string a in
  Alcotest.(check int) "cores*(depth+1) components" 30
    (List.length spec.Asim.Spec.components)

let test_genspec_runs_under_par () =
  in_temp ".asim" (fun path ->
      let code, text =
        run_cli
          (Printf.sprintf "genspec -k mesh --mesh-width 5 --mesh-height 4 -n 40 -o %s"
             (Filename.quote path))
      in
      if code <> 0 then Alcotest.failf "genspec failed: %s" text;
      Alcotest.(check bool) "reports the size" true (contains text "24 components");
      let _, flat = run_cli (Printf.sprintf "run %s -e flat" (Filename.quote path)) in
      let code, par =
        run_cli (Printf.sprintf "run %s -e par --domains 3" (Filename.quote path))
      in
      Alcotest.(check int) "par exit" 0 code;
      Alcotest.(check string) "par trace identical to flat" flat par)

(* The measured-cost loop: `profile --json` output feeds back through
   `run -e par --par-profile` and must not change observable behavior. *)
let test_par_profile_roundtrip () =
  with_spec counter (fun path ->
      in_temp ".json" (fun prof ->
          let code, text =
            run_cli (Printf.sprintf "profile %s --json" (Filename.quote path))
          in
          if code <> 0 then Alcotest.failf "profile failed: %s" text;
          write_file prof text;
          let _, flat = run_cli (Printf.sprintf "run %s -e flat" (Filename.quote path)) in
          let code, par =
            run_cli
              (Printf.sprintf "run %s -e par --par-profile %s" (Filename.quote path)
                 (Filename.quote prof))
          in
          Alcotest.(check int) "par exit" 0 code;
          Alcotest.(check string) "costed par trace identical to flat" flat par))

let test_errors () =
  let code, _ = run_cli "run /nonexistent/file.asim" in
  Alcotest.(check bool) "missing file fails" true (code <> 0);
  with_spec "# bad\nx .\nQ x\n.\n" (fun path ->
      let code, text = run_cli (Printf.sprintf "run %s" (Filename.quote path)) in
      Alcotest.(check bool) "parse error fails" true (code <> 0);
      Alcotest.(check bool) "diagnostic printed" true (contains text "Component expected"))

let () =
  Alcotest.run "cli"
    [
      ( "subcommands",
        [
          Alcotest.test_case "example listing" `Quick test_example_listing;
          Alcotest.test_case "example dump" `Quick test_example_dump;
          Alcotest.test_case "run trace" `Quick test_run_trace;
          Alcotest.test_case "run stats" `Quick test_run_stats;
          Alcotest.test_case "engines agree" `Quick test_run_engines_agree;
          Alcotest.test_case "removed engine names are usage errors" `Quick
            test_removed_engine_names;
          Alcotest.test_case "worker counts are positive" `Quick
            test_worker_counts_positive;
          Alcotest.test_case "fault injection" `Quick test_run_fault;
          Alcotest.test_case "vcd output" `Quick test_run_vcd;
          Alcotest.test_case "check" `Quick test_check;
          Alcotest.test_case "fmt round-trip" `Quick test_fmt_roundtrip;
          Alcotest.test_case "codegen" `Quick test_codegen;
          Alcotest.test_case "netlist" `Quick test_netlist;
          Alcotest.test_case "gates" `Quick test_gates;
          Alcotest.test_case "asm" `Quick test_asm;
          Alcotest.test_case "profile" `Quick test_profile;
          Alcotest.test_case "profile counters" `Quick test_profile_counters;
          Alcotest.test_case "profile on native or par" `Quick
            test_profile_unsupported_engines;
          Alcotest.test_case "interactive" `Quick test_interactive;
          Alcotest.test_case "wavediff" `Quick test_wavediff;
          Alcotest.test_case "coverage" `Quick test_coverage;
          Alcotest.test_case "pipeline" `Quick test_pipeline;
          Alcotest.test_case "fuzz clean campaign" `Quick test_fuzz_clean;
          Alcotest.test_case "fuzz deterministic replay" `Quick
            test_fuzz_replay_deterministic;
          Alcotest.test_case "fuzz divergence bundle" `Quick
            test_fuzz_divergence_bundle;
          Alcotest.test_case "fuzz parallel determinism" `Quick
            test_fuzz_jobs_deterministic;
          Alcotest.test_case "batch smoke" `Quick test_batch_smoke;
          Alcotest.test_case "batch jobs byte-identical" `Quick
            test_batch_jobs_byte_identical;
          Alcotest.test_case "batch missing manifest" `Quick test_batch_missing_manifest;
          Alcotest.test_case "serve stdin" `Quick test_serve_stdin;
          Alcotest.test_case "run trace + stats json" `Quick
            test_run_trace_and_stats_json;
          Alcotest.test_case "batch trace" `Quick test_batch_trace;
          Alcotest.test_case "fuzz trace" `Quick test_fuzz_trace;
          Alcotest.test_case "serve metrics request" `Quick test_serve_metrics_request;
          Alcotest.test_case "console input is one stream" `Quick test_console_one_stream;
          Alcotest.test_case "native artifact cache cannot be created" `Quick
            test_native_cache_dir_error;
          Alcotest.test_case "generated programs check addresses" `Quick
            test_generated_address_check;
          Alcotest.test_case "genspec deterministic" `Quick test_genspec_deterministic;
          Alcotest.test_case "genspec runs under par" `Quick
            test_genspec_runs_under_par;
          Alcotest.test_case "par profile round-trip" `Quick
            test_par_profile_roundtrip;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
    ]
