(* Tests specific to the flat-kernel engine ([Asim_flat.Flat]): cycle-level
   differential checks against the interpreter, the closure compiler with
   and without its §4.4 optimizations and the partitioned engine at two
   domains on the two big demo machines,
   activity-scheduling (dirty-bit) behavior on a hand-built diamond
   dependency graph, supernode activity on designs of several supernodes
   against the closure compiler, the zero-per-cycle-allocation
   guarantee, and the codegen spans.  The generic cross-engine semantics
   matrix lives in test_engines.ml / test_equiv.ml, which iterate over
   [Oracle.all] and so cover the flat engine too; test_lower.ml checks
   flat's expression emit exhaustively. *)

module Machine = Asim.Machine
module Flat = Asim.Flat
module Oracle = Asim_fuzz.Oracle

let quiet = Machine.quiet_config

(* ------------------------------------------------------------------ *)
(* Cycle-for-cycle differentials on the goldens                       *)
(* ------------------------------------------------------------------ *)

(* Step [cycles] cycles with all engines in lockstep; after every cycle every
   component output must agree, and at the end the memory images must too.
   The closure compiler without §4.4 is bench/main.ml's ablation baseline;
   this is where it stays checked. *)
let lockstep name (spec : Asim.Spec.t) ~cycles =
  let analysis = Asim.Analysis.analyze spec in
  let names =
    List.map (fun (c : Asim.Component.t) -> c.Asim.Component.name)
      spec.Asim.Spec.components
  in
  let engines =
    [
      ("interp", Asim.Interp.create ~config:quiet analysis);
      ("compiled", Asim.Compile.create ~config:quiet analysis);
      ("compiled, optimize off", Asim.Compile.create ~config:quiet ~optimize:false analysis);
      ("flat", Flat.create ~config:quiet analysis);
      ("par", Asim.Par.create ~config:quiet ~domains:2 analysis);
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
              Alcotest.failf "%s: cycle %d, component %s: %s=%d, interp=%d"
                name cycle comp ename got expect)
          (List.tl engines))
      names
  done;
  (* Final memory images. *)
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

let test_lockstep_sieve () =
  lockstep "stackm-sieve"
    (Asim_stackm.Microcode.spec ~program:Asim_stackm.Demos.sieve_reassembled ())
    ~cycles:1500

let test_lockstep_tinyc () =
  lockstep "tinyc-demo"
    (Asim_tinyc.Machine.spec ~program:Asim_tinyc.Machine.demo_image ())
    ~cycles:800

(* ------------------------------------------------------------------ *)
(* Fuzz oracle with the flat engines in the lineup                    *)
(* ------------------------------------------------------------------ *)

(* A small deterministic sweep of generated specs through [Oracle.check]
   with the default engine list, which includes [Flat].  The full QCheck
   campaign lives in test_equiv.ml; this pins the flat engine's membership
   in the oracle regardless of that suite's config. *)
let test_oracle_generated () =
  assert (List.mem `Flat Oracle.all);
  for index = 0 to 19 do
    let spec = Asim_fuzz.Gen.(spec_at default_size) ~seed:0xf1a7 ~index in
    match Oracle.check ~cycles:40 spec with
    | None -> ()
    | Some d ->
        Alcotest.failf "generated spec %d diverged: %s" index
          (Oracle.divergence_to_string d)
  done

let test_oracle_examples () =
  List.iter
    (fun (name, source) ->
      let spec = Asim.Parser.parse_string source in
      match Oracle.check ~cycles:200 spec with
      | None -> ()
      | Some d ->
          Alcotest.failf "example %s diverged: %s" name
            (Oracle.divergence_to_string d))
    Asim.Specs.all

(* ------------------------------------------------------------------ *)
(* Activity scheduling on a diamond dependency graph                  *)
(* ------------------------------------------------------------------ *)

(* r is a register counting every cycle; [a] watches its low bit (changes
   every cycle); [z] = r AND 0 is re-evaluated every cycle but its *value*
   never changes, so the diamond b/c/d downstream of z must stay asleep
   after the initial full evaluation.  [q] depends on nothing at all. *)
let diamond =
  "# diamond\n\
   r rinc a z b c d q .\n\
   A rinc 4 r 1\n\
   A a 2 r.0 0\n\
   A z 8 r 0\n\
   A b 2 z 0\n\
   A c 2 z 0\n\
   A d 4 b c\n\
   A q 2 7 0\n\
   M r 0 rinc 1 1\n\
   .\n"

let eval_counts source ~cycles =
  let analysis = Asim.load_string source in
  let m, counts = Flat.create_debug ~config:quiet analysis in
  Machine.run m ~cycles;
  counts ()

let count name counts =
  match List.assoc_opt name counts with
  | Some n -> n
  | None -> Alcotest.failf "no eval count for %s" name

let test_dirty_seeding () =
  let cycles = 50 in
  let counts = eval_counts diamond ~cycles in
  (* Components fed by the always-changing register re-evaluate every
     cycle... *)
  List.iter
    (fun n -> Alcotest.(check int) (n ^ " evals") cycles (count n counts))
    [ "rinc"; "a"; "z" ];
  (* ...but z's output is constant, so the diamond below it — and the
     input-free q — run exactly once (the initial dirty seeding). *)
  List.iter
    (fun n -> Alcotest.(check int) (n ^ " evals") 1 (count n counts))
    [ "b"; "c"; "d"; "q" ]

(* Activity scheduling must not change what the machine computes. *)
let test_diamond_semantics () =
  lockstep "diamond" (Asim.Parser.parse_string diamond) ~cycles:50

(* ------------------------------------------------------------------ *)
(* Supernode activity on designs larger than one supernode            *)
(* ------------------------------------------------------------------ *)

(* The designs test_jit runs the native engine's chunk functions on, here
   against the closure compiler, which has no activity at all, so the
   supernode rules are checked without a toolchain: a mark that misses a
   later supernode, a supernode byte cleared before its scan returns, or a
   fault target's supernode left unpinned each shows up as a divergence. *)
let flat_vs_compiled =
  [
    ("flat", fun config analysis -> Flat.create ~config analysis);
    ("compiled", fun config analysis -> Asim.Compile.create ~config analysis);
  ]

let require_supernodes (analysis : Asim.Analysis.t) =
  Alcotest.(check bool) "more than one supernode" true
    (List.length analysis.Asim.Analysis.order > Asim.Analysis.supernode_size)

let test_supernode_lockstep () =
  List.iter
    (fun (what, analysis) ->
      require_supernodes analysis;
      Alcotest.(check int) (what ^ ": no errors") 0
        (Supernode_designs.lockstep ~engines:flat_vs_compiled what analysis ~cycles:300))
    (Supernode_designs.lockstep_designs ())

let test_supernode_late_fault () =
  List.iter
    (fun (what, analysis, cycles, faults) ->
      require_supernodes analysis;
      ignore (Supernode_designs.lockstep ~engines:flat_vs_compiled what analysis ~cycles ~faults))
    (Supernode_designs.late_fault_designs ())

let test_supernode_error_restep () =
  List.iter
    (fun (what, analysis, cycles, raising) ->
      require_supernodes analysis;
      Alcotest.(check int) (what ^ ": raising steps") raising
        (Supernode_designs.lockstep ~engines:flat_vs_compiled what analysis ~cycles))
    (Supernode_designs.error_designs ())

(* ------------------------------------------------------------------ *)
(* Zero per-cycle allocation                                          *)
(* ------------------------------------------------------------------ *)

(* With quiet I/O and no tracing, the flat step loop must not allocate:
   run 2000 cycles of the sieve machine and require the minor-heap delta to
   stay under a small epsilon (Gc.minor_words itself returns a boxed float,
   and the allowance absorbs such one-off boxes — what matters is that the
   delta does not scale with the cycle count). *)
let test_zero_allocation () =
  let analysis =
    Asim.Analysis.analyze
      (Asim_stackm.Microcode.spec ~program:Asim_stackm.Demos.sieve_reassembled ())
  in
  let m = Flat.create ~config:quiet analysis in
  Machine.run m ~cycles:64;
  (* warm-up *)
  let before = Gc.minor_words () in
  for _ = 1 to 2000 do
    m.Machine.step ()
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256.0 then
    Alcotest.failf "flat allocated %.0f minor words over 2000 cycles" delta

(* Contrast: the interpreter allocates per cycle, proving the measurement
   would catch an allocating step loop. *)
let test_interp_allocates () =
  let analysis =
    Asim.Analysis.analyze
      (Asim_stackm.Microcode.spec ~program:Asim_stackm.Demos.sieve_reassembled ())
  in
  let m = Asim.Interp.create ~config:quiet analysis in
  Machine.run m ~cycles:64;
  let before = Gc.minor_words () in
  for _ = 1 to 2000 do
    m.Machine.step ()
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool) "interp allocates" true (delta > 2000.0)

(* ------------------------------------------------------------------ *)
(* Compile-time metrics and spans                                     *)
(* ------------------------------------------------------------------ *)

let test_program_size () =
  let analysis =
    Asim.Analysis.analyze
      (Asim_stackm.Microcode.spec ~program:Asim_stackm.Demos.sieve_reassembled ())
  in
  Alcotest.(check bool) "non-trivial program" true
    (Flat.program_size analysis > 100)

(* The words of one combinational component's block: blocks are laid out in
   evaluation order, then the memories' expression blocks. *)
let block (p : Flat.program) name =
  let ncomb = Array.length p.Flat.p_comb_entry in
  let rec find pos =
    if p.Flat.p_names.(p.Flat.p_comb_id.(pos)) = name then pos else find (pos + 1)
  in
  let pos = find 0 in
  let stop =
    if pos + 1 < ncomb then p.Flat.p_comb_entry.(pos + 1)
    else if Array.length p.Flat.p_mems > 0 then p.Flat.p_mems.(0).Flat.m_addr_pc
    else Array.length p.Flat.p_code
  in
  Array.sub p.Flat.p_code p.Flat.p_comb_entry.(pos) (stop - p.Flat.p_comb_entry.(pos))

let o2_program source =
  Flat.compile (Asim.Opt.run ~level:Asim.Opt.O2 (Asim.load_string source))

(* The optimizer leaves traced components verbatim, so at -O2 the two
   emit-time rewrites below are the only thing shrinking them. *)
let test_const_selector_folds () =
  let p =
    o2_program
      "# constant select\n= 4\npick* copy* r .\nS pick 1 r.0.3 r.4.7 r.8.11\n\
       A copy 1 0 r.4.7\nM r 0 pick 1 1\n.\n"
  in
  Alcotest.(check (array int)) "the live case alone, no dispatch" (block p "copy")
    (block p "pick")

let test_adjacent_fields_fuse () =
  let p =
    o2_program
      "# adjacent fields\n= 4\ncat* whole* r .\nA cat 1 0 r.4.7,r.0.3\n\
       A whole 1 0 r.0.7\nM r 0 cat 1 1\n.\n"
  in
  Alcotest.(check (array int)) "one load" (block p "whole") (block p "cat")

let test_codegen_spans () =
  let tracer = Asim_obs.Tracer.create () in
  let analysis = Asim.load_string diamond in
  let (_ : Machine.t) = Flat.create ~config:quiet ~tracer analysis in
  let names =
    List.map (fun (e : Asim_obs.Tracer.event) -> e.Asim_obs.Tracer.name)
      (Asim_obs.Tracer.events tracer)
  in
  List.iter
    (fun span ->
      Alcotest.(check bool) (span ^ " span emitted") true (List.mem span names))
    [ "codegen.flat.layout"; "codegen.flat.emit"; "codegen.flat.wire" ]

let () =
  Alcotest.run "flat"
    [
      ( "lockstep",
        [
          Alcotest.test_case "stackm sieve" `Slow test_lockstep_sieve;
          Alcotest.test_case "tinyc demo" `Slow test_lockstep_tinyc;
          Alcotest.test_case "diamond" `Quick test_diamond_semantics;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "generated specs" `Slow test_oracle_generated;
          Alcotest.test_case "example specs" `Quick test_oracle_examples;
        ] );
      ("activity", [ Alcotest.test_case "dirty-bit seeding" `Quick test_dirty_seeding ]);
      ( "supernode",
        [
          Alcotest.test_case "1k designs vs compiled" `Slow
            test_supernode_lockstep;
          Alcotest.test_case "fault window over quiet logic" `Quick
            test_supernode_late_fault;
          Alcotest.test_case "re-step after errors" `Quick
            test_supernode_error_restep;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "flat step loop is allocation-free" `Quick
            test_zero_allocation;
          Alcotest.test_case "interp contrast" `Quick test_interp_allocates;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "program size" `Quick test_program_size;
          Alcotest.test_case "traced constant selector folds at -O2" `Quick
            test_const_selector_folds;
          Alcotest.test_case "traced adjacent fields fuse at -O2" `Quick
            test_adjacent_fields_fuse;
          Alcotest.test_case "spans" `Quick test_codegen_spans;
        ] );
    ]
