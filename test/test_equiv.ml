(* Engine equivalence, now driven by the asim_fuzz library: the random
   well-formed-spec generator, the multi-engine oracle and the shrinker live
   in lib/fuzz and are shared with the `asim fuzz` CLI; these properties are
   the in-tree consumers.

   For random well-formed specifications, the ASIM-style interpreter, the
   ASIM II closure compiler (with and without the §4.4 optimizations), both
   flat kernels and the partitioned engine must be observationally
   identical — same per-cycle traces, same I/O event streams, same final
   memory images, same statistics.  The lowering they share with the
   generated programs is checked exhaustively in test_lower.ml. *)

open Asim_core
module Gen = Asim_fuzz.Gen
module Oracle = Asim_fuzz.Oracle
module Shrink = Asim_fuzz.Shrink

let narrow = Gen.default_size

let wide = { narrow with Gen.wide = true }

(* A [Random.State.t -> 'a] function is a QCheck generator as-is. *)
let arbitrary_spec = QCheck.make ~print:Pretty.spec (Gen.spec narrow)

let arbitrary_spec_wide = QCheck.make ~print:Pretty.spec (Gen.spec wide)

(* The QCheck campaigns run the oracle on hundreds of distinct random
   specs; the native engine would pay a fresh compiler invocation for every
   one of them.  It is excluded here and covered by its own differential
   tests (test_jit.ml) and by test_flat's fixed-seed sweep through
   [Oracle.all]. *)
let fast_engines = List.filter (function `Native -> false | _ -> true) Oracle.all

let no_divergence spec =
  match Oracle.check ~engines:fast_engines spec with
  | None -> true
  | Some d -> QCheck.Test.fail_reportf "%s" (Oracle.divergence_to_string d)

let equivalence_test =
  QCheck.Test.make ~name:"engines are observationally equivalent" ~count:300
    arbitrary_spec no_divergence

let wide_equivalence_test =
  QCheck.Test.make ~name:"engines agree on full-word expressions" ~count:200
    arbitrary_spec_wide no_divergence

(* The gate level must also agree, on width-masked values, for every spec it
   can represent (no update-order hazards). *)
let gate_equivalence_test =
  QCheck.Test.make ~name:"gate level matches RTL on random specs" ~count:150
    arbitrary_spec
    (fun spec ->
      let analysis = Asim_analysis.Analysis.analyze spec in
      let hazardous =
        List.exists
          (function Error.Memory_update_order _ -> true | _ -> false)
          analysis.Asim_analysis.Analysis.warnings
      in
      QCheck.assume (not hazardous);
      let feed = Oracle.default_feed in
      let rtl_io, rtl_events = Asim_sim.Io.recording ~feed () in
      let rtl =
        Asim_compile.Compile.create
          ~config:{ Asim_sim.Machine.quiet_config with io = rtl_io }
          analysis
      in
      let gate_io, gate_events = Asim_sim.Io.recording ~feed () in
      let gates = Asim_gates.Circuit.of_analysis ~io:gate_io analysis in
      let ok = ref true in
      for _ = 1 to 20 do
        Asim_sim.Machine.run rtl ~cycles:1;
        Asim_gates.Circuit.step gates;
        List.iter
          (fun (c : Component.t) ->
            let w = max 1 (min 31 (Asim_gates.Circuit.width gates c.name)) in
            let expected = rtl.Asim_sim.Machine.read c.name land Bits.ones w in
            if expected <> Asim_gates.Circuit.read gates c.name then ok := false)
          spec.Spec.components
      done;
      if !ok && rtl_events () = gate_events () then true
      else
        QCheck.Test.fail_reportf "gate level diverges on:@.%s" (Pretty.spec spec))

(* Determinism: observing the same engine twice gives the same observation. *)
let determinism_test =
  QCheck.Test.make ~name:"simulation is deterministic" ~count:100 arbitrary_spec
    (fun spec -> Oracle.observe `Compiled spec = Oracle.observe `Compiled spec)

(* The pretty-printed spec parses back to the same structure. *)
let roundtrip_structure_test =
  QCheck.Test.make ~name:"print/parse round-trip preserves structure" ~count:200
    arbitrary_spec
    (fun spec -> Asim_syntax.Parser.parse_string (Pretty.spec spec) = spec)

(* The pretty-printed spec parses back and still behaves identically. *)
let roundtrip_behaviour_test =
  QCheck.Test.make ~name:"print/parse round-trip preserves behaviour" ~count:100
    arbitrary_spec
    (fun spec ->
      let reparsed = Asim_syntax.Parser.parse_string (Pretty.spec spec) in
      Oracle.observe `Compiled spec = Oracle.observe `Compiled reparsed)

(* --- deterministic-seed properties (alcotest, no QCheck randomness) -------- *)

(* Every campaign spec pretty-prints and reparses to an equal spec, and
   regenerating the same (seed, index) yields byte-identical source. *)
let test_fixed_seed_roundtrip () =
  List.iter
    (fun size ->
      for seed = 0 to 4 do
        for index = 0 to 19 do
          let spec = Gen.spec_at size ~seed ~index in
          let again = Gen.spec_at size ~seed ~index in
          Alcotest.(check string)
            (Printf.sprintf "seed %d index %d regenerates identically" seed index)
            (Pretty.spec spec) (Pretty.spec again);
          if Asim_syntax.Parser.parse_string (Pretty.spec spec) <> spec then
            Alcotest.failf "seed %d index %d does not round-trip:\n%s" seed index
              (Pretty.spec spec)
        done
      done)
    [ narrow; wide ]

(* The buggy engine (constant add computes sub) is caught by the oracle and
   the shrinker reduces the witness to a handful of components. *)
let test_injected_bug_is_caught_and_shrunk () =
  let engines = List.filter Oracle.available Oracle.all @ [ `Buggy ] in
  (* A spec the corruption certainly perturbs: an adder fed by a counter. *)
  let source = "#adder\n= 8\ncount inc sum .\nA inc 4 count 1\nA sum 4 count 3\nM count 0 inc 1 1\n.\n" in
  let spec = Asim_syntax.Parser.parse_string source in
  match Oracle.check ~engines spec with
  | None -> Alcotest.fail "oracle missed the injected add->sub bug"
  | Some d ->
      Alcotest.(check bool) "buggy engine is the culprit" true (d.Oracle.engine_b = `Buggy);
      let keep s = Oracle.check ~engines s <> None in
      let shrunk = Shrink.spec ~keep spec in
      let n = List.length shrunk.Spec.components in
      if n > 5 then
        Alcotest.failf "shrunk witness still has %d components:\n%s" n
          (Pretty.spec shrunk);
      Alcotest.(check bool) "shrunk witness still diverges" true (keep shrunk)

(* The shrinker never returns a spec that stopped diverging or does not
   analyze. *)
let test_shrink_preserves_property () =
  let engines = fast_engines @ [ `Buggy ] in
  let keep s = Oracle.check ~engines s <> None in
  let checked = ref 0 in
  for index = 0 to 99 do
    let spec = Gen.spec_at narrow ~seed:1 ~index in
    if keep spec then begin
      incr checked;
      let shrunk = Shrink.spec ~keep spec in
      Alcotest.(check bool)
        (Printf.sprintf "index %d shrunk spec still diverges" index)
        true (keep shrunk);
      Alcotest.(check bool)
        (Printf.sprintf "index %d shrink did not grow the spec" index)
        true
        (Shrink.weight shrunk <= Shrink.weight spec)
    end
  done;
  if !checked = 0 then
    Alcotest.fail "no diverging spec in the first 100 indices — weak self-test"

let () =
  Alcotest.run "equiv"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            equivalence_test; wide_equivalence_test; gate_equivalence_test;
            determinism_test; roundtrip_structure_test; roundtrip_behaviour_test;
          ] );
      ( "fuzz library",
        [
          Alcotest.test_case "fixed-seed generate/print/parse round-trip" `Quick
            test_fixed_seed_roundtrip;
          Alcotest.test_case "injected bug caught and shrunk" `Quick
            test_injected_bug_is_caught_and_shrunk;
          Alcotest.test_case "shrinking preserves divergence" `Quick
            test_shrink_preserves_property;
        ] );
    ]
