(* Golden tests: the source backends' complete output is locked against
   checked-in files (test/goldens/).  A deliberate codegen change means
   regenerating the goldens with `asim codegen` and reviewing the diff. *)

open Asim
module Codegen = Asim_codegen.Codegen

let golden_dir =
  (* test binaries run in _build/default/test; the goldens are copied there
     as test dependencies *)
  "goldens"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | [], [] -> None
    | x :: xs, y :: ys -> if x = y then go (i + 1) (xs, ys) else Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<end of golden>")
    | [], y :: _ -> Some (i, "<end of output>", y)
  in
  go 1 (la, lb)

let check_golden ~lang ~source ~golden () =
  let analysis = load_string source in
  let generated = Codegen.generate lang analysis in
  let expected = read_file (Filename.concat golden_dir golden) in
  match first_diff generated expected with
  | None -> ()
  | Some (line, got, want) ->
      Alcotest.failf "%s: first difference at line %d:\n  generated: %s\n  golden:    %s"
        golden line got want

let () =
  Alcotest.run "golden"
    [
      ( "backends",
        [
          Alcotest.test_case "counter pascal" `Quick
            (check_golden ~lang:Codegen.Pascal ~source:Specs.counter
               ~golden:"counter.p");
          Alcotest.test_case "counter ocaml" `Quick
            (check_golden ~lang:Codegen.Ocaml ~source:Specs.counter
               ~golden:"counter.ml.golden");
          Alcotest.test_case "counter c" `Quick
            (check_golden ~lang:Codegen.C ~source:Specs.counter
               ~golden:"counter.c.golden");
          Alcotest.test_case "traffic light pascal" `Quick
            (check_golden ~lang:Codegen.Pascal ~source:Specs.traffic_light
               ~golden:"traffic.p");
          Alcotest.test_case "counter verilog" `Quick
            (check_golden ~lang:Codegen.Verilog ~source:Specs.counter
               ~golden:"counter.v");
          Alcotest.test_case "traffic light ocaml" `Quick
            (check_golden ~lang:Codegen.Ocaml ~source:Specs.traffic_light
               ~golden:"traffic.ml.golden");
          Alcotest.test_case "traffic light c" `Quick
            (check_golden ~lang:Codegen.C ~source:Specs.traffic_light
               ~golden:"traffic.c.golden");
          Alcotest.test_case "traffic light verilog" `Quick
            (check_golden ~lang:Codegen.Verilog ~source:Specs.traffic_light
               ~golden:"traffic.v");
          (* The two larger machines reach what the small ones do not: the
             dynamic memory-operation dispatch (8 memories in the sieve, 5
             in the tiny computer) and run-time trace conditions (2 in the
             tiny computer). *)
          Alcotest.test_case "stack machine sieve pascal" `Quick
            (check_golden ~lang:Codegen.Pascal ~source:Specs.stack_machine_sieve
               ~golden:"stack-machine-sieve.p");
          Alcotest.test_case "stack machine sieve ocaml" `Quick
            (check_golden ~lang:Codegen.Ocaml ~source:Specs.stack_machine_sieve
               ~golden:"stack-machine-sieve.ml.golden");
          Alcotest.test_case "stack machine sieve c" `Quick
            (check_golden ~lang:Codegen.C ~source:Specs.stack_machine_sieve
               ~golden:"stack-machine-sieve.c.golden");
          Alcotest.test_case "tiny computer pascal" `Quick
            (check_golden ~lang:Codegen.Pascal ~source:Specs.tiny_computer
               ~golden:"tiny-computer.p");
          Alcotest.test_case "tiny computer ocaml" `Quick
            (check_golden ~lang:Codegen.Ocaml ~source:Specs.tiny_computer
               ~golden:"tiny-computer.ml.golden");
          Alcotest.test_case "tiny computer c" `Quick
            (check_golden ~lang:Codegen.C ~source:Specs.tiny_computer
               ~golden:"tiny-computer.c.golden");
        ] );
      ( "microcode",
        [
          (* Locks the generated stack-machine specification itself: the ROM
             tables, data path and RAM wiring of Appendix D/E, as printed by
             the canonical pretty-printer. *)
          Alcotest.test_case "stack machine spec" `Quick (fun () ->
              let generated =
                Asim_core.Pretty.spec
                  (Asim_stackm.Microcode.spec
                     ~program:Asim_stackm.Programs.sieve ())
              in
              let expected =
                read_file (Filename.concat golden_dir "stackm.asim.golden")
              in
              match first_diff generated expected with
              | None -> ()
              | Some (line, got, want) ->
                  Alcotest.failf
                    "stackm.asim.golden: first difference at line %d:\n\
                    \  generated: %s\n\
                    \  golden:    %s"
                    line got want);
        ] );
    ]
