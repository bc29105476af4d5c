(* Regenerate the checked-in golden files under test/goldens/.

   Run from the repository root after a deliberate backend change:

     dune exec tools/gen_goldens/gen_goldens.exe

   then review the git diff before committing. *)

open Asim
module Codegen = Asim_codegen.Codegen

let dir = Filename.concat "test" "goldens"

let write name contents =
  let path = Filename.concat dir name in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length contents)

let backend name lang source =
  write name (Codegen.generate lang (load_string source))

let () =
  backend "counter.p" Codegen.Pascal Specs.counter;
  backend "counter.ml.golden" Codegen.Ocaml Specs.counter;
  backend "counter.c.golden" Codegen.C Specs.counter;
  backend "counter.v" Codegen.Verilog Specs.counter;
  backend "traffic.p" Codegen.Pascal Specs.traffic_light;
  backend "traffic.ml.golden" Codegen.Ocaml Specs.traffic_light;
  backend "traffic.c.golden" Codegen.C Specs.traffic_light;
  backend "traffic.v" Codegen.Verilog Specs.traffic_light;
  backend "stack-machine-sieve.p" Codegen.Pascal Specs.stack_machine_sieve;
  backend "stack-machine-sieve.ml.golden" Codegen.Ocaml Specs.stack_machine_sieve;
  backend "stack-machine-sieve.c.golden" Codegen.C Specs.stack_machine_sieve;
  backend "tiny-computer.p" Codegen.Pascal Specs.tiny_computer;
  backend "tiny-computer.ml.golden" Codegen.Ocaml Specs.tiny_computer;
  backend "tiny-computer.c.golden" Codegen.C Specs.tiny_computer;
  write "stackm.asim.golden"
    (Asim_core.Pretty.spec
       (Asim_stackm.Microcode.spec ~program:Asim_stackm.Programs.sieve ()))
