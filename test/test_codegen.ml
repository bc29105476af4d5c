(* Source backends: Figure 4.x shapes, §4.4 optimizations, expression
   rendering in all three languages. *)

open Asim
module Codegen = Asim_codegen.Codegen
module Pascal = Asim_codegen.Pascal
module Ocaml_gen = Asim_codegen.Ocaml_gen
module C_gen = Asim_codegen.C_gen
module Lower = Asim_core.Lower

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_contains label text needle =
  if not (contains text needle) then
    Alcotest.failf "%s: expected to find %S in:\n%s" label needle text

let check_absent label text needle =
  if contains text needle then Alcotest.failf "%s: did not expect %S" label needle

let fig41 =
  "# fig 4.1\nalu add compute left .\n\
   A alu compute left 3048\nA add 4 left 3048\n\
   A compute 1 0 7\nA left 1 0 1\n.\n"

(* Figure 4.1: a constant-function ALU is inlined; a computed function goes
   through the generic dologic. *)
let test_fig41_pascal () =
  let code = Pascal.generate (load_string fig41) in
  check_contains "generic alu" code "ljbalu := dologic(ljbcompute, ljbleft, 3048);";
  check_contains "optimized add" code "ljbadd := ljbleft + 3048;";
  check_absent "add does not call dologic" code "ljbadd := dologic"

(* Figure 4.2: a selector becomes a case statement. *)
let fig42 =
  "# fig 4.2\nselector index v0 v1 v2 v3 .\n\
   S selector index v0 v1 v2 v3\n\
   A index 1 0 2\nA v0 1 0 10\nA v1 1 0 11\nA v2 1 0 12\nA v3 1 0 13\n.\n"

let test_fig42_pascal () =
  let code = Pascal.generate (load_string fig42) in
  check_contains "case header" code "case ljbindex of";
  check_contains "case 0" code "0: ljbselector := ljbv0;";
  check_contains "case 3" code "3: ljbselector := ljbv3;"

(* Figure 4.3: memory initialization, operation dispatch, trace lines. *)
let fig43 =
  "# fig 4.3\nmemory address data operation .\n\
   M memory address data operation -4 12 34 56 78\n\
   A address 1 0 1\nA data 1 0 99\nA operation 1 0 13\n.\n"

let test_fig43_pascal () =
  let code = Pascal.generate (load_string fig43) in
  check_contains "init 0" code "ljbmemory[0] := 12;";
  check_contains "init 3" code "ljbmemory[3] := 78;";
  check_contains "case dispatch" code "case land(opnmemory, 3) of";
  check_contains "write arm" code "ljbmemory[adrmemory] := tempmemory;";
  check_contains "input arm" code "tempmemory := sinput(adrmemory);";
  check_contains "output arm" code "soutput(adrmemory, tempmemory);";
  check_contains "runtime write trace" code "if land(opnmemory, 5) = 5 then";
  check_contains "runtime read trace" code "if land(opnmemory, 9) = 8 then"

let test_constant_memory_op_is_specialized () =
  (* m is traced, so its temporary is kept; the constant op still removes
     the case dispatch (§4.4). *)
  let source = "# m\nc inc m* .\nA inc 4 c 1\nM m 0 c 1 1\nM c 0 inc 1 1\n.\n" in
  let code = Pascal.generate (load_string source) in
  check_absent "no case for constant op" code "case land(opnm, 3)";
  check_contains "direct write" code "ljbm[adrm] := tempm;"

(* §5.4: "heuristics to determine which memories do not need temporary
   variables" — an unreferenced, untraced memory loses its temp. *)
let test_temp_elision () =
  let source = "# m\nc inc m .\nA inc 4 c 1\nM m 0 c 1 1\nM c 0 inc 1 1\n.\n" in
  let analysis = load_string source in
  Alcotest.(check bool) "m output unused" false
    (Analysis.memory_output_used analysis "m");
  Alcotest.(check bool) "c output used" true
    (Analysis.memory_output_used analysis "c");
  let pascal = Pascal.generate analysis in
  check_absent "pascal: no temp variable" pascal "tempm";
  check_contains "pascal: direct store" pascal "ljbm[adrm] := tempc;";
  let ocaml = Ocaml_gen.generate analysis in
  check_absent "ocaml: no temp ref" ocaml "tempm";
  check_contains "ocaml: direct store" ocaml "memm.(!adrm) <- !tempc;";
  let c = C_gen.generate analysis in
  check_absent "c: no temp variable" c "tempm";
  check_contains "c: direct store" c "memm[adrm] = tempc;"

let test_temp_kept_when_traced () =
  (* Trace bits on the operation force the temporary to stay. *)
  let source = "# m\nc inc m .\nA inc 4 c 1\nM m 0 c 5 1\nM c 0 inc 1 1\n.\n" in
  let analysis = load_string source in
  Alcotest.(check bool) "trace lines read the temp" true
    (Analysis.memory_output_used analysis "m");
  check_contains "temp kept" (Pascal.generate analysis) "tempm :="

let test_traced_components_in_pascal () =
  let code = Pascal.generate (load_string Specs.counter) in
  check_contains "cycle write" code "write('Cycle ', cyclecount:3);";
  check_contains "traced value" code "write(' count= ', tempcount:1);";
  check_contains "newline" code "writeln;"

(* Expression rendering across backends (the Figure 3.1 concatenation). *)
let concat = Parser.parse_expr "mem.3.4,#01,count.1"

let test_expression_pascal () =
  Alcotest.(check string)
    "pascal" "land(tempmem, 24) + land(ljbcount, 2) div 2 + 2"
    (Pascal.expression ~memories:[ "mem" ] concat)

let test_expression_ocaml () =
  Alcotest.(check string)
    "ocaml" "((!tempmem land 24) + ((!ljbcount land 2) lsr 1) + 2)"
    (Ocaml_gen.expression ~memories:[ "mem" ] concat)

let test_expression_c () =
  Alcotest.(check string)
    "c" "((tempmem & 24LL) + ((ljbcount & 2LL) >> 1) + 2LL)"
    (C_gen.expression ~memories:[ "mem" ] concat)

let test_expression_shift_down () =
  Alcotest.(check string)
    "field above position shifts right" "land(ljbrom, 4096) div 4096"
    (Pascal.expression (Parser.parse_expr "rom.12"))

let test_expression_whole () =
  Alcotest.(check string) "whole ref" "ljbx" (Pascal.expression (Parser.parse_expr "x"));
  Alcotest.(check string) "constant" "387" (Pascal.expression (Parser.parse_expr "128+3+^8"))

(* The lowering itself. *)
let test_lower_terms () =
  match Lower.lower concat with
  | [ Lower.Field f1; Lower.Field f2; Lower.Const 2 ] ->
      Alcotest.(check string) "first" "mem" f1.name;
      Alcotest.(check (pair int int)) "range1" (3, 4) (f1.lo, f1.hi);
      Alcotest.(check int) "at1" 3 f1.at;
      Alcotest.(check string) "second" "count" f2.name;
      Alcotest.(check (pair int int)) "range2" (1, 1) (f2.lo, f2.hi);
      Alcotest.(check int) "at2" 0 f2.at
  | terms -> Alcotest.failf "unexpected lowering (%d terms)" (List.length terms)

let test_lower_constant_folding () =
  match Lower.lower (Parser.parse_expr "#11,1.4") with
  | [ Lower.Const 49 ] -> ()
  | _ -> Alcotest.fail "constants should fold to one term"

(* Shape checks on the other backends (full compile-and-run is exercised in
   test_pipeline). *)
let test_ocaml_backend_shape () =
  let code = Ocaml_gen.generate (load_string Specs.counter) in
  check_contains "prelude" code "let dologic funct left right =";
  check_contains "state" code "let tempcount = ref 0";
  check_contains "loop" code "for cyclecount = 0 to cycles - 1 do";
  check_contains "assignment" code "ljbinc := !tempcount + 1;";
  check_contains "latch" code "memcount.(!adrcount) <- !tempcount;"

let test_c_backend_shape () =
  let code = C_gen.generate (load_string Specs.counter) in
  check_contains "include" code "#include <stdio.h>";
  check_contains "state" code "static long long memcount[1];";
  check_contains "assignment" code "ljbinc = tempcount + 1LL;";
  check_contains "loop" code
    "for (long long cyclecount = 0; cyclecount < cycles; cyclecount++)"

(* Generating Pascal for the stack machine must reproduce, byte for byte,
   characteristic statements of the thesis's own generated simulator
   (Appendix E). *)
let test_appendix_e_fidelity () =
  let analysis =
    Asim.Analysis.analyze
      (Asim_stackm.Microcode.spec ~program:Asim_stackm.Programs.sieve ())
  in
  let code = Pascal.generate analysis in
  List.iter
    (fun line -> check_contains "appendix E line" code line)
    [
      (* the condition unit, exactly as printed in Appendix E *)
      "ljbexit := dologic(land(ljbrom, 256) div 256 + 12, tempram, land(ljbrom, 256) * 16);";
      "ljbnewpc := ljbrelpc + ljboffset;";
      "ljbafp := tempfp + templeft;";
      "ljbneg := 0 - tempram;";
      "case land(tempstate, 63) of";
      "case land(tempir, 15) of";
      "case land(tempir, 1) of";
      "case land(ljbrom, 1024) div 1024 of";
      "case land(ljbrom, 512) div 512 of";
      "case land(ljbrom, 7) of";
      "case land(ljbparm, 224) div 32 of";
      "ljbwrite := land(tempram, 4095) * 16 + land(tempdata, 15);";
      "adrram := land(ljbaddr, 4095);";
      "tempprog := ljbprog[adrprog];";
    ]

let test_verilog_shape () =
  let code = Asim_codegen.Verilog.generate (load_string Specs.counter) in
  check_contains "module" code "module asim_machine (";
  check_contains "clock" code "input wire clk";
  check_contains "traced port" code "output wire [30:0] count_out";
  check_contains "register array" code "reg [30:0] count_mem [0:0];";
  check_contains "comb block" code "inc = count_q + 1'd1;";
  check_contains "clocked update" code "always @(posedge clk) begin : update_count";
  check_absent "no io ports for a write-only register" code "count_io_rdata"

let test_verilog_expression () =
  Alcotest.(check string)
    "figure 3.1 concatenation" "{mem_q[4:3], 2'b01, count[1]}"
    (Asim_codegen.Verilog.expression ~memories:[ "mem" ] concat);
  Alcotest.(check string)
    "single atom, no braces" "rom[12]"
    (Asim_codegen.Verilog.expression (Parser.parse_expr "rom.12"))

let test_verilog_selector_and_io () =
  let source = "#v\nc inc s out .\nA inc 4 c 1\nS s c.0 5 9\nM out 2 s 3 1\nM c 0 inc 1 1\n.\n" in
  let code = Asim_codegen.Verilog.generate (load_string source) in
  check_contains "selector case" code "case (c_q[0])";
  check_contains "case arm" code "31'd1: s = 4'd9;";
  check_contains "default x" code "default: s = 31'bx;";
  check_contains "io write strobe" code "assign out_io_write = (out_op[1:0] == 2'd3);";
  check_contains "io address" code "assign out_io_addr = out_addr;"

let test_verilog_dologic_only_when_needed () =
  let without = Asim_codegen.Verilog.generate (load_string Specs.counter) in
  check_absent "no dologic for constant functions" without "function [30:0] dologic";
  let with_dyn =
    Asim_codegen.Verilog.generate
      (load_string "#v\nd a .\nA d a.0.3 6 3\nM a 0 d 1 1\n.\n")
  in
  check_contains "dologic for computed function" with_dyn "function [30:0] dologic"

let test_lang_dispatch () =
  Alcotest.(check (option string))
    "pascal ext" (Some ".p")
    (Option.map Codegen.extension (Codegen.lang_of_string "PASCAL"));
  Alcotest.(check (option string))
    "ml ext" (Some ".ml")
    (Option.map Codegen.extension (Codegen.lang_of_string "ocaml"));
  Alcotest.(check (option string))
    "c ext" (Some ".c")
    (Option.map Codegen.extension (Codegen.lang_of_string "c"));
  Alcotest.(check (option string))
    "verilog ext" (Some ".v")
    (Option.map Codegen.extension (Codegen.lang_of_string "Verilog"));
  Alcotest.(check bool) "unknown" true (Codegen.lang_of_string "fortran" = None)

let () =
  Alcotest.run "codegen"
    [
      ( "figures",
        [
          Alcotest.test_case "figure 4.1 (alu)" `Quick test_fig41_pascal;
          Alcotest.test_case "figure 4.2 (selector)" `Quick test_fig42_pascal;
          Alcotest.test_case "figure 4.3 (memory)" `Quick test_fig43_pascal;
          Alcotest.test_case "constant memory op" `Quick
            test_constant_memory_op_is_specialized;
          Alcotest.test_case "temp elision (5.4)" `Quick test_temp_elision;
          Alcotest.test_case "temp kept when traced" `Quick test_temp_kept_when_traced;
          Alcotest.test_case "trace statements" `Quick test_traced_components_in_pascal;
        ] );
      ( "expressions",
        [
          Alcotest.test_case "pascal" `Quick test_expression_pascal;
          Alcotest.test_case "ocaml" `Quick test_expression_ocaml;
          Alcotest.test_case "c" `Quick test_expression_c;
          Alcotest.test_case "shift down" `Quick test_expression_shift_down;
          Alcotest.test_case "whole/const" `Quick test_expression_whole;
          Alcotest.test_case "lowering terms" `Quick test_lower_terms;
          Alcotest.test_case "constant folding" `Quick test_lower_constant_folding;
        ] );
      ( "backends",
        [
          Alcotest.test_case "appendix E fidelity" `Quick test_appendix_e_fidelity;
          Alcotest.test_case "ocaml shape" `Quick test_ocaml_backend_shape;
          Alcotest.test_case "c shape" `Quick test_c_backend_shape;
          Alcotest.test_case "verilog shape" `Quick test_verilog_shape;
          Alcotest.test_case "verilog expressions" `Quick test_verilog_expression;
          Alcotest.test_case "verilog selector and io" `Quick
            test_verilog_selector_and_io;
          Alcotest.test_case "verilog dologic" `Quick
            test_verilog_dologic_only_when_needed;
          Alcotest.test_case "language dispatch" `Quick test_lang_dispatch;
        ] );
    ]
