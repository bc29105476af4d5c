(* The lowering, checked exhaustively instead of sampled.

   [Asim_core.Lower.lower] decides where every field of an expression lands
   for the flat kernel, the native engine, the optimizer and the
   Pascal/C/OCaml printers, so a fault there is shared by all of them; only
   the interpreter and the closure compiler, which evaluate [Expr.t]
   directly, would disagree.  This test enumerates every expression of one
   to three atoms over a fixed alphabet that the analyzer accepts
   ([Expr.width]: a filling atom only leftmost, at most 31 bits), and for
   every assignment from a fixed value set requires [Expr.eval]'s value
   from:

   - the terms of [Lower.lower], read as lower.mli documents them;
   - the flat kernel's emitted block ([Flat.compile] + [Flat.make_exec]),
     which adds the emit-time fusion of adjacent fields;
   - the C and OCaml printers ([C_gen.expression], [Ocaml_gen.expression])
     on every 10th expression, each compiled once into one table program,
     when [cc] and [ocamlfind ocamlopt] answer (otherwise those two legs
     print a skip line and pass).

   A selector leg covers flat's other emit-time rewrite, constant-selector
   folding, against the interpreter. *)

open Asim
module Lower = Asim_core.Lower
module C_gen = Asim_codegen.C_gen
module Ocaml_gen = Asim_codegen.Ocaml_gen

(* --- the table -------------------------------------------------------------- *)

let names = [ "x"; "y" ]

(* Field ends at both edges of the word and of its low bits. *)
let ends = [ 0; 1; 2; 29; 30 ]

let fields name =
  List.map (Expr.ref_bit name) ends
  @ List.concat_map
      (fun lo ->
        List.filter_map
          (fun hi -> if hi > lo then Some (Expr.ref_range name lo hi) else None)
          ends)
      ends

let alphabet =
  [ Expr.num 0; Expr.num 5; Expr.num_w 0 ~width:1; Expr.num_w 1 ~width:1;
    Expr.num_w 7 ~width:2; Expr.bits "1"; Expr.bits "01"; Expr.bits "10" ]
  @ List.concat_map (fun name -> Expr.ref_ name :: fields name) names

let accepted e =
  match Expr.width e with
  | _ -> true
  | exception Error.Error _ -> false

let table =
  let one = List.map (fun a -> [ a ]) alphabet in
  let longer exprs = List.concat_map (fun e -> List.map (fun a -> e @ [ a ]) alphabet) exprs in
  let two = longer one in
  List.filter accepted (one @ two @ longer two) |> Array.of_list

(* Expression bits are extracted in two's complement, so negative values
   matter as much as the edges of the word. *)
let values = [ 0; 1; 2; 5; 6; 1 lsl 29; (1 lsl 30) - 1; -1; -2; -(1 lsl 30) ]

let assignments = List.concat_map (fun x -> List.map (fun y -> (x, y)) values) values

let read_of (x, y) = function
  | "x" -> x
  | "y" -> y
  | name -> invalid_arg ("read_of " ^ name)

(* [prepare e] builds an evaluator for [e] (every [every]th expression of
   the table); every assignment's value must equal [Expr.eval]'s.  Reports
   the first few mismatches. *)
let check_table label ?(every = 1) prepare =
  let bad = ref 0 and shown = ref [] and cases = ref 0 in
  Array.iteri
    (fun i e ->
      if i mod every = 0 then begin
        let got = prepare e in
        List.iter
          (fun xy ->
            incr cases;
            let expect = Expr.eval ~read:(read_of xy) e and v = got xy in
            if v <> expect then begin
              incr bad;
              if !bad <= 5 then
                shown :=
                  Printf.sprintf "  %s with x=%d y=%d: Expr.eval %d, %s %d"
                    (Expr.to_string e) (fst xy) (snd xy) expect label v
                  :: !shown
            end)
          assignments
      end)
    table;
  if !bad > 0 then
    Alcotest.failf "%s: %d of %d cases differ from Expr.eval:\n%s" label !bad !cases
      (String.concat "\n" (List.rev !shown))

let test_table_size () =
  Alcotest.(check int) "alphabet" 40 (List.length alphabet);
  Alcotest.(check int) "expressions" 23_214 (Array.length table)

(* --- Lower's terms ---------------------------------------------------------- *)

let eval_terms ~read terms =
  List.fold_left
    (fun acc -> function
      | Lower.Const c -> acc + c
      | Lower.Whole { name; at } -> acc + (read name lsl at)
      | Lower.Field { name; lo; hi; at } ->
          let v = read name land Bits.field_mask ~lo ~hi in
          acc + if at >= lo then v lsl (at - lo) else v lsr (lo - at))
    0 terms

let test_lower_terms () =
  check_table "Lower.lower" (fun e ->
      let terms = Lower.lower e in
      fun xy -> eval_terms ~read:(read_of xy) terms)

(* --- the flat kernel -------------------------------------------------------- *)

let register ?init name =
  let zero = [ Expr.num 0 ] in
  { Component.name; kind = Component.Memory { addr = zero; data = zero; op = zero; cells = 1; init } }

(* [A out 1 0 e]: function 1 passes its right operand, so the block of [out]
   is [e]'s block. *)
let test_flat_kernel () =
  check_table "flat" (fun e ->
      let out =
        { Component.name = "out";
          kind = Component.Alu { fn = [ Expr.num 1 ]; left = [ Expr.num 0 ]; right = e } }
      in
      let p = Flat.compile (Analysis.analyze (Spec.make (List.map register names @ [ out ]))) in
      let vals = Array.make (Array.length p.Flat.p_names) 0 in
      let exec = Flat.make_exec p ~vals ~cycle:(ref 0) in
      let sx = Hashtbl.find p.Flat.p_ids "x" and sy = Hashtbl.find p.Flat.p_ids "y" in
      let entry = p.Flat.p_comb_entry.(0) in
      fun (x, y) ->
        vals.(sx) <- x;
        vals.(sy) <- y;
        exec entry 0 0 0)

(* --- constant selectors ----------------------------------------------------- *)

(* [S out K e0 .. e(n-1)] for every constant K in 0..n, written two ways:
   flat folds an in-range constant to its case and keeps the range check for
   K = n, whose error text and cycle must match the interpreter's. *)
let test_constant_selectors () =
  let cases =
    [| [ Expr.ref_range "x" 0 2; Expr.bits "1" ]; [ Expr.ref_ "y" ]; [ Expr.num 5 ];
       [ Expr.ref_bit "x" 30; Expr.ref_range "y" 1 2 ] |]
  in
  let config = Machine.quiet_config in
  let observe (m : Machine.t) =
    match
      List.init 3 (fun _ ->
          m.Machine.step ();
          m.Machine.read "out")
    with
    | outs -> Ok outs
    | exception Error.Error err -> Error (Error.to_string err)
  in
  for n = 1 to 4 do
    for k = 0 to n do
      List.iter
        (fun select ->
          let sel =
            { Component.name = "out";
              kind = Component.Selector { select; cases = Array.sub cases 0 n } }
          in
          let spec =
            Spec.make
              [ register ~init:[| 6 |] "x"; register ~init:[| (1 lsl 30) - 2 |] "y"; sel ]
          in
          let analysis = Analysis.analyze spec in
          let expect = observe (Interp.create ~config analysis) in
          let label = Printf.sprintf "S out %s, %d cases" (Expr.to_string select) n in
          let show = function
            | Ok outs -> String.concat " " (List.map string_of_int outs)
            | Error text -> text
          in
          Alcotest.(check string) label (show expect)
            (show (observe (Flat.create ~config analysis)));
          if k = n then
            Alcotest.(check bool) (label ^ " raises") true (Result.is_error expect))
        [ [ Expr.num k ]; [ Expr.num_w k ~width:3 ] ]
    done
  done

(* --- the C and OCaml printers ----------------------------------------------- *)

let answers cmd = Sys.command (cmd ^ " > /dev/null 2>&1") = 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every 10th expression, so that both compilers stay near a second. *)
let every = 10

let sample = List.filteri (fun i _ -> i mod every = 0) (Array.to_list table)

(* Write [source] to [file] in a fresh directory, run [build] then the
   program there, and check its lines (one value per expression and
   assignment, in table order) against [Expr.eval]. *)
let check_program label ~file ~build source =
  let dir = Filename.temp_dir "asim-test-lower" "" in
  let path name = Filename.concat dir name in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (path f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Out_channel.with_open_bin (path file) (fun oc -> output_string oc source);
      let sh cmd = Alcotest.(check int) cmd 0 (Sys.command cmd) in
      sh (Printf.sprintf "cd %s && %s > build.log 2>&1" (Filename.quote dir) build);
      sh (Printf.sprintf "cd %s && ./table > out.txt" (Filename.quote dir));
      let lines =
        String.split_on_char '\n' (read_file (path "out.txt"))
        |> List.filter (( <> ) "")
        |> Array.of_list
      in
      let per = List.length assignments in
      Alcotest.(check int) (label ^ " lines") (List.length sample * per) (Array.length lines);
      (* [check_table] visits expressions and assignments in the order the
         program printed them. *)
      let next = ref 0 in
      check_table label ~every (fun _ _ ->
          let v = int_of_string lines.(!next) in
          incr next;
          v))

let c_source () =
  let b = Buffer.create (256 * 1024) in
  Buffer.add_string b "#include <stdio.h>\n\nstatic long long ljbx, ljby;\n\n";
  Buffer.add_string b "static long long value(int i) {\n  switch (i) {\n";
  List.iteri
    (fun i e -> Printf.bprintf b "  case %d: return %s;\n" i (C_gen.expression e))
    sample;
  Buffer.add_string b "  }\n  return 0;\n}\n\n";
  Printf.bprintf b "static const long long vals[] = { %s };\n\n"
    (String.concat ", " (List.map (Printf.sprintf "%dLL") values));
  Printf.bprintf b
    "int main(void) {\n\
    \  for (int i = 0; i < %d; i++)\n\
    \    for (int a = 0; a < %d; a++)\n\
    \      for (int b = 0; b < %d; b++) {\n\
    \        ljbx = vals[a];\n\
    \        ljby = vals[b];\n\
    \        printf(\"%%lld\\n\", value(i));\n\
    \      }\n\
    \  return 0;\n\
     }\n"
    (List.length sample) (List.length values) (List.length values);
  Buffer.contents b

let ocaml_source () =
  let b = Buffer.create (256 * 1024) in
  Buffer.add_string b "let ljbx = ref 0\nlet ljby = ref 0\n\n";
  Printf.bprintf b "let values = [| %s |]\n\n" (String.concat "; " (List.map string_of_int values));
  Buffer.add_string b "let table = [|\n";
  List.iter (fun e -> Printf.bprintf b "  (fun () -> %s);\n" (Ocaml_gen.expression e)) sample;
  Buffer.add_string b "|]\n\n";
  Buffer.add_string b
    "let () =\n\
    \  Array.iter\n\
    \    (fun f ->\n\
    \      Array.iter\n\
    \        (fun a ->\n\
    \          Array.iter\n\
    \            (fun b ->\n\
    \              ljbx := a;\n\
    \              ljby := b;\n\
    \              Printf.printf \"%d\\n\" (f ()))\n\
    \            values)\n\
    \        values)\n\
    \    table\n";
  Buffer.contents b

let test_c_printer () =
  if not (answers "cc --version") then print_endline "[skip] no cc"
  else check_program "C_gen" ~file:"table.c" ~build:"cc -O0 -o table table.c" (c_source ())

let test_ocaml_printer () =
  if not (answers "ocamlfind ocamlopt -version") then print_endline "[skip] no ocamlfind ocamlopt"
  else
    check_program "Ocaml_gen" ~file:"table.ml"
      ~build:"ocamlfind ocamlopt -o table table.ml" (ocaml_source ())

let () =
  Alcotest.run "lower"
    [
      ( "exhaustive",
        [
          Alcotest.test_case "table size" `Quick test_table_size;
          Alcotest.test_case "Lower terms" `Quick test_lower_terms;
          Alcotest.test_case "flat kernel" `Quick test_flat_kernel;
          Alcotest.test_case "constant selectors" `Quick test_constant_selectors;
          Alcotest.test_case "C printer" `Quick test_c_printer;
          Alcotest.test_case "OCaml printer" `Quick test_ocaml_printer;
        ] );
    ]
