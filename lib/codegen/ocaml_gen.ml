open Asim_core
module Analysis = Asim_analysis.Analysis

(* Combinational values and memory registers are [int ref]s named [ljb<name>]
   and [temp<name>]; memory cell arrays are [mem<name>]. *)

let emit_prelude em =
  let l = Emitter.line em in
  Emitter.linef em "let mask = %d" Bits.mask;
  Emitter.blank em;
  l "let dologic funct left right =";
  l "  match funct land 15 with";
  l "  | 0 -> 0";
  l "  | 1 -> right";
  l "  | 2 -> left";
  l "  | 3 -> mask - left";
  l "  | 4 -> left + right";
  l "  | 5 -> left - right";
  l "  | 6 ->";
  l "      let rec go v n = if n <= 0 || v = 0 then v else go ((v + v) land mask) (n - 1) in";
  l "      go (left land mask) right";
  l "  | 7 -> left * right";
  l "  | 8 -> left land right";
  l "  | 9 -> left + right - (left land right)";
  l "  | 10 -> left + right - (2 * (left land right))";
  l "  | 12 -> if left = right then 1 else 0";
  l "  | 13 -> if left < right then 1 else 0";
  l "  | _ -> 0";
  Emitter.blank em;
  l "let sinput address =";
  l "  match address with";
  l "  | 0 -> (try Scanf.scanf \"%c\" Char.code with End_of_file -> 0)";
  l "  | 1 -> (try Scanf.scanf \" %d\" (fun d -> d) with Scanf.Scan_failure _ | End_of_file -> 0)";
  l "  | _ ->";
  l "      Printf.printf \"Input from address %d: \" address;";
  l "      (try Scanf.scanf \" %d\" (fun d -> d) with Scanf.Scan_failure _ | End_of_file -> 0)";
  Emitter.blank em;
  l "let soutput address data =";
  l "  match address with";
  l "  | 0 -> print_char (Char.chr (data land 255))";
  l "  | 1 -> Printf.printf \"%d\\n\" data";
  l "  | _ -> Printf.printf \"Output to address %d: %d\\n\" address data"

let emit_state em (a : Analysis.t) mems =
  List.iter
    (fun { Skeleton.name; mem; elide } ->
      Emitter.linef em "let mem%s = Array.make %d 0" name mem.Component.cells;
      if not elide then Emitter.linef em "let temp%s = ref 0" name;
      Emitter.linef em "let adr%s = ref 0" name;
      Emitter.linef em "let opn%s = ref 0" name)
    mems;
  List.iter
    (fun (c : Component.t) -> Emitter.linef em "let ljb%s = ref 0" c.name)
    a.Analysis.order;
  Emitter.blank em;
  Emitter.line em "let initvalues () =";
  Emitter.indented em (fun () ->
      let inits =
        List.filter_map
          (fun { Skeleton.name; mem; _ } ->
            Option.map (fun values -> (name, values)) mem.Component.init)
          mems
      in
      List.iter
        (fun (name, values) ->
          let values =
            values |> Array.to_list |> List.map string_of_int |> String.concat "; "
          in
          Emitter.linef em "List.iteri (fun i v -> mem%s.(i) <- v) [ %s ];" name values)
        inits;
      if inits = [] then Emitter.line em "();";
      Emitter.line em "()")

let prologue em (a : Analysis.t) mems =
  Emitter.linef em "(* #%s *)" a.Analysis.spec.Spec.comment;
  Emitter.line em "(* generated by asim; do not edit *)";
  Emitter.blank em;
  emit_prelude em;
  Emitter.blank em;
  emit_state em a mems

let main em ~cycles body =
  Emitter.line em "let () =";
  Emitter.indented em (fun () ->
      Emitter.line em "initvalues ();";
      Emitter.linef em
        "let cycles = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else %d in"
        cycles;
      Emitter.line em "for cyclecount = 0 to cycles - 1 do";
      Emitter.indented em (fun () ->
          Emitter.line em "ignore cyclecount;";
          body ());
      Emitter.line em "done")

let switch em op arms =
  Emitter.linef em "(match %s land 3 with" op;
  Emitter.indented em (fun () ->
      List.iteri
        (fun i arm ->
          Emitter.line em (if i = 3 then "| _ ->" else Printf.sprintf "| %d ->" i);
          Emitter.indented em arm)
        arms);
  Emitter.line em ");"

let syntax =
  let sp = Printf.sprintf in
  {
    Skeleton.deref = (fun v -> "!" ^ v);
    int = string_of_int;
    masked = sp "(%s land %d)";
    shl = sp "(%s lsl %d)";
    shr = sp "(%s lsr %d)";
    sum = Skeleton.paren_sum;
    call = (fun f args -> String.concat " " (f :: args));
    assign = sp "%s := %s;";
    mask = string_of_int Bits.mask;
    band = sp "%s land %s";
    bor = sp "(let a = %s and b = %s in a + b - (a land b))";
    bxor = sp "(let a = %s and b = %s in a + b - (2 * (a land b)))";
    eq = "=";
    flag = (fun t c -> [ sp "%s := (if %s then 1 else 0);" t c ]);
    selector =
      (fun name select cases ->
        (sp "(match %s with" select
        :: List.mapi (fun i c -> sp " | %d -> ljb%s := %s" i name c) (Array.to_list cases))
        @ [
            sp
              " | i -> failwith (Printf.sprintf \"selector %s: value %%d exceeds the \
               number of sources (%d)\" i));"
              name (Array.length cases);
          ]);
    trace_cycle =
      (fun values ->
        ("print_string (Printf.sprintf \"Cycle %3d\" cyclecount);"
        :: List.map
             (fun (n, v) -> sp "print_string (Printf.sprintf \" %s= %%d\" %s);" n v)
             values)
        @ [ "print_newline ();" ]);
    load = (fun name -> sp "mem%s.(!adr%s)" name name);
    store = (fun name v -> sp "mem%s.(!adr%s) <- %s;" name name v);
    comment = sp "(* %s *)";
    switch;
    when_bits = sp "if %s land %d = %d then";
    trace_access =
      (fun what name ->
        sp "print_string (Printf.sprintf \"%s %s at %%d: %%d\\n\" !adr%s !temp%s);" what
          name name name);
    check_address =
      (fun adr cells (before_cycle, before_address, rest) ->
        [
          sp "if %s < 0 || %s >= %d then begin" adr adr cells;
          sp "  prerr_endline (Printf.sprintf \"%s%%d%s%%d%s\" cyclecount %s);"
            before_cycle before_address rest adr;
          "  exit 1";
          "end;";
        ]);
    prologue;
    main;
  }

let generate = Skeleton.generate syntax

let expression ?(memories = []) e = Skeleton.expr syntax (fun n -> List.mem n memories) e
