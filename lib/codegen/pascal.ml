open Asim_core
module Analysis = Asim_analysis.Analysis

(* --- fixed support routines (Appendix C/E shapes) ----------------------- *)

let emit_land em =
  let l = Emitter.line em in
  l "function land (a, b: integer): integer;";
  l "type bitnos = 0..31;";
  l "  bigset = set of bitnos;";
  l "var intset: record case boolean of";
  l "  false: (i, j: integer);";
  l "  true: (x, y: bigset)";
  l "end;";
  l "begin";
  l "  with intset do begin";
  l "    i := a;";
  l "    j := b;";
  l "    x := x * y;";
  l "    land := i";
  l "  end";
  l "end {land};"

let emit_dologic em =
  let l = Emitter.line em in
  l "function dologic (funct, left, right: integer): integer;";
  Emitter.linef em "const mask = %d;" Bits.mask;
  l "var value : integer;";
  l "begin";
  l "  value := 0;";
  l "  case funct of";
  l "  0 : value := 0;";
  l "  1 : value := right;";
  l "  2 : value := left;";
  l "  3 : value := mask - left;";
  l "  4 : value := left + right;";
  l "  5 : value := left - right;";
  l "  6 : begin";
  l "        value := land(left, mask);";
  l "        while (right > 0) and (value <> 0) do begin";
  l "          value := land(value + value, mask);";
  l "          right := right - 1";
  l "        end";
  l "      end;";
  l "  7 : value := left * right;";
  l "  8 : value := land(left, right);";
  l "  9 : value := left + right - land(left, right);";
  l "  10: value := left + right - land(left, right) * 2;";
  l "  11: value := 0;";
  l "  12: if left = right then value := 1;";
  l "  13: if left < right then value := 1";
  l "  end; {case}";
  l "  dologic := value;";
  l "end; {dologic}"

let emit_io em =
  let l = Emitter.line em in
  l "function sinput (address : integer): integer;";
  l "var datum: char;";
  l "  data: integer;";
  l "begin";
  l "  if address = 0 then begin";
  l "    read(input, datum);";
  l "    sinput := ord(datum)";
  l "  end";
  l "  else if address = 1 then begin";
  l "    read(input, data);";
  l "    sinput := data";
  l "  end";
  l "  else begin";
  l "    write(output, 'Input from address ', address:1, ': ');";
  l "    readln(input, data);";
  l "    sinput := data;";
  l "  end";
  l "end; {sinput}";
  Emitter.blank em;
  l "procedure soutput (address, data: integer);";
  l "begin";
  l "  if address = 0 then writeln(output, chr(data))";
  l "  else if address = 1 then writeln(output, data)";
  l "  else writeln(output, 'Output to address ', address:1, ': ', data:1)";
  l "end; {soutput}"

(* --- per-spec sections --------------------------------------------------- *)

let emit_vars em (a : Analysis.t) mems =
  let comb_names =
    List.map (fun (c : Component.t) -> "ljb" ^ c.name) a.Analysis.order
  in
  let mem_names =
    List.concat_map
      (fun { Skeleton.name; elide; _ } ->
        (* §5.4 heuristic: no temporary for never-read outputs *)
        if elide then [ "adr" ^ name; "opn" ^ name ]
        else [ "temp" ^ name; "adr" ^ name; "opn" ^ name ])
      mems
  in
  (match comb_names @ mem_names with
  | [] -> ()
  | names -> Emitter.linef em "var %s: integer;" (String.concat ", " names));
  Emitter.line em "  cycles, cyclecount: integer;";
  List.iter
    (fun { Skeleton.name; mem; _ } ->
      Emitter.linef em "  ljb%s: array[0..%d] of integer;" name (mem.Component.cells - 1))
    mems

let emit_initvalues em mems =
  let l = Emitter.line em in
  l "procedure initvalues;";
  l "var i: integer;";
  l "begin";
  Emitter.indented em (fun () ->
      List.iter
        (fun { Skeleton.name; mem; elide } ->
          (match mem.Component.init with
          | Some values ->
              Array.iteri
                (fun i v -> Emitter.linef em "ljb%s[%d] := %d;" name i v)
                values
          | None ->
              Emitter.linef em "for i := 0 to %d do" (mem.Component.cells - 1);
              Emitter.linef em "  ljb%s[i] := 0;" name);
          if not elide then Emitter.linef em "temp%s := 0;" name)
        mems);
  l "end; {initvalues}"

let prologue em (a : Analysis.t) mems =
  Emitter.line em "program simulator(input, output);";
  Emitter.linef em "{#%s}" a.Analysis.spec.Spec.comment;
  emit_vars em a mems;
  Emitter.blank em;
  emit_land em;
  Emitter.blank em;
  emit_initvalues em mems;
  Emitter.blank em;
  emit_dologic em;
  Emitter.blank em;
  emit_io em

let main em ~cycles body =
  Emitter.line em "begin";
  Emitter.indented em (fun () ->
      Emitter.line em "initvalues;";
      Emitter.linef em "cycles := %d;" cycles;
      Emitter.line em "cyclecount := 0;";
      Emitter.line em "while cyclecount < cycles do begin";
      Emitter.indented em (fun () ->
          body ();
          Emitter.line em "cyclecount := cyclecount + 1");
      Emitter.line em "end; {while}");
  Emitter.line em "end."

let switch em op arms =
  Emitter.linef em "case land(%s, 3) of" op;
  Emitter.indented em (fun () ->
      List.iteri
        (fun i arm ->
          Emitter.linef em "%d: begin" i;
          Emitter.indented em arm;
          Emitter.line em (if i = 3 then "end" else "end;"))
        arms);
  Emitter.line em "end; {case}"

let syntax =
  let sp = Printf.sprintf in
  {
    Skeleton.deref = Fun.id;
    int = string_of_int;
    masked = sp "land(%s, %d)";
    shl = (fun v s -> sp "%s * %d" v (1 lsl s));
    shr = (fun v s -> sp "%s div %d" v (1 lsl s));
    sum = String.concat " + ";
    call = (fun f args -> sp "%s(%s)" f (String.concat ", " args));
    assign = sp "%s := %s;";
    mask = string_of_int Bits.mask;
    band = sp "land(%s, %s)";
    bor = (fun l r -> sp "%s + %s - land(%s, %s)" l r l r);
    bxor = (fun l r -> sp "%s + %s - land(%s, %s) * 2" l r l r);
    eq = "=";
    flag = (fun t c -> [ sp "if %s then %s := 1" c t; sp "else %s := 0;" t ]);
    selector =
      (fun name select cases ->
        (sp "case %s of" select
        :: List.mapi (fun i c -> sp "  %d: ljb%s := %s;" i name c) (Array.to_list cases))
        @ [ "end;" ]);
    trace_cycle =
      (fun values ->
        ("write('Cycle ', cyclecount:3);"
        :: List.map (fun (n, v) -> sp "write(' %s= ', %s:1);" n v) values)
        @ [ "writeln;" ]);
    load = (fun name -> sp "ljb%s[adr%s]" name name);
    store = (fun name v -> sp "ljb%s[adr%s] := %s;" name name v);
    comment = sp "{ %s }";
    switch;
    when_bits = sp "if land(%s, %d) = %d then";
    trace_access =
      (fun what name ->
        sp "writeln('%s %s at ', adr%s:1, ': ', temp%s:1);" what name name name);
    check_address =
      (fun adr cells (before_cycle, before_address, rest) ->
        [
          sp "if (%s < 0) or (%s >= %d) then begin" adr adr cells;
          sp "  writeln(stderr, '%s', cyclecount:1, '%s', %s:1, '%s');" before_cycle
            before_address adr rest;
          "  halt(1)";
          "end;";
        ]);
    prologue;
    main;
  }

let generate = Skeleton.generate syntax

let expression ?(memories = []) e = Skeleton.expr syntax (fun n -> List.mem n memories) e
