open Asim_core
module Analysis = Asim_analysis.Analysis

let emit_prelude em =
  let l = Emitter.line em in
  l "#include <stdio.h>";
  l "#include <stdlib.h>";
  Emitter.blank em;
  Emitter.linef em "#define MASK %dLL" Bits.mask;
  Emitter.blank em;
  l "static long long dologic(long long funct, long long left, long long right) {";
  l "  switch (funct & 15) {";
  l "  case 0: return 0;";
  l "  case 1: return right;";
  l "  case 2: return left;";
  l "  case 3: return MASK - left;";
  l "  case 4: return left + right;";
  l "  case 5: return left - right;";
  l "  case 6: {";
  l "    long long v = left & MASK;";
  l "    long long n = right;";
  l "    while (n > 0 && v != 0) { v = (v + v) & MASK; n--; }";
  l "    return v;";
  l "  }";
  l "  case 7: return left * right;";
  l "  case 8: return left & right;";
  l "  case 9: return left + right - (left & right);";
  l "  case 10: return left + right - 2 * (left & right);";
  l "  case 12: return left == right ? 1 : 0;";
  l "  case 13: return left < right ? 1 : 0;";
  l "  default: return 0;";
  l "  }";
  l "}";
  Emitter.blank em;
  l "static long long sinput(long long address) {";
  l "  long long data = 0;";
  l "  if (address == 0) {";
  l "    int c = getchar();";
  l "    return c == EOF ? 0 : (long long)c;";
  l "  } else if (address == 1) {";
  l "    if (scanf(\"%lld\", &data) != 1) data = 0;";
  l "    return data;";
  l "  } else {";
  l "    printf(\"Input from address %lld: \", address);";
  l "    if (scanf(\"%lld\", &data) != 1) data = 0;";
  l "    return data;";
  l "  }";
  l "}";
  Emitter.blank em;
  l "static void soutput(long long address, long long data) {";
  l "  if (address == 0) putchar((int)(data & 255));";
  l "  else if (address == 1) printf(\"%lld\\n\", data);";
  l "  else printf(\"Output to address %lld: %lld\\n\", address, data);";
  l "}"

let emit_state em (a : Analysis.t) mems =
  List.iter
    (fun { Skeleton.name; mem; elide } ->
      Emitter.linef em "static long long mem%s[%d];" name mem.Component.cells;
      if elide then Emitter.linef em "static long long adr%s, opn%s;" name name
      else Emitter.linef em "static long long temp%s, adr%s, opn%s;" name name name)
    mems;
  List.iter
    (fun (c : Component.t) -> Emitter.linef em "static long long ljb%s;" c.name)
    a.Analysis.order;
  Emitter.blank em;
  Emitter.line em "static void initvalues(void) {";
  Emitter.indented em (fun () ->
      List.iter
        (fun { Skeleton.name; mem; _ } ->
          match mem.Component.init with
          | None -> ()
          | Some values ->
              let cells = mem.Component.cells in
              let values =
                values |> Array.to_list |> List.map string_of_int |> String.concat ", "
              in
              Emitter.linef em "static const long long init%s[%d] = { %s };" name cells
                values;
              Emitter.linef em "for (int i = 0; i < %d; i++) mem%s[i] = init%s[i];" cells
                name name)
        mems);
  Emitter.line em "}"

let prologue em (a : Analysis.t) mems =
  Emitter.linef em "/* #%s */" a.Analysis.spec.Spec.comment;
  Emitter.line em "/* generated by asim; do not edit */";
  Emitter.blank em;
  emit_prelude em;
  Emitter.blank em;
  emit_state em a mems

let main em ~cycles body =
  Emitter.line em "int main(int argc, char **argv) {";
  Emitter.indented em (fun () ->
      Emitter.line em "initvalues();";
      Emitter.linef em "long long cycles = argc > 1 ? atoll(argv[1]) : %d;" cycles;
      Emitter.line em "for (long long cyclecount = 0; cyclecount < cycles; cyclecount++) {";
      Emitter.indented em body;
      Emitter.line em "}";
      Emitter.line em "return 0;");
  Emitter.line em "}"

let switch em op arms =
  Emitter.linef em "switch (%s & 3) {" op;
  List.iteri
    (fun i arm ->
      Emitter.line em (if i = 3 then "default:" else Printf.sprintf "case %d:" i);
      Emitter.indented em (fun () ->
          arm ();
          Emitter.line em "break;"))
    arms;
  Emitter.line em "}"

let syntax =
  let sp = Printf.sprintf in
  {
    Skeleton.deref = Fun.id;
    int = sp "%dLL";
    masked = sp "(%s & %dLL)";
    shl = sp "(%s << %d)";
    shr = sp "(%s >> %d)";
    sum = Skeleton.paren_sum;
    call = (fun f args -> sp "%s(%s)" f (String.concat ", " args));
    assign = sp "%s = %s;";
    mask = "MASK";
    band = sp "%s & %s";
    bor = (fun l r -> sp "%s + %s - (%s & %s)" l r l r);
    bxor = (fun l r -> sp "%s + %s - 2 * (%s & %s)" l r l r);
    eq = "==";
    flag = (fun t c -> [ sp "%s = (%s) ? 1 : 0;" t c ]);
    selector =
      (fun name select cases ->
        (sp "switch (%s) {" select
        :: List.mapi (fun i c -> sp "case %d: ljb%s = %s; break;" i name c) (Array.to_list cases))
        @ [
            sp "default: fprintf(stderr, \"selector %s out of range\\n\"); exit(2);" name;
            "}";
          ]);
    trace_cycle =
      (fun values ->
        ("printf(\"Cycle %3lld\", cyclecount);"
        :: List.map (fun (n, v) -> sp "printf(\" %s= %%lld\", %s);" n v) values)
        @ [ "printf(\"\\n\");" ]);
    load = (fun name -> sp "mem%s[adr%s]" name name);
    store = (fun name v -> sp "mem%s[adr%s] = %s;" name name v);
    comment = sp "/* %s */";
    switch;
    when_bits = sp "if ((%s & %d) == %d)";
    trace_access =
      (fun what name ->
        sp "printf(\"%s %s at %%lld: %%lld\\n\", adr%s, temp%s);" what name name name);
    check_address =
      (fun adr cells (before_cycle, before_address, rest) ->
        [
          sp "if (%s < 0 || %s >= %d) {" adr adr cells;
          sp "  fprintf(stderr, \"%s%%lld%s%%lld%s\\n\", cyclecount, %s);" before_cycle
            before_address rest adr;
          "  exit(1);";
          "}";
        ]);
    prologue;
    main;
  }

let generate = Skeleton.generate syntax

let expression ?(memories = []) e = Skeleton.expr syntax (fun n -> List.mem n memories) e
