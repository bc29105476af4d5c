open Asim_core
module Analysis = Asim_analysis.Analysis

type memory = { name : string; mem : Component.memory; elide : bool }

type syntax = {
  deref : string -> string;
  int : int -> string;
  masked : string -> int -> string;
  shl : string -> int -> string;
  shr : string -> int -> string;
  sum : string list -> string;
  call : string -> string list -> string;
  assign : string -> string -> string;
  mask : string;
  band : string -> string -> string;
  bor : string -> string -> string;
  bxor : string -> string -> string;
  eq : string;
  flag : string -> string -> string list;
  selector : string -> string -> string array -> string list;
  trace_cycle : (string * string) list -> string list;
  load : string -> string;
  store : string -> string -> string;
  comment : string -> string;
  switch : Emitter.t -> string -> (unit -> unit) list -> unit;
  when_bits : string -> int -> int -> string;
  trace_access : string -> string -> string;
  check_address : string -> int -> string * string * string -> string list;
  prologue : Emitter.t -> Analysis.t -> memory list -> unit;
  main : Emitter.t -> cycles:int -> (unit -> unit) -> unit;
}

let paren_sum = function
  | [ one ] -> one
  | terms -> "(" ^ String.concat " + " terms ^ ")"

(* A memory's output is read through its [temp] register, every other
   component through its [ljb] value variable. *)
let var sx is_memory name = sx.deref ((if is_memory name then "temp" else "ljb") ^ name)

let expr sx is_memory e =
  let shift v s = if s = 0 then v else if s > 0 then sx.shl v s else sx.shr v (-s) in
  Lower.lower e
  |> List.map (function
       | Lower.Const c -> sx.int c
       | Lower.Whole { name; at } -> shift (var sx is_memory name) at
       | Lower.Field { name; lo; hi; at } ->
           shift (sx.masked (var sx is_memory name) (Bits.field_mask ~lo ~hi)) (at - lo))
  |> sx.sum

(* §4.4: a constant function expression becomes the inlined operation; only
   a computed one pays the [dologic] dispatch (Figure 4.1). *)
let alu sx e target (alu : Component.alu) =
  let set rhs = [ sx.assign target rhs ] in
  let l () = e alu.left and r () = e alu.right in
  match Lower.alu_const_function alu with
  | Some (Component.Fn_zero | Component.Fn_unused) -> set "0"
  | Some Component.Fn_right -> set (r ())
  | Some Component.Fn_left -> set (l ())
  | Some Component.Fn_not -> set (Printf.sprintf "%s - %s" sx.mask (l ()))
  | Some Component.Fn_add -> set (Printf.sprintf "%s + %s" (l ()) (r ()))
  | Some Component.Fn_sub -> set (Printf.sprintf "%s - %s" (l ()) (r ()))
  | Some Component.Fn_shift_left -> set (sx.call "dologic" [ "6"; l (); r () ])
  | Some Component.Fn_mul -> set (Printf.sprintf "%s * %s" (l ()) (r ()))
  | Some Component.Fn_and -> set (sx.band (l ()) (r ()))
  | Some Component.Fn_or -> set (sx.bor (l ()) (r ()))
  | Some Component.Fn_xor -> set (sx.bxor (l ()) (r ()))
  | Some Component.Fn_eq -> sx.flag target (Printf.sprintf "%s %s %s" (l ()) sx.eq (r ()))
  | Some Component.Fn_lt -> sx.flag target (Printf.sprintf "%s < %s" (l ()) (r ()))
  | None -> set (sx.call "dologic" [ e alu.fn; l (); r () ])

(* The engines' address error ([Machine.address_out_of_range] as
   [Error.to_string] prints it), cut where the cycle number and the address
   go. *)
let address_error name ~cells =
  ( Error.to_string
      { Error.phase = Error.Runtime; position = None; component = Some name; message = "cycle " },
    ": memory address ",
    Printf.sprintf " outside declared range 0..%d" (cells - 1) )

(* Figure 4.3: a constant operation keeps only its own arm; §5.4 drops the
   temporary of a never-read constant read or write; anything else
   dispatches on the latched operation at run time.  A read or a write
   first checks its latched address as the engines do (input and output do
   not), the elided read included; a constant address in range needs no
   check. *)
let memory_update sx em e { name; mem; elide } =
  let line = Emitter.line em in
  let temp = "temp" ^ name and adr = sx.deref ("adr" ^ name) in
  let cells = mem.Component.cells in
  let check () =
    match Lower.lower mem.Component.addr with
    | [ Lower.Const a ] when a >= 0 && a < cells -> ()
    | _ -> List.iter line (sx.check_address adr cells (address_error name ~cells))
  in
  let read () =
    check ();
    line (sx.assign temp (sx.load name))
  in
  let write () =
    check ();
    line (sx.assign temp (e mem.Component.data));
    line (sx.store name (sx.deref temp))
  in
  let input () = line (sx.assign temp (sx.call "sinput" [ adr ])) in
  let output () =
    line (sx.assign temp (e mem.Component.data));
    line (sx.call "soutput" [ adr; sx.deref temp ] ^ ";")
  in
  match Lower.memory_const_op mem with
  | Some op when elide -> (
      match Component.memory_op_of_code op with
      | Component.Op_read ->
          check ();
          line (sx.comment (name ^ ": read result unused, temp elided"))
      | Component.Op_write ->
          check ();
          line (sx.store name (e mem.Component.data))
      | Component.Op_input | Component.Op_output -> assert false)
  | Some op -> (
      match Component.memory_op_of_code op with
      | Component.Op_read -> read ()
      | Component.Op_write -> write ()
      | Component.Op_input -> input ()
      | Component.Op_output -> output ())
  | None -> sx.switch em (sx.deref ("opn" ^ name)) [ read; write; input; output ]

let memory_trace sx em { name; mem; _ } =
  let traced condition mask value what =
    let stmt = sx.trace_access what name in
    match condition with
    | Analysis.Trace_never -> ()
    | Analysis.Trace_always -> Emitter.line em stmt
    | Analysis.Trace_runtime ->
        Emitter.line em (sx.when_bits (sx.deref ("opn" ^ name)) mask value);
        Emitter.line em ("  " ^ stmt)
  in
  traced (Analysis.write_trace_condition mem) 5 5 "Write to";
  traced (Analysis.read_trace_condition mem) 9 8 "Read from"

let generate sx (a : Analysis.t) =
  let spec = a.Analysis.spec in
  let is_memory name =
    match Spec.find spec name with Some c -> Component.is_memory c | None -> false
  in
  let e = expr sx is_memory in
  let mems =
    List.filter_map
      (fun (c : Component.t) ->
        match c.kind with
        | Component.Memory mem ->
            Some { name = c.name; mem; elide = Analysis.temp_elidable a c.name }
        | _ -> None)
      spec.Spec.components
  in
  let em = Emitter.create () in
  let lines = List.iter (Emitter.line em) in
  sx.prologue em a mems;
  Emitter.blank em;
  sx.main em ~cycles:(Option.value spec.Spec.cycles ~default:0) (fun () ->
      List.iter
        (fun (c : Component.t) ->
          match c.kind with
          | Component.Alu x -> lines (alu sx e ("ljb" ^ c.name) x)
          | Component.Selector { select; cases } ->
              lines (sx.selector c.name (e select) (Array.map e cases))
          | Component.Memory _ -> assert false)
        a.Analysis.order;
      lines
        (sx.trace_cycle
           (List.map (fun n -> (n, var sx is_memory n)) (Spec.traced_names spec)));
      (* The paper's two-phase cycle: every address and operation is latched
         before any memory updates. *)
      List.iter
        (fun { name; mem; _ } ->
          Emitter.line em (sx.assign ("adr" ^ name) (e mem.Component.addr));
          if Lower.memory_const_op mem = None then
            Emitter.line em (sx.assign ("opn" ^ name) (e mem.Component.op)))
        mems;
      List.iter
        (fun m ->
          memory_update sx em e m;
          memory_trace sx em m)
        mems);
  Emitter.contents em
