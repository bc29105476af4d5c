open Asim_core

type trace_condition =
  | Trace_never
  | Trace_always
  | Trace_runtime

type t = {
  spec : Spec.t;
  order : Component.t list;
  memories : Component.t list;
  warnings : Error.warning list;
}

(* Name-existence checks resolve through one hash table per pass instead of
   scanning the component list per reference — [Spec.find] is a linear
   search, which made these passes quadratic on generated 10k-component
   specs. *)
let component_names (spec : Spec.t) =
  let table = Hashtbl.create (max 16 (List.length spec.components)) in
  List.iter
    (fun (c : Component.t) -> Hashtbl.replace table c.name ())
    spec.components;
  table

let check_references (spec : Spec.t) =
  let defined = component_names spec in
  List.iter
    (fun (c : Component.t) ->
      List.iter
        (fun e ->
          List.iter
            (fun name ->
              if not (Hashtbl.mem defined name) then
                Error.failf ~component:c.name Error.Analysis
                  "Component <%s> not found." name)
            (Expr.names e))
        (Component.inputs c))
    spec.components

let declaration_warnings (spec : Spec.t) =
  let defined_names = component_names spec in
  let defined name = Hashtbl.mem defined_names name in
  let declared_names = Hashtbl.create (max 16 (List.length spec.decls)) in
  List.iter
    (fun (d : Spec.decl) -> Hashtbl.replace declared_names d.name ())
    spec.decls;
  let declared name = Hashtbl.mem declared_names name in
  let not_defined =
    List.filter_map
      (fun (d : Spec.decl) ->
        if defined d.name then None else Some (Error.Declared_not_defined d.name))
      spec.decls
  in
  let not_declared =
    List.filter_map
      (fun (c : Component.t) ->
        if declared c.name then None else Some (Error.Defined_not_declared c.name))
      spec.components
  in
  not_defined @ not_declared

(* A memory's data expression is evaluated while earlier-declared memories
   have already latched their new values (§4.3's temporaries are updated in
   declaration order).  Reading such a memory sees this cycle's value, not
   last cycle's — legal, but almost always a surprise. *)
let update_order_warnings memories =
  let rec go earlier acc = function
    | [] -> List.rev acc
    | (c : Component.t) :: rest ->
        let acc =
          match c.kind with
          | Component.Memory { data; _ } ->
              List.fold_left
                (fun acc name ->
                  if List.mem name earlier then
                    Error.Memory_update_order
                      { reader = c.name; written_before = name }
                    :: acc
                  else acc)
                acc (Expr.names data)
          | Component.Alu _ | Component.Selector _ -> acc
        in
        go (c.name :: earlier) acc rest
  in
  go [] [] memories

let analyze spec =
  Spec.validate spec;
  check_references spec;
  let order = Depgraph.order spec in
  let memories = List.filter Component.is_memory spec.Spec.components in
  let warnings = declaration_warnings spec @ update_order_warnings memories in
  { spec; order; memories; warnings }

let trace_condition ~const_test ~min_width (m : Component.memory) =
  match Expr.const_value m.op with
  | Some v -> if const_test v then Trace_always else Trace_never
  | None -> if Expr.width m.op >= min_width then Trace_runtime else Trace_never

let write_trace_condition m =
  trace_condition ~const_test:(fun v -> Component.traces_writes v) ~min_width:3 m

let read_trace_condition m =
  trace_condition ~const_test:(fun v -> Component.traces_reads v) ~min_width:4 m

type lint =
  | Selector_possible_overrun of { selector : string; cases : int; select_width : int }
  | Address_possible_overrun of { memory : string; cells : int; addr_width : int }

let lints t =
  let env = Width.infer t.spec in
  List.filter_map
    (fun (c : Component.t) ->
      match c.kind with
      | Component.Alu _ -> None
      | Component.Selector { select; cases } -> (
          let n = Array.length cases in
          match Expr.const_value select with
          | Some v when v >= 0 && v < n -> None
          | _ ->
              let w = Width.expr_width env select in
              if w < Bits.word_bits && 1 lsl w <= n then None
              else
                Some
                  (Selector_possible_overrun
                     { selector = c.name; cases = n; select_width = w }))
      | Component.Memory { addr; cells; _ } -> (
          match Expr.const_value addr with
          | Some v when v >= 0 && v < cells -> None
          | _ ->
              let w = Width.expr_width env addr in
              if w < Bits.word_bits && 1 lsl w <= cells then None
              else
                Some
                  (Address_possible_overrun
                     { memory = c.name; cells; addr_width = w })))
    t.spec.Spec.components

let lint_to_string = function
  | Selector_possible_overrun { selector; cases; select_width } ->
      Printf.sprintf
        "Lint: selector %s has %d values but its select expression is %d bits \
         wide; out-of-range values are a runtime error."
        selector cases select_width
  | Address_possible_overrun { memory; cells; addr_width } ->
      Printf.sprintf
        "Lint: memory %s has %d cells but its address expression is %d bits \
         wide; out-of-range addresses are a runtime error."
        memory cells addr_width

let memory_output_used t name =
  List.mem name (Spec.traced_names t.spec)
  || List.exists
       (fun (c : Component.t) ->
         List.exists (fun e -> List.mem name (Expr.names e)) (Component.inputs c))
       t.spec.Spec.components
  ||
  (* read/write trace lines print the temporary *)
  match Spec.find t.spec name with
  | Some { Component.kind = Component.Memory m; _ } ->
      write_trace_condition m <> Trace_never || read_trace_condition m <> Trace_never
  | Some _ | None -> false

let temp_elidable t name =
  (not (memory_output_used t name))
  &&
  match Spec.find t.spec name with
  | Some { Component.kind = Component.Memory m; _ } -> (
      match Lower.memory_const_op m with
      | Some op -> op land 3 <= 1 (* read or write; no I/O side effects *)
      | None -> false)
  | Some _ | None -> false

let memory_io_possible (m : Component.memory) =
  match Expr.const_value m.op with
  | Some v -> v land 3 >= 2
  | None ->
      (* a single-bit operation can only read or write *)
      Expr.width m.op >= 2

let supernode_size = 128
let supernode pos = pos / supernode_size
let supernodes n = (n + supernode_size - 1) / supernode_size
