open Asim_core
open Asim_sim

(* A compiled expression is either a literal or a thunk over the value
   array.  Keeping the distinction lets the component compilers see
   constants (the paper's [numeric] test) and fold them away. *)
type compiled =
  | Cst of int
  | Fn of (unit -> int)

let force = function Cst v -> (fun () -> v) | Fn f -> f

let value_of = function Cst v -> Some v | Fn _ -> None

type ctx = {
  ids : (string, int) Hashtbl.t;
  vals : int array;
  cycle : int ref;
  fold : bool;
}

let component_id ctx name =
  match Hashtbl.find_opt ctx.ids name with
  | Some id -> id
  | None -> Error.failf Error.Analysis "Component <%s> not found." name

(* One atom, placed with its least-significant bit at [numbits]; returns the
   compiled contribution and the new bit position. *)
let compile_atom ctx numbits atom =
  match atom with
  | Expr.Const { number; width } -> (
      let v = Number.value number in
      match width with
      | None -> (Cst (v lsl numbits), Bits.word_bits)
      | Some w ->
          let w = Number.value w in
          (Cst ((v land Bits.ones w) lsl numbits), numbits + w))
  | Expr.Bitstring s ->
      let v = String.fold_left (fun acc c -> (acc * 2) + if c = '1' then 1 else 0) 0 s in
      (Cst (v lsl numbits), numbits + String.length s)
  | Expr.Ref { name; field } -> (
      let id = component_id ctx name in
      let vals = ctx.vals in
      match field with
      | Expr.Whole ->
          let f =
            if numbits = 0 then fun () -> vals.(id)
            else fun () -> vals.(id) lsl numbits
          in
          (Fn f, Bits.word_bits)
      | Expr.Bit fnum ->
          let lo = Number.value fnum in
          let mask = Bits.field_mask ~lo ~hi:lo in
          let f =
            if numbits >= lo then
              let s = numbits - lo in
              fun () -> (vals.(id) land mask) lsl s
            else
              let s = lo - numbits in
              fun () -> (vals.(id) land mask) lsr s
          in
          (Fn f, numbits + 1)
      | Expr.Range (fnum, tnum) ->
          let lo = Number.value fnum and hi = Number.value tnum in
          let mask = Bits.field_mask ~lo ~hi in
          let f =
            if numbits >= lo then
              let s = numbits - lo in
              fun () -> (vals.(id) land mask) lsl s
            else
              let s = lo - numbits in
              fun () -> (vals.(id) land mask) lsr s
          in
          (Fn f, numbits + (hi - lo + 1)))

let compile_expr ctx (e : Expr.t) =
  let rec build numbits = function
    | [] -> []
    | atom :: rest ->
        let compiled, numbits = compile_atom ctx numbits atom in
        compiled :: build numbits rest
  in
  let parts = build 0 (List.rev e) in
  let constant = List.fold_left (fun acc p -> match p with Cst v -> acc + v | Fn _ -> acc) 0 parts in
  let fns = List.filter_map (fun p -> match p with Fn f -> Some f | Cst _ -> None) parts in
  if ctx.fold then
    match (fns, constant) with
    | [], c -> Cst c
    | [ f ], 0 -> Fn f
    | [ f ], c -> Fn (fun () -> f () + c)
    | [ f; g ], 0 -> Fn (fun () -> f () + g ())
    | [ f; g ], c -> Fn (fun () -> f () + g () + c)
    | fns, c ->
        let fns = Array.of_list fns in
        Fn (fun () -> Array.fold_left (fun acc f -> acc + f ()) c fns)
  else
    (* Unoptimized: keep a thunk per atom, summed at run time. *)
    let thunks = Array.of_list (List.map force parts) in
    Fn (fun () -> Array.fold_left (fun acc f -> acc + f ()) 0 thunks)

(* --- components --------------------------------------------------------- *)

let compile_alu ctx name ({ fn; left; right } : Component.alu) =
  let l = force (compile_expr ctx left) and r = force (compile_expr ctx right) in
  let fc = compile_expr ctx fn in
  match (ctx.fold, value_of fc) with
  | true, Some code -> (
      (* §4.4: constant function — generate the operation inline instead of
         calling the generic dologic. *)
      match Component.alu_function_of_code code with
      | Component.Fn_zero | Component.Fn_unused -> fun () -> 0
      | Component.Fn_right -> r
      | Component.Fn_left -> l
      | Component.Fn_not -> fun () -> Bits.mask - l ()
      | Component.Fn_add -> fun () -> l () + r ()
      | Component.Fn_sub -> fun () -> l () - r ()
      | Component.Fn_shift_left -> fun () -> Bits.shift_left_masked (l ()) (r ())
      | Component.Fn_mul -> fun () -> l () * r ()
      | Component.Fn_and -> fun () -> l () land r ()
      | Component.Fn_or ->
          fun () ->
            let a = l () and b = r () in
            a + b - (a land b)
      | Component.Fn_xor ->
          fun () ->
            let a = l () and b = r () in
            a + b - (2 * (a land b))
      | Component.Fn_eq -> fun () -> if l () = r () then 1 else 0
      | Component.Fn_lt -> fun () -> if l () < r () then 1 else 0)
  | _ ->
      ignore name;
      let f = force fc in
      fun () -> Component.apply_alu_code (f ()) ~left:(l ()) ~right:(r ())

let compile_selector ctx name ({ select; cases } : Component.selector) =
  let sel = force (compile_expr ctx select) in
  let compiled = Array.map (fun case -> force (compile_expr ctx case)) cases in
  let n = Array.length compiled in
  let cycle = ctx.cycle in
  fun () ->
    let index = sel () in
    if index < 0 || index >= n then
      Machine.selector_out_of_range ~component:name ~cycle:!cycle ~index ~cases:n
    else compiled.(index) ()

type compiled_memory = {
  cm_name : string;
  cm_id : int;  (** slot of the temporary (registered output) *)
  cm_cells : int array;
  mutable cm_addr : int;
  mutable cm_op : int;
  mutable cm_snap : unit -> unit;
  mutable cm_update : unit -> unit;
}

let compile_memory ctx ~config ~stats (c_name : string) (m : Component.memory) =
  let id = component_id ctx c_name in
  let cells =
    match m.init with Some values -> Array.copy values | None -> Array.make m.cells 0
  in
  let addr = force (compile_expr ctx m.addr) in
  let op_c = compile_expr ctx m.op in
  let data = force (compile_expr ctx m.data) in
  let vals = ctx.vals and cycle = ctx.cycle in
  let ncells = Array.length cells in
  let io = config.Machine.io and trace = config.Machine.trace in
  let check_address a =
    if a < 0 || a >= ncells then
      Machine.address_out_of_range ~component:c_name ~cycle:!cycle ~address:a ~cells:ncells
  in
  let rec cm =
    {
      cm_name = c_name;
      cm_id = id;
      cm_cells = cells;
      cm_addr = 0;
      cm_op = 0;
      cm_snap = (fun () -> ());
      cm_update = (fun () -> ());
    }
  and do_read () =
    let a = cm.cm_addr in
    check_address a;
    vals.(id) <- cells.(a);
    Stats.count_op stats c_name Component.Op_read
  and do_write () =
    let a = cm.cm_addr in
    check_address a;
    let v = data () in
    vals.(id) <- v;
    cells.(a) <- v;
    Stats.count_op stats c_name Component.Op_write
  and do_input () =
    vals.(id) <- io.Io.input ~address:cm.cm_addr;
    Stats.count_op stats c_name Component.Op_input
  and do_output () =
    let v = data () in
    vals.(id) <- v;
    io.Io.output ~address:cm.cm_addr ~data:v;
    Stats.count_op stats c_name Component.Op_output
  in
  let action_of = function
    | Component.Op_read -> do_read
    | Component.Op_write -> do_write
    | Component.Op_input -> do_input
    | Component.Op_output -> do_output
  in
  let trace_write () =
    trace (Trace.write_line ~memory:c_name ~address:cm.cm_addr ~data:vals.(id))
  in
  let trace_read () =
    trace (Trace.read_line ~memory:c_name ~address:cm.cm_addr ~data:vals.(id))
  in
  let update =
    match (ctx.fold, value_of op_c) with
    | true, Some op ->
        (* §4.4: constant operation — no runtime case dispatch, and the
           trace decision is made now. *)
        let action = action_of (Component.memory_op_of_code op) in
        let steps =
          [ Some action;
            (if Component.traces_writes op then Some trace_write else None);
            (if Component.traces_reads op then Some trace_read else None) ]
          |> List.filter_map Fun.id
        in
        (match steps with
        | [ f ] -> f
        | fs -> fun () -> List.iter (fun f -> f ()) fs)
    | _ ->
        fun () ->
          let op = cm.cm_op in
          (action_of (Component.memory_op_of_code op)) ();
          if Component.traces_writes op then trace_write ();
          if Component.traces_reads op then trace_read ()
  in
  (* Address and operation are snapshotted before any memory latches
     (§4.3 step 3); only the data expression is evaluated live. *)
  let snap =
    match (ctx.fold, value_of op_c) with
    | true, Some _ -> fun () -> cm.cm_addr <- addr ()
    | _ ->
        let op_f = force op_c in
        fun () ->
          cm.cm_addr <- addr ();
          cm.cm_op <- op_f ()
  in
  cm.cm_snap <- snap;
  cm.cm_update <- update;
  cm

let create ?(config = Machine.default_config) ?(optimize = true) ?prof
    (analysis : Asim_analysis.Analysis.t) =
  let spec = analysis.Asim_analysis.Analysis.spec in
  let components = spec.Spec.components in
  let ids = Hashtbl.create 64 in
  List.iteri (fun i (c : Component.t) -> Hashtbl.replace ids c.name i) components;
  let vals = Array.make (List.length components) 0 in
  let cycle = ref 0 in
  let ctx = { ids; vals; cycle; fold = optimize } in
  (* Profiling is decided at compile time: instrumented closures are only
     built when a profile is attached, so the off path is the same closure
     graph as always. *)
  let config =
    match prof with
    | None -> config
    | Some p ->
        { config with Machine.io = Asim_prof.Prof.instrument_io p config.Machine.io }
  in
  let stats =
    Stats.create
      ~memories:
        (List.map
           (fun (c : Component.t) -> c.name)
           analysis.Asim_analysis.Analysis.memories)
  in
  (match prof with
  | None -> ()
  | Some p ->
      Asim_prof.Prof.attach_stats p stats;
      p.Asim_prof.Prof.engine <- "compiled");
  let count_fault =
    match prof with
    | None -> fun (_ : int) -> ()
    | Some p ->
        let pf = p.Asim_prof.Prof.faults in
        fun id -> pf.(id) <- pf.(id) + 1
  in
  let count_eval =
    match prof with
    | None -> fun _ f -> f
    | Some p ->
        let pe = p.Asim_prof.Prof.evals in
        fun id f () ->
          f ();
          pe.(id) <- pe.(id) + 1
  in
  let fault_targets = Fault.targets config.Machine.faults in
  let with_fault name f =
    if List.mem name fault_targets then (fun () ->
      f ();
      let id = component_id ctx name in
      let old = vals.(id) in
      let v =
        Fault.apply config.Machine.faults ~cycle:!cycle ~component:name old
      in
      if v <> old then count_fault id;
      vals.(id) <- v)
    else f
  in
  (* Combinational steps, in dependency order. *)
  let comb_steps =
    analysis.Asim_analysis.Analysis.order
    |> List.map (fun (c : Component.t) ->
           let id = component_id ctx c.name in
           let body =
             match c.kind with
             | Component.Alu alu -> compile_alu ctx c.name alu
             | Component.Selector sel -> compile_selector ctx c.name sel
             | Component.Memory _ -> assert false
           in
           with_fault c.name (count_eval id (fun () -> vals.(id) <- body ())))
    |> Array.of_list
  in
  let memories =
    List.map
      (fun (c : Component.t) ->
        match c.kind with
        | Component.Memory m ->
            let cm = compile_memory ctx ~config ~stats c.name m in
            { cm with cm_update = with_fault c.name cm.cm_update }
        | Component.Alu _ | Component.Selector _ -> assert false)
      analysis.Asim_analysis.Analysis.memories
    |> Array.of_list
  in
  (* Trace emitter for the per-cycle line. *)
  let trace = config.Machine.trace in
  let traced =
    Spec.traced_names spec
    |> List.map (fun name -> (name, component_id ctx name))
    |> Array.of_list
  in
  let emit_cycle_line =
    if trace == Trace.null_sink then fun () -> ()
    else fun () ->
      trace
        (Trace.cycle_line ~cycle:!cycle
           (Array.to_list (Array.map (fun (name, id) -> (name, vals.(id))) traced)))
  in
  let n_mem = Array.length memories in
  let bump_prof =
    match prof with
    | None -> fun () -> ()
    | Some p -> fun () -> p.Asim_prof.Prof.cycles <- p.Asim_prof.Prof.cycles + 1
  in
  let step () =
    Array.iter (fun f -> f ()) comb_steps;
    emit_cycle_line ();
    for i = 0 to n_mem - 1 do
      memories.(i).cm_snap ()
    done;
    for i = 0 to n_mem - 1 do
      memories.(i).cm_update ()
    done;
    bump_prof ();
    incr cycle;
    Stats.bump_cycle stats
  in
  let memory_by_name name =
    match Array.find_opt (fun cm -> String.equal cm.cm_name name) memories with
    | Some cm -> cm
    | None -> Error.failf Error.Runtime "Component <%s> is not a memory." name
  in
  let read_cell name index =
    let cm = memory_by_name name in
    if index < 0 || index >= Array.length cm.cm_cells then
      invalid_arg "Compile: cell index out of range"
    else cm.cm_cells.(index)
  in
  let write_cell name index value =
    let cm = memory_by_name name in
    if index < 0 || index >= Array.length cm.cm_cells then
      invalid_arg "Compile: cell index out of range"
    else cm.cm_cells.(index) <- value
  in
  {
    Machine.analysis;
    step;
    read = (fun name -> vals.(component_id ctx name));
    read_cell;
    write_cell;
    current_cycle = (fun () -> !cycle);
    stats;
  }
