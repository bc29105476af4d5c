open Asim_core
open Asim_sim

(* One lowered term, with the component name resolved to a value slot.  A
   [mask] of 0 with [whole = true] means "no masking" (a filling reference);
   its shift is always >= 0 because filling atoms are leftmost. *)
type term =
  | Tconst of int
  | Tfield of { id : int; mask : int; whole : bool; shift : int }

type prog = term array

type mem = {
  mm_name : string;
  mm_id : int;
  mm_addr : prog;
  mm_data : prog;
  mm_op : prog;
  mm_cells : int array;
  mutable mm_addr_snap : int;
  mutable mm_op_snap : int;
}

type comb =
  | Lalu of { l_name : string; l_id : int; l_fn : prog; l_left : prog; l_right : prog }
  | Lsel of { l_name : string; l_id : int; l_select : prog; l_cases : prog array }

type state = {
  config : Machine.config;
  stats : Stats.t;
  vals : int array;
  combs : comb array;
  mems : mem array;
  traced : (string * int) array;
  has_faults : bool;
  mutable cycle : int;
}

let compile_expr ids e : prog =
  let slot name =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None -> Error.failf Error.Analysis "Component <%s> not found." name
  in
  Lower.lower e
  |> List.map (function
       | Lower.Const c -> Tconst c
       | Lower.Whole { name; at } ->
           Tfield { id = slot name; mask = 0; whole = true; shift = at }
       | Lower.Field { name; lo; hi; at } ->
           let mask = Bits.field_mask ~lo ~hi in
           Tfield { id = slot name; mask; whole = false; shift = at - lo })
  |> Array.of_list

let eval st (p : prog) =
  let acc = ref 0 in
  for i = 0 to Array.length p - 1 do
    match p.(i) with
    | Tconst c -> acc := !acc + c
    | Tfield { id; mask; whole; shift } ->
        let v = st.vals.(id) in
        let v = if whole then v else v land mask in
        let v = if shift >= 0 then v lsl shift else v lsr -shift in
        acc := !acc + v
  done;
  !acc

let fault st name value =
  if st.has_faults then
    Fault.apply st.config.Machine.faults ~cycle:st.cycle ~component:name value
  else value

let eval_comb st = function
  | Lalu { l_name; l_id; l_fn; l_left; l_right } ->
      let v =
        Component.apply_alu_code (eval st l_fn) ~left:(eval st l_left)
          ~right:(eval st l_right)
      in
      st.vals.(l_id) <- fault st l_name v
  | Lsel { l_name; l_id; l_select; l_cases } ->
      let index = eval st l_select in
      if index < 0 || index >= Array.length l_cases then
        Machine.selector_out_of_range ~component:l_name ~cycle:st.cycle ~index
          ~cases:(Array.length l_cases)
      else st.vals.(l_id) <- fault st l_name (eval st l_cases.(index))

let update_memory st m =
  let address = m.mm_addr_snap and op = m.mm_op_snap in
  let check_address () =
    if address < 0 || address >= Array.length m.mm_cells then
      Machine.address_out_of_range ~component:m.mm_name ~cycle:st.cycle ~address
        ~cells:(Array.length m.mm_cells)
  in
  let kind = Component.memory_op_of_code op in
  (match kind with
  | Component.Op_read ->
      check_address ();
      st.vals.(m.mm_id) <- m.mm_cells.(address)
  | Component.Op_write ->
      check_address ();
      st.vals.(m.mm_id) <- eval st m.mm_data;
      m.mm_cells.(address) <- st.vals.(m.mm_id)
  | Component.Op_input -> st.vals.(m.mm_id) <- st.config.Machine.io.Io.input ~address
  | Component.Op_output ->
      st.vals.(m.mm_id) <- eval st m.mm_data;
      st.config.Machine.io.Io.output ~address ~data:st.vals.(m.mm_id));
  Stats.count_op st.stats m.mm_name kind;
  if Component.traces_writes op then
    st.config.Machine.trace
      (Trace.write_line ~memory:m.mm_name ~address ~data:st.vals.(m.mm_id));
  if Component.traces_reads op then
    st.config.Machine.trace
      (Trace.read_line ~memory:m.mm_name ~address ~data:st.vals.(m.mm_id));
  st.vals.(m.mm_id) <- fault st m.mm_name st.vals.(m.mm_id)

let step st () =
  Array.iter (eval_comb st) st.combs;
  if st.config.Machine.trace != Trace.null_sink then
    st.config.Machine.trace
      (Trace.cycle_line ~cycle:st.cycle
         (Array.to_list
            (Array.map (fun (name, id) -> (name, st.vals.(id))) st.traced)));
  Array.iter
    (fun m ->
      m.mm_addr_snap <- eval st m.mm_addr;
      m.mm_op_snap <- eval st m.mm_op)
    st.mems;
  Array.iter (update_memory st) st.mems;
  st.cycle <- st.cycle + 1;
  Stats.bump_cycle st.stats

let create ?(config = Machine.default_config) (analysis : Asim_analysis.Analysis.t) =
  let spec = analysis.Asim_analysis.Analysis.spec in
  let components = spec.Spec.components in
  let ids = Hashtbl.create 64 in
  List.iteri (fun i (c : Component.t) -> Hashtbl.replace ids c.name i) components;
  let id name = Hashtbl.find ids name in
  let combs =
    analysis.Asim_analysis.Analysis.order
    |> List.map (fun (c : Component.t) ->
           match c.kind with
           | Component.Alu { fn; left; right } ->
               Lalu
                 {
                   l_name = c.name;
                   l_id = id c.name;
                   l_fn = compile_expr ids fn;
                   l_left = compile_expr ids left;
                   l_right = compile_expr ids right;
                 }
           | Component.Selector { select; cases } ->
               Lsel
                 {
                   l_name = c.name;
                   l_id = id c.name;
                   l_select = compile_expr ids select;
                   l_cases = Array.map (compile_expr ids) cases;
                 }
           | Component.Memory _ -> assert false)
    |> Array.of_list
  in
  let mems =
    analysis.Asim_analysis.Analysis.memories
    |> List.map (fun (c : Component.t) ->
           match c.kind with
           | Component.Memory m ->
               {
                 mm_name = c.name;
                 mm_id = id c.name;
                 mm_addr = compile_expr ids m.addr;
                 mm_data = compile_expr ids m.data;
                 mm_op = compile_expr ids m.op;
                 mm_cells =
                   (match m.init with
                   | Some values -> Array.copy values
                   | None -> Array.make m.cells 0);
                 mm_addr_snap = 0;
                 mm_op_snap = 0;
               }
           | Component.Alu _ | Component.Selector _ -> assert false)
    |> Array.of_list
  in
  let st =
    {
      config;
      stats =
        Stats.create
          ~memories:(Array.to_list (Array.map (fun m -> m.mm_name) mems));
      vals = Array.make (List.length components) 0;
      combs;
      mems;
      traced =
        Spec.traced_names spec
        |> List.map (fun name -> (name, id name))
        |> Array.of_list;
      has_faults = config.Machine.faults <> [];
      cycle = 0;
    }
  in
  let memory_by_name name =
    match Array.find_opt (fun m -> String.equal m.mm_name name) mems with
    | Some m -> m
    | None -> Error.failf Error.Runtime "Component <%s> is not a memory." name
  in
  let read_cell name index =
    let m = memory_by_name name in
    if index < 0 || index >= Array.length m.mm_cells then
      invalid_arg "Loweval: cell index out of range"
    else m.mm_cells.(index)
  in
  let write_cell name index value =
    let m = memory_by_name name in
    if index < 0 || index >= Array.length m.mm_cells then
      invalid_arg "Loweval: cell index out of range"
    else m.mm_cells.(index) <- value
  in
  let read name =
    match Hashtbl.find_opt ids name with
    | Some i -> st.vals.(i)
    | None -> Error.failf Error.Runtime "Component <%s> not found." name
  in
  {
    Machine.analysis;
    step = step st;
    read;
    read_cell;
    write_cell;
    current_cycle = (fun () -> st.cycle);
    stats = st.stats;
  }

let of_spec ?config spec = create ?config (Asim_analysis.Analysis.analyze spec)
