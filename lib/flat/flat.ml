open Asim_core
open Asim_sim

(* --- the instruction set ------------------------------------------------ *)
(* A flat program is one int array: an opcode word followed by its operands
   inline.  Evaluation threads three registers through a tail-recursive
   dispatch ([acc] — the running sum of the current expression, [tmp] — the
   saved left operand, [tmp2] — the saved ALU function code), so an
   expression block is

     CONST k; <one term op per reference>; ...

   leaving the expression value in [acc], and a component block ends in RET
   (or jumps through SEL into a case block that does).  Every name, bit
   field and width is already an index, mask or shift count. *)

let op_ret = 0 (* -> acc *)
let op_const = 1 (* v                acc <- v *)
let op_term = 2 (* src mask          acc += vals.(src) land mask *)
let op_term_lsl = 3 (* src mask s    acc += (vals.(src) land mask) lsl s *)
let op_term_lsr = 4 (* src mask s    acc += (vals.(src) land mask) lsr s *)
let op_whole = 5 (* src              acc += vals.(src) *)
let op_whole_lsl = 6 (* src s        acc += vals.(src) lsl s *)
let op_save = 7 (* tmp <- acc *)
let op_save2 = 8 (* tmp2 <- acc *)
let op_not = 9 (* acc <- mask - acc *)
let op_add = 10 (* acc <- tmp + acc *)
let op_sub = 11 (* acc <- tmp - acc *)
let op_shl = 12 (* acc <- shift_left_masked tmp acc *)
let op_mul = 13 (* acc <- tmp * acc *)
let op_and = 14 (* acc <- tmp land acc *)
let op_or = 15 (* acc <- tmp + acc - (tmp land acc) *)
let op_xor = 16 (* acc <- tmp + acc - 2*(tmp land acc) *)
let op_eq = 17 (* acc <- tmp = acc *)
let op_lt = 18 (* acc <- tmp < acc *)
let op_dyn = 19 (* acc <- dologic tmp2 tmp acc *)
let op_sel = 20 (* comp_id ncases pc0 .. pc_{n-1}; jump on acc *)

type emitter = { mutable buf : int array; mutable len : int }

let emitter () = { buf = Array.make 256 0; len = 0 }

let emit e v =
  (if e.len = Array.length e.buf then (
     let bigger = Array.make (2 * Array.length e.buf) 0 in
     Array.blit e.buf 0 bigger 0 e.len;
     e.buf <- bigger));
  e.buf.(e.len) <- v;
  e.len <- e.len + 1

(* --- expressions --------------------------------------------------------- *)

let component_id ids name =
  match Hashtbl.find_opt ids name with
  | Some id -> id
  | None -> Error.failf Error.Analysis "Component <%s> not found." name

(* One lowered field with its name resolved to a state slot.  [t_mask = -1]
   encodes a whole-word reference (no masking); a negative [t_shift] means
   shift right by [-t_shift]. *)
type term = { t_src : int; t_mask : int; t_shift : int }

(* The expression value is [const + sum of terms].  Consing over
   [Lower.lower]'s most-significant-first fields leaves the terms least
   significant first, the order the kernel sums them in. *)
let resolve ids (expr : Expr.t) =
  List.fold_left
    (fun (const, terms) -> function
      | Lower.Const c -> (const + c, terms)
      | Lower.Whole { name; at } ->
          (const, { t_src = component_id ids name; t_mask = -1; t_shift = at } :: terms)
      | Lower.Field { name; lo; hi; at } ->
          let t_src = component_id ids name in
          (const, { t_src; t_mask = Bits.field_mask ~lo ~hi; t_shift = at - lo } :: terms))
    (0, []) (Lower.lower expr)

(* Emit-time rewrite: fuse adjacent term loads of the same source with the
   same placement shift into one masked load.  The classic producer is a
   concatenation reassembling neighboring fields of one register
   ([x<7:4> & x<3:0>]): both atoms land at the same shift, so
   [(v land m1) <<s + (v land m2) <<s] becomes [(v land (m1 lor m2)) <<s].
   [Lower.lower]'s output makes that safe without testing the masks.  Its
   atoms occupy disjoint bits of the result, and a field's source bits are
   its result bits moved by its shift, so two fields with equal shifts have
   disjoint masks: the sum of the parts is their union, with no carries, and
   disjointness survives a right shift.  A whole-word term (mask -1) is
   always the leftmost atom, above every field, so its shift [at] exceeds
   every field's [at - lo] and it never fuses.  test_lower runs this on
   every expression of 1–3 atoms.  The optimizer leaves traced and kept
   components verbatim, so this still fires at -O2. *)
let fuse_terms terms =
  let rec go = function
    | ({ t_src = s1; t_mask = m1; t_shift = sh1 } as a)
      :: ({ t_src = s2; t_mask = m2; t_shift = sh2 } :: rest as tail) ->
        if s1 = s2 && sh1 = sh2 then go ({ a with t_mask = m1 lor m2 } :: rest)
        else a :: go tail
    | terms -> terms
  in
  go terms

(* Emit a resolved expression; the block leaves its value in [acc].  Every
   referenced slot is appended to [refs] (the dependency edges the activity
   scheduler wires up). *)
let emit_resolved e refs (const, terms) =
  emit e op_const;
  emit e const;
  List.iter
    (fun { t_src; t_mask; t_shift } ->
      refs := t_src :: !refs;
      if t_mask < 0 then
        if t_shift = 0 then (
          emit e op_whole;
          emit e t_src)
        else (
          emit e op_whole_lsl;
          emit e t_src;
          emit e t_shift)
      else if t_shift = 0 then (
        emit e op_term;
        emit e t_src;
        emit e t_mask)
      else if t_shift > 0 then (
        emit e op_term_lsl;
        emit e t_src;
        emit e t_mask;
        emit e t_shift)
      else (
        emit e op_term_lsr;
        emit e t_src;
        emit e t_mask;
        emit e (-t_shift)))
    (fuse_terms terms)

let emit_expr e ids refs expr = emit_resolved e refs (resolve ids expr)

(* --- component blocks --------------------------------------------------- *)

let emit_alu e ids refs (alu : Component.alu) =
  (* Both operands are resolved unconditionally so missing-name errors
     surface at compile time exactly as in [Asim_compile]; only the
     operands an ALU function actually consumes are emitted (and hence
     scheduled on). *)
  let rl = resolve ids alu.left and rr = resolve ids alu.right in
  let use resolved = emit_resolved e refs resolved in
  let binary op =
    use rl;
    emit e op_save;
    use rr;
    emit e op;
    emit e op_ret
  in
  match Lower.alu_const_function alu with
  | Some fn -> (
      (* §4.4: constant function — specialize the operation inline. *)
      match fn with
      | Component.Fn_zero | Component.Fn_unused ->
          emit e op_const;
          emit e 0;
          emit e op_ret
      | Component.Fn_right ->
          use rr;
          emit e op_ret
      | Component.Fn_left ->
          use rl;
          emit e op_ret
      | Component.Fn_not ->
          use rl;
          emit e op_not;
          emit e op_ret
      | Component.Fn_add -> binary op_add
      | Component.Fn_sub -> binary op_sub
      | Component.Fn_shift_left -> binary op_shl
      | Component.Fn_mul -> binary op_mul
      | Component.Fn_and -> binary op_and
      | Component.Fn_or -> binary op_or
      | Component.Fn_xor -> binary op_xor
      | Component.Fn_eq -> binary op_eq
      | Component.Fn_lt -> binary op_lt)
  | None ->
      emit_expr e ids refs alu.fn;
      emit e op_save2;
      use rl;
      emit e op_save;
      use rr;
      emit e op_dyn;
      emit e op_ret

let emit_selector e ids refs comp_id ({ select; cases } : Component.selector) =
  match Lower.lower select with
  | [ Lower.Const c ] when c >= 0 && c < Array.length cases ->
      (* Emit-time rewrite: the control input is a compile-time constant in
         range, so the dispatch (and every dead case block) folds away.  An
         out-of-range constant keeps the op_sel so the runtime range error
         still raises every cycle. *)
      emit_expr e ids refs cases.(c);
      emit e op_ret
  | _ ->
      emit_expr e ids refs select;
      emit e op_sel;
      emit e comp_id;
      let n = Array.length cases in
      emit e n;
      let slots = e.len in
      for _ = 1 to n do
        emit e 0
      done;
      Array.iteri
        (fun i case ->
          e.buf.(slots + i) <- e.len;
          emit_expr e ids refs case;
          emit e op_ret)
        cases

(* --- compiled program --------------------------------------------------- *)

type mem_desc = {
  m_id : int;  (** slot of the registered output *)
  m_name : string;
  m_addr_pc : int;
  m_op_pc : int;
  m_data_pc : int;
  m_off : int;  (** offset into the shared cell array *)
  m_len : int;  (** number of cells *)
  m_init : int array option;
  m_reads : int list;  (** the slots the three blocks read, once per reference *)
}

type program = {
  p_code : int array;
  p_names : string array;  (** by component slot *)
  p_ids : (string, int) Hashtbl.t;
  p_comb_entry : int array;  (** block entry pc, by evaluation-order position *)
  p_comb_id : int array;  (** output slot, by evaluation-order position *)
  p_mems : mem_desc array;  (** in declaration order *)
  p_cells_len : int;
  p_deps : int array;
      (** concatenated dependent positions: the evaluation-order positions of
          every combinational component reading a given slot *)
  p_dep_off : int array;  (** by producer slot *)
  p_dep_len : int array;  (** by producer slot *)
}

let compile ?(tracer = Asim_obs.Tracer.null) ?slots ?comb_order
    (analysis : Asim_analysis.Analysis.t) =
  let spec = analysis.Asim_analysis.Analysis.spec in
  let components = spec.Spec.components in
  let ncomp = List.length components in
  Asim_obs.Tracer.span tracer
    ~args:[ ("components", string_of_int ncomp) ]
    "codegen.flat.compile"
  @@ fun () ->
  (* [slots] overrides the name → state-slot assignment (default:
     declaration order) and [comb_order] the combinational evaluation order
     (default: the analysis's topological order).  The partitioned engine
     uses both to lay each partition's slots and code out contiguously; a
     custom order must still be a valid dependency order, and a custom slot
     table must be a bijection onto [0 .. ncomp-1]. *)
  let ids =
    match slots with
    | Some ids -> ids
    | None ->
        let ids = Hashtbl.create (max 16 ncomp) in
        List.iteri
          (fun i (c : Component.t) -> Hashtbl.replace ids c.name i)
          components;
        ids
  in
  let names = Array.make (max 1 ncomp) "" in
  List.iter
    (fun (c : Component.t) -> names.(component_id ids c.name) <- c.name)
    components;
  let order =
    match comb_order with
    | Some order -> order
    | None -> analysis.Asim_analysis.Analysis.order
  in
  let ncomb = List.length order in
  let comb_entry = Array.make ncomb 0 in
  let comb_id = Array.make ncomb 0 in
  let dependents = Array.make ncomp [] in
  let e = emitter () in
  List.iteri
    (fun pos (c : Component.t) ->
      comb_entry.(pos) <- e.len;
      let id = component_id ids c.name in
      comb_id.(pos) <- id;
      let refs = ref [] in
      (match c.kind with
      | Component.Alu alu -> emit_alu e ids refs alu
      | Component.Selector sel -> emit_selector e ids refs id sel
      | Component.Memory _ -> assert false);
      List.sort_uniq compare !refs
      |> List.iter (fun src -> dependents.(src) <- pos :: dependents.(src)))
    order;
  (* A memory's reads are kept with its blocks rather than in the
     combinational dependency table, which par reads as positions. *)
  let off = ref 0 in
  let mems =
    analysis.Asim_analysis.Analysis.memories
    |> List.map (fun (c : Component.t) ->
           match c.kind with
           | Component.Memory m ->
               let refs = ref [] in
               let addr_pc = e.len in
               emit_expr e ids refs m.addr;
               emit e op_ret;
               let op_pc = e.len in
               emit_expr e ids refs m.op;
               emit e op_ret;
               let data_pc = e.len in
               emit_expr e ids refs m.data;
               emit e op_ret;
               let d =
                 {
                   m_id = component_id ids c.name;
                   m_name = c.name;
                   m_addr_pc = addr_pc;
                   m_op_pc = op_pc;
                   m_data_pc = data_pc;
                   m_off = !off;
                   m_len = m.cells;
                   m_init = m.init;
                   m_reads = !refs;
                 }
               in
               off := !off + m.cells;
               d
           | Component.Alu _ | Component.Selector _ -> assert false)
    |> Array.of_list
  in
  let dep_off = Array.make ncomp 0 and dep_len = Array.make ncomp 0 in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 dependents in
  let deps = Array.make (max 1 total) 0 in
  let cursor = ref 0 in
  Array.iteri
    (fun id l ->
      dep_off.(id) <- !cursor;
      dep_len.(id) <- List.length l;
      List.iter
        (fun pos ->
          deps.(!cursor) <- pos;
          incr cursor)
        l)
    dependents;
  {
    p_code = Array.sub e.buf 0 e.len;
    p_names = names;
    p_ids = ids;
    p_comb_entry = comb_entry;
    p_comb_id = comb_id;
    p_mems = mems;
    p_cells_len = !off;
    p_deps = deps;
    p_dep_off = dep_off;
    p_dep_len = dep_len;
  }

let program_size analysis = Array.length (compile analysis).p_code

(* --- the evaluator ------------------------------------------------------ *)

(* The kernel: all-int state threaded through tail calls, no allocation.
   Shared by the flat machine below and by every domain of the partitioned
   engine ([Asim_par]), each over its own [vals] array. *)
let make_exec (p : program) ~(vals : int array) ~(cycle : int ref) =
  let code = p.p_code and names = p.p_names in
  let rec exec pc acc tmp tmp2 =
    match Array.unsafe_get code pc with
    | 0 (* ret *) -> acc
    | 1 (* const *) -> exec (pc + 2) (Array.unsafe_get code (pc + 1)) tmp tmp2
    | 2 (* term *) ->
        let src = Array.unsafe_get code (pc + 1) in
        let m = Array.unsafe_get code (pc + 2) in
        exec (pc + 3) (acc + (Array.unsafe_get vals src land m)) tmp tmp2
    | 3 (* term lsl *) ->
        let src = Array.unsafe_get code (pc + 1) in
        let m = Array.unsafe_get code (pc + 2) in
        let s = Array.unsafe_get code (pc + 3) in
        exec (pc + 4) (acc + ((Array.unsafe_get vals src land m) lsl s)) tmp tmp2
    | 4 (* term lsr *) ->
        let src = Array.unsafe_get code (pc + 1) in
        let m = Array.unsafe_get code (pc + 2) in
        let s = Array.unsafe_get code (pc + 3) in
        exec (pc + 4) (acc + ((Array.unsafe_get vals src land m) lsr s)) tmp tmp2
    | 5 (* whole *) ->
        exec (pc + 2)
          (acc + Array.unsafe_get vals (Array.unsafe_get code (pc + 1)))
          tmp tmp2
    | 6 (* whole lsl *) ->
        let src = Array.unsafe_get code (pc + 1) in
        let s = Array.unsafe_get code (pc + 2) in
        exec (pc + 3) (acc + (Array.unsafe_get vals src lsl s)) tmp tmp2
    | 7 (* save *) -> exec (pc + 1) acc acc tmp2
    | 8 (* save2 *) -> exec (pc + 1) acc tmp acc
    | 9 (* not *) -> exec (pc + 1) (Bits.mask - acc) tmp tmp2
    | 10 (* add *) -> exec (pc + 1) (tmp + acc) tmp tmp2
    | 11 (* sub *) -> exec (pc + 1) (tmp - acc) tmp tmp2
    | 12 (* shl *) -> exec (pc + 1) (Bits.shift_left_masked tmp acc) tmp tmp2
    | 13 (* mul *) -> exec (pc + 1) (tmp * acc) tmp tmp2
    | 14 (* and *) -> exec (pc + 1) (tmp land acc) tmp tmp2
    | 15 (* or *) -> exec (pc + 1) (tmp + acc - (tmp land acc)) tmp tmp2
    | 16 (* xor *) -> exec (pc + 1) (tmp + acc - (2 * (tmp land acc))) tmp tmp2
    | 17 (* eq *) -> exec (pc + 1) (if tmp = acc then 1 else 0) tmp tmp2
    | 18 (* lt *) -> exec (pc + 1) (if tmp < acc then 1 else 0) tmp tmp2
    | 19 (* dyn *) ->
        exec (pc + 1) (Component.apply_alu_code tmp2 ~left:tmp ~right:acc) tmp tmp2
    | 20 (* sel *) ->
        let n = Array.unsafe_get code (pc + 2) in
        if acc < 0 || acc >= n then
          Machine.selector_out_of_range
            ~component:(Array.unsafe_get names (Array.unsafe_get code (pc + 1)))
            ~cycle:!cycle ~index:acc ~cases:n
        else exec (Array.unsafe_get code (pc + 3 + acc)) 0 tmp tmp2
    | _ -> assert false
  in
  exec

(* --- the machine -------------------------------------------------------- *)

let create_debug ?(config = Machine.default_config)
    ?(tracer = Asim_obs.Tracer.null) ?prof
    (analysis : Asim_analysis.Analysis.t) =
  let module Prof = Asim_prof.Prof in
  let module A = Asim_analysis.Analysis in
  let module T = Asim_obs.Tracer in
  let p = T.span tracer "codegen.flat.emit" (fun () -> compile ~tracer analysis) in
  let code = p.p_code in
  let names = p.p_names in
  let ncomp = Array.length names in
  let ncomb = Array.length p.p_comb_entry in
  let nmem = Array.length p.p_mems in
  let vals, cells, maddr, mop =
    T.span tracer
      ~args:
        [
          ("words", string_of_int (Array.length code));
          ("slots", string_of_int ncomp);
          ("cells", string_of_int p.p_cells_len);
        ]
      "codegen.flat.layout"
      (fun () ->
        let vals = Array.make (max 1 ncomp) 0 in
        let cells = Array.make (max 1 p.p_cells_len) 0 in
        Array.iter
          (fun m ->
            match m.m_init with
            | Some init -> Array.blit init 0 cells m.m_off (Array.length init)
            | None -> ())
          p.p_mems;
        (vals, cells, Array.make (max 1 nmem) 0, Array.make (max 1 nmem) 0))
  in
  T.span tracer "codegen.flat.wire" @@ fun () ->
  let cycle = ref 0 in
  let stats =
    Stats.create
      ~memories:(Array.to_list (Array.map (fun m -> m.m_name) p.p_mems))
  in
  (* Profiling is wired at construction time: with [?prof] absent every
     closure below is exactly the uninstrumented one — the off path carries
     no per-cycle branch at all (the zero-allocation test pins this). *)
  (match prof with
  | None -> ()
  | Some pr ->
      Prof.attach_stats pr stats;
      pr.Prof.engine <- "flat";
      (* Static cost model: flat-program words per component.  Blocks are
         laid out combinational (evaluation order) then memories
         (declaration order), so each block ends where the next begins. *)
      let code_len = Array.length code in
      for i = 0 to ncomb - 1 do
        let stop =
          if i + 1 < ncomb then p.p_comb_entry.(i + 1)
          else if nmem > 0 then p.p_mems.(0).m_addr_pc
          else code_len
        in
        pr.Prof.words.(p.p_comb_id.(i)) <- stop - p.p_comb_entry.(i)
      done;
      Array.iteri
        (fun k m ->
          let stop =
            if k + 1 < nmem then p.p_mems.(k + 1).m_addr_pc else code_len
          in
          pr.Prof.words.(m.m_id) <- stop - m.m_addr_pc)
        p.p_mems);
  let io =
    match prof with
    | None -> config.Machine.io
    | Some pr -> Prof.instrument_io pr config.Machine.io
  in
  let count_fault =
    match prof with
    | None -> fun (_ : int) -> ()
    | Some pr ->
        let pf = pr.Prof.faults in
        fun id -> Array.unsafe_set pf id (Array.unsafe_get pf id + 1)
  in
  let trace = config.Machine.trace in
  let trace_active = not (trace == Trace.null_sink) in
  let faults = config.Machine.faults in
  let fault_targets = Fault.targets faults in
  let comb_id = p.p_comb_id and comb_entry = p.p_comb_entry in
  let dep_off = p.p_dep_off and dep_len = p.p_dep_len and deps = p.p_deps in
  (* Two activity levels: a dirty byte per combinational position and an
     active byte per supernode.  A mark sets both, so a supernode with a
     dirty position is always active and a clear one is skipped with one
     test.  Each memory's dirty byte follows the supernodes' bytes in
     [active] (memory [k] at [nsuper + k]).  Everything starts dirty and
     active; a faulted component is pinned dirty and its supernode pinned
     active, so a cycle-windowed fault keeps firing even over quiescent
     logic. *)
  let nsuper = A.supernodes ncomb in
  let dirty = Bytes.make (max 1 ncomb) '\001' in
  let comb_fault = Bytes.make (max 1 ncomb) '\000' in
  let active = Bytes.make (max 1 (nsuper + nmem)) '\001' in
  let pinned = Bytes.make (max 1 nsuper) '\000' in
  for i = 0 to ncomb - 1 do
    if List.mem names.(comb_id.(i)) fault_targets then begin
      Bytes.set comb_fault i '\001';
      Bytes.set pinned (A.supernode i) '\001'
    end
  done;
  (* The [active] bytes each slot's wake-up sets, laid out like [p_deps]:
     the distinct supernodes of its dependents, then the memories whose
     blocks read it.  A wake-up sets each supernode byte once, however many
     of the slot's dependents it holds; on a spec of one supernode that is
     one store per wake-up instead of one per dependent. *)
  let mem_readers = Array.make (max 1 ncomp) [] in
  Array.iteri
    (fun k m ->
      List.iter
        (fun s ->
          match mem_readers.(s) with
          | b :: _ when b = nsuper + k -> () (* read again by the same memory *)
          | l -> mem_readers.(s) <- (nsuper + k) :: l)
        m.m_reads)
    p.p_mems;
  let nreads = Array.fold_left (fun acc m -> acc + List.length m.m_reads) 0 p.p_mems in
  let mark_off = Array.make (max 1 ncomp) 0 and mark_len = Array.make (max 1 ncomp) 0 in
  let marks = Array.make (max 1 (Array.length deps + nreads)) 0 in
  let seen_by = Array.make (max 1 nsuper) (-1) in
  let n = ref 0 in
  let add b =
    marks.(!n) <- b;
    incr n
  in
  for id = 0 to ncomp - 1 do
    mark_off.(id) <- !n;
    for j = dep_off.(id) to dep_off.(id) + dep_len.(id) - 1 do
      let s = A.supernode deps.(j) in
      if seen_by.(s) <> id then begin
        seen_by.(s) <- id;
        add s
      end
    done;
    List.iter add mem_readers.(id);
    mark_len.(id) <- !n - mark_off.(id)
  done;
  (* Inlined at every marking site: a call per wake-up costs a small spec
     about 5% of its cycle. *)
  let[@inline] wake id =
    let o = Array.unsafe_get dep_off id in
    for j = o to o + Array.unsafe_get dep_len id - 1 do
      Bytes.unsafe_set dirty (Array.unsafe_get deps j) '\001'
    done;
    let o = Array.unsafe_get mark_off id in
    for j = o to o + Array.unsafe_get mark_len id - 1 do
      Bytes.unsafe_set active (Array.unsafe_get marks j) '\001'
    done
  in
  (* Supernode [s] holds positions [s * A.supernode_size .. last s]. *)
  let[@inline] last s =
    let stop = (s + 1) * A.supernode_size in
    (if stop > ncomb then ncomb else stop) - 1
  in
  let evals = Array.make (max 1 ncomb) 0 in
  let exec = make_exec p ~vals ~cycle in
  let comb_activity () =
    for s = 0 to nsuper - 1 do
      if Bytes.unsafe_get active s <> '\000' then begin
        for i = s * A.supernode_size to last s do
          if Bytes.unsafe_get dirty i <> '\000' then (
            let id = Array.unsafe_get comb_id i in
            let v = exec (Array.unsafe_get comb_entry i) 0 0 0 in
            (* Cleared only after a successful evaluation, so a runtime
               error (selector out of range) re-raises if the machine is
               stepped again — same observable behavior as the closure
               engines. *)
            Bytes.unsafe_set dirty i (Bytes.unsafe_get comb_fault i);
            Array.unsafe_set evals i (Array.unsafe_get evals i + 1);
            let v =
              if Bytes.unsafe_get comb_fault i = '\000' then v
              else
                Fault.apply faults ~cycle:!cycle
                  ~component:(Array.unsafe_get names id)
                  v
            in
            if Array.unsafe_get vals id <> v then (
              Array.unsafe_set vals id v;
              (* The value changed: wake the combinational cone.
                 Dependents always sit later in evaluation order, so they
                 re-evaluate this same cycle and clear their own bits. *)
              wake id))
        done;
        (* Reset only after the scan returns, for the same reason; a mark
           into this supernode during its own scan was consumed by it. *)
        Bytes.unsafe_set active s (Bytes.unsafe_get pinned s)
      end
    done
  in
  let mems = p.p_mems in
  let mcount = Array.map (fun m -> Stats.memory stats m.m_name) mems in
  (* Memory activity.  A memory's dirty byte in [active] is set whenever a
     slot its blocks read changes, and cleared when its address and
     operation are snapshotted: that happens before any update (§4.3), so a
     mark made later in the memory phase must survive to the next
     snapshot.  The snapshot sets the memory's [must] byte, which is
     cleared only once its update succeeds, so an address error re-raises
     when the machine is stepped again; a fault target's stays set.  Any
     other read or write whose dirty byte is still clear at its update is
     quiet: its address, operation and data are those of its last update,
     and nothing but that update and [write_cell] writes its cells, so the
     update would store the values already there. *)
  let must = Bytes.make (max 1 nmem) '\000' in
  let mfault = Bytes.make (max 1 nmem) '\000' in
  Array.iteri
    (fun k m -> if List.mem m.m_name fault_targets then Bytes.set mfault k '\001')
    mems;
  (* §4.4: a constant address or operation is latched here, once, and its
     block never runs ([-1] for its pc).  A block without a term load is
     [CONST c; RET]: [Lower.lower] found its expression constant. *)
  let addr_pc = Array.map (fun m -> m.m_addr_pc) mems in
  let op_pc = Array.map (fun m -> m.m_op_pc) mems in
  let latch pcs latched k =
    let pc = pcs.(k) in
    if code.(pc + 2) = op_ret then begin
      latched.(k) <- code.(pc + 1);
      pcs.(k) <- -1
    end
  in
  for k = 0 to nmem - 1 do
    latch addr_pc maddr k;
    latch op_pc mop k
  done;
  let[@inline] snap k =
    if Bytes.unsafe_get active (nsuper + k) <> '\000' then begin
      Bytes.unsafe_set active (nsuper + k) '\000';
      Bytes.unsafe_set must k '\001';
      let pc = Array.unsafe_get addr_pc k in
      if pc >= 0 then Array.unsafe_set maddr k (exec pc 0 0 0);
      let pc = Array.unsafe_get op_pc k in
      if pc >= 0 then Array.unsafe_set mop k (exec pc 0 0 0)
    end
  in
  let trace_op m a op v =
    if Component.traces_writes op then
      trace (Trace.write_line ~memory:m.m_name ~address:a ~data:v);
    if Component.traces_reads op then
      trace (Trace.read_line ~memory:m.m_name ~address:a ~data:v)
  in
  (* A quiet read or write: counted and traced, not evaluated. *)
  let[@inline] quiet k op =
    let c = Array.unsafe_get mcount k in
    if op land 1 = 0 then c.Stats.reads <- c.Stats.reads + 1
    else c.Stats.writes <- c.Stats.writes + 1;
    if trace_active then
      let m = Array.unsafe_get mems k in
      trace_op m (Array.unsafe_get maddr k) op vals.(m.m_id)
  in
  let update k =
    let m = Array.unsafe_get mems k in
    let id = m.m_id in
    let old = Array.unsafe_get vals id in
    let a = Array.unsafe_get maddr k in
    let op = Array.unsafe_get mop k in
    let c = Array.unsafe_get mcount k in
    (match op land 3 with
    | 0 ->
        (* §4.3: read/write check the address; input/output do not. *)
        if a < 0 || a >= m.m_len then
          Machine.address_out_of_range ~component:m.m_name ~cycle:!cycle
            ~address:a ~cells:m.m_len;
        Array.unsafe_set vals id (Array.unsafe_get cells (m.m_off + a));
        c.Stats.reads <- c.Stats.reads + 1
    | 1 ->
        if a < 0 || a >= m.m_len then
          Machine.address_out_of_range ~component:m.m_name ~cycle:!cycle
            ~address:a ~cells:m.m_len;
        let v = exec m.m_data_pc 0 0 0 in
        Array.unsafe_set vals id v;
        Array.unsafe_set cells (m.m_off + a) v;
        c.Stats.writes <- c.Stats.writes + 1
    | 2 ->
        Array.unsafe_set vals id (io.Io.input ~address:a);
        c.Stats.inputs <- c.Stats.inputs + 1
    | _ ->
        let v = exec m.m_data_pc 0 0 0 in
        Array.unsafe_set vals id v;
        io.Io.output ~address:a ~data:v;
        c.Stats.outputs <- c.Stats.outputs + 1);
    if trace_active then trace_op m a op vals.(id);
    (if Bytes.unsafe_get mfault k <> '\000' then begin
       let before = Array.unsafe_get vals id in
       let v = Fault.apply faults ~cycle:!cycle ~component:m.m_name before in
       if v <> before then count_fault id;
       Array.unsafe_set vals id v
     end);
    if Array.unsafe_get vals id <> old then wake id;
    Bytes.unsafe_set must k (Bytes.unsafe_get mfault k)
  in
  (* Snapshot every memory, then update them in declaration order; a
     memory runs its update if it was dirty at its snapshot or is a fault
     target ([must]), was woken earlier in this phase, or performs input or
     output.  Returns the number of quiet memories.  Both steps run this
     same phase. *)
  let[@inline] mem_phase () =
    for k = 0 to nmem - 1 do
      snap k
    done;
    let skipped = ref 0 in
    for k = 0 to nmem - 1 do
      let op = Array.unsafe_get mop k in
      if
        Bytes.unsafe_get must k = '\000'
        && Bytes.unsafe_get active (nsuper + k) = '\000'
        && op land 2 = 0
      then begin
        quiet k op;
        incr skipped
      end
      else update k
    done;
    !skipped
  in
  let traced =
    Spec.traced_names analysis.Asim_analysis.Analysis.spec
    |> List.map (fun name -> (name, component_id p.p_ids name))
    |> Array.of_list
  in
  let emit_cycle_line =
    if not trace_active then fun () -> ()
    else fun () ->
      trace
        (Trace.cycle_line ~cycle:!cycle
           (Array.to_list (Array.map (fun (name, id) -> (name, vals.(id))) traced)))
  in
  let step () =
    comb_activity ();
    emit_cycle_line ();
    ignore (mem_phase () : int);
    incr cycle;
    Stats.bump_cycle stats
  in
  let step =
    match prof with
    | None -> step
    | Some pr ->
        pr.Prof.supernodes <- nsuper;
        let pe = pr.Prof.evals in
        (* The instrumented visit of one combinational position, shared by
           the profiled scan and the sampled pass below.  One
           preallocated-array increment per evaluation, slot-indexed (it
           replaces the position-indexed [evals] bump, so the per-eval work
           is unchanged); fault triggers count only when the injected fault
           actually perturbed the value.  Dirty skips are not counted here —
           every combinational position is considered exactly once per
           cycle, so [Prof.finalize] derives them as [cycles - evals]. *)
        let[@inline] eval_pos i =
          if Bytes.unsafe_get dirty i <> '\000' then begin
            let id = Array.unsafe_get comb_id i in
            let v = exec (Array.unsafe_get comb_entry i) 0 0 0 in
            Bytes.unsafe_set dirty i (Bytes.unsafe_get comb_fault i);
            Array.unsafe_set pe id (Array.unsafe_get pe id + 1);
            let v =
              if Bytes.unsafe_get comb_fault i = '\000' then v
              else begin
                let v' =
                  Fault.apply faults ~cycle:!cycle
                    ~component:(Array.unsafe_get names id)
                    v
                in
                if v' <> v then count_fault id;
                v'
              end
            in
            if Array.unsafe_get vals id <> v then begin
              Array.unsafe_set vals id v;
              wake id
            end
          end
        in
        (* [comb_activity] with [eval_pos] for its body, plus one counter
           bump per scanned supernode. *)
        let comb_prof () =
          for s = 0 to nsuper - 1 do
            if Bytes.unsafe_get active s <> '\000' then begin
              pr.Prof.supernode_scans <- pr.Prof.supernode_scans + 1;
              for i = s * A.supernode_size to last s do
                eval_pos i
              done;
              Bytes.unsafe_set active s (Bytes.unsafe_get pinned s)
            end
          done
        in
        (* Sampled cycle profiler.  Every [sample_every]-th cycle the
           combinational wave is evaluated level by level with a clock read
           per level.  Level-major order is still a valid dependency order
           (every dependency sits at a strictly smaller level), so dirty
           marks still only ever point forward and the sampled cycle
           computes exactly what the position-order cycle would.  It tests
           dirty bytes alone, but marks supernodes like the scan does, so
           afterwards the active supernodes are exactly those the scan
           would have visited: each counts once and is reset. *)
        let nlev = max 1 pr.Prof.nlevels in
        let lvl_of_pos i = pr.Prof.levels.(Array.unsafe_get comb_id i) in
        let perm = Array.init ncomb (fun i -> i) in
        Array.sort
          (fun a b ->
            match compare (lvl_of_pos a) (lvl_of_pos b) with
            | 0 -> compare a b
            | c -> c)
          perm;
        let level_start = Array.make (nlev + 1) 0 in
        Array.iter
          (fun i -> level_start.(lvl_of_pos i + 1) <- level_start.(lvl_of_pos i + 1) + 1)
          perm;
        for l = 0 to nlev - 1 do
          level_start.(l + 1) <- level_start.(l + 1) + level_start.(l)
        done;
        let level_ns = pr.Prof.level_ns in
        let comb_sampled () =
          for l = 0 to nlev - 1 do
            let t0 = Asim_obs.Clock.now () in
            for j = level_start.(l) to level_start.(l + 1) - 1 do
              eval_pos (Array.unsafe_get perm j)
            done;
            level_ns.(l) <-
              level_ns.(l) +. ((Asim_obs.Clock.now () -. t0) *. 1e9)
          done;
          for s = 0 to nsuper - 1 do
            if Bytes.unsafe_get active s <> '\000' then begin
              pr.Prof.supernode_scans <- pr.Prof.supernode_scans + 1;
              Bytes.unsafe_set active s (Bytes.unsafe_get pinned s)
            end
          done
        in
        let sample_every = pr.Prof.sample_every in
        let togo = ref 1 in
        fun () ->
          let c = !togo - 1 in
          togo := c;
          if c = 0 then begin
            togo := sample_every;
            let t0 = Asim_obs.Clock.now () in
            comb_sampled ();
            emit_cycle_line ();
            let tm = Asim_obs.Clock.now () in
            let skipped = mem_phase () in
            let t1 = Asim_obs.Clock.now () in
            pr.Prof.mem_ns <- pr.Prof.mem_ns +. ((t1 -. tm) *. 1e9);
            pr.Prof.sampled_ns <- pr.Prof.sampled_ns +. ((t1 -. t0) *. 1e9);
            pr.Prof.sampled_cycles <- pr.Prof.sampled_cycles + 1;
            pr.Prof.memory_skips <- pr.Prof.memory_skips + skipped
          end
          else begin
            comb_prof ();
            emit_cycle_line ();
            pr.Prof.memory_skips <- pr.Prof.memory_skips + mem_phase ()
          end;
          pr.Prof.cycles <- pr.Prof.cycles + 1;
          incr cycle;
          Stats.bump_cycle stats
  in
  let mem_index name =
    let rec find k =
      if k = nmem then Error.failf Error.Runtime "Component <%s> is not a memory." name
      else if String.equal mems.(k).m_name name then k
      else find (k + 1)
    in
    find 0
  in
  let cell name index =
    let k = mem_index name in
    let m = mems.(k) in
    if index < 0 || index >= m.m_len then invalid_arg "Flat: cell index out of range"
    else (k, m.m_off + index)
  in
  let read_cell name index = cells.(snd (cell name index)) in
  (* A poked cell may be the one a quiet read holds, or one a quiet write
     is meant to overwrite, so the memory runs its next update. *)
  let write_cell name index value =
    let k, i = cell name index in
    cells.(i) <- value;
    Bytes.set active (nsuper + k) '\001'
  in
  let machine =
    {
      Machine.analysis;
      step;
      read = (fun name -> vals.(component_id p.p_ids name));
      read_cell;
      write_cell;
      current_cycle = (fun () -> !cycle);
      stats;
    }
  in
  let counts () =
    match prof with
    | None -> List.init ncomb (fun i -> (names.(comb_id.(i)), evals.(i)))
    | Some pr ->
        (* The instrumented loops count into the profile's slot-indexed
           array instead of the position-indexed one. *)
        List.init ncomb (fun i ->
            (names.(comb_id.(i)), pr.Asim_prof.Prof.evals.(comb_id.(i))))
  in
  (machine, counts)

let create ?config ?tracer ?prof analysis =
  fst (create_debug ?config ?tracer ?prof analysis)
