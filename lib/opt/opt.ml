open Asim_core
module Analysis = Asim_analysis.Analysis
module Width = Asim_analysis.Width

type level = O0 | O1 | O2

let level_of_string s =
  match String.trim s with
  | "0" | "O0" | "o0" -> Some O0
  | "1" | "O1" | "o1" -> Some O1
  | "2" | "O2" | "o2" -> Some O2
  | _ -> None

let level_to_string = function O0 -> "0" | O1 -> "1" | O2 -> "2"

let skew_env_var = "ASIM_OPT_SKEW"

type pass = Constprop | Fuse | Narrow | Cse | Dce | Schedule

let all_passes = [ Constprop; Fuse; Narrow; Cse; Dce; Schedule ]

let passes_of_level = function
  | O0 -> []
  | O1 -> [ Constprop; Fuse; Narrow ]
  | O2 -> all_passes

let pass_to_string = function
  | Constprop -> "constprop"
  | Fuse -> "fuse"
  | Narrow -> "narrow"
  | Cse -> "cse"
  | Dce -> "dce"
  | Schedule -> "schedule"

type stats = {
  folded : int;
  rewired : int;
  stubbed : int;
  fused : int;
  narrowed : int;
  scheduled : bool;
}

type result = { analysis : Analysis.t; dead : string list; stats : stats }

(* ------------------------------------------------------------------ *)
(* The dataflow IR: one hash-consed node per distinct computation.  Node
   construction mirrors [Expr.eval]'s placement arithmetic exactly — sums
   are unmasked, shifts are plain [lsl], extracts are two's-complement —
   so a [Cst] node is the precise value every engine would compute. *)

type node = { id : int; shape : shape }

and shape =
  | Cst of int
  | Slot of string
      (* a value opaque to the optimizer: memory output, traced or kept
         component, or any not-yet-defined name *)
  | Ext of node * int * int  (* bits lo..hi, shifted down to bit 0 *)
  | Shl of node * int  (* k >= 1, plain [lsl] *)
  | Sum of node list  (* flattened; at most one constant, kept last *)
  | Fn of node * node * node  (* ALU: function, left, right *)
  | Sel of node * node array

type key =
  | KCst of int
  | KSlot of string
  | KExt of int * int * int
  | KShl of int * int
  | KSum of int list
  | KFn of int * int * int
  | KSel of int * int list

type builder = { tbl : (key, node) Hashtbl.t; mutable next : int }

let new_builder () = { tbl = Hashtbl.create 1024; next = 0 }

let mk b shape key =
  match Hashtbl.find_opt b.tbl key with
  | Some n -> n
  | None ->
      let n = { id = b.next; shape } in
      b.next <- b.next + 1;
      Hashtbl.add b.tbl key n;
      n

let cst b v = mk b (Cst v) (KCst v)

let slot b name = mk b (Slot name) (KSlot name)

let rec ext b x lo hi =
  match x.shape with
  | Cst v -> cst b ((v land Bits.field_mask ~lo ~hi) lsr lo)
  | Ext (y, lo2, hi2) ->
      (* bits lo..hi of (bits lo2..hi2 of y): bit i of the inner value is
         bit lo2+i of y for i <= hi2-lo2, and 0 above. *)
      if lo2 + lo > hi2 then cst b 0
      else ext b y (lo2 + lo) (min (lo2 + hi) hi2)
  | _ -> mk b (Ext (x, lo, hi)) (KExt (x.id, lo, hi))

let rec shl b x k =
  if k <= 0 then x
  else
    match x.shape with
    | Cst v -> cst b (v lsl k)
    | Shl (y, j) -> shl b y (j + k)
    | _ -> mk b (Shl (x, k)) (KShl (x.id, k))

let sum b nodes =
  let parts =
    List.concat_map
      (fun n -> match n.shape with Sum xs -> xs | _ -> [ n ])
      nodes
  in
  let is_cst n = match n.shape with Cst _ -> true | _ -> false in
  let consts, rest = List.partition is_cst parts in
  let c =
    List.fold_left
      (fun acc n -> match n.shape with Cst v -> acc + v | _ -> acc)
      0 consts
  in
  let rest = List.sort (fun a a' -> compare a.id a'.id) rest in
  let parts = if c = 0 then rest else rest @ [ cst b c ] in
  match parts with
  | [] -> cst b 0
  | [ n ] -> n
  | ns -> mk b (Sum ns) (KSum (List.map (fun n -> n.id) ns))

(* ALU folding.  [apply_alu] is total, so folding never hides an error; the
   identities below hold for raw (unmasked, possibly negative) operands.
   There is deliberately no shift-by-zero identity: function 6 masks its
   left operand even for a zero count. *)
let alu b f l r =
  let symbolic () = mk b (Fn (f, l, r)) (KFn (f.id, l.id, r.id)) in
  match f.shape with
  | Cst code -> (
      let fn = Component.alu_function_of_code code in
      match (fn, l.shape, r.shape) with
      | (Component.Fn_zero | Component.Fn_unused), _, _ -> cst b 0
      | Component.Fn_right, _, _ -> r
      | Component.Fn_left, _, _ -> l
      | Component.Fn_not, Cst lv, _ -> cst b (Bits.mask - lv)
      | _, Cst lv, Cst rv -> cst b (Component.apply_alu fn ~left:lv ~right:rv)
      | Component.Fn_add, Cst 0, _ -> r
      | Component.Fn_add, _, Cst 0 -> l
      | Component.Fn_sub, _, Cst 0 -> l
      | Component.Fn_or, Cst 0, _ -> r
      | Component.Fn_or, _, Cst 0 -> l
      | Component.Fn_xor, Cst 0, _ -> r
      | Component.Fn_xor, _, Cst 0 -> l
      | Component.Fn_and, Cst 0, _ | Component.Fn_and, _, Cst 0 -> cst b 0
      | Component.Fn_mul, Cst 0, _ | Component.Fn_mul, _, Cst 0 -> cst b 0
      | Component.Fn_mul, Cst 1, _ -> r
      | Component.Fn_mul, _, Cst 1 -> l
      | _ -> symbolic ())
  | _ -> symbolic ()

(* A constant in-range select folds to its case — such a selector can never
   raise.  Anything else (including a constant *out-of-range* select) stays
   symbolic so the runtime error is preserved. *)
let sel b s cases =
  match s.shape with
  | Cst v when v >= 0 && v < Array.length cases -> cases.(v)
  | _ ->
      mk b
        (Sel (s, cases))
        (KSel (s.id, Array.to_list (Array.map (fun n -> n.id) cases)))

let bitstring_value s =
  String.fold_left (fun acc c -> (acc * 2) + if c = '1' then 1 else 0) 0 s

let field_bounds = function
  | Expr.Whole -> None
  | Expr.Bit f ->
      let f = Number.value f in
      Some (f, f)
  | Expr.Range (f, t) -> Some (Number.value f, Number.value t)

(* Expression -> node, from the lowering's placed fields.  Fields are built
   least significant first, the order the atoms are laid out in. *)
let node_of_expr b ~use e =
  List.rev (Lower.lower e)
  |> List.map (function
       | Lower.Const c -> cst b c
       | Lower.Whole { name; at } -> shl b (use name) at
       | Lower.Field { name; lo; hi; at } -> shl b (ext b (use name) lo hi) at)
  |> sum b

(* ------------------------------------------------------------------ *)
(* Width facts.  [Width.infer] is sound — value in [0, 2^w) whenever the
   claimed width is below the word — except for components whose value a
   fault plan may perturb.  Taint every component transitively reachable
   (in the reader direction) from a kept name and refuse width claims on
   tainted components, and on memories initialized with negative cells
   (which escape the accounting's non-negative value model). *)

let input_names (c : Component.t) =
  List.concat_map Expr.names (Component.inputs c)

let taint_closure (components : Component.t list) keep =
  let tainted = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace tainted n ()) keep;
  if keep <> [] then begin
    let deps =
      List.map
        (fun (c : Component.t) -> (c.Component.name, input_names c))
        components
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (name, ins) ->
          if
            (not (Hashtbl.mem tainted name))
            && List.exists (Hashtbl.mem tainted) ins
          then begin
            Hashtbl.replace tainted name ();
            changed := true
          end)
        deps
    done
  end;
  tainted

let make_bounded_width (spec : Spec.t) tainted =
  let wenv = Width.infer spec in
  let tbl = Hashtbl.create (max 16 (List.length wenv)) in
  List.iter (fun (name, w) -> Hashtbl.replace tbl name w) wenv;
  List.iter
    (fun (c : Component.t) ->
      match c.Component.kind with
      | Component.Memory { init = Some cells; _ }
        when Array.exists (fun v -> v < 0) cells ->
          Hashtbl.replace tbl c.Component.name Bits.word_bits
      | _ -> ())
    spec.Spec.components;
  fun name ->
    if Hashtbl.mem tainted name then None
    else
      match Hashtbl.find_opt tbl name with
      | Some w when w < Bits.word_bits -> Some w
      | _ -> None

(* A sound upper bound on an expression's value under the current width
   facts; [None] when no bound is provable (the value may even be
   negative). *)
let expr_ubound ~bw e =
  let clamp = function
    | Some v when v >= 0 && v <= Bits.mask -> Some v
    | _ -> None
  in
  let bound = function
    | Lower.Const c -> Some c
    | Lower.Whole { name; at } -> Option.map (fun w -> Bits.ones w lsl at) (bw name)
    | Lower.Field { name; lo; hi; at } ->
        let fw = hi - lo + 1 in
        let bound =
          match bw name with
          | Some w when w <= lo -> 0
          | Some w when w - lo < fw -> Bits.ones (w - lo)
          | _ -> Bits.ones fw
        in
        Some (bound lsl at)
  in
  List.fold_left
    (fun acc term ->
      match (acc, clamp (bound term)) with
      | Some a, Some v -> Some (a + v)
      | _ -> None)
    (Some 0) (Lower.lower e)
  |> clamp

(* Can evaluating this component itself raise?  ALUs are total (reads never
   fail either); a selector raises iff its select can leave the case
   range.  Memory address errors belong to the memory phase, which the
   optimizer never reorders. *)
let never_errors ~bw (c : Component.t) =
  match c.Component.kind with
  | Component.Alu _ -> true
  | Component.Selector { select; cases } -> (
      match expr_ubound ~bw select with
      | Some bound -> bound < Array.length cases
      | None -> false)
  | Component.Memory _ -> false

(* ------------------------------------------------------------------ *)
(* Materialization: constant and forwarding wires are plain ALUs (function
   1 passes the right operand through, function 0 is constant zero). *)

let const_atom v =
  if v >= 0 && v <= Bits.mask then Expr.num_w v ~width:(Bits.width_needed v)
  else Expr.num v

let wire_kind right =
  Component.Alu { fn = [ Expr.num 1 ]; left = [ Expr.num 0 ]; right }

let stub_kind =
  Component.Alu
    { fn = [ Expr.num 0 ]; left = [ Expr.num 0 ]; right = [ Expr.num 0 ] }

type decision = Keep | FoldedConst of int | WiredTo of string

(* ------------------------------------------------------------------ *)

let run_result ?(level = O2) ?passes ?(keep = []) (analysis : Analysis.t) =
  let passes =
    match passes with Some ps -> ps | None -> passes_of_level level
  in
  let has p = List.mem p passes in
  let skew =
    has Cse
    &&
    match Sys.getenv_opt skew_env_var with
    | None | Some "" | Some "0" -> false
    | Some _ -> true
  in
  if passes = [] then
    {
      analysis;
      dead = [];
      stats =
        {
          folded = 0;
          rewired = 0;
          stubbed = 0;
          fused = 0;
          narrowed = 0;
          scheduled = false;
        };
    }
  else begin
    let spec = analysis.Analysis.spec in
    let folded = ref 0
    and rewired = ref 0
    and stubbed = ref 0
    and fused = ref 0
    and narrowed = ref 0 in
    (* Opaque components are kept verbatim: traced ones (their widths feed
       VCD headers, their values the per-cycle trace), fault-plan targets,
       and every memory. *)
    let opaque = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace opaque n ()) (Spec.traced_names spec);
    List.iter (fun n -> Hashtbl.replace opaque n ()) keep;
    List.iter
      (fun (c : Component.t) -> Hashtbl.replace opaque c.Component.name ())
      analysis.Analysis.memories;
    let is_opaque n = Hashtbl.mem opaque n in
    let tainted = taint_closure spec.Spec.components keep in
    (* --- constant propagation + CSE over the node DAG ---------------- *)
    let decisions : (string, decision) Hashtbl.t = Hashtbl.create 64 in
    let decision name =
      match Hashtbl.find_opt decisions name with Some d -> d | None -> Keep
    in
    if has Constprop || has Cse then begin
      let b = new_builder () in
      let defs : (string, node) Hashtbl.t = Hashtbl.create 64 in
      let use name =
        if is_opaque name then slot b name
        else
          match Hashtbl.find_opt defs name with
          | Some n -> n
          | None -> slot b name
      in
      let reps : (int, string) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun (c : Component.t) ->
          if not (is_opaque c.Component.name) then begin
            let node =
              match c.Component.kind with
              | Component.Alu { fn; left; right } ->
                  alu b (node_of_expr b ~use fn) (node_of_expr b ~use left)
                    (node_of_expr b ~use right)
              | Component.Selector { select; cases } ->
                  sel b
                    (node_of_expr b ~use select)
                    (Array.map (node_of_expr b ~use) cases)
              | Component.Memory _ -> assert false
            in
            Hashtbl.replace defs c.Component.name node;
            match node.shape with
            | Cst v when has Constprop && v >= 0 ->
                (* A constant node implies the component can never raise
                   (selectors only fold through in-range selects), so a
                   constant wire is observably identical.  Negative
                   constants are left alone: they cannot be written back as
                   source literals. *)
                Hashtbl.replace decisions c.Component.name (FoldedConst v);
                incr folded
            | _ ->
                if has Cse then (
                  match Hashtbl.find_opt reps node.id with
                  | Some rep ->
                      (* [rep] evaluates earlier in the same phase, and
                         every slot either reads is frozen between the two
                         evaluations (combinational slots are written once,
                         memory slots only in the later phase), so
                         forwarding is value- and error-exact. *)
                      Hashtbl.replace decisions c.Component.name (WiredTo rep);
                      incr rewired
                  | None -> Hashtbl.replace reps node.id c.Component.name)
          end)
        analysis.Analysis.order
    end;
    (* Substitution through the decisions: reads of a folded component
       become literal constants, reads of a forwarded component follow the
       wire to its (always-Keep, earlier) representative. *)
    let rewrite_atom atom =
      match atom with
      | Expr.Ref { name; field } -> (
          match decision name with
          | Keep -> atom
          | WiredTo rep -> Expr.Ref { name = rep; field }
          | FoldedConst v -> (
              match field_bounds field with
              | None -> const_atom v
              | Some (lo, hi) ->
                  Expr.num_w
                    ((v land Bits.field_mask ~lo ~hi) lsr lo)
                    ~width:(hi - lo + 1)))
      | _ -> atom
    in
    let rewrite_expr e = List.map rewrite_atom e in
    (* --- fuse: merge adjacent constants and contiguous fields --------- *)
    (* Cells carry the canonical mergeable form plus the original atom when
       exactly one atom produced the cell (emitted unchanged: zero churn).
       [CConst (v, None)] is a filling constant — only ever leftmost, and
       only mergeable as the upper half of a merge, so it stays filling. *)
    let fuse_expr e =
      if not (has Fuse) then e
      else begin
        let canon = function
          | Expr.Const { number; width = None } ->
              let v = Number.value number in
              if v >= 0 then Some (v, None) else None
          | Expr.Const { number; width = Some w } ->
              let w = Number.value w in
              Some (Number.value number land Bits.ones w, Some w)
          | Expr.Bitstring s -> Some (bitstring_value s, Some (String.length s))
          | Expr.Ref _ -> None
        in
        let emit (orig, cell) acc =
          match orig with
          | Some atom -> atom :: acc
          | None -> (
              match cell with
              | `Const (v, Some w) -> Expr.num_w v ~width:w :: acc
              | `Const (v, None) -> Expr.num v :: acc
              | `Range (name, lo, hi) -> Expr.ref_range name lo hi :: acc)
        in
        (* Walk low-to-high (reversed atom list); each new atom sits
           immediately above the pending cell. *)
        let rec go pending acc = function
          | [] -> ( match pending with None -> acc | Some p -> emit p acc)
          | atom :: rest -> (
              let merged =
                match pending with
                | Some (_, `Const (v0, Some w0)) -> (
                    match canon atom with
                    | Some (v, w) ->
                        Some (`Const ((v lsl w0) + v0, Option.map (( + ) w0) w))
                    | None -> None)
                | Some (_, `Range (n0, lo0, hi0)) -> (
                    match atom with
                    | Expr.Ref { name; field } when name = n0 -> (
                        match field_bounds field with
                        | Some (lo, hi) when lo = hi0 + 1 ->
                            Some (`Range (n0, lo0, hi))
                        | _ -> None)
                    | _ -> None)
                | _ -> None
              in
              match merged with
              | Some cell ->
                  incr fused;
                  go (Some (None, cell)) acc rest
              | None ->
                  let acc =
                    match pending with None -> acc | Some p -> emit p acc
                  in
                  let cell =
                    match canon atom with
                    | Some (v, w) -> Some (Some atom, `Const (v, w))
                    | None -> (
                        match atom with
                        | Expr.Ref { name; field } -> (
                            match field_bounds field with
                            | Some (lo, hi) ->
                                Some (Some atom, `Range (name, lo, hi))
                            | None -> None)
                        | _ -> None)
                  in
                  (match cell with
                  | Some p -> go (Some p) acc rest
                  | None -> go None (atom :: acc) rest))
        in
        go None [] (List.rev e)
      end
    in
    (* --- constprop extras on kept components -------------------------- *)
    let drop_unused_operand fn_value (alu : Component.alu) =
      if not (has Constprop) then alu
      else
        let zero = [ Expr.num_w 0 ~width:1 ] in
        let has_refs e = Expr.names e <> [] in
        match Component.alu_function_of_code fn_value with
        | Component.Fn_left | Component.Fn_not ->
            if has_refs alu.Component.right then begin
              incr fused;
              { alu with Component.right = zero }
            end
            else alu
        | Component.Fn_right ->
            if has_refs alu.Component.left then begin
              incr fused;
              { alu with Component.left = zero }
            end
            else alu
        | Component.Fn_zero | Component.Fn_unused ->
            let alu =
              if has_refs alu.Component.left then begin
                incr fused;
                { alu with Component.left = zero }
              end
              else alu
            in
            if has_refs alu.Component.right then begin
              incr fused;
              { alu with Component.right = zero }
            end
            else alu
        | _ -> alu
    in
    let rewrite_component (c : Component.t) =
      if is_opaque c.Component.name then
        match c.Component.kind with
        | Component.Memory { addr; data; op; cells; init } ->
            (* Memory expressions are rewritten (value-exactly) even though
               the memory itself is untouchable state. *)
            {
              c with
              Component.kind =
                Component.Memory
                  {
                    addr = fuse_expr (rewrite_expr addr);
                    data = fuse_expr (rewrite_expr data);
                    op = fuse_expr (rewrite_expr op);
                    cells;
                    init;
                  };
            }
        | _ -> c
      else
        match decision c.Component.name with
        | FoldedConst v -> { c with Component.kind = wire_kind [ const_atom v ] }
        | WiredTo rep -> { c with Component.kind = wire_kind [ Expr.ref_ rep ] }
        | Keep -> (
            match c.Component.kind with
            | Component.Alu { fn; left; right } -> (
                let fn = fuse_expr (rewrite_expr fn) in
                let left = fuse_expr (rewrite_expr left) in
                let right = fuse_expr (rewrite_expr right) in
                let a = { Component.fn; left; right } in
                match Expr.const_value fn with
                | Some code ->
                    { c with Component.kind = Component.Alu (drop_unused_operand code a) }
                | None -> { c with Component.kind = Component.Alu a })
            | Component.Selector { select; cases } -> (
                let select = fuse_expr (rewrite_expr select) in
                let cases = Array.map (fun e -> fuse_expr (rewrite_expr e)) cases in
                match Expr.const_value select with
                | Some s when has Constprop && s >= 0 && s < Array.length cases ->
                    (* Constant in-range select: the selector can never
                       raise, so it degrades to a wire of the chosen
                       case. *)
                    incr fused;
                    { c with Component.kind = wire_kind cases.(s) }
                | _ -> { c with Component.kind = Component.Selector { select; cases } })
            | Component.Memory _ -> assert false)
    in
    let components = List.map rewrite_component spec.Spec.components in
    (* --- narrow: width-driven mask elision, trims, case truncation ---- *)
    let current_spec components = { spec with Spec.components = components } in
    let components =
      if not (has Narrow) then components
      else begin
        let sweep components =
          let changed = ref false in
          let bw = make_bounded_width (current_spec components) tainted in
          let narrow_expr e =
            (* Position-independent rewrite: a field provably beyond the
               producer's width is constant zero of the same width.  The
               leftmost atom additionally allows layout changes: dropping a
               zero field outright, trimming the high bound, or — when the
               field covers the whole producer — eliding the mask into a
               plain (filling) reference, which is the cheap case for every
               backend. *)
            let rewrite_at ~leftmost ~rest atom =
              match atom with
              | Expr.Ref { name; field } -> (
                  match (field_bounds field, bw name) with
                  | Some (lo, hi), Some w ->
                      if w <= lo then
                        if leftmost && rest then begin
                          changed := true;
                          incr narrowed;
                          None (* drop: contributes nothing above *)
                        end
                        else begin
                          changed := true;
                          incr narrowed;
                          Some (Expr.num_w 0 ~width:(hi - lo + 1))
                        end
                      else if leftmost && lo = 0 && w <= hi + 1 && hi < Bits.word_bits - 1
                      then begin
                        (* mask elision: value < 2^w <= 2^(hi+1) *)
                        changed := true;
                        incr narrowed;
                        Some (Expr.ref_ name)
                      end
                      else if leftmost && hi > w - 1 then begin
                        changed := true;
                        incr narrowed;
                        Some (Expr.ref_range name lo (w - 1))
                      end
                      else Some atom
                  | _ -> Some atom)
              | _ -> Some atom
            in
            match e with
            | [] -> e
            | leftmost :: rest ->
                let rest' =
                  List.filter_map (rewrite_at ~leftmost:false ~rest:false) rest
                in
                let head =
                  rewrite_at ~leftmost:true ~rest:(rest' <> []) leftmost
                in
                let e' =
                  match head with Some a -> a :: rest' | None -> rest'
                in
                if e' == e then e else fuse_expr e'
          in
          let narrow_component (c : Component.t) =
            match c.Component.kind with
            | Component.Memory { addr; data; op; cells; init } ->
                {
                  c with
                  Component.kind =
                    Component.Memory
                      {
                        addr = narrow_expr addr;
                        data = narrow_expr data;
                        op = narrow_expr op;
                        cells;
                        init;
                      };
                }
            | _ when is_opaque c.Component.name -> c
            | Component.Alu { fn; left; right } ->
                {
                  c with
                  Component.kind =
                    Component.Alu
                      {
                        fn = narrow_expr fn;
                        left = narrow_expr left;
                        right = narrow_expr right;
                      };
                }
            | Component.Selector { select; cases } ->
                let select = narrow_expr select in
                let cases = Array.map narrow_expr cases in
                let cases =
                  match expr_ubound ~bw select with
                  | Some bound when bound + 1 < Array.length cases ->
                      (* Unreachable cases: the select provably stays below
                         the truncated length, so the (absence of an)
                         overrun error is preserved. *)
                      changed := true;
                      incr narrowed;
                      Array.sub cases 0 (bound + 1)
                  | _ -> cases
                in
                { c with Component.kind = Component.Selector { select; cases } }
          in
          (List.map narrow_component components, !changed)
        in
        (* Widths only shrink under these rewrites, so the loop reaches a
           fixpoint; the cap is a safety net. *)
        let rec fix components rounds =
          if rounds = 0 then components
          else
            let components', changed = sweep components in
            if changed then fix components' (rounds - 1) else components'
        in
        fix components 32
      end
    in
    (* --- dce: stub components no observable path can reach ------------ *)
    let bw_final = make_bounded_width (current_spec components) tainted in
    let components, dead =
      if not (has Dce) then (components, [])
      else begin
        let by_name = Hashtbl.create 64 in
        List.iter
          (fun (c : Component.t) -> Hashtbl.replace by_name c.Component.name c)
          components;
        let live = Hashtbl.create 64 in
        let queue = Queue.create () in
        let mark n =
          if (not (Hashtbl.mem live n)) && Hashtbl.mem by_name n then begin
            Hashtbl.replace live n ();
            Queue.add n queue
          end
        in
        (* Roots: state and I/O (memories), everything the trace prints,
           fault targets, and any component whose own evaluation might
           raise (its error — and therefore its input values — is
           observable even if its output is not). *)
        List.iter
          (fun (c : Component.t) ->
            let n = c.Component.name in
            if is_opaque n || not (never_errors ~bw:bw_final c) then mark n)
          components;
        while not (Queue.is_empty queue) do
          let n = Queue.pop queue in
          match Hashtbl.find_opt by_name n with
          | Some c -> List.iter mark (input_names c)
          | None -> ()
        done;
        let dead = ref [] in
        let components =
          List.map
            (fun (c : Component.t) ->
              let n = c.Component.name in
              if
                Hashtbl.mem live n || is_opaque n
                || Component.is_memory c
              then c
              else begin
                dead := n :: !dead;
                incr stubbed;
                { c with Component.kind = stub_kind }
              end)
            components
        in
        (components, List.rev !dead)
      end
    in
    (* --- rebuild the analysis (order, memories) ----------------------- *)
    let by_name = Hashtbl.create 64 in
    List.iter
      (fun (c : Component.t) -> Hashtbl.replace by_name c.Component.name c)
      components;
    let find n = Hashtbl.find by_name n in
    let base_order =
      List.map (fun (c : Component.t) -> find c.Component.name) analysis.Analysis.order
    in
    (* --- schedule: cost-driven level-major reordering ----------------- *)
    let comb_names = Hashtbl.create 64 in
    List.iter
      (fun (c : Component.t) -> Hashtbl.replace comb_names c.Component.name ())
      base_order;
    let order, scheduled =
      if not (has Schedule) then (base_order, false)
      else if
        (* Reordering is only observation-safe when no combinational
           component can raise: otherwise which partial state an error
           leaves behind depends on the order. *)
        not (List.for_all (never_errors ~bw:bw_final) base_order)
      then (base_order, false)
      else begin
        let cost (c : Component.t) =
          List.fold_left (fun acc e -> acc + List.length e) 0 (Component.inputs c)
        in
        (* [base_order] is topological, so one forward pass computes the
           dependency depth of every component. *)
        let depth = Hashtbl.create 64 in
        List.iter
          (fun (c : Component.t) ->
            let d =
              List.fold_left
                (fun acc n ->
                  match Hashtbl.find_opt depth n with
                  | Some d when Hashtbl.mem comb_names n -> max acc (d + 1)
                  | _ -> acc)
                0 (input_names c)
            in
            Hashtbl.replace depth c.Component.name d)
          base_order;
        let indexed =
          List.mapi
            (fun i (c : Component.t) ->
              (Hashtbl.find depth c.Component.name, - cost c, i, c))
            base_order
        in
        let sorted =
          List.sort
            (fun (d1, c1, i1, _) (d2, c2, i2, _) ->
              compare (d1, c1, i1) (d2, c2, i2))
            indexed
        in
        (List.map (fun (_, _, _, c) -> c) sorted, true)
      end
    in
    (* --- planted miscompile: stale reads across the order boundary ---- *)
    let order =
      if skew && List.length order >= 2 then List.rev order else order
    in
    let memories =
      List.filter (fun (c : Component.t) -> Component.is_memory c) components
    in
    let analysis' =
      {
        Analysis.spec = { spec with Spec.components = components };
        order;
        memories;
        warnings = analysis.Analysis.warnings;
      }
    in
    {
      analysis = analysis';
      dead;
      stats =
        {
          folded = !folded;
          rewired = !rewired;
          stubbed = !stubbed;
          fused = !fused;
          narrowed = !narrowed;
          scheduled;
        };
    }
  end

let run ?level ?passes ?keep analysis = (run_result ?level ?passes ?keep analysis).analysis
