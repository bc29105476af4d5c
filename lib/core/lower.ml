type term =
  | Const of int
  | Whole of { name : string; at : int }
  | Field of { name : string; lo : int; hi : int; at : int }

(* The paper's placement walk: atoms are laid out from the right, each
   landing at the running bit position [numbits]; a filling atom jumps the
   position to the full word.  Walking right to left and consing leaves
   [fields] in source order. *)
let lower (e : Expr.t) =
  let rec go numbits constant fields = function
    | [] -> (
        match (fields, constant) with
        | [], c -> [ Const c ]
        | fs, 0 -> fs
        | fs, c -> fs @ [ Const c ])
    | Expr.Const { number; width = None } :: rest ->
        go Bits.word_bits (constant + (Number.value number lsl numbits)) fields rest
    | Expr.Const { number; width = Some w } :: rest ->
        let w = Number.value w in
        let v = Number.value number land Bits.ones w in
        go (numbits + w) (constant + (v lsl numbits)) fields rest
    | Expr.Bitstring s :: rest ->
        let v = String.fold_left (fun acc c -> (acc * 2) + if c = '1' then 1 else 0) 0 s in
        go (numbits + String.length s) (constant + (v lsl numbits)) fields rest
    | Expr.Ref { name; field = Expr.Whole } :: rest ->
        go Bits.word_bits constant (Whole { name; at = numbits } :: fields) rest
    | Expr.Ref { name; field = Expr.Bit f } :: rest ->
        let lo = Number.value f in
        go (numbits + 1) constant (Field { name; lo; hi = lo; at = numbits } :: fields) rest
    | Expr.Ref { name; field = Expr.Range (f, t) } :: rest ->
        let lo = Number.value f and hi = Number.value t in
        let field = Field { name; lo; hi; at = numbits } in
        go (numbits + (hi - lo + 1)) constant (field :: fields) rest
  in
  go 0 0 [] (List.rev e)

let alu_const_function (alu : Component.alu) =
  Option.map Component.alu_function_of_code (Expr.const_value alu.fn)

let memory_const_op (m : Component.memory) = Expr.const_value m.op
