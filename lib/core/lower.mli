(** The lowering every generated-code path consumes.

    An expression denotes a sum of bit fields, each placed at a bit position
    of the result, plus a constant.  [lower] works that placement out once;
    the source backends, the native engine, the flat kernel and the
    optimizer all read it from here, and each derives its own mask and
    shift from a field's range and position.  The placement arithmetic is
    the one {!Expr.eval} performs, so everything built on it agrees with
    the reference engines bit for bit. *)

type term =
  | Const of int  (** all constant atoms, folded *)
  | Whole of { name : string; at : int }
      (** the whole (unmasked) value of [name], shifted left by [at] *)
  | Field of { name : string; lo : int; hi : int; at : int }
      (** bits [lo..hi] of [name], placed so that bit [lo] lands at bit
          [at] of the result: mask [Bits.field_mask ~lo ~hi], then shift
          left by [at - lo] (right when negative) *)

val lower : Expr.t -> term list
(** Terms in source order (fields left to right, folded constant last when
    non-zero).  Never empty: a pure-constant expression yields [[Const c]]. *)

val alu_const_function : Component.alu -> Component.alu_function option
(** The decoded function when the ALU's function expression is constant —
    the trigger for §4.4's inline code generation. *)

val memory_const_op : Component.memory -> int option
(** The operation value when constant — the trigger for §4.4's memory
    specialization. *)
