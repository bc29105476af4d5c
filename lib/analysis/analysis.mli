(** Whole-specification analysis: the front half of both simulators.

    [analyze] performs everything ASIM II's [readit]/[checkdcl]/[orderit]
    phases did — cross-reference checks, dependency ordering, circularity
    detection — plus the lints this reimplementation adds. *)

open Asim_core

type trace_condition =
  | Trace_never
  | Trace_always  (** operation is constant and has the trace bit pattern *)
  | Trace_runtime
      (** operation is an expression wide enough to carry trace bits; the
          check must be emitted/evaluated at run time *)

type t = {
  spec : Spec.t;
  order : Component.t list;
      (** ALUs and selectors in dependency evaluation order *)
  memories : Component.t list;  (** memories in declaration order *)
  warnings : Error.warning list;
}

val analyze : Spec.t -> t
(** Validate, resolve and order a spec.  Raises {!Error.Error} on undefined
    component references, structural errors or circular dependencies.
    Warnings (declared-but-not-defined, defined-but-not-declared, memory
    update-order hazards) are collected, not raised. *)

(** {2 Supernodes}

    The activity grain shared by the flat kernel and the native engine:
    the evaluation order cut into runs of {!supernode_size} combinational
    components (GSIM's supernodes).  Each engine keeps one activity byte
    per supernode and skips a supernode whose byte is clear, so quiet logic
    costs one test per supernode instead of one per component. *)

val supernode_size : int
(** Combinational components per supernode: 128. *)

val supernode : int -> int
(** The supernode holding an evaluation-order position. *)

val supernodes : int -> int
(** How many supernodes [n] combinational components fill (0 for none). *)

val write_trace_condition : Component.memory -> trace_condition
(** When must a "Write to ..." trace line be printed?  Constant operations
    decide statically ([op land 5 = 5]); non-constant operations at least
    3 bits wide require a runtime check.  (The original tested only
    [op land 4] for constants, printing spurious lines for read-with-trace
    operations; we require the full [land 5 = 5] pattern.) *)

val read_trace_condition : Component.memory -> trace_condition
(** Same for "Read from ..." lines: [op land 9 = 8], runtime check when the
    operation is at least 4 bits wide. *)

(** Static lints: places where the spec {e may} hit the documented runtime
    errors.  Reported separately from {!analyze}'s warnings because they are
    frequently intentional (Appendix A: "It is up to the user to provide
    enough values for all possible address values in a selector"). *)
type lint =
  | Selector_possible_overrun of { selector : string; cases : int; select_width : int }
      (** the select expression can take values beyond the case list *)
  | Address_possible_overrun of { memory : string; cells : int; addr_width : int }
      (** the address expression can reach beyond the declared cells — the
          stack machine's own program ROM has exactly this property, which
          is why its run is bounded at 5545 cycles *)

val lints : t -> lint list
(** Widths come from {!Width.infer}, so a 1-bit register feeding a 2-way
    selector is (correctly) not flagged. *)

val lint_to_string : lint -> string

val memory_output_used : t -> string -> bool
(** Is the memory's registered output ever read — by any component
    expression or by the per-cycle trace list?  When it is not, a code
    generator need not maintain the temporary at all: §5.4's "heuristics to
    determine which memories do not need temporary variables in which to
    store results". *)

val temp_elidable : t -> string -> bool
(** §5.4's heuristic: the memory's temporary can be omitted from generated
    code when (a) its registered output is never read (not referenced, not
    traced, no trace lines) and (b) its operation is a constant read or
    write (no I/O side channel needs the value). *)

val memory_io_possible : Component.memory -> bool
(** False when the operation can never select input or output — a constant
    with [land 3 < 2], or an expression too narrow to carry bit 1.
    Backends may then skip the I/O plumbing. *)
