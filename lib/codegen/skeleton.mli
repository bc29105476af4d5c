(** The one shape of every generated source simulator (Appendix E).

    The skeleton owns what ASIM II's translator decides: the cycle loop
    (combinational components in evaluation order, the trace line, then
    every memory's address and operation latched before any memory
    updates), §4.4's inline code for constant ALU functions (Figure 4.1),
    the selector (Figure 4.2), the memory update with its constant-operation
    specialization, §5.4's temporary elision and the run-time operation
    dispatch (Figure 4.3), the engines' address check on every read and
    write, and when a read or write trace line is printed.
    A backend supplies only a {!syntax}: how its language spells each of
    those pieces, plus its verbatim support routines. *)

type memory = {
  name : string;
  mem : Asim_core.Component.memory;
  elide : bool;  (** {!Asim_analysis.Analysis.temp_elidable} *)
}

type syntax = {
  deref : string -> string;  (** read a variable ([x] or [!x]) *)
  int : int -> string;  (** an integer literal in an expression *)
  masked : string -> int -> string;  (** value land mask *)
  shl : string -> int -> string;  (** shift left by a positive amount *)
  shr : string -> int -> string;  (** shift right by a positive amount *)
  sum : string list -> string;  (** the terms of one expression *)
  call : string -> string list -> string;  (** [dologic], [sinput], [soutput] *)
  assign : string -> string -> string;  (** target, value: one statement *)
  mask : string;  (** the 31-bit word mask, for function 3 *)
  band : string -> string -> string;  (** function 8 *)
  bor : string -> string -> string;  (** function 9 *)
  bxor : string -> string -> string;  (** function 10 *)
  eq : string;  (** the equality operator, for function 12 *)
  flag : string -> string -> string list;
      (** target, condition: set the target to 1 when the condition holds,
          else 0 (functions 12 and 13) *)
  selector : string -> string -> string array -> string list;
      (** name, select, cases: store the selected case in [ljb<name>], or
          fail on an out-of-range select *)
  trace_cycle : (string * string) list -> string list;
      (** the per-cycle trace line over (name, value) pairs *)
  load : string -> string;  (** memory [name]'s cell at its latched address *)
  store : string -> string -> string;  (** write that cell *)
  comment : string -> string;
  switch : Emitter.t -> string -> (unit -> unit) list -> unit;
      (** dispatch on the low two bits of a latched operation to the read,
          write, input and output arms *)
  when_bits : string -> int -> int -> string;
      (** [when_bits op mask value] opens a one-statement conditional on
          [op land mask = value] *)
  trace_access : string -> string -> string;
      (** ["Write to"] or ["Read from"], memory name: the trace statement *)
  check_address : string -> int -> string * string * string -> string list;
      (** latched address, cells, the engines' error text cut at its two
          holes: unless the address lies in [0 .. cells-1], print the text
          with the cycle number and the address in the holes to stderr and
          exit with status 1 *)
  prologue : Emitter.t -> Asim_analysis.Analysis.t -> memory list -> unit;
      (** everything before the main program: header, declarations,
          initialization and support routines *)
  main : Emitter.t -> cycles:int -> (unit -> unit) -> unit;
      (** the main program around the loop body, run [cycles] times by
          default *)
}

val paren_sum : string list -> string
(** One term bare, several parenthesized and joined by [+]. *)

val expr : syntax -> (string -> bool) -> Asim_core.Expr.t -> string
(** Render one expression; the predicate tells memories (read through their
    [temp] register) from other components (their [ljb] variable). *)

val generate : syntax -> Asim_analysis.Analysis.t -> string
