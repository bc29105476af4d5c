(** The optimizing middle-end over the codegen IR.

    [run] rewrites an analyzed spec into an observably equivalent one that
    every backend (interp, closure-compiled, flat, native, par, and
    the source generators) consumes unchanged: traces, I/O events, memory
    cells, statistics, fault behaviour and runtime errors are preserved
    byte-for-byte; only the values of components proved unobservable (see
    {!result.dead}) may change.

    Internally each combinational component is translated into a hash-consed
    dataflow node (constants, state slots, bit extracts, shifts, sums, ALU
    applications, selections) built from {!Asim_core.Lower.lower}'s placed
    fields, so it follows {!Asim_core.Expr.eval}'s placement arithmetic
    exactly — including unmasked totals and negative intermediates.  Structural sharing over
    that DAG drives constant propagation and common-subexpression
    elimination; the rewrites are materialized back into ordinary spec
    components (constant wires, forwarding wires, pruned selectors), so no
    engine needs to know the optimizer exists. *)

type level = O0 | O1 | O2

val level_of_string : string -> level option
(** Accepts ["0"]/["1"]/["2"] and ["O0"]/["o1"]/... forms. *)

val level_to_string : level -> string
(** ["0"], ["1"] or ["2"]. *)

val skew_env_var : string
(** ["ASIM_OPT_SKEW"] — set to [1] to plant the deliberate miscompile (CSE
    value reuse across the evaluation-order boundary, realized as a reversed
    combinational order) used by the must-fail oracle checks.  Only takes
    effect when the {!Cse} pass is active and the spec has at least two
    combinational components. *)

type pass =
  | Constprop  (** fold constant components/selector cases, drop dead operands *)
  | Fuse  (** merge adjacent constant atoms and contiguous same-name fields *)
  | Narrow  (** width-driven mask elision, field trimming, case truncation *)
  | Cse  (** rewire duplicate computations to a forwarding wire *)
  | Dce  (** stub components whose values are provably unobservable *)
  | Schedule  (** cost-driven level-major reordering of the evaluation order *)

val all_passes : pass list

val passes_of_level : level -> pass list
(** [O0] = none; [O1] = constprop, fuse, narrow; [O2] = all. *)

val pass_to_string : pass -> string

type stats = {
  folded : int;  (** components replaced by a constant wire *)
  rewired : int;  (** components replaced by a forwarding wire (CSE) *)
  stubbed : int;  (** dead components stubbed to constant zero *)
  fused : int;  (** atom merges, dead-operand drops, selector folds *)
  narrowed : int;  (** mask elisions, field trims/drops, case truncations *)
  scheduled : bool;  (** whether the scheduler ran (it gates itself off when
                         any selector could raise at run time) *)
}

type result = {
  analysis : Asim_analysis.Analysis.t;
  dead : string list;
      (** names stubbed by {!Dce}: their per-cycle values are no longer
          meaningful (everything else is bit-identical).  Oracles comparing
          raw component snapshots across opt levels must mask these. *)
  stats : stats;
}

val run_result :
  ?level:level ->
  ?passes:pass list ->
  ?keep:string list ->
  Asim_analysis.Analysis.t ->
  result
(** Optimize an analyzed spec.  [passes] overrides [level]'s pass set (for
    per-pass ablation); [level] defaults to {!O2}.  [keep] names components
    whose values must be preserved exactly and whose width claims cannot be
    trusted — engines pass the fault-plan targets, batch passes every name
    when raw outputs are requested.  Traced components are always kept
    verbatim. *)

val run :
  ?level:level ->
  ?passes:pass list ->
  ?keep:string list ->
  Asim_analysis.Analysis.t ->
  Asim_analysis.Analysis.t
(** [run_result] without the report. *)
