(** The ASIM II engine: specification → compiled simulator.

    Where the paper emits Pascal and runs it through a Pascal compiler, this
    engine compiles the specification *in process* to OCaml closures: every
    component becomes a specialized thunk over flat integer arrays, with all
    names resolved to indices at compile time.  The paper's optimizations
    (§4.4) are applied:

    - an ALU whose function expression is constant is inlined as the concrete
      operation instead of dispatching through the generic [dologic];
    - a memory whose operation expression is constant loses its runtime
      [case] dispatch and performs just the one action;
    - constant expressions are folded to literals.

    [~optimize:false] disables all three (every ALU dispatches generically,
    every memory keeps its four-way case), which is the §4.4 ablation
    [bench/main.ml] measures.

    The source-to-source backends that mirror the paper's actual Pascal
    output live in [Asim_codegen]. *)

val create :
  ?config:Asim_sim.Machine.config ->
  ?optimize:bool ->
  ?prof:Asim_prof.Prof.t ->
  Asim_analysis.Analysis.t ->
  Asim_sim.Machine.t
(** Compile to a runnable machine.  [optimize] defaults to [true].
    [prof] attaches an {!Asim_prof.Prof} profile: each combinational thunk
    is wrapped with an evaluation counter and the I/O handler with a wait
    timer; without it the closure graph is built uninstrumented. *)
