(** The ASIM-style interpreter — the paper's baseline.

    ASIM "reads the specification into tables, and produces a simulation run
    by interpreting the symbols in the table" (§3.1).  Accordingly this
    engine keeps every expression as its source string and re-interprets the
    symbols on each evaluation: atoms are re-classified, numbers re-converted
    ([str2num]), and component names resolved by linear search through the
    symbol table ([findname]) — once per reference, every cycle.  That
    per-cycle symbol handling is precisely what the ASIM II compiler
    removes, and is what Figure 5.1 measures.  Observable behaviour (trace
    lines, I/O events, statistics) is identical to [Asim_compile]. *)

val create :
  ?config:Asim_sim.Machine.config ->
  ?prof:Asim_prof.Prof.t ->
  Asim_analysis.Analysis.t ->
  Asim_sim.Machine.t
(** Build an interpreted machine.  Default config is
    {!Asim_sim.Machine.default_config}.  [prof] attaches an
    {!Asim_prof.Prof} profile (per-component evaluation and fault
    counters; memory traffic is finalized from the machine statistics).
    This engine re-evaluates every combinational component every cycle, so
    a profiled interpreter run is the independent recount the closure
    compiler's counters are cross-checked against. *)
