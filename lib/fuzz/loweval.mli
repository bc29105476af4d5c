(** A fourth simulation engine: an interpreter over the lowered IR.

    [Asim_core.Lower] reduces every expression to a sum of placed bit
    fields plus a folded constant; the source backends, the native engine,
    the flat kernel and the optimizer all consume that term list.  This
    engine {e executes}
    the same term list directly, so differential runs against it exercise
    the lowering arithmetic the generated simulators rely on — without
    needing a Pascal compiler in the loop.

    Cycle semantics (evaluation order, memory snapshotting, trace output,
    statistics, fault application) are identical to the other engines; only
    expression evaluation goes through {!Asim_core.Lower.lower}. *)

val create :
  ?config:Asim_sim.Machine.config ->
  Asim_analysis.Analysis.t ->
  Asim_sim.Machine.t

val of_spec : ?config:Asim_sim.Machine.config -> Asim_core.Spec.t -> Asim_sim.Machine.t
