(** The flat-kernel engine: ASIM II compiled one rung further down.

    [Asim_compile] reproduces the paper's compiled-simulation idea with one
    OCaml closure per component; every cycle still pays a closure call, a
    hashtable-free but pointer-chasing walk, and re-evaluates components
    whose inputs did not change.  This engine removes both costs:

    {b Flat program.}  [create] compiles the analyzed specification into a
    contiguous int-coded instruction array over preallocated [int array]
    state (one slot per component output, one shared cell array for all
    memories, latched address/operation arrays).  Names, bit fields and
    widths are resolved at compile time into slot indices, masks and shift
    counts; evaluation is a tight tail-recursive dispatch loop over the
    instruction stream with no bounds checks (indices are validated when the
    program is emitted) and zero per-cycle heap allocation when tracing and
    I/O are quiet.

    {b Activity-driven scheduling.}  Each combinational component carries
    a dirty byte seeded from the specification's dependency graph.  A
    cycle only re-evaluates the combinational cone downstream of
    registers, memories and inputs whose {e values} actually changed; a
    producer whose output is recomputed but equal wakes nobody.  Activity has a second level: each
    supernode ({!Asim_analysis.Analysis.supernode_size} components in
    evaluation order, the native engine's chunk) carries an active byte
    that every wake-up of one of its components sets, and the scan skips
    an inactive supernode with one test, so quiet logic costs one byte per
    supernode per cycle.  A supernode's byte is reset only after its scan
    returns, so a selector error re-raises when the machine is stepped
    again.  Fault-injected components are pinned permanently dirty, their
    supernodes permanently active, so cycle-windowed faults keep firing.

    {b Memory activity.}  Memories join the same wake-ups: each carries a
    dirty byte, set when a slot its address, operation or data reads
    changes (or when [write_cell] pokes one of its cells).  A constant
    address or operation (§4.4) is latched once, when the machine is
    built.  Only dirty memories are snapshotted.  A memory runs its update
    if it was dirty at its snapshot, was woken earlier in the same memory
    phase, is a fault target, or performs input or output; any other
    memory is quiet: it still counts its read or write in the statistics
    and emits its trace lines, but evaluates nothing.  The dirty byte is
    cleared at the snapshot, since address and operation are latched
    before any update (§4.3), and a run byte set there is cleared only
    when the update succeeds, so an address error re-raises on re-step.

    The result is observationally identical to [Asim_interp] and
    [Asim_compile] (the differential-fuzz oracle enforces this): same
    per-cycle outputs, traces, I/O events, statistics, runtime errors and
    fault behavior. *)

val create :
  ?config:Asim_sim.Machine.config ->
  ?tracer:Asim_obs.Tracer.t ->
  ?prof:Asim_prof.Prof.t ->
  Asim_analysis.Analysis.t ->
  Asim_sim.Machine.t
(** Compile the analyzed spec to a flat program and return a runnable
    machine.  When [tracer] is active, compilation emits
    [codegen.flat.layout], [codegen.flat.emit] and [codegen.flat.wire]
    spans, so flat-compile time shows up next to the [pipeline.*] spans in
    a {{!Asim_obs.Tracer}Chrome trace}.

    Expressions are emitted from {!Asim_core.Lower.lower} with two
    rewrites, always on: a selector whose control input is an in-range
    constant is folded to its live case, and adjacent disjoint mask/shift
    loads of the same slot are fused into one term.  The [Asim_opt]
    middle-end's [Fuse] pass does not make them redundant, because the
    optimizer leaves traced and kept components verbatim: at [-O2],
    dropping the rewrites grows the flat program of 191 of 200 generated
    serve-mix specs (median 1.26×, at most 2.11×).

    [prof] attaches an {!Asim_prof.Prof} profile: evaluation and fault
    counters tick in the kernel's hot loops (one preallocated-array
    increment per evaluation, one counter bump per scanned supernode, and
    the cycle's quiet memories added to [memory_skips]), the
    flat program's per-component word counts
    fill the profile's static cost model, the I/O handler is wrapped with a
    wait timer, and every [sample_every]-th cycle is timed per topological
    level.  Without [prof] the machine is built from the exact
    uninstrumented closures — the off path adds no per-cycle work at all. *)

val create_debug :
  ?config:Asim_sim.Machine.config ->
  ?tracer:Asim_obs.Tracer.t ->
  ?prof:Asim_prof.Prof.t ->
  Asim_analysis.Analysis.t ->
  Asim_sim.Machine.t * (unit -> (string * int) list)
(** Like {!create}, but also returns an inspection function giving the
    number of times each combinational component has actually been
    evaluated (in evaluation order), which exposes the parts of the design
    that were quiescent.  For tests and the benchmark suite's
    [flat.skip_rate] metric. *)

(** {1 Compiled-program internals}

    Exposed for the partitioned BSP engine ([Asim_par]), which compiles its
    own flat program with a partition-major slot layout and runs each
    partition's block range with its own {!make_exec} instance. *)

(** One memory's compiled form: entry pcs for the latched address /
    operation / data expressions, plus its window into the shared cell
    array. *)
type mem_desc = {
  m_id : int;  (** slot of the registered output *)
  m_name : string;
  m_addr_pc : int;
  m_op_pc : int;
  m_data_pc : int;
  m_off : int;  (** offset into the shared cell array *)
  m_len : int;  (** number of cells *)
  m_init : int array option;
  m_reads : int list;
      (** the slots the three blocks read, once per reference: the flat
          machine wakes the memory when one of them changes *)
}

(** A compiled flat program: the instruction stream plus every index needed
    to drive it (block entries by evaluation position, output slots, memory
    descriptors, and the inverted dependency table used for activity
    wake-ups). *)
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

val compile :
  ?tracer:Asim_obs.Tracer.t ->
  ?slots:(string, int) Hashtbl.t ->
  ?comb_order:Asim_core.Component.t list ->
  Asim_analysis.Analysis.t ->
  program
(** Emit the flat program.  [slots] overrides the name → state-slot
    assignment (default: declaration order) and [comb_order] the
    combinational evaluation order (default: the analysis's topological
    order); a custom order must still be a valid dependency order and a
    custom slot table a bijection onto [0 .. ncomp-1].  When [tracer] is
    active the emission is wrapped in a [codegen.flat.compile] span tagged
    with the component count. *)

val make_exec :
  program -> vals:int array -> cycle:int ref -> int -> int -> int -> int -> int
(** [make_exec p ~vals ~cycle] is the evaluator for [p] over the state
    array [vals]: [exec pc acc tmp tmp2] runs the block starting at [pc]
    and returns the computed value.  Call as [exec entry 0 0 0].  [cycle]
    is read only to report a selector-range {!Asim_core.Error.Error}.
    Allocation-free; distinct instances over distinct [vals] arrays may run
    in parallel (the program itself is only read). *)

val program_size : Asim_analysis.Analysis.t -> int
(** Number of instruction words the flat program for this spec occupies —
    a compile-time metric (no machine built), reported as the benchmark
    suite's [flat.program_words].  For spec-level optimization effects, run
    the analysis through [Asim_opt.Opt.run] first — the per-pass ablation
    in [bench/main.exe ablations] measures program size that way. *)
