(** The partitioned engine: the flat kernel run bulk-synchronously across
    domains.

    The specification's combinational components are split into
    cost-balanced partitions ({!plan}): a greedy pass cuts contiguous
    declaration-order blocks of roughly equal modelled cost (the lib/prof
    measured cost model when supplied, otherwise the flat program's words
    per component), then KL-style refinement moves components across the
    boundaries while that strictly reduces cut edges and keeps partitions
    within 110% of the average load.

    The program is compiled ({!Asim_flat.Flat.compile}) with a
    partition-major slot layout, so each domain owns a contiguous slice of
    the opcode array and of the int-array state.  A cycle is a BSP wave:
    components are scheduled into {e sync groups} (a component's group is
    the maximum of its same-partition inputs' groups and one more than its
    cross-partition inputs' groups), and every domain evaluates its group-g
    segment with the flat engine's activity rule, posts the group's
    cross-partition values into a preallocated {!Mailbox}, and meets a
    sense-reversing {!Barrier} — one barrier per group, which degenerates to
    one per cycle when no combinational edge crosses a partition.  Each
    domain then publishes its slice into the master state with one blit; the
    coordinator runs the sequential memory phase (latch, update, I/O,
    traces, statistics) exactly as the flat engine does.  Nothing on this
    path allocates per cycle.

    Runtime errors: a wave that raises (selector out of range) is discarded
    — publishes are skipped, the cycle-start dirty bits are restored, and
    the cycle is replayed sequentially over the master state, raising
    exactly the error the flat engine would raise and leaving exactly its
    partial state; the machine stays sequential afterwards (re-stepping
    re-raises, like flat).  The differential oracle holds this engine to
    cycle-for-cycle equality with the other engines.

    Domains come from one process-wide worker pool shared by all
    partitioned machines (the runtime caps total domains; machines are
    created by the hundreds), so concurrent machines serialize their steps
    against each other.  With one partition no pool, barrier or mailbox is
    involved at all: the step is the flat activity loop plus one indirection
    — the par@1 overhead ablation. *)

val default_domains : unit -> int
(** [min 8 (Domain.recommended_domain_count ())]: the domain count a
    partitioned machine gets when its caller names none. *)

val skew_env : string
(** Setting [ASIM_PAR_SKEW=1] plants a lost update: the first partition
    with any cross-partition imports silently drops its whole import phase
    and runs on stale inputs — the bug the barrier + mailbox discipline
    exists to prevent.  The differential oracle must catch it (a must-fail
    check, like the optimizer's [ASIM_OPT_SKEW]).  A no-op with one partition
    or no cross-partition edges. *)

(** A partitioning decision, exposed for tests and diagnostics. *)
type plan = {
  p_domains : int;  (** effective partition count *)
  p_assign : int array;  (** partition, by topological position *)
  p_groups : int array;  (** sync group, by topological position *)
  p_ngroups : int;  (** barriers per cycle (plus the end-of-wave one) *)
  p_loads : float array;  (** modelled cost per partition *)
  p_cut : int;  (** cross-partition combinational edges *)
}

val plan :
  ?costs:(string * float) list ->
  ?assign:int array ->
  domains:int ->
  Asim_analysis.Analysis.t ->
  plan
(** Partition the spec's combinational components.  [costs] is a measured
    per-component cost model (e.g. {!Asim_prof.Prof} evals x words);
    components it does not cover fall back to static flat-program word
    counts.  [assign] overrides the partitioner entirely with an explicit
    partition per topological position (values taken mod [domains]) — the
    equivalence tests drive random assignments through this.  [domains] is
    clamped to [1 ..min 16 ncomb].  Deterministic for equal inputs. *)

val create :
  ?config:Asim_sim.Machine.config ->
  ?tracer:Asim_obs.Tracer.t ->
  ?domains:int ->
  ?costs:(string * float) list ->
  ?assign:int array ->
  Asim_analysis.Analysis.t ->
  Asim_sim.Machine.t
(** Build the partitioned machine.  [domains] defaults to
    {!default_domains}; observable behavior (state, traces, I/O, statistics,
    errors) is identical for every domain count — only the schedule differs.
    No profiling support: the per-eval counters would race across domains
    (use the flat engine to collect a profile, then feed its cost model back
    here via [costs]). *)
