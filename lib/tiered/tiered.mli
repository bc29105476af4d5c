(** The tiered engine: flat-first execution with a background JIT hot-swap.

    The engines restate the paper's Figure 5.1 tension: the
    native Dynlink engine is two orders of magnitude faster than the
    interpreter steady-state but slower than the flat kernel until a
    ~128 ms compile has amortized.  This engine refuses the choice.  It
    starts executing immediately on the flat kernel
    ({!Asim_flat.Flat.create_exposed}), spawns one background domain that
    drives the existing {!Asim_jit.Jit} pipeline (same content-addressed
    artifact cache, same single-flight locks), and — once the plugin is
    compiled and Dynlinked — hands execution to the native engine at the
    next cycle boundary.

    {b The handoff.}  Both engines run over the identical flat state
    layout: one [int] slot per component in specification order, every
    memory's cells concatenated in declaration order.  The swap therefore
    builds the native machine directly {e over} the flat machine's live
    arrays ({!Asim_jit.Jit.create}'s [state]/[stats]/[start_cycle]
    adoption): a pointer/closure exchange, no copying.  At a cycle boundary
    those arrays plus the cycle count and statistics are the entire
    future-determining state — combinational slots are recomputed at the
    top of every cycle, and the flat kernel's dirty bits and latched
    address/op temporaries never cross a boundary, so they are simply
    abandoned.  The swap-point lockstep harness (test/test_tiered.ml)
    forces the handoff at adversarial cycles and asserts every observable
    (trace text, I/O events, memory images, statistics, faults, runtime
    errors) is byte-identical to single-engine runs.

    {b Fallbacks.}  Without a toolchain on PATH no domain is spawned: the
    run completes on the flat kernel, one process-wide warning is emitted
    (never per-cycle or per-machine), and the status reports
    [Unavailable].  If the background compile fails, the run likewise
    completes on flat with status [Failed].  Either way the observables
    are unchanged — only the speed differs.

    {b Observability.}  Every swap decision emits a [tiered.swap] span
    with [cycle] (the boundary index), [mode] ([ready] when the plugin was
    already compiled, [wait] when a forced swap blocked on the compile)
    and [outcome] ([swapped], [failed] or [unavailable]) args.

    {b Test hook.}  [ASIM_TIERED_SKEW=1] deliberately mis-numbers the
    native engine's first cycle by one at the swap — a planted off-by-one
    that the lockstep harness (and CI's must-fail check) must catch; never
    set it outside tests. *)

(** When to hand off from the flat kernel to the native engine. *)
type policy =
  | Auto
      (** swap at a cycle boundary shortly after the background compile
          finishes (completion is polled every few hundred cycles so the
          per-cycle hot path stays a single countdown); never blocks
          (default).  The compile domain is spawned
          lazily, once the run has executed {!auto_spawn_cycles} cycles on
          the flat kernel: a run too short to amortize the compile never
          pays domain startup or (on single-core hosts) compiler CPU
          contention.  If the plugin is already in the in-process memo, the
          swap happens at cycle 0 with no domain at all. *)
  | At of int
      (** force the swap at exactly this cycle boundary ([At 0] runs every
          cycle on the native engine), blocking on the compile if it has
          not finished — the deterministic [swap_at_cycle] test hook *)
  | Never  (** stay on the flat kernel; no background compile is started *)

val policy_of_string : string -> policy option
(** ["auto"], ["never"]/["off"], or a non-negative cycle number. *)

val auto_spawn_cycles : int
(** How many cycles an [Auto] run executes on the flat kernel before the
    background compile domain is spawned (16384 ≈ 10 ms of flat execution
    against a ~100 ms compile).  Runs that halt earlier never start a
    compile; forced policies ([At n]) spawn at machine creation instead so
    the deterministic test hook can block at any cycle. *)

val policy_to_string : policy -> string

(** Where the swap ended up. *)
type swap_state =
  | Pending  (** still on flat; the background compile has not finished *)
  | Swapped of int  (** running native since this cycle boundary *)
  | Unavailable  (** no toolchain: the whole run stays on flat *)
  | Failed of string  (** the background compile failed: stays on flat *)
  | Disabled  (** policy [Never] *)

val swap_state_to_string : swap_state -> string
(** ["pending"], ["swapped"], ["unavailable"], ["failed"] or ["disabled"]
    — the value the CLI records under ["swap"] in [--stats-json]. *)

type status = {
  state : swap_state;
  engine : string;  (** the engine currently executing: ["flat"] or ["native"] *)
}

val create_status :
  ?config:Asim_sim.Machine.config ->
  ?tracer:Asim_obs.Tracer.t ->
  ?cache_dir:string ->
  ?swap_at:policy ->
  ?prof:Asim_prof.Prof.t ->
  Asim_analysis.Analysis.t ->
  Asim_sim.Machine.t * (unit -> status)
(** Build a tiered machine plus an inspection function reporting which
    engine is executing and how the swap resolved.  [swap_at] defaults to
    [Auto].  Without a toolchain the first machine of the process warns
    once on stderr (see {!mute_warning}).  [cache_dir] routes the background compile's artifact cache exactly as
    for {!Asim_jit.Jit.create}.

    [prof] attaches an {!Asim_prof.Prof} profile {e and pins the run to
    the instrumented flat kernel} (policy forced to [Never], status
    [Disabled]): the native plugin carries no counters, so swapping would
    silently stop the profile mid-run.  Profiled runs trade the JIT
    speedup for complete attribution. *)

val create :
  ?config:Asim_sim.Machine.config ->
  ?tracer:Asim_obs.Tracer.t ->
  ?cache_dir:string ->
  ?swap_at:policy ->
  ?prof:Asim_prof.Prof.t ->
  Asim_analysis.Analysis.t ->
  Asim_sim.Machine.t
(** {!create_status} without the inspection function. *)

val mute_warning : unit -> unit
(** Drop the no-toolchain warning for the rest of the process, for callers
    that report a missing toolchain themselves (the fuzz oracle, the
    ablations in [bench/main.ml]). *)
