(** Performance counters for the *simulated* machine.

    lib/obs watches the simulator process (spans, RED metrics); this module
    watches the simulated design: which ALUs/selectors actually evaluate,
    which dirty bits never fire, where the memory traffic goes, and — via a
    sampled cycle profiler — where the wall time of a cycle is spent across
    the topological levels of the combinational network.  The measured
    eval counts double as the per-component cost model that a static
    partitioner (GSIM-style, see ROADMAP) consumes.

    A profile is wired into an engine at construction time
    ([Asim.profiled], which accepts only the engines that count); with no
    profile the engines build exactly the
    code they always built, so the profiling-off path costs nothing (the
    zero-allocation assertion in test_flat covers it).  With a profile
    attached the hot path grows by one preallocated-int-array increment per
    component evaluation — everything else is derived:

    - dirty skips: every combinational component is considered exactly once
      per cycle, so [skips = cycles - evals] per component;
    - memory reads/writes/inputs/outputs: copied from the engine's
      {!Asim_sim.Stats} counters, which every engine already maintains;
    - fault triggers: counted only when an injected fault actually perturbs
      a value (fault paths are off the benchmark hot loop);
    - quiet memories: the flat kernel's memory phase returns how many
      memories it left unevaluated, added once per cycle;
    - I/O waits: the handler is wrapped with a {!Asim_obs.Clock} timer.

    Counter arrays are indexed by component {e slot} — the component's
    position in spec declaration order, which is also the flat kernel's
    value-array layout. *)

type t = {
  names : string array;  (** by slot (spec declaration order) *)
  kinds : char array;  (** ['A'] alu, ['S'] selector, ['M'] memory *)
  levels : int array;
      (** topological level of each combinational slot (0 = reads no
          combinational outputs); [-1] for memories *)
  nlevels : int;
  sample_every : int;  (** cycle-profiler sampling period *)
  (* Hot counters, written by the engines. *)
  evals : int array;  (** combinational evaluations, by slot *)
  faults : int array;  (** fault-perturbed values, by slot *)
  (* Derived counters, filled by [finalize] (any report entry point). *)
  skips : int array;  (** dirty-bit skips, by slot *)
  reads : int array;  (** memory reads, by slot *)
  writes : int array;
  inputs : int array;
  outputs : int array;
  words : int array;
      (** static cost: flat-program words per component block (filled by the
          flat kernel; 0 under other engines) *)
  (* Sampled cycle profiler. *)
  level_ns : float array;  (** sampled comb wall time, by level *)
  mutable mem_ns : float;  (** sampled memory-phase wall time *)
  mutable sampled_ns : float;  (** total wall time of sampled cycles *)
  mutable sampled_cycles : int;
  mutable io_ns : float;  (** wall time inside the I/O handler *)
  mutable io_events : int;
  mutable cycles : int;  (** cycles executed with this profile attached *)
  mutable supernodes : int;
      (** the flat kernel's supernodes ({!Asim_analysis.Analysis.supernode_size}
          combinational components each); 0 under engines without them *)
  mutable supernode_scans : int;
      (** supernodes whose components were scanned: one per supernode
          found active in a cycle *)
  mutable memory_skips : int;
      (** quiet memories: reads and writes the flat kernel counted and
          traced without evaluating, because nothing they read had changed
          since their last update; 0 under engines without memory
          activity *)
  mutable engine : string;
  mutable stats : Asim_sim.Stats.t option;
      (** engine statistics, source of the per-memory counters *)
}

val create : ?sample_every:int -> Asim_analysis.Analysis.t -> t
(** A zeroed profile for one analyzed spec.  [sample_every] (default 256)
    is the cycle-profiler period: every Nth cycle is timed per topological
    level.  Raises [Invalid_argument] if [sample_every < 1]. *)

val slot : t -> string -> int
(** Slot of a component name; raises [Not_found] for unknown names. *)

val attach_stats : t -> Asim_sim.Stats.t -> unit
(** Point the profile at the engine's statistics so [finalize] can copy the
    per-memory operation counts.  Engines call this at construction. *)

val instrument_io : t -> Asim_sim.Io.handler -> Asim_sim.Io.handler
(** Wrap an I/O handler so transfer latency accumulates into [io_ns] /
    [io_events].  Engines apply this when a profile is attached. *)

val finalize : t -> unit
(** Fill the derived counters ([skips], memory ops from the attached
    stats).  Idempotent; every report entry point below calls it. *)

(** {2 Reports} *)

type row = {
  r_slot : int;
  r_name : string;
  r_kind : char;
  r_level : int;  (** -1 for memories *)
  r_line : int;  (** 1-based spec source line, 0 when unknown *)
  r_evals : int;
  r_skips : int;
  r_reads : int;
  r_writes : int;
  r_inputs : int;
  r_outputs : int;
  r_faults : int;
  r_words : int;
  r_cost : int;
      (** estimated dynamic cost in word-evaluations:
          [evals * max 1 words] for combinational components,
          [accesses * max 1 words] for memories *)
}

val rows : ?source:string -> t -> row list
(** One row per component in slot order.  When the spec [source] text is
    given, definition lines are located by scanning for
    [A|S|M <name> ...] heads. *)

val hot : ?top:int -> ?source:string -> t -> row list
(** Rows sorted by descending [r_cost] (ties by slot), truncated to [top]
    (default 10). *)

val report : ?top:int -> ?source:string -> t -> string
(** Human-readable profile: run header, supernode scans and quiet memories
    per cycle (engines with supernodes), top-N hot components, sampled
    per-level timings and memory traffic. *)

val to_flame : ?source:string -> t -> string
(** Folded flame stacks (one [frame;frame;frame count] line per component,
    collapsed-stack format consumed by flamegraph tools).  Combinational
    components are weighted by estimated cost under their topological
    level; memories by access count. *)

val emit_spans : t -> Asim_obs.Tracer.t -> unit
(** Emit the sampled cycle profile as synthetic Chrome-trace spans
    ([prof.level.N] / [prof.mem]) so a [--trace-out] file shows the
    simulated machine's time breakdown next to the pipeline spans. *)

val export : t -> spec:string -> Asim_obs.Registry.t -> unit
(** Add this profile's counts to [asim_prof_*] registry counters labeled
    with [spec] (and per-series [component]/[memory]).  Adding — not
    setting — so repeated profiled jobs accumulate, Prometheus-style. *)
