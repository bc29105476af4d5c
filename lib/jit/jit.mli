(** The native-compiled engine: the spec lowered to an OCaml module, compiled
    by the host toolchain out of process, and Dynlinked back in — the paper's
    own translate/compile/execute build, with a content-addressed artifact
    cache so repeat runs pay the compiler once.

    Observable behavior (tracing, memory-mapped I/O, statistics, fault
    injection, runtime errors) is identical to the in-process engines: the
    generated code depends only on the canonical spec, and every side effect
    enters through host closures in {!Asim_jit_runtime.ctx}. *)

val available : unit -> bool
(** Whether a usable toolchain answered [-version] ([ocamlfind ocamlopt] or
    [ocamlopt] under native code; [ocamlfind ocamlc]/[ocamlc] under
    bytecode).  When false, {!create} raises a one-line actionable
    [Asim_core.Error.Error]. *)

val toolchain_description : unit -> string option
(** The selected compiler command and its reported version, e.g.
    ["ocamlfind ocamlopt 5.1.1"] — used to tag benchmark rows. *)

val default_cache_dir : unit -> string
(** [$ASIM_JIT_CACHE_DIR], else [$XDG_CACHE_HOME|$HOME/.cache]/asim/jit. *)

val artifact_path : cache_dir:string -> Asim_analysis.Analysis.t -> string
(** Where the compiled artifact for this analysis lives (or would live) under
    [cache_dir] — keyed by the canonical-form MD5 inside a subdirectory naming
    the compiler version and the runtime interface digest. *)

val generate_source : Asim_analysis.Analysis.t -> string
(** The self-contained OCaml module handed to the toolchain.  Deterministic,
    and independent of any [Machine.config]: one artifact serves every
    tracing/I/O/fault configuration.

    A spec whose combinational components fit in one chunk (128, in
    evaluation order) gets one straight-line step function that evaluates
    every component every cycle.  A larger spec is split into chunks, each
    a top-level function, and the step runs a chunk only when its activity
    byte is set.  A component read by a later chunk stores only on change
    and then sets the readers' bytes; a memory update does the same right
    after its own update.  Every chunk starts active, a chunk's byte is
    cleared only after it returns (a selector error re-raises on the next
    step), and a chunk holding a fault target is pinned active. *)

val clear_memory_cache : unit -> unit
(** Drop the in-process factory memo (test hook: forces the next {!create} to
    go back to the disk cache and Dynlink again). *)

val prepare :
  ?tracer:Asim_obs.Tracer.t ->
  ?cache_dir:string ->
  Asim_analysis.Analysis.t ->
  unit
(** Compile (or fetch from the artifact cache) and Dynlink the plugin for
    this spec into the in-process factory memo without building a machine,
    so a later {!create} is instant.  This is the tiered engine's background
    half: safe to call from another domain.  Single flight is per spec:
    concurrent requests for one spec share one build, builds of different
    specs proceed side by side, Dynlink itself is serialized, and the
    on-disk lock file keeps the single-flight guarantee across processes.
    Raises exactly like {!create}. *)

val prepared : Asim_analysis.Analysis.t -> bool
(** Whether the in-process factory memo already holds this spec — i.e. a
    {!create} would succeed without touching the toolchain or the disk.
    Never waits for a build in flight. *)

val create :
  ?config:Asim_sim.Machine.config ->
  ?tracer:Asim_obs.Tracer.t ->
  ?cache_dir:string ->
  ?state:int array * int array ->
  ?stats:Asim_sim.Stats.t ->
  ?start_cycle:int ->
  Asim_analysis.Analysis.t ->
  Asim_sim.Machine.t
(** Build (or reuse) the compiled plugin for this spec and wire it into a
    {!Asim_sim.Machine.t}.  Emits [codegen.native.compile] and
    [codegen.native.dynlink] spans (with [cache=hit|miss] args) on [tracer].
    Raises [Asim_core.Error.Error] with phase [Runtime] when no toolchain is
    available or the out-of-process compile fails.

    The three adoption parameters exist for the tiered engine's mid-run
    hot-swap; they default to a fresh machine.  [state] is a live
    [(vals, cells)] pair in the flat layout (slot per component in spec
    order; cells concatenated in memory declaration order — the same layout
    {!Asim_flat.Flat.create_exposed} exposes): the machine runs directly
    over the given arrays, skips the init-image blit, and raises when the
    shapes disagree.  [stats] continues an existing counter set instead of
    starting at zero.  [start_cycle] (default 0) numbers the first executed
    cycle — trace lines, fault windows and runtime-error messages all key
    off it. *)

val of_spec :
  ?config:Asim_sim.Machine.config ->
  ?tracer:Asim_obs.Tracer.t ->
  ?cache_dir:string ->
  Asim_core.Spec.t ->
  Asim_sim.Machine.t
