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

    A spec whose combinational components fit in one supernode
    ({!Asim_analysis.Analysis.supernode_size} components in evaluation
    order, the flat kernel's activity grain) gets one straight-line step
    function that evaluates every component every cycle.  A larger spec is
    split into one chunk per supernode, each a top-level function, and the
    step runs a chunk only when its activity byte is set.  A component read by a later chunk stores only on change
    and then sets the readers' bytes; a memory update does the same right
    after its own update.  Every chunk starts active, a chunk's byte is
    cleared only after it returns (a selector error re-raises on the next
    step), and a chunk holding a fault target is pinned active. *)

val clear_memory_cache : unit -> unit
(** Drop the in-process factory memo (test hook: forces the next {!create} to
    go back to the disk cache and Dynlink again). *)

val create :
  ?config:Asim_sim.Machine.config ->
  ?tracer:Asim_obs.Tracer.t ->
  ?cache_dir:string ->
  Asim_analysis.Analysis.t ->
  Asim_sim.Machine.t
(** Build (or reuse) the compiled plugin for this spec and wire it into a
    {!Asim_sim.Machine.t}.  Emits [codegen.native.compile] and
    [codegen.native.dynlink] spans (with [cache=hit|miss] args) on [tracer].
    Raises [Asim_core.Error.Error] with phase [Runtime] when no toolchain is
    available or the out-of-process compile fails.

    Single flight is per spec: concurrent requests for one spec (from any
    domain) share one build, builds of different specs proceed side by
    side, Dynlink itself is serialized, and the on-disk lock file keeps the
    guarantee across processes. *)
