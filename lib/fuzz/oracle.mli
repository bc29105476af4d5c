(** Multi-engine differential oracle.

    Runs one spec through every requested engine and compares everything the
    paper treats as observable: per-cycle component outputs, trace text, I/O
    event streams, final memory images, memory-access statistics, and
    runtime errors.  The first engine of the list is the reference; the
    first pair that disagrees yields a {!divergence}. *)

type engine = [ Asim.engine | `Buggy ]
(** Every {!Asim.engine}, with its own settings, plus one the oracle builds
    itself: [`Buggy] is [`Compiled] over a deliberately corrupted spec
    (every constant ALU-function 4/add becomes 5/sub) — a fault-injected
    engine for exercising the oracle and shrinker end to end. *)

val all : engine list
(** The seven honest engines: [`Interp] (the reference), [`Compiled],
    [`Unoptimized], [`Flat], [`FlatFull], [`Par] (at
    {!Asim.Par.default_domains}) and [`Native]. *)

val available : engine -> bool
(** Whether the engine can run here at all.  Only [`Native] can be
    unavailable (no OCaml toolchain on PATH); campaign drivers should drop
    unavailable engines with a warning instead of aborting. *)

val engine_of_string : string -> engine option
(** ["buggy"], or any {!Asim.engine_of_string} name. *)

val engine_to_string : engine -> string

val build :
  engine -> config:Asim_sim.Machine.config -> Asim_analysis.Analysis.t ->
  Asim_sim.Machine.t
(** [`Buggy] here; every other engine through {!Asim.machine}. *)

val inject_bug : Asim_core.Spec.t -> Asim_core.Spec.t
(** The [`Buggy] engine's corruption, exposed for tests: constant ALU
    function add becomes sub.  Specs without a constant-add ALU are returned
    unchanged (the buggy engine then behaves honestly). *)

type observation = {
  snapshots : (string * int) list array;
      (** component outputs after each completed cycle *)
  trace : string;
  events : Asim_sim.Io.event list;
  cells : (string * int list) list;  (** final memory images *)
  outputs : (string * int) list;  (** final component outputs *)
  total_accesses : int;
  error : string option;  (** runtime error, if the run trapped *)
}

val default_feed : int list
(** The input stream served to [op = 2] memories: the first 20 digits of pi,
    repeated as needed. *)

val observe :
  ?feed:int list -> ?cycles:int -> ?opt:Asim_opt.Opt.level -> engine ->
  Asim_core.Spec.t -> observation
(** Run [spec] on one engine for [cycles] (default: the spec's [= N]
    directive, else 20), recording all observables.  A runtime error stops
    the run and is recorded, not raised.  With [opt] above [O0] the
    optimized-class engines (flat, flat-full, par, native) consume
    the [Asim_opt.Opt.run] rewrite while the reference class (interp,
    compiled, unoptimized, buggy) stays on the raw spec — a
    middle-end miscompile therefore surfaces as a divergence.  Components
    stubbed by dead-component elimination are masked to 0 in the snapshots
    and final outputs of {e every} engine so DCE itself is not reported. *)

type divergence = {
  engine_a : engine;  (** the reference *)
  engine_b : engine;
  first_cycle : int option;
      (** earliest cycle whose component outputs differ, if any do *)
  reason : string;  (** which observables disagree, with the first detail *)
}

val diff :
  engine_a:engine -> engine_b:engine -> observation -> observation ->
  divergence option

val check :
  ?feed:int list -> ?cycles:int -> ?opt:Asim_opt.Opt.level ->
  ?engines:engine list -> Asim_core.Spec.t -> divergence option
(** Observe [spec] on every engine (default: the engines of {!all} that
    are {!available}) and compare each against the first; [None] means all
    engines agree on everything.  [opt] (default [O0]) optimizes the
    optimized-class engines as in {!observe}. *)

val divergence_to_string : divergence -> string
