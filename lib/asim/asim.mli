(** Umbrella entry point: load a specification and run it under either
    engine.  Also re-exports the sub-libraries under short aliases so most
    users need only [Asim]. *)

module Bits = Asim_core.Bits
module Number = Asim_core.Number
module Expr = Asim_core.Expr
module Component = Asim_core.Component
module Spec = Asim_core.Spec
module Pretty = Asim_core.Pretty
module Error = Asim_core.Error
module Parser = Asim_syntax.Parser
module Macro = Asim_syntax.Macro
module Analysis = Asim_analysis.Analysis
module Depgraph = Asim_analysis.Depgraph
module Width = Asim_analysis.Width
module Io = Asim_sim.Io
module Trace = Asim_sim.Trace
module Stats = Asim_sim.Stats
module Fault = Asim_sim.Fault
module Profile = Asim_sim.Profile
module Coverage = Asim_sim.Coverage
module Machine = Asim_sim.Machine
module Vcd = Asim_sim.Vcd
module Interp = Asim_interp.Interp
module Compile = Asim_compile.Compile
module Flat = Asim_flat.Flat
module Jit = Asim_jit.Jit
module Par = Asim_par.Par
module Prof = Asim_prof.Prof
module Opt = Asim_opt.Opt

module Specs : module type of Specs
(** Embedded example specifications. *)

(** One engine and its own settings: the single description of an engine,
    shared by [asim run]'s [-e], batch and serve jobs and the fuzz oracle.

    [`Interp] is the ASIM baseline; [`Compiled] is the ASIM II contribution
    ({!Compile}, §4.4 constant-operand optimizations on) and [`Unoptimized]
    the same compiler with them off; [`Flat] is the int-coded flat program
    with activity-driven scheduling ({!Flat}) and [`FlatFull] the same
    kernel re-evaluating everything every cycle; [`Native] is the
    Dynlink-JIT over the codegen backend ({!Jit} — needs an OCaml toolchain
    on PATH); [`Par] is the flat kernel partitioned across [domains]
    domains and run bulk-synchronously ({!Par}), its partitioner balancing
    [costs] (a measured per-component cost model; [[]] means static
    flat-program word counts). *)

type par = { domains : int; costs : (string * float) list }

type counting = [ `Interp | `Compiled | `Unoptimized | `Flat | `FlatFull ]
(** The engines whose machines can carry a {!Prof} profile.  [`Native]'s
    generated plugin has no counters and [`Par]'s would race across
    domains. *)

type engine = [ counting | `Native | `Par of par ]

val engine_of_string : string -> engine option
(** ["interp"]/["interpreter"]/["asim"], ["compiled"]/["compile"]/["asim2"]/
    ["asimii"], ["unoptimized"]/["unopt"], ["flat"]/["flat-kernel"]/
    ["flatkernel"], ["flat-full"]/["flat_full"]/["flatfull"],
    ["native"]/["jit"] and ["par"]/["bsp"]/["partitioned"]
    (case-insensitive).  Settings take their built-in defaults:
    {!Par.default_domains} with no cost model. *)

val engine_to_string : [< engine ] -> string
(** The short [-e] spelling: ["interp"], ["compiled"], ["unoptimized"],
    ["flat"], ["flat-full"], ["native"] or ["par"]. *)

val load_string : string -> Analysis.t
(** Parse and analyze a specification source.  Raises {!Error.Error}. *)

val load_file : string -> Analysis.t

val machine :
  ?config:Machine.config ->
  ?tracer:Asim_obs.Tracer.t ->
  ?engine:engine ->
  Analysis.t ->
  Machine.t
(** Instantiate a runnable machine on [engine] (default [`Compiled]);
    [config] defaults to {!Machine.default_config}.  Every engine runs the
    analysis it is given: a caller that wants the {!Opt} middle-end runs it
    first.  [tracer] receives the engines' build spans. *)

val profiled :
  ?config:Machine.config ->
  ?tracer:Asim_obs.Tracer.t ->
  engine:[< counting ] ->
  Prof.t ->
  Analysis.t ->
  Machine.t
(** {!machine} with a {!Prof} profile attached.  Only a counting engine is
    accepted; {!counting} narrows an engine chosen at run time. *)

val counting : engine -> counting
(** [engine] itself when it counts.  [`Native] and [`Par] raise
    {!Error.Error} (runtime phase) saying why they cannot be profiled. *)

val run_string :
  ?config:Machine.config -> ?engine:engine -> ?cycles:int -> string -> Machine.t
(** Convenience: load, build, and run.  The cycle count is [cycles] if given,
    else the spec's [= N], else 0 steps.  Returns the machine (stats, cells
    and outputs are inspectable afterwards). *)

val run_file :
  ?config:Machine.config -> ?engine:engine -> ?cycles:int -> string -> Machine.t
