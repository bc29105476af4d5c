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
module Specs = Specs

type par = { domains : int; costs : (string * float) list }

type counting = [ `Interp | `Compiled | `Flat ]

type engine = [ counting | `Native | `Par of par ]

let engine_of_string s : engine option =
  match s with
  | "interp" -> Some `Interp
  | "compiled" -> Some `Compiled
  | "flat" -> Some `Flat
  | "native" -> Some `Native
  | "par" -> Some (`Par { domains = Par.default_domains (); costs = [] })
  | _ -> None

let engine_to_string = function
  | `Interp -> "interp"
  | `Compiled -> "compiled"
  | `Flat -> "flat"
  | `Native -> "native"
  | `Par _ -> "par"

let load_string source = Analysis.analyze (Parser.parse_string source)

let load_file path = Analysis.analyze (Parser.parse_file path)

let build_counting ?config ?tracer ?prof (engine : [< counting ]) analysis =
  match engine with
  | `Interp -> Interp.create ?config ?prof analysis
  | `Compiled -> Compile.create ?config ?prof analysis
  | `Flat -> Flat.create ?config ?tracer ?prof analysis

let machine ?config ?tracer ?(engine = `Compiled) analysis =
  match engine with
  | #counting as engine -> build_counting ?config ?tracer engine analysis
  | `Native -> Jit.create ?config ?tracer analysis
  | `Par { domains; costs } -> Par.create ?config ?tracer ~domains ~costs analysis

let profiled ?config ?tracer ~engine prof analysis =
  build_counting ?config ?tracer ~prof engine analysis

let counting = function
  | #counting as engine -> engine
  | `Native ->
      Error.failf Error.Runtime
        "the native engine does not support profiling (the generated plugin \
         carries no counters); use flat, compiled or interp"
  | `Par _ ->
      Error.failf Error.Runtime
        "the partitioned engine does not support profiling (per-eval counters \
         would race across domains); collect the profile on flat and feed its \
         cost model back with --par-profile"

let run_analysis ?config ?engine ?cycles analysis =
  let m = machine ?config ?engine analysis in
  let cycles =
    match cycles with Some n -> n | None -> Machine.spec_cycles m ~default:0
  in
  Machine.run m ~cycles;
  m

let run_string ?config ?engine ?cycles source =
  run_analysis ?config ?engine ?cycles (load_string source)

let run_file ?config ?engine ?cycles path =
  run_analysis ?config ?engine ?cycles (load_file path)
