(* The in-process phase: every layer is timed from outside, by calling its
   public entry point (Parser, Analysis, Opt, the five engines' [create],
   Machine.run), and every simulated result is checked against an untimed
   reference on the raw (-O0) spec. *)

open Asim_core
module Analysis = Asim.Analysis
module Machine = Asim.Machine
module Io = Asim.Io
module Opt = Asim.Opt
module Tracer = Asim_obs.Tracer
module Json = Asim_batch.Json

type engine = Interp | Compiled | Flat | Par | Native

let engines = [ Interp; Compiled; Flat; Par; Native ]

let engine_name = function
  | Interp -> "interp"
  | Compiled -> "compiled"
  | Flat -> "flat"
  | Par -> "par"
  | Native -> "native"

(* Par runs on two domains: all the cores of the 2-core machine the bounds
   were set on.  Where fewer cores are online its rows are tagged invalid. *)
let par_domains = 2

(* A sample aims at this much host time, so short and long kernels alike
   are timed well above clock resolution and scheduler quanta. *)
let target_sample_s = 0.04

(* Builds of small specs are batched up to this much host time. *)
let target_build_s = 0.01

type ctx = {
  tracer : Tracer.t;  (** the program's own spans; null when untraced *)
  jit_root : string;  (** parent of every plugin cache this run creates *)
  mutable colds : int;  (** cold native builds so far, one cache each *)
  tally : Tally.t;
}

let jit_dir ctx = Filename.concat ctx.jit_root (string_of_int ctx.colds)

(* A cold native build starts from an empty in-process memo and an empty
   artifact cache, so it pays codegen, ocamlopt and dynlink. *)
let go_cold ctx =
  Asim.Jit.clear_memory_cache ();
  ctx.colds <- ctx.colds + 1

let create ?(tracer = Tracer.null) ctx engine config analysis =
  match engine with
  | Interp -> Asim.Interp.create ~config analysis
  | Compiled -> Asim.Compile.create ~config analysis
  | Flat -> Asim.Flat.create ~config ~tracer analysis
  | Par -> Asim.Par.create ~config ~tracer ~domains:par_domains analysis
  | Native -> Asim.Jit.create ~config ~tracer ~cache_dir:(jit_dir ctx) analysis

(* --- front end --------------------------------------------------------------- *)

type front = {
  item : Workload.item;
  raw : Analysis.t;
  opt : Opt.result;
  dead : (string, unit) Hashtbl.t;  (** components DCE made unobservable *)
}

let front_end (item : Workload.item) =
  let raw = Analysis.analyze (Asim.Parser.parse_string item.text) in
  let opt = Opt.run_result ~level:Opt.O2 raw in
  let dead = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace dead n ()) opt.dead;
  { item; raw; opt; dead }

let total_cycles fronts = List.fold_left (fun acc f -> acc + f.item.Workload.cycles) 0 fronts

(* --- correctness ------------------------------------------------------------- *)

(* What a run must reproduce exactly: statistics, the cells of every memory
   the optimizer kept observable, and the I/O event stream. *)
type witness = { stats : string; accesses : int; cells : Digest.t; events : Io.event list }

let witness f (m : Machine.t) events =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (c : Component.t) ->
      match c.kind with
      | Component.Memory { cells; _ } when not (Hashtbl.mem f.dead c.name) ->
          Buffer.add_string buf c.name;
          for i = 0 to cells - 1 do
            Buffer.add_char buf ' ';
            Buffer.add_string buf (string_of_int (m.read_cell c.name i))
          done
      | _ -> ())
    f.raw.memories;
  {
    stats = Json.to_string (Asim_batch.Runner.stats_to_json m.stats);
    accesses = Asim.Stats.total_accesses m.stats;
    cells = Digest.string (Buffer.contents buf);
    events = events ();
  }

let recording () =
  let io, events = Io.recording () in
  ({ Machine.quiet_config with io }, events)

(* Runs mode: the compiled engine on the raw spec, once per item.  The
   Figure 5.1 sieve must also print the primes the thesis lists. *)
let reference ctx f =
  let config, events = recording () in
  let m = Asim.Compile.create ~config f.raw in
  Machine.run m ~cycles:f.item.cycles;
  let w = witness f m events in
  if f.item.label = "sieve" then
    Tally.check ctx.tally
      (List.filter_map
         (function Io.Output { data; _ } -> Some data | Io.Input _ -> None)
         w.events
      = Asim_stackm.Programs.sieve_expected_primes)
      "sieve reference did not print the expected primes";
  w

let check ctx engine f expected (m, events) =
  match witness f m events with
  | w ->
      Tally.check ctx.tally (w = expected)
        (Printf.sprintf "%s diverged from the -O0 reference on %s at cycle %d"
           (engine_name engine) f.item.label (m.current_cycle ()))
  | exception Error.Error e -> Tally.check ctx.tally false (engine_name engine ^ ": " ^ Error.to_string e)

(* --- samples ----------------------------------------------------------------- *)

type samples = {
  engine : engine;
  mutable builds : float list;  (** seconds, analysis -> runnable machines *)
  mutable firsts : float list;  (** seconds, first cycle of fresh machines *)
  mutable ns : float list;  (** host ns per simulated cycle, one per sample *)
  mutable k : int;  (** runs (Runs mode) or cycles (Continuous) per sample *)
  mutable batch : int;  (** builds per build sample *)
  mutable live : (Machine.t * (unit -> Io.event list)) option;
      (** Continuous mode: the machine that runs on *)
  mutable jit_spans : (string * float) list list;
      (** traced runs: the program's span seconds, per cold native build *)
  mutable wholes : float list;
      (** traced runs: seconds of one spec-text -> result call per item *)
}

let span_seconds tracer =
  List.fold_left
    (fun acc (e : Tracer.event) ->
      let prev = Option.value (List.assoc_opt e.name acc) ~default:0.0 in
      (e.name, prev +. (e.dur_us *. 1e-6)) :: List.remove_assoc e.name acc)
    [] (Tracer.events tracer)

(* Build every item's machine [s.batch] times, timing the builds and each
   fresh machine's first cycle; the sample is the mean per build.  Small
   specs build in microseconds, so the batch makes a measurable sample.
   Native builds are cold and one per sample; a traced run keeps each cold
   build's codegen spans.  Returns the last machines built. *)
let build ctx s fronts ~traced =
  let tb = ref 0.0 and tf = ref 0.0 and last = ref [] in
  for _ = 1 to s.batch do
    let tracer =
      match s.engine with
      | Native ->
          go_cold ctx;
          if traced then Tracer.create () else Tracer.null
      | _ -> ctx.tracer
    in
    let configs = List.map (fun _ -> recording ()) fronts in
    let machines, t =
      Sample.time (fun () ->
          List.map2
            (fun f (config, events) -> (create ~tracer ctx s.engine config f.opt.analysis, events))
            fronts configs)
    in
    let (), t1 = Sample.time (fun () -> List.iter (fun ((m : Machine.t), _) -> m.step ()) machines) in
    tb := !tb +. t;
    tf := !tf +. t1;
    last := machines;
    if s.engine = Native && traced then s.jit_spans <- span_seconds tracer :: s.jit_spans
  done;
  s.builds <- (!tb /. float_of_int s.batch) :: s.builds;
  s.firsts <- (!tf /. float_of_int s.batch) :: s.firsts;
  Tally.ok ctx.tally;
  !last

(* Runs mode: k fresh machines per item, built untimed, each running the
   item's whole cycle count; every run is checked. *)
let runs_sample ctx s fronts refs =
  let batch =
    List.init s.k (fun _ ->
        List.map
          (fun f ->
            let config, events = recording () in
            (f, (create ctx s.engine config f.opt.analysis, events)))
          fronts)
  in
  let (), t =
    Sample.time (fun () ->
        List.iter (List.iter (fun (f, (m, _)) -> Machine.run m ~cycles:f.item.Workload.cycles)) batch)
  in
  List.iter (List.iter2 (fun r (f, run) -> check ctx s.engine f r run) refs) batch;
  t *. 1e9 /. float_of_int (s.k * total_cycles fronts)

let continuous_sample s =
  match s.live with
  | Some (m, _) ->
      let (), t = Sample.time (fun () -> Machine.run m ~cycles:s.k) in
      t *. 1e9 /. float_of_int s.k
  | None -> invalid_arg "continuous_sample"

let measure ctx s fronts refs mode =
  match
    match mode with
    | Workload.Runs -> runs_sample ctx s fronts refs
    | Workload.Continuous -> continuous_sample s
  with
  | ns ->
      Tally.ok ctx.tally;
      Some ns
  | exception Error.Error e ->
      Tally.check ctx.tally false (engine_name s.engine ^ ": " ^ Error.to_string e);
      None

let fits target t = max 1 (int_of_float (target /. t))

(* One warm-up sample, of one run or one cycle, sizes the rest; its time
   is discarded. *)
let size_samples ctx s fronts refs mode =
  s.k <- 1;
  let unit_cycles = match mode with Workload.Runs -> total_cycles fronts | Workload.Continuous -> 1 in
  Option.iter
    (fun ns -> s.k <- fits target_sample_s (ns *. 1e-9 *. float_of_int unit_cycles))
    (measure ctx s fronts refs mode)

(* Continuous mode: check every engine's final state against the flat
   engine on the raw spec, stepped once through all the engines' final
   cycle counts.  (The compiled engine runs 10k-component specs 20-30x
   slower than flat and would dominate the run.)  Returns the simulated
   witness statistic: memory accesses of the raw spec at its own [= N]. *)
let check_continuous ctx front all =
  let config, events = recording () in
  let reference = Asim.Flat.create ~config front.raw in
  let cycle s = match s.live with Some (m, _) -> m.current_cycle () | None -> 0 in
  let stops = List.sort_uniq compare (front.item.cycles :: List.map cycle all) in
  List.fold_left
    (fun accesses stop ->
      Machine.run reference ~cycles:(stop - reference.current_cycle ());
      let w = witness front reference events in
      List.iter
        (fun s ->
          match s.live with
          | Some run when cycle s = stop -> check ctx s.engine front w run
          | _ -> ())
        all;
      if stop = front.item.cycles then w.accesses else accesses)
    0 stops

(* The cycles a whole call runs per item: the item's own count, or in
   Continuous mode one steady sample's worth. *)
let whole_cycles mode s (item : Workload.item) =
  match mode with Workload.Runs -> item.cycles | Workload.Continuous -> s.k

(* One spec-text -> result call per item, timed whole: what the layer
   samples must add up to. *)
let whole ?(tracer = Tracer.null) ctx engine items ~cycles =
  if engine = Native then go_cold ctx;
  snd
    (Sample.time (fun () ->
         List.iter
           (fun (item : Workload.item) ->
             let f = front_end item in
             let config, _ = recording () in
             Machine.run (create ~tracer ctx engine config f.opt.analysis) ~cycles:(cycles item))
           items))

(* --- the phase --------------------------------------------------------------- *)

type phase = {
  fronts : front list;
  samples : samples list;  (** in [engines] order *)
  mem_accesses : int;  (** the simulated witness: identical on every run *)
}

let by_engine phase engine = List.find (fun s -> s.engine = engine) phase.samples

(* A task of [n] samples spread evenly inside [budget] seconds from its
   creation: how work too costly for every round still samples the whole
   run. *)
type spread = { n : int; budget : float; start : float; mutable taken : int }

let spread n ~budget = { n = max 0 n; budget; start = Sample.now (); taken = 0 }
let pending sp = sp.taken < sp.n

let due sp =
  let at = float_of_int (sp.taken + 1) *. sp.budget /. float_of_int (sp.n + 1) in
  let due = pending sp && Sample.now () -. sp.start >= at in
  if due then sp.taken <- sp.taken + 1;
  due

(* Rounds until [budget] seconds have passed and every spread task is done,
   each round a build sample and a steady-state sample per engine, plus
   whatever [each_round] adds (the caller's set-ups and serve bursts; it
   answers whether it still has work pending).  Spreading every kind of
   sample over the whole run keeps a burst of contention from owning any
   one metric.  The engine order rotates every round, starting from the
   seed. *)
let run ctx (w : Workload.t) fronts ~budget ~min_rounds ~seed ~traced ~each_round =
  let refs =
    match w.mode with Workload.Runs -> List.map (reference ctx) fronts | Workload.Continuous -> []
  in
  let continuous = w.mode = Workload.Continuous in
  (* Builds too costly for every round: cold native ones, and a 10k-component
     interpreter's, which takes longer than a round. *)
  let costly engine =
    match engine with
    | Native -> Some (w.native_cold - 1)
    | Interp when continuous -> Some 2
    | _ -> None
  in
  let samples =
    List.map
      (fun engine ->
        let s =
          {
            engine;
            builds = [];
            firsts = [];
            ns = [];
            k = 1;
            batch = 1;
            live = None;
            jit_spans = [];
            wholes = [];
          }
        in
        let machines = build ctx s fronts ~traced in
        if continuous then s.live <- Some (List.hd machines);
        (* the first build warms up and sizes the batch of later ones; a
           costly build counts as it is *)
        if costly engine = None then begin
          s.batch <- fits target_build_s (List.hd s.builds);
          s.builds <- [];
          s.firsts <- []
        end;
        s)
      engines
  in
  List.iter (fun s -> size_samples ctx s fronts refs w.mode) samples;
  let rebuilds =
    List.map (fun s -> (s.engine, Option.map (fun n -> spread n ~budget) (costly s.engine))) samples
  in
  (* Traced runs also time whole calls, spread over the run like the layer
     samples they are compared with; the costly ones fewer times. *)
  let wholes =
    List.map
      (fun s ->
        let n =
          match (s.engine, continuous) with
          | _ when not traced -> 0
          | _ when budget = 0.0 -> 1 (* a smoke run *)
          | Native, true -> 2
          | Interp, true -> 3
          | _, true -> 6
          | _, false -> 8
        in
        (s.engine, spread n ~budget))
      samples
  in
  let tasks = List.filter_map snd rebuilds @ List.map snd wholes in
  let n = List.length samples in
  let start = Sample.now () in
  let round = ref 0 and more = ref true in
  while !round < min_rounds || Sample.now () -. start < budget || !more || List.exists pending tasks do
    more := each_round ();
    List.iteri
      (fun i _ ->
        let s = List.nth samples ((i + seed + !round) mod n) in
        (match List.assoc s.engine rebuilds with
        | None -> ignore (build ctx s fronts ~traced)
        | Some sp -> if due sp then ignore (build ctx s fronts ~traced));
        let sp = List.assoc s.engine wholes in
        while due sp do
          s.wholes <- whole ctx s.engine w.items ~cycles:(whole_cycles w.mode s) :: s.wholes
        done;
        Option.iter (fun ns -> s.ns <- ns :: s.ns) (measure ctx s fronts refs w.mode))
      samples;
    incr round
  done;
  let mem_accesses =
    match w.mode with
    | Workload.Continuous -> check_continuous ctx (List.hd fronts) samples
    | Workload.Runs -> List.fold_left (fun acc r -> acc + r.accesses) 0 refs
  in
  { fronts; samples; mem_accesses }
