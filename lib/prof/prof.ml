open Asim_core
module Analysis = Asim_analysis.Analysis
module Depgraph = Asim_analysis.Depgraph
module Stats = Asim_sim.Stats
module Io = Asim_sim.Io
module Clock = Asim_obs.Clock
module Tracer = Asim_obs.Tracer
module Registry = Asim_obs.Registry

type t = {
  names : string array;
  kinds : char array;
  levels : int array;
  nlevels : int;
  sample_every : int;
  evals : int array;
  faults : int array;
  skips : int array;
  reads : int array;
  writes : int array;
  inputs : int array;
  outputs : int array;
  words : int array;
  level_ns : float array;
  mutable mem_ns : float;
  mutable sampled_ns : float;
  mutable sampled_cycles : int;
  mutable io_ns : float;
  mutable io_events : int;
  mutable cycles : int;
  mutable supernodes : int;
  mutable supernode_scans : int;
  mutable engine : string;
  mutable stats : Stats.t option;
}

(* The slot map is reconstructed on demand (reports, never the hot path);
   keeping it out of [t] keeps the record free of non-counter state. *)
let ids t =
  let h = Hashtbl.create (Array.length t.names) in
  Array.iteri (fun i name -> Hashtbl.replace h name i) t.names;
  h

let slot t name =
  let rec go i =
    if i >= Array.length t.names then raise Not_found
    else if String.equal t.names.(i) name then i
    else go (i + 1)
  in
  go 0

let attach_stats t stats = t.stats <- Some stats

let create ?(sample_every = 256) (analysis : Analysis.t) =
  if sample_every < 1 then invalid_arg "Prof.create: sample_every must be >= 1";
  let spec = analysis.Analysis.spec in
  let comps = Array.of_list spec.Spec.components in
  let n = Array.length comps in
  let names = Array.map (fun (c : Component.t) -> c.name) comps in
  let kinds =
    Array.map
      (fun (c : Component.t) ->
        match c.kind with
        | Component.Alu _ -> 'A'
        | Component.Selector _ -> 'S'
        | Component.Memory _ -> 'M')
      comps
  in
  let id = Hashtbl.create (max 16 n) in
  Array.iteri (fun i name -> Hashtbl.replace id name i) names;
  (* Topological level: 0 = reads no combinational outputs; memories stay
     at -1 (their outputs are one-cycle-delayed temporaries, outside the
     combinational wavefront).  [Analysis.order] is dependency-sorted, so
     every dependency's level is settled before its readers. *)
  let levels = Array.make (max 1 n) (-1) in
  List.iter
    (fun (c : Component.t) ->
      let deps = Depgraph.dependencies spec c in
      let lvl =
        List.fold_left
          (fun acc dep ->
            match Hashtbl.find_opt id dep with
            | Some s -> max acc (levels.(s) + 1)
            | None -> acc)
          0 deps
      in
      levels.(Hashtbl.find id c.Component.name) <- lvl)
    analysis.Analysis.order;
  let nlevels = 1 + Array.fold_left max (-1) levels in
  let zeros () = Array.make (max 1 n) 0 in
  {
    names;
    kinds;
    levels;
    nlevels;
    sample_every;
    evals = zeros ();
    faults = zeros ();
    skips = zeros ();
    reads = zeros ();
    writes = zeros ();
    inputs = zeros ();
    outputs = zeros ();
    words = zeros ();
    level_ns = Array.make (max 1 nlevels) 0.0;
    mem_ns = 0.0;
    sampled_ns = 0.0;
    sampled_cycles = 0;
    io_ns = 0.0;
    io_events = 0;
    cycles = 0;
    supernodes = 0;
    supernode_scans = 0;
    engine = "";
    stats = None;
  }

let instrument_io t (h : Io.handler) =
  {
    Io.input =
      (fun ~address ->
        let t0 = Clock.now () in
        let v = h.Io.input ~address in
        t.io_ns <- t.io_ns +. ((Clock.now () -. t0) *. 1e9);
        t.io_events <- t.io_events + 1;
        v);
    Io.output =
      (fun ~address ~data ->
        let t0 = Clock.now () in
        h.Io.output ~address ~data;
        t.io_ns <- t.io_ns +. ((Clock.now () -. t0) *. 1e9);
        t.io_events <- t.io_events + 1);
  }

let finalize t =
  let id = ids t in
  (match t.stats with
  | None -> ()
  | Some stats ->
      List.iter
        (fun (name, (c : Stats.memory_counters)) ->
          match Hashtbl.find_opt id name with
          | None -> ()
          | Some s ->
              t.reads.(s) <- c.Stats.reads;
              t.writes.(s) <- c.Stats.writes;
              t.inputs.(s) <- c.Stats.inputs;
              t.outputs.(s) <- c.Stats.outputs)
        (Stats.per_memory stats));
  (* Every combinational component is considered exactly once per cycle:
     it either evaluated or its dirty bit was clear. *)
  Array.iteri
    (fun s kind ->
      if kind <> 'M' then t.skips.(s) <- max 0 (t.cycles - t.evals.(s)))
    t.kinds

(* --- reports ------------------------------------------------------------- *)

type row = {
  r_slot : int;
  r_name : string;
  r_kind : char;
  r_level : int;
  r_line : int;
  r_evals : int;
  r_skips : int;
  r_reads : int;
  r_writes : int;
  r_inputs : int;
  r_outputs : int;
  r_faults : int;
  r_words : int;
  r_cost : int;
}

(* Best-effort definition-line lookup: a component definition line reads
   [A|S|M <name> ...] after macro stripping; the first match wins.  Names
   produced by macro expansion may not appear verbatim — those report 0. *)
let source_line_table source =
  let table = Hashtbl.create 64 in
  let lineno = ref 0 in
  String.split_on_char '\n' source
  |> List.iter (fun line ->
         incr lineno;
         let fields =
           String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)
           |> List.filter (fun s -> s <> "")
         in
         match fields with
         | head :: name :: _
           when (match head with
                | "A" | "S" | "M" | "a" | "s" | "m" -> true
                | _ -> false)
                && not (Hashtbl.mem table name) ->
             Hashtbl.replace table name !lineno
         | _ -> ());
  table

let rows ?source t =
  finalize t;
  let lines =
    match source with
    | Some s -> source_line_table s
    | None -> Hashtbl.create 0
  in
  List.init (Array.length t.names) (fun s ->
      let accesses = t.reads.(s) + t.writes.(s) + t.inputs.(s) + t.outputs.(s) in
      let dynamic = if t.kinds.(s) = 'M' then accesses else t.evals.(s) in
      {
        r_slot = s;
        r_name = t.names.(s);
        r_kind = t.kinds.(s);
        r_level = t.levels.(s);
        r_line = Option.value (Hashtbl.find_opt lines t.names.(s)) ~default:0;
        r_evals = t.evals.(s);
        r_skips = t.skips.(s);
        r_reads = t.reads.(s);
        r_writes = t.writes.(s);
        r_inputs = t.inputs.(s);
        r_outputs = t.outputs.(s);
        r_faults = t.faults.(s);
        r_words = t.words.(s);
        r_cost = dynamic * max 1 t.words.(s);
      })

let hot ?(top = 10) ?source t =
  rows ?source t
  |> List.stable_sort (fun a b -> compare b.r_cost a.r_cost)
  |> List.filteri (fun i _ -> i < top)

let report ?(top = 10) ?source t =
  let b = Buffer.create 1024 in
  let all = rows ?source t in
  let total_cost = List.fold_left (fun acc r -> acc + r.r_cost) 0 all in
  Printf.bprintf b
    "profile: engine=%s cycles=%d sampled=%d (every %d)\n"
    (if t.engine = "" then "?" else t.engine)
    t.cycles t.sampled_cycles t.sample_every;
  if t.supernodes > 0 then
    Printf.bprintf b "supernodes: %d, scanned %.2f per cycle\n" t.supernodes
      (if t.cycles = 0 then 0.0
       else float_of_int t.supernode_scans /. float_of_int t.cycles);
  if t.io_events > 0 then
    Printf.bprintf b "io: %d transfers, %.3f ms waiting\n" t.io_events
      (t.io_ns /. 1e6);
  Printf.bprintf b "hot components (cost = evaluations x program words):\n";
  Printf.bprintf b "  %-4s %-12s %-4s %5s %5s %9s %6s %6s %9s %6s\n" "rank"
    "name" "kind" "level" "line" "evals" "skip%" "words" "cost" "share";
  List.iteri
    (fun i r ->
      let considered = r.r_evals + r.r_skips in
      let skip_pct =
        if considered = 0 then 0.0
        else 100.0 *. float_of_int r.r_skips /. float_of_int considered
      in
      Printf.bprintf b "  %-4d %-12s %-4s %5s %5s %9d %5.1f%% %6d %9d %5.1f%%\n"
        (i + 1) r.r_name (String.make 1 r.r_kind)
        (if r.r_level < 0 then "mem" else string_of_int r.r_level)
        (if r.r_line = 0 then "-" else string_of_int r.r_line)
        r.r_evals skip_pct r.r_words r.r_cost
        (if total_cost = 0 then 0.0
         else 100.0 *. float_of_int r.r_cost /. float_of_int total_cost))
    (hot ~top ?source t);
  if t.sampled_cycles > 0 then begin
    let comb_ns = Array.fold_left ( +. ) 0.0 t.level_ns in
    let total = comb_ns +. t.mem_ns in
    Printf.bprintf b "sampled cycle time (%d cycles):\n" t.sampled_cycles;
    Array.iteri
      (fun l ns ->
        let members =
          Array.fold_left
            (fun acc lvl -> if lvl = l then acc + 1 else acc)
            0 t.levels
        in
        Printf.bprintf b "  level %-2d %3d components %10.0f ns %5.1f%%\n" l
          members ns
          (if total = 0.0 then 0.0 else 100.0 *. ns /. total))
      t.level_ns;
    Printf.bprintf b "  memory phase          %10.0f ns %5.1f%%\n" t.mem_ns
      (if total = 0.0 then 0.0 else 100.0 *. t.mem_ns /. total)
  end;
  let mems = List.filter (fun r -> r.r_kind = 'M') all in
  if mems <> [] then begin
    Printf.bprintf b "memories:\n";
    List.iter
      (fun r ->
        Printf.bprintf b "  %-12s reads=%d writes=%d inputs=%d outputs=%d\n"
          r.r_name r.r_reads r.r_writes r.r_inputs r.r_outputs)
      mems
  end;
  Buffer.contents b

let to_flame ?source t =
  let b = Buffer.create 512 in
  List.iter
    (fun r ->
      if r.r_cost > 0 then
        if r.r_kind = 'M' then
          Printf.bprintf b "asim;%s;memory;%s %d\n"
            (if t.engine = "" then "?" else t.engine)
            r.r_name r.r_cost
        else
          Printf.bprintf b "asim;%s;level_%d;%s %d\n"
            (if t.engine = "" then "?" else t.engine)
            r.r_level r.r_name r.r_cost)
    (rows ?source t);
  Buffer.contents b

let emit_spans t tracer =
  if Tracer.is_active tracer && t.sampled_cycles > 0 then begin
    finalize t;
    let comb_ns = Array.fold_left ( +. ) 0.0 t.level_ns in
    let total = comb_ns +. t.mem_ns in
    let base = Clock.now () in
    let cursor = ref base in
    let emit name ns args =
      let dur = ns /. 1e9 in
      Tracer.span_at tracer name ~ts:!cursor ~dur
        ~args:
          (( "sampled_ns", Printf.sprintf "%.0f" ns )
          :: ( "share",
               Printf.sprintf "%.3f" (if total = 0.0 then 0.0 else ns /. total)
             )
          :: args);
      cursor := !cursor +. dur
    in
    Array.iteri
      (fun l ns ->
        let members =
          Array.fold_left
            (fun acc lvl -> if lvl = l then acc + 1 else acc)
            0 t.levels
        in
        emit
          (Printf.sprintf "prof.level.%d" l)
          ns
          [ ("components", string_of_int members) ])
      t.level_ns;
    emit "prof.mem" t.mem_ns
      [ ("sampled_cycles", string_of_int t.sampled_cycles) ]
  end

let export t ~spec reg =
  finalize t;
  let labels = [ ("spec", spec) ] in
  let addc name extra v =
    if v > 0 then
      Registry.add
        (Registry.counter reg ~labels:(labels @ extra) name)
        (float_of_int v)
  in
  Array.iteri
    (fun s name ->
      let comp = [ ("component", name) ] in
      if t.kinds.(s) = 'M' then begin
        let mem = [ ("memory", name) ] in
        addc "asim_prof_mem_reads_total" mem t.reads.(s);
        addc "asim_prof_mem_writes_total" mem t.writes.(s);
        addc "asim_prof_mem_inputs_total" mem t.inputs.(s);
        addc "asim_prof_mem_outputs_total" mem t.outputs.(s)
      end
      else begin
        addc "asim_prof_evals_total" comp t.evals.(s);
        addc "asim_prof_skips_total" comp t.skips.(s)
      end;
      addc "asim_prof_faults_total" comp t.faults.(s))
    t.names;
  addc "asim_prof_cycles_total" [] t.cycles;
  addc "asim_prof_sampled_cycles_total" [] t.sampled_cycles;
  addc "asim_prof_io_events_total" [] t.io_events;
  if t.io_ns > 0.0 then
    Registry.add
      (Registry.counter reg ~labels "asim_prof_io_wait_seconds_total")
      (t.io_ns /. 1e9)
