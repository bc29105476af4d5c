open Asim_core
open Asim_sim

type engine = [ Asim.engine | `Buggy ]

let engine_of_string s : engine option =
  match String.lowercase_ascii s with
  | "buggy" -> Some `Buggy
  | s -> (Asim.engine_of_string s :> engine option)

(* By name, so every engine takes the same default settings as on the
   command line. *)
let all =
  List.map
    (fun name -> Option.get (engine_of_string name))
    [ "interp"; "compiled"; "unoptimized"; "flat"; "flat-full"; "par"; "native" ]

(* [`Native] shells out to the host toolchain; a campaign on a box without
   one should drop the engine (with a warning) rather than abort. *)
let available : engine -> bool = function
  | `Native -> Asim.Jit.available ()
  | _ -> true

(* Which engines consume the optimized analysis when the oracle runs at
   [-O1]/[-O2].  The reference interpreters/compilers stay on the raw spec so
   a middle-end miscompile shows up as a divergence instead of agreeing with
   itself on both sides. *)
let optimized_class : engine -> bool = function
  | `Flat | `FlatFull | `Par _ | `Native -> true
  | `Interp | `Compiled | `Unoptimized | `Buggy -> false

let engine_to_string : engine -> string = function
  | `Buggy -> "buggy"
  | #Asim.engine as e -> Asim.engine_to_string e

(* The deliberate semantic bug behind the [`Buggy] engine: every ALU whose
   function expression is the constant 4 (add) computes 5 (sub) instead. *)
let inject_bug (spec : Spec.t) =
  let corrupt (c : Component.t) =
    match c.kind with
    | Component.Alu ({ fn; _ } as alu) when Expr.const_value fn = Some 4 ->
        { c with Component.kind = Component.Alu { alu with fn = [ Expr.num 5 ] } }
    | _ -> c
  in
  { spec with Spec.components = List.map corrupt spec.Spec.components }

let build (engine : engine) ~config (analysis : Asim_analysis.Analysis.t) =
  match engine with
  | `Buggy ->
      Asim_compile.Compile.create ~config
        (Asim_analysis.Analysis.analyze
           (inject_bug analysis.Asim_analysis.Analysis.spec))
  | #Asim.engine as engine -> Asim.machine ~config ~engine analysis

type observation = {
  snapshots : (string * int) list array;
  trace : string;
  events : Io.event list;
  cells : (string * int list) list;
  outputs : (string * int) list;
  total_accesses : int;
  error : string option;
}

let default_feed = [ 3; 1; 4; 1; 5; 9; 2; 6; 5; 3; 5; 8; 9; 7; 9; 3; 2; 3; 8; 4 ]

let observe ?(feed = default_feed) ?cycles ?(opt = Asim_opt.Opt.O0) engine
    (spec : Spec.t) =
  let cycles =
    match cycles with
    | Some n -> n
    | None -> Option.value spec.Spec.cycles ~default:20
  in
  let analysis = Asim_analysis.Analysis.analyze spec in
  (* The dead list is a property of (spec, opt level), not of the engine: it
     must mask the same names in every observation — reference included —
     or DCE itself would read as a divergence. *)
  let opt_result =
    match opt with
    | Asim_opt.Opt.O0 -> None
    | level -> Some (Asim_opt.Opt.run_result ~level analysis)
  in
  let analysis =
    match opt_result with
    | Some r when optimized_class engine -> r.Asim_opt.Opt.analysis
    | _ -> analysis
  in
  let masked = Hashtbl.create 8 in
  (match opt_result with
  | Some r -> List.iter (fun n -> Hashtbl.replace masked n ()) r.Asim_opt.Opt.dead
  | None -> ());
  let buf = Buffer.create 512 in
  let io, events = Io.recording ~feed () in
  let config = { Machine.io; trace = Trace.buffer_sink buf; faults = [] } in
  let m = build engine ~config analysis in
  let read n = if Hashtbl.mem masked n then 0 else m.Machine.read n in
  let names = List.map (fun (c : Component.t) -> c.name) spec.Spec.components in
  let snaps = ref [] in
  let error = ref None in
  (try
     for _ = 1 to cycles do
       Machine.run m ~cycles:1;
       snaps := List.map (fun n -> (n, read n)) names :: !snaps
     done
   with Error.Error { phase = Error.Runtime; message; _ } -> error := Some message);
  let cells =
    List.filter_map
      (fun (c : Component.t) ->
        match c.kind with
        | Component.Memory { cells; _ } ->
            Some (c.name, List.init cells (fun i -> m.Machine.read_cell c.name i))
        | _ -> None)
      spec.Spec.components
  in
  {
    snapshots = Array.of_list (List.rev !snaps);
    trace = Buffer.contents buf;
    events = events ();
    cells;
    outputs = List.map (fun n -> (n, read n)) names;
    total_accesses = Stats.total_accesses m.Machine.stats;
    error = !error;
  }

type divergence = {
  engine_a : engine;
  engine_b : engine;
  first_cycle : int option;
  reason : string;
}

let first_trace_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | [], [] -> None
    | x :: xs, y :: ys -> if x = y then go (i + 1) (xs, ys) else Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<end of trace>")
    | [], y :: _ -> Some (i, "<end of trace>", y)
  in
  go 1 (la, lb)

let diff ~engine_a ~engine_b (a : observation) (b : observation) =
  if a = b then None
  else begin
    let first_cycle =
      let n = min (Array.length a.snapshots) (Array.length b.snapshots) in
      let rec go i =
        if i >= n then
          if Array.length a.snapshots <> Array.length b.snapshots then Some n
          else None
        else if a.snapshots.(i) <> b.snapshots.(i) then Some i
        else go (i + 1)
      in
      go 0
    in
    let aspects =
      List.filter_map
        (fun (label, differs) -> if differs then Some label else None)
        [
          ("per-cycle outputs", a.snapshots <> b.snapshots);
          ("trace", a.trace <> b.trace);
          ("I/O events", a.events <> b.events);
          ("memory cells", a.cells <> b.cells);
          ("final outputs", a.outputs <> b.outputs);
          ("statistics", a.total_accesses <> b.total_accesses);
          ("runtime error", a.error <> b.error);
        ]
    in
    let detail =
      match first_trace_diff a.trace b.trace with
      | Some (line, x, y) ->
          Printf.sprintf "; trace line %d: %S vs %S" line x y
      | None -> (
          match (a.error, b.error) with
          | ea, eb when ea <> eb ->
              Printf.sprintf "; error %S vs %S"
                (Option.value ~default:"-" ea)
                (Option.value ~default:"-" eb)
          | _ -> "")
    in
    Some
      {
        engine_a;
        engine_b;
        first_cycle;
        reason = String.concat ", " aspects ^ detail;
      }
  end

let check ?feed ?cycles ?opt ?engines spec =
  let engines =
    match engines with Some engines -> engines | None -> List.filter available all
  in
  match engines with
  | [] | [ _ ] -> None
  | reference :: rest ->
      let ref_obs = observe ?feed ?cycles ?opt reference spec in
      List.fold_left
        (fun acc engine ->
          match acc with
          | Some _ -> acc
          | None ->
              diff ~engine_a:reference ~engine_b:engine ref_obs
                (observe ?feed ?cycles ?opt engine spec))
        None rest

let divergence_to_string d =
  Printf.sprintf "%s vs %s diverge%s: %s"
    (engine_to_string d.engine_a)
    (engine_to_string d.engine_b)
    (match d.first_cycle with
    | Some c -> Printf.sprintf " (first divergent cycle %d)" c
    | None -> "")
    d.reason
