(* Designs larger than one supernode ([Asim.Analysis.supernode_size]
   combinational components), shared by the tests of the two engines that
   schedule by supernode: the flat kernel (test_flat, test_prof) and the
   native engine's chunk functions (test_jit).  Then small designs whose
   memories go quiet and wake, for the flat kernel's memory activity.
   With them, the lockstep harness both suites run the designs through. *)

module Machine = Asim.Machine

let mesh_1k () = Asim.Analysis.analyze (Asim_fuzz.Gen.mesh ~width:31 ~height:32 ~seed:3 ())

let pipeline_1k () =
  Asim.Analysis.analyze (Asim_fuzz.Gen.pipeline ~cores:10 ~depth:99 ~seed:3 ())

let o2 analysis = (Asim.Opt.run_result ~level:Asim.Opt.O2 analysis).Asim.Opt.analysis

(* [n] chained increments off [head] (by default a constant, so the chain
   settles after the first cycle) latched into a traced register, plus
   [extra] component lines. *)
let chain_spec ?(head = "1") ?(names = []) ?(extra = []) n =
  let b = Buffer.create 8192 in
  Buffer.add_string b "#chain\n= 100\nr*";
  List.iter (Printf.bprintf b " %s") names;
  for i = 0 to n - 1 do
    Printf.bprintf b " c%d" i
  done;
  Printf.bprintf b " .\nA c0 4 %s 1\n" head;
  for i = 1 to n - 1 do
    Printf.bprintf b "A c%d 4 c%d 1\n" i (i - 1)
  done;
  List.iter (Printf.bprintf b "%s\n") extra;
  Printf.bprintf b "M r 0 c%d 1 1\n.\n" (n - 1);
  Asim.load_string (Buffer.contents b)

(* A chain off the counter register [cnt]: it changes every cycle, and only
   its first supernode reads the counter, so each later supernode runs only
   when the one before marks it. *)
let counting_chain n =
  chain_spec n ~head:"cnt" ~names:[ "cnt"; "inc" ] ~extra:[ "A inc 4 cnt 1"; "M cnt 0 inc 1 1" ]

(* The generated designs settle quickly, and most supernodes read a
   register. *)
let lockstep_designs () =
  [
    ("mesh-1k", mesh_1k ());
    ("mesh-1k -O2", o2 (mesh_1k ()));
    ("pipeline-1k", pipeline_1k ());
    ("pipeline-1k -O2", o2 (pipeline_1k ()));
    ("counting chain", counting_chain 400);
  ]

(* Faults over quiet logic, as (what, design, cycles, faults).  The chain is
   quiet long before the stuck-at window opens, so only pinning the
   target's supernode active makes the fault fire.  Then a late fault on a
   live mesh. *)
let late_fault_designs () =
  [
    ( "quiet chain, late stuck-at",
      chain_spec 400,
      80,
      [ Asim.Fault.stuck_at ~first_cycle:40 ~last_cycle:60 "c395" 0 ] );
    ( "mesh-1k, late stuck-at",
      mesh_1k (),
      200,
      [ Asim.Fault.stuck_at ~first_cycle:150 "n20x17" 5 ] );
  ]

(* Runtime errors inside a supernode and partway through the memory phase,
   as (what, design, cycles, raising steps): stepping again must re-raise
   and leave exactly the reference's state. *)
let error_designs () =
  [
    (* [sel] depends on the chain's end, so it sits in the last supernode;
       its select runs off the counter and leaves range at cnt = 2. *)
    ( "selector error",
      chain_spec 300 ~names:[ "cnt"; "inc"; "sel" ]
        ~extra:[ "A inc 4 cnt 1"; "S sel cnt.0.1 c299 c299"; "M cnt 0 inc 1 1" ],
      8,
      6 );
    (* [cnt] updates first and wakes [inc] and [w] (last supernode); [bad]
       then faults on its address for cnt = 4..7, so each re-step runs on
       the marks [cnt] made before the error. *)
    ( "mid-phase address error",
      chain_spec 300 ~names:[ "cnt"; "inc"; "w"; "bad" ]
        ~extra:
          [ "A inc 4 cnt 1"; "A w 4 c299 cnt"; "M cnt 0 inc 1 1"; "M bad cnt.0.2 w 1 4" ],
      12,
      4 );
  ]

(* Memories that go quiet and wake, as (what, design, cycles, pokes,
   faults, raising steps).  A poke [(i, memory, cell, value)] is a
   [write_cell] made before step [i] (from 0).  Each design is one that a
   broken rule of flat's memory activity takes out of lockstep: a poke
   that does not wake its memory, a dirty byte cleared at the update
   instead of at the snapshot, a run byte cleared before the update
   succeeds, a fault target, a trace line or a transfer skipped. *)
let quiet_memory_designs () =
  (* [cnt] counts 0, 1, 2, 3, 4 and then holds, so what reads it changes
     four times and then goes quiet. *)
  let counting extra = "A inc 4 cnt 1\nS nx cnt.2.2 inc cnt\n" ^ extra in
  let design name names body =
    Asim.load_string (Printf.sprintf "#%s\n%s .\n%s.\n" name names body)
  in
  [
    ( "constant-address read, poked",
      design "const read" "k* x*" "A x 4 k 1\nM k 2 0 0 4\n",
      12,
      [ (3, "k", 2, 55); (6, "k", 1, 7); (9, "k", 2, 9) ],
      [],
      0 );
    ( "constant-address write, poked",
      design "const write" "w* c" "A c 4 0 5\nM w 1 c 1 4\n",
      10,
      [ (4, "w", 1, 99); (6, "w", 2, 3) ],
      [],
      0 );
    (* [lo]'s address is written after its update, [hi]'s before it, in the
       same memory phase. *)
    ( "address from an earlier and a later memory",
      design "memory addresses" "lo* cnt* hi* inc nx"
        (counting
           "M lo cnt 0 0 -8 10 11 12 13 14 15 16 17\nM cnt 0 nx 1 1\n\
            M hi cnt 0 0 -8 20 21 22 23 24 25 26 27\n"),
      12,
      [],
      [],
      0 );
    ( "data from an earlier and a later memory",
      design "memory data" "lo* cnt* hi* inc nx"
        (counting "M lo 0 cnt 1 1\nM cnt 0 nx 1 1\nM hi 0 cnt 1 1\n"),
      12,
      [],
      [],
      0 );
    ( "address error on a quiet memory",
      design "quiet error" "ok* bad*" "M ok 0 0 0 1\nM bad 5 0 0 4\n",
      5,
      [],
      [],
      5 );
    ( "windowed stuck-at on a constant register",
      design "stuck register" "r* x" "A x 4 r 0\nM r 0 7 1 1\n",
      10,
      [],
      [ Asim.Fault.stuck_at ~first_cycle:3 ~last_cycle:6 "r" 0 ],
      0 );
    ( "traced quiet ops",
      design "traced ops" "w* r*" "M w 1 3 5 4\nM r 2 0 8 4\n",
      6,
      [ (3, "r", 2, 8) ],
      [],
      0 );
    ( "constant input and output",
      design "io" "i* o*" "M i 0 0 2 1\nM o 1 7 3 1\n",
      8,
      [],
      [],
      0 );
    ( "dynamic operation from a register that changes once",
      design "dynamic op" "m* cnt* inc nx" (counting "M cnt 0 nx 1 1\nM m 1 cnt cnt.2.2 4\n"),
      12,
      [ (9, "m", 1, 42) ],
      [],
      0 );
  ]

(* Outcome of one step: the error text, if it raised. *)
let step_outcome (m : Machine.t) =
  match m.Machine.step () with
  | () -> None
  | exception Asim.Error.Error e -> Some (Asim.Error.to_string e)

let same_state what (analysis : Asim.Analysis.t) (rname, (reference : Machine.t))
    (name, (m : Machine.t)) =
  List.iter
    (fun (c : Asim.Component.t) ->
      let comp = c.Asim.Component.name in
      let expect = reference.Machine.read comp and got = m.Machine.read comp in
      if got <> expect then
        Alcotest.failf "%s, cycle %d: %s %s=%d %s=%d" what
          (reference.Machine.current_cycle ()) comp name got rname expect;
      match c.Asim.Component.kind with
      | Asim.Component.Memory { cells; _ } ->
          for i = 0 to cells - 1 do
            if m.Machine.read_cell comp i <> reference.Machine.read_cell comp i then
              Alcotest.failf "%s: %s cell %s[%d] differs from %s" what name comp i rname
          done
      | _ -> ())
    analysis.Asim.Analysis.spec.Asim.Spec.components;
  Alcotest.(check int)
    (Printf.sprintf "%s: %s cycle" what name)
    (reference.Machine.current_cycle ()) (m.Machine.current_cycle ());
  let counts (m : Machine.t) =
    List.map
      (fun (memory, (c : Asim.Stats.memory_counters)) ->
        Printf.sprintf "%s r%d w%d i%d o%d" memory c.reads c.writes c.inputs c.outputs)
      (Asim.Stats.per_memory m.Machine.stats)
  in
  Alcotest.(check (list string)) (Printf.sprintf "%s: %s stats" what name) (counts reference)
    (counts m)

(* Step [engines] together, comparing every slot, cell and memory counter
   with the first one's after every step (errors included), and the trace
   text and I/O transfers at the end.  Each engine is built from the quiet
   config with a trace buffer, a recording I/O handler and [faults]; a poke
   [(i, memory, cell, value)] writes the cell in every engine before step
   [i] (from 0).  Returns how many steps raised. *)
let lockstep ?(faults = []) ?(pokes = []) ~engines what analysis ~cycles =
  let runs =
    List.map
      (fun (name, build) ->
        let buf = Buffer.create 1024 in
        let io, events = Asim.Io.recording ~feed:(List.init cycles (fun i -> i / 3)) () in
        let config = { Machine.trace = Asim.Trace.buffer_sink buf; io; faults } in
        (name, (build config analysis : Machine.t), buf, events))
      engines
  in
  let rname, reference, rbuf, revents = List.hd runs and others = List.tl runs in
  let errors = ref 0 in
  for i = 0 to cycles - 1 do
    List.iter
      (fun (step, memory, cell, value) ->
        if step = i then
          List.iter (fun (_, (m : Machine.t), _, _) -> m.Machine.write_cell memory cell value) runs)
      pokes;
    let expect = step_outcome reference in
    List.iter
      (fun (name, m, _, _) ->
        Alcotest.(check (option string))
          (Printf.sprintf "%s: %s step outcome" what name)
          expect (step_outcome m))
      others;
    if expect <> None then incr errors;
    List.iter
      (fun (name, m, _, _) -> same_state what analysis (rname, reference) (name, m))
      others
  done;
  let transfers events = List.map Asim.Io.event_to_string (events ()) in
  List.iter
    (fun (name, _, buf, events) ->
      Alcotest.(check string)
        (Printf.sprintf "%s: %s trace" what name)
        (Buffer.contents rbuf) (Buffer.contents buf);
      Alcotest.(check (list string))
        (Printf.sprintf "%s: %s transfers" what name)
        (transfers revents) (transfers events))
    others;
  !errors
