(* Designs larger than one supernode ([Asim.Analysis.supernode_size]
   combinational components), shared by the tests of the two engines that
   schedule by supernode: the flat kernel (test_flat, test_prof) and the
   native engine's chunk functions (test_jit).  With them, the lockstep
   harness both suites run the designs through. *)

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
    (reference.Machine.current_cycle ()) (m.Machine.current_cycle ())

(* Step [engines] together, comparing every slot and cell with the first
   one's after every step (errors included) and the trace text at the end.
   Each engine is built from the quiet config with a trace buffer and
   [faults].  Returns how many steps raised. *)
let lockstep ?(faults = []) ~engines what analysis ~cycles =
  let runs =
    List.map
      (fun (name, build) ->
        let buf = Buffer.create 1024 in
        let config =
          { Machine.quiet_config with Machine.trace = Asim.Trace.buffer_sink buf; faults }
        in
        (name, (build config analysis : Machine.t), buf))
      engines
  in
  let rname, reference, rbuf = List.hd runs and others = List.tl runs in
  let errors = ref 0 in
  for _ = 1 to cycles do
    let expect = step_outcome reference in
    List.iter
      (fun (name, m, _) ->
        Alcotest.(check (option string))
          (Printf.sprintf "%s: %s step outcome" what name)
          expect (step_outcome m))
      others;
    if expect <> None then incr errors;
    List.iter (fun (name, m, _) -> same_state what analysis (rname, reference) (name, m)) others
  done;
  List.iter
    (fun (name, _, buf) ->
      Alcotest.(check string)
        (Printf.sprintf "%s: %s trace" what name)
        (Buffer.contents rbuf) (Buffer.contents buf))
    others;
  !errors
