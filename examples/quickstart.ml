(* Quickstart: describe hardware with the three ASIM II primitives, simulate
   it, and inspect the results.

   The circuit: an accumulating counter with a carry-out bit.  [inc] is an
   ALU adding 1 to the register's output; [count] is a 1-cell memory
   (a register) latching it each cycle.  Run with:

     dune exec examples/quickstart.exe
*)

let source =
  "# quickstart: counter with a carry-out at 8\n\
   count* inc carry* .\n\
   A inc 4 count 1\n\
   A carry 1 0 count.3\n\
   M count 0 inc 1 1\n\
   .\n"

let () =
  (* Parse and analyze.  [Asim.load_string] raises on malformed input; the
     analysis holds the dependency-sorted component order. *)
  let analysis = Asim.load_string source in
  Printf.printf "components: %d, evaluation order: %s\n\n"
    (List.length analysis.Asim.Analysis.spec.Asim.Spec.components)
    (String.concat " "
       (List.map (fun (c : Asim.Component.t) -> c.name) analysis.Asim.Analysis.order));

  (* Build a machine.  [`Compiled] is the paper's contribution (ASIM II);
     [`Interp] is the ASIM baseline.  Both behave identically. *)
  let buf = Buffer.create 256 in
  let config = { Asim.Machine.quiet_config with trace = Asim.Trace.buffer_sink buf } in
  let machine = Asim.machine ~config ~engine:`Compiled analysis in

  (* Run twelve cycles and show the per-cycle trace of starred components. *)
  Asim.Machine.run machine ~cycles:12;
  print_string (Buffer.contents buf);

  (* Inspect state directly: current outputs and memory cells. *)
  Printf.printf "\nafter 12 cycles: count=%d carry=%d cell=%d\n"
    (machine.Asim.Machine.read "count")
    (machine.Asim.Machine.read "carry")
    (machine.Asim.Machine.read_cell "count" 0);

  (* Statistics come for free (§1.4: cycles, memory accesses). *)
  print_newline ();
  print_endline (Asim.Stats.to_string machine.Asim.Machine.stats)
