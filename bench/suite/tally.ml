(* Operations attempted and failed in one run: timed samples, builds, served
   jobs and correctness checks all count, and any failure makes the run
   incorrect. *)

type t = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let create () = { attempted = 0; failed = 0; notes = [] }

let check t ok note =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    (* the first few messages are enough to diagnose; the count is exact *)
    if List.length t.notes < 20 then t.notes <- note :: t.notes
  end

let ok t = check t true ""
