(* The tiered engine: run on the flat kernel from cycle 0, compile the
   native plugin in a background domain, and hand execution over at a cycle
   boundary once Dynlink has finished.

   The handoff leans on one invariant, checked by the swap-point lockstep
   harness: at a cycle boundary, a machine's future is fully determined by
   its memory cells, latched memory outputs (both live in the shared
   [vals]/[cells] arrays), the cycle count and the statistics.  The flat
   kernel and the native engine use the identical array layout, so the
   native machine is built directly over the flat machine's arrays
   ([Jit.create ~state ~stats ~start_cycle]) and simply continues.  The
   flat kernel's dirty bits are abandoned — the generated code re-evaluates
   every combinational component each cycle, so no flush is needed. *)

open Asim_sim
module Analysis = Asim_analysis.Analysis
module Error = Asim_core.Error
module Tracer = Asim_obs.Tracer
module Clock = Asim_obs.Clock
module Flat = Asim_flat.Flat
module Jit = Asim_jit.Jit

type policy = Auto | At of int | Never

let policy_of_string s =
  match String.lowercase_ascii s with
  | "auto" -> Some Auto
  | "never" | "off" -> Some Never
  | s -> (
      match int_of_string_opt s with
      | Some n when n >= 0 -> Some (At n)
      | _ -> None)

let policy_to_string = function
  | Auto -> "auto"
  | Never -> "never"
  | At n -> string_of_int n

let skew_env = "ASIM_TIERED_SKEW"

(* Test-only: mis-number the native engine's first cycle by one at the swap,
   so the lockstep harness (and CI's must-fail leg) can prove it detects a
   skewed handoff. *)
let skew_requested () =
  match Sys.getenv_opt skew_env with Some "1" -> true | _ -> false

type swap_state =
  | Pending
  | Swapped of int
  | Unavailable
  | Failed of string
  | Disabled

let swap_state_to_string = function
  | Pending -> "pending"
  | Swapped _ -> "swapped"
  | Unavailable -> "unavailable"
  | Failed _ -> "failed"
  | Disabled -> "disabled"

type status = { state : swap_state; engine : string }

(* Under [Auto], the background compile domain is not spawned until the run
   has executed this many cycles on the flat kernel.  A run shorter than
   ~10 ms of flat execution (~16k cycles at the measured ~600 ns/cycle)
   cannot possibly swap early enough for the ~100 ms compile to pay off —
   spawning eagerly would only tax short runs with domain startup and, on
   single-core hosts, with compiler CPU contention.  Long runs reach the
   threshold within milliseconds, so the swap point is still dominated by
   the compile duration.  Forced policies ([At n]) spawn at creation: the
   deterministic test hook must be able to block on the compile at any
   cycle, including 0. *)
let auto_spawn_cycles = 16_384

(* --- background compile domains --------------------------------------------- *)

type compile_result = Pending_r | Ready_r | Failed_r of string

(* Spawned domains are reaped (joined) opportunistically before the next
   spawn rather than at swap time: a run that halts before its compile
   finishes — or never swaps — must not strand a domain slot, or a batch of
   tiered jobs would exhaust the runtime's domain limit. *)
let spawned : (bool Atomic.t * unit Domain.t) list ref = ref []
let spawned_lock = Mutex.create ()

let reap () =
  Mutex.protect spawned_lock (fun () ->
      spawned :=
        List.filter
          (fun (finished, d) ->
            if Atomic.get finished then (
              Domain.join d;
              false)
            else true)
          !spawned)

let track finished d =
  Mutex.protect spawned_lock (fun () -> spawned := (finished, d) :: !spawned)

let describe_exn = function
  | Error.Error e -> Error.to_string e
  | e -> Printexc.to_string e

(* One process-wide warning when the toolchain is absent, not one per
   machine: a fuzz campaign or batch run over many specs stays readable. *)
let warned_unavailable = Atomic.make false

let warn_unavailable msg =
  if not (Atomic.exchange warned_unavailable true) then
    prerr_endline ("asim: " ^ msg)

let mute_warning () = Atomic.set warned_unavailable true

(* --- the engine -------------------------------------------------------------- *)

let create_status ?(config = Machine.default_config) ?(tracer = Tracer.null)
    ?cache_dir ?(swap_at = Auto) ?prof
    (analysis : Analysis.t) =
  (* A profiled run is pinned to the flat kernel: the native plugin carries
     no counters, so a hot-swap would silently stop the profile mid-run.
     Attribution beats speed when the caller asked to measure. *)
  let policy = match prof with None -> swap_at | Some _ -> Never in
  let skew = skew_requested () in
  let flat, st = Flat.create_exposed ~config ~tracer ?prof analysis in
  (match prof with
  | None -> ()
  | Some p -> p.Asim_prof.Prof.engine <- "tiered(flat-pinned)");
  let current = ref flat in
  let current_step = ref flat.Machine.step in
  let state = ref Pending in
  (* The hot path is one countdown: [step] decrements [togo] and only
     enters the policy machinery when it hits zero.  [max_int] means
     settled — nothing will ever happen again; the flat kernel runs a cycle
     in a few hundred ns, so anything beyond a decrement-and-branch here is
     measurable against it. *)
  let togo = ref max_int in
  let result = Atomic.make Pending_r in
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let spawn_compile () =
    reap ();
    let finished = Atomic.make false in
    let d =
      Domain.spawn (fun () ->
          (try
             Jit.prepare ~tracer ?cache_dir analysis;
             Atomic.set result Ready_r
           with e -> Atomic.set result (Failed_r (describe_exn e)));
          Mutex.protect mu (fun () -> Condition.broadcast cv);
          Atomic.set finished true)
    in
    track finished d
  in
  (* [Auto] defers the spawn (see [auto_spawn_cycles]); this flag hands the
     decision to [step].  Only the machine's own domain touches it. *)
  let spawn_pending = ref false in
  (match policy with
  | Never -> state := Disabled
  | Auto | At _ ->
      (if not (Jit.available ()) then begin
         state := Unavailable;
         warn_unavailable
           "tiered engine: no OCaml toolchain answered on PATH — running on \
            the flat kernel for the whole run (swap=unavailable)";
         Tracer.span_at tracer "tiered.swap" ~ts:(Clock.now ()) ~dur:0.0
           ~args:
             [ ("cycle", "0"); ("mode", "ready"); ("outcome", "unavailable") ]
       end
       else if Jit.prepared analysis then
         (* The plugin is already Dynlinked in this process (an earlier
            machine over the same spec): no domain, swap-ready at once. *)
         Atomic.set result Ready_r
       else
         match policy with
         | At _ -> spawn_compile ()
         | Auto | Never -> spawn_pending := true);
      (* Arm the countdown: [At n] fires at boundary [n]; [Auto] fires at
         the spawn threshold when cold, at the first boundary when the
         plugin is already in the memo. *)
      if !state = Pending then
        togo :=
          (match policy with
          | At n -> n + 1
          | Auto | Never ->
              if !spawn_pending then auto_spawn_cycles + 1 else 1));
  let wait_decided () =
    Mutex.lock mu;
    while Atomic.get result = Pending_r do
      Condition.wait cv mu
    done;
    Mutex.unlock mu
  in
  let emit_span ~t0 ~cycle ~mode ~outcome extra =
    Tracer.span_at tracer "tiered.swap" ~ts:t0 ~dur:(Clock.now () -. t0)
      ~args:
        ([ ("cycle", string_of_int cycle); ("mode", mode); ("outcome", outcome) ]
        @ extra)
  in
  let settle_failed ~t0 ~mode msg =
    state := Failed msg;
    togo := max_int;
    emit_span ~t0 ~cycle:(flat.Machine.current_cycle ()) ~mode ~outcome:"failed"
      [ ("error", msg) ]
  in
  let swap ~t0 ~mode =
    let cycle = flat.Machine.current_cycle () in
    let start_cycle = if skew then cycle + 1 else cycle in
    match
      Jit.create ~config ~tracer ?cache_dir
        ~state:(st.Flat.s_vals, st.Flat.s_cells)
        ~stats:flat.Machine.stats ~start_cycle analysis
    with
    | native ->
        current := native;
        current_step := native.Machine.step;
        state := Swapped cycle;
        togo := max_int;
        emit_span ~t0 ~cycle ~mode ~outcome:"swapped" []
    | exception e -> settle_failed ~t0 ~mode (describe_exn e)
  in
  (* Coarse polling while the background compile is in flight: the compile
     lasts ~10^5 flat cycles, so re-checking every 256 keeps the handoff
     prompt to within a fraction of a millisecond without paying an atomic
     read on every cycle. *)
  let poll_interval = 256 in
  let slow () =
    match policy with
    | Never -> ()
    | Auto ->
        if !spawn_pending then begin
          spawn_pending := false;
          spawn_compile ();
          togo := poll_interval
        end
        else (
          match Atomic.get result with
          | Pending_r -> togo := poll_interval
          | Ready_r -> swap ~t0:(Clock.now ()) ~mode:"ready"
          | Failed_r msg -> settle_failed ~t0:(Clock.now ()) ~mode:"ready" msg)
    | At _ -> (
        let t0 = Clock.now () in
        let mode = if Atomic.get result = Pending_r then "wait" else "ready" in
        wait_decided ();
        match Atomic.get result with
        | Ready_r -> swap ~t0 ~mode
        | Failed_r msg -> settle_failed ~t0 ~mode msg
        | Pending_r -> assert false)
  in
  let step () =
    let t = !togo - 1 in
    togo := t;
    if t = 0 then slow ();
    !current_step ()
  in
  let machine =
    {
      Machine.analysis;
      step;
      read = (fun name -> (!current).Machine.read name);
      read_cell = (fun name i -> (!current).Machine.read_cell name i);
      write_cell = (fun name i v -> (!current).Machine.write_cell name i v);
      current_cycle = (fun () -> (!current).Machine.current_cycle ());
      stats = flat.Machine.stats;
    }
  in
  let status () =
    {
      state = !state;
      engine = (match !state with Swapped _ -> "native" | _ -> "flat");
    }
  in
  (machine, status)

let create ?config ?tracer ?cache_dir ?swap_at ?prof analysis =
  fst (create_status ?config ?tracer ?cache_dir ?swap_at ?prof analysis)
