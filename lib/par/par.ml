open Asim_core
open Asim_sim
module Analysis = Asim_analysis.Analysis
module Flat = Asim_flat.Flat

let skew_env = "ASIM_PAR_SKEW"

(* A hard cap on partitions: the process-wide worker pool below never spawns
   more than [max_domains - 1] domains, far under the runtime's Max_domains
   limit even with the main domain and stray test domains counted. *)
let max_domains = 16

let default_domains () = max 1 (min 8 (Domain.recommended_domain_count ()))

(* --- worker pool -------------------------------------------------------- *)

(* One process-wide pool of worker domains shared by every partitioned
   machine.  Machines are created in droves (the fuzz oracle builds one per
   spec per engine) while the runtime caps the number of domains ever
   spawned, so machines must not own domains; instead each [step] dispatches
   one generation of work to the pool.  [job_lock] serializes whole
   dispatches: concurrent machines take turns stepping, which is the
   semantics a batch server wants anyway (jobs are independent simulations,
   each one still fans out over the pool). *)
module Pool = struct
  let job_lock = Mutex.create ()
  let lock = Mutex.create ()
  let work_cond = Condition.create ()
  let done_cond = Condition.create ()
  let gen = Atomic.make 0
  let ndone = Atomic.make 0
  let current : (unit -> unit) array ref = ref [||]
  let spawned = ref 0
  let spin_limit = 200

  (* [seen0] is the generation already published when the worker was spawned
     (read under [job_lock], before the spawning dispatch increments [gen]):
     a fresh worker must park until the generation it was spawned into
     appears, not chase generations that completed before it existed —
     starting from 0 would make a late-grown pool run a spurious wave
     against whatever [current] happens to hold. *)
  let worker idx seen0 () =
    let seen = ref seen0 in
    while true do
      let spins = ref spin_limit in
      while Atomic.get gen = !seen && !spins > 0 do
        decr spins;
        Domain.cpu_relax ()
      done;
      if Atomic.get gen = !seen then begin
        Mutex.lock lock;
        while Atomic.get gen = !seen do
          Condition.wait work_cond lock
        done;
        Mutex.unlock lock
      end;
      seen := Atomic.get gen;
      let fs = !current in
      (* Participant closures handle their own errors (see the BSP loop);
         nothing may escape here — a dead worker would deadlock the pool. *)
      if idx + 1 < Array.length fs then ( try fs.(idx + 1) () with _ -> ());
      if 1 + Atomic.fetch_and_add ndone 1 = !spawned then begin
        Mutex.lock lock;
        Condition.signal done_cond;
        Mutex.unlock lock
      end
    done

  (* Run [fs.(0)] on the calling domain and [fs.(1 ..)] on pool workers.
     Returns only once every spawned worker is parked again (idle workers
     ack each generation too), so the caller may then touch shared state
     without synchronization. *)
  let run fs =
    Mutex.lock job_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock job_lock)
      (fun () ->
        while !spawned < Array.length fs - 1 do
          ignore (Domain.spawn (worker !spawned (Atomic.get gen)));
          incr spawned
        done;
        current := fs;
        Atomic.set ndone 0;
        Atomic.incr gen;
        Mutex.lock lock;
        Condition.broadcast work_cond;
        Mutex.unlock lock;
        fs.(0) ();
        let spins = ref (spin_limit * 10) in
        while Atomic.get ndone <> !spawned && !spins > 0 do
          decr spins;
          Domain.cpu_relax ()
        done;
        if Atomic.get ndone <> !spawned then begin
          Mutex.lock lock;
          while Atomic.get ndone <> !spawned do
            Condition.wait done_cond lock
          done;
          Mutex.unlock lock
        end)
end

(* --- partitioning ------------------------------------------------------- *)

type plan = {
  p_domains : int;  (** effective partition count *)
  p_assign : int array;  (** partition, by topological position *)
  p_groups : int array;  (** sync group, by topological position *)
  p_ngroups : int;
  p_loads : float array;  (** modelled cost per partition *)
  p_cut : int;  (** cross-partition combinational edges *)
}

(* Combinational components in topological order, with deduplicated
   combinational dependency edges as topological positions. *)
let comb_graph (analysis : Analysis.t) =
  let order = Array.of_list analysis.Analysis.order in
  let n = Array.length order in
  let pos = Hashtbl.create (max 16 n) in
  Array.iteri (fun o (c : Component.t) -> Hashtbl.replace pos c.name o) order;
  let deps =
    Array.map
      (fun (c : Component.t) ->
        let seen = Hashtbl.create 8 in
        List.filter_map
          (fun name ->
            if Hashtbl.mem seen name then None
            else begin
              Hashtbl.add seen name ();
              Hashtbl.find_opt pos name
            end)
          (List.concat_map Expr.names (Component.combinational_inputs c))
        |> Array.of_list)
      order
  in
  (order, pos, deps)

(* Static cost fallback: flat program words per component, from a throwaway
   default-layout compile (positions there are topological positions). *)
let static_costs (analysis : Analysis.t) =
  let p = Flat.compile analysis in
  let ncomb = Array.length p.Flat.p_comb_entry in
  let code_len = Array.length p.Flat.p_code in
  let nmem = Array.length p.Flat.p_mems in
  Array.init ncomb (fun i ->
      let stop =
        if i + 1 < ncomb then p.Flat.p_comb_entry.(i + 1)
        else if nmem > 0 then p.Flat.p_mems.(0).Flat.m_addr_pc
        else code_len
      in
      float_of_int (max 1 (stop - p.Flat.p_comb_entry.(i))))

let costs_by_pos ?costs (analysis : Analysis.t) (order : Component.t array) =
  (* The static fallback costs a throwaway [Flat.compile]; force it only if
     some component is actually missing from the measured model. *)
  let static = lazy (static_costs analysis) in
  match costs with
  | None -> Lazy.force static
  | Some model ->
      let table = Hashtbl.create (max 16 (List.length model)) in
      List.iter
        (fun (name, c) -> if c > 0.0 then Hashtbl.replace table name c)
        model;
      Array.mapi
        (fun o (c : Component.t) ->
          match Hashtbl.find_opt table c.name with
          | Some c -> c
          | None -> (Lazy.force static).(o))
        order

(* Greedy seed: walk components in *declaration* order (the natural module
   grouping — generated workloads declare core-by-core / row-by-row) and cut
   contiguous blocks of roughly [total/domains] cost. *)
let greedy_assign ~domains ~decl_pos ~cost =
  let n = Array.length cost in
  let assign = Array.make n 0 in
  let total = Array.fold_left ( +. ) 0.0 cost in
  let target = total /. float_of_int domains in
  let part = ref 0 in
  let load = ref 0.0 in
  Array.iter
    (fun o ->
      if !load >= target && !part < domains - 1 then begin
        incr part;
        load := 0.0
      end;
      assign.(o) <- !part;
      load := !load +. cost.(o))
    decl_pos;
  assign

(* KL-style refinement: move a component to a neighbouring partition when
   that strictly reduces the number of cut edges and keeps the destination
   under 110% of the average load.  Deterministic (fixed scan order, strict
   improvement only). *)
let refine ~domains ~cost ~deps ~assign ~passes =
  let n = Array.length assign in
  if domains > 1 && n > 0 then begin
    let outs = Array.make n [] in
    Array.iteri
      (fun i ds -> Array.iter (fun d -> outs.(d) <- i :: outs.(d)) ds)
      deps;
    let loads = Array.make domains 0.0 in
    Array.iteri (fun o t -> loads.(t) <- loads.(t) +. cost.(o)) assign;
    let total = Array.fold_left ( +. ) 0.0 loads in
    let cap = 1.1 *. total /. float_of_int domains in
    for _pass = 1 to passes do
      for o = 0 to n - 1 do
        let here = assign.(o) in
        let best_gain = ref 0 and best_to = ref here in
        let consider q =
          if q <> here && q <> !best_to && loads.(q) +. cost.(o) <= cap then begin
            let gain = ref 0 in
            Array.iter
              (fun d ->
                let p = assign.(d) in
                if p = here then decr gain else if p = q then incr gain)
              deps.(o);
            List.iter
              (fun j ->
                let p = assign.(j) in
                if p = here then decr gain else if p = q then incr gain)
              outs.(o);
            if !gain > !best_gain then begin
              best_gain := !gain;
              best_to := q
            end
          end
        in
        Array.iter (fun d -> consider assign.(d)) deps.(o);
        List.iter (fun j -> consider assign.(j)) outs.(o);
        if !best_gain > 0 then begin
          loads.(here) <- loads.(here) -. cost.(o);
          loads.(!best_to) <- loads.(!best_to) +. cost.(o);
          assign.(o) <- !best_to
        end
      done
    done
  end

(* Sync group of a component: the earliest BSP phase in which all its inputs
   are available — same-partition inputs as soon as computed, cross-partition
   inputs one barrier after their producer's group. *)
let compute_groups ~deps ~assign =
  let n = Array.length assign in
  let g = Array.make n 0 in
  for o = 0 to n - 1 do
    let m = ref 0 in
    Array.iter
      (fun d ->
        let need = if assign.(d) = assign.(o) then g.(d) else g.(d) + 1 in
        if need > !m then m := need)
      deps.(o);
    g.(o) <- !m
  done;
  g

let make_plan ?costs ?assign ~domains (analysis : Analysis.t) =
  let order, pos, deps = comb_graph analysis in
  let n = Array.length order in
  let domains = max 1 (min (min domains max_domains) (max 1 n)) in
  let cost = costs_by_pos ?costs analysis order in
  let assign =
    match assign with
    | Some a ->
        if Array.length a <> n then
          invalid_arg "Par: assignment length must equal combinational count";
        Array.map (fun t -> ((t mod domains) + domains) mod domains) a
    | None ->
        let decl_pos =
          analysis.Analysis.spec.Spec.components
          |> List.filter (fun (c : Component.t) -> not (Component.is_memory c))
          |> List.map (fun (c : Component.t) -> Hashtbl.find pos c.name)
          |> Array.of_list
        in
        let a = greedy_assign ~domains ~decl_pos ~cost in
        refine ~domains ~cost ~deps ~assign:a ~passes:2;
        a
  in
  let groups = compute_groups ~deps ~assign in
  let ngroups = 1 + Array.fold_left max 0 groups in
  let loads = Array.make domains 0.0 in
  for o = 0 to n - 1 do
    loads.(assign.(o)) <- loads.(assign.(o)) +. cost.(o)
  done;
  let cut = ref 0 in
  for o = 0 to n - 1 do
    Array.iter (fun d -> if assign.(d) <> assign.(o) then incr cut) deps.(o)
  done;
  ( {
      p_domains = domains;
      p_assign = assign;
      p_groups = groups;
      p_ngroups = ngroups;
      p_loads = loads;
      p_cut = !cut;
    },
    order,
    deps )

let plan ?costs ?assign ~domains analysis =
  let pl, _, _ = make_plan ?costs ?assign ~domains analysis in
  pl

(* --- the machine -------------------------------------------------------- *)

let skew_enabled () =
  match Sys.getenv_opt skew_env with Some "1" -> true | _ -> false

let create ?(config = Machine.default_config)
    ?(tracer = Asim_obs.Tracer.null) ?domains ?costs ?assign
    (analysis : Analysis.t) =
  let domains =
    match domains with Some d -> d | None -> default_domains ()
  in
  let pl, order, deps = make_plan ?costs ?assign ~domains analysis in
  let nd = pl.p_domains in
  let ngroups = pl.p_ngroups in
  let ncomb = Array.length order in
  let spec = analysis.Analysis.spec in
  let ncomp = List.length spec.Spec.components in
  (* Partition-major evaluation order: all of partition 0's components (by
     sync group, then topological position), then partition 1's, and so on.
     Compiling with slot = position makes each partition's code *and* state
     a contiguous range — a domain publishes its whole cycle with one
     [Array.blit]. *)
  let topo_of_pos = Array.init ncomb (fun o -> o) in
  Array.sort
    (fun a b ->
      match compare pl.p_assign.(a) pl.p_assign.(b) with
      | 0 -> (
          match compare pl.p_groups.(a) pl.p_groups.(b) with
          | 0 -> compare a b
          | c -> c)
      | c -> c)
    topo_of_pos;
  let pos_of_topo = Array.make (max 1 ncomb) 0 in
  Array.iteri (fun i o -> pos_of_topo.(o) <- i) topo_of_pos;
  let comb_order =
    Array.to_list (Array.map (fun o -> order.(o)) topo_of_pos)
  in
  let slots = Hashtbl.create (max 16 ncomp) in
  Array.iteri
    (fun i o -> Hashtbl.replace slots order.(o).Component.name i)
    topo_of_pos;
  List.iteri
    (fun k (c : Component.t) -> Hashtbl.replace slots c.name (ncomb + k))
    analysis.Analysis.memories;
  let p = Flat.compile ~tracer ~slots ~comb_order analysis in
  for i = 0 to ncomb - 1 do
    (* slot = position, the invariant everything below leans on *)
    assert (p.Flat.p_comb_id.(i) = i)
  done;
  (* partition position ranges and per-group segments *)
  let lo = Array.make (nd + 1) 0 in
  Array.iter
    (fun o -> lo.(pl.p_assign.(o) + 1) <- lo.(pl.p_assign.(o) + 1) + 1)
    topo_of_pos;
  for t = 0 to nd - 1 do
    lo.(t + 1) <- lo.(t + 1) + lo.(t)
  done;
  let seg = Array.make_matrix nd (ngroups + 1) 0 in
  for t = 0 to nd - 1 do
    let i = ref lo.(t) in
    for g = 0 to ngroups do
      while !i < lo.(t + 1) && pl.p_groups.(topo_of_pos.(!i)) < g do
        incr i
      done;
      seg.(t).(g) <- !i
    done
  done;
  (* cross-partition traffic: which slots each partition imports (and at
     which group), which slots each partition exports (and after which
     group).  Values travel through one preallocated mailbox; memory slots
     are refreshed from the master at the top of each cycle instead (the
     coordinator is their only writer). *)
  let imp_sets = Array.init nd (fun _ -> Hashtbl.create 16) in
  let exp_set = Hashtbl.create 16 in
  let mem_sets = Array.init nd (fun _ -> Hashtbl.create 8) in
  for o = 0 to ncomb - 1 do
    let t = pl.p_assign.(o) in
    Array.iter
      (fun d ->
        if pl.p_assign.(d) <> t then begin
          let s = pos_of_topo.(d) in
          Hashtbl.replace imp_sets.(t) s (pl.p_groups.(d) + 1);
          Hashtbl.replace exp_set s ()
        end)
      deps.(o);
    List.iter
      (fun e ->
        List.iter
          (fun name ->
            let s = Hashtbl.find slots name in
            if s >= ncomb then Hashtbl.replace mem_sets.(t) s ())
          (Expr.names e))
      (Component.combinational_inputs order.(o))
  done;
  let flatten_by_group items =
    (* items : (group, slot) list -> slots sorted by (group, slot) with a
       prefix index per group *)
    let arr = Array.of_list (List.sort compare items) in
    let slots = Array.map snd arr in
    let start = Array.make (ngroups + 2) 0 in
    let i = ref 0 in
    for g = 0 to ngroups + 1 do
      while !i < Array.length arr && fst arr.(!i) < g do
        incr i
      done;
      start.(g) <- !i
    done;
    (slots, start)
  in
  let imp_slots = Array.make nd [||] and imp_start = Array.make nd [||] in
  let exp_slots = Array.make nd [||] and exp_start = Array.make nd [||] in
  let mem_imp = Array.make nd [||] in
  let exp_by_owner = Array.make nd [] in
  Hashtbl.iter
    (fun s () ->
      let o = topo_of_pos.(s) in
      exp_by_owner.(pl.p_assign.(o)) <-
        (pl.p_groups.(o), s) :: exp_by_owner.(pl.p_assign.(o)))
    exp_set;
  for t = 0 to nd - 1 do
    let islots, istart =
      flatten_by_group (Hashtbl.fold (fun s g acc -> (g, s) :: acc) imp_sets.(t) [])
    in
    imp_slots.(t) <- islots;
    imp_start.(t) <- istart;
    let eslots, estart = flatten_by_group exp_by_owner.(t) in
    exp_slots.(t) <- eslots;
    exp_start.(t) <- estart;
    mem_imp.(t) <-
      Hashtbl.fold (fun s () acc -> s :: acc) mem_sets.(t) []
      |> List.sort compare |> Array.of_list
  done;
  (* master state: what [read]/traces/the memory phase observe; domains
     publish into it at end of cycle *)
  let master = Array.make (max 1 ncomp) 0 in
  let cells = Array.make (max 1 p.Flat.p_cells_len) 0 in
  Array.iter
    (fun m ->
      match m.Flat.m_init with
      | Some init -> Array.blit init 0 cells m.Flat.m_off (Array.length init)
      | None -> ())
    p.Flat.p_mems;
  let cycle = ref 0 in
  let exec_master = Flat.make_exec p ~vals:master ~cycle in
  let names = p.Flat.p_names in
  let dirty = Bytes.make (max 1 ncomb) '\001' in
  let dirty_snap = Bytes.make (max 1 ncomb) '\001' in
  let comb_fault = Bytes.make (max 1 ncomb) '\000' in
  let faults = config.Machine.faults in
  let fault_targets = Fault.targets faults in
  for i = 0 to ncomb - 1 do
    if List.mem names.(i) fault_targets then Bytes.set comb_fault i '\001'
  done;
  let dep_off = p.Flat.p_dep_off
  and dep_len = p.Flat.p_dep_len
  and gdeps = p.Flat.p_deps in
  let wake_all id =
    let o = Array.unsafe_get dep_off id in
    let stop = o + Array.unsafe_get dep_len id in
    for j = o to stop - 1 do
      Bytes.unsafe_set dirty (Array.unsafe_get gdeps j) '\001'
    done
  in
  (* mailbox + barrier + skew plant *)
  let mailbox = Mailbox.create ncomp in
  let barrier = Barrier.create nd in
  let err = Atomic.make false in
  let skew_t =
    if not (nd > 1 && skew_enabled ()) then -1
    else begin
      (* the planted lost update: the first partition with any cross-
         partition imports silently drops its whole import phase — it runs
         on stale inputs every cycle, which is exactly what a missing
         barrier would let happen *)
      let found = ref (-1) in
      (try
         for t = 0 to nd - 1 do
           if imp_start.(t).(ngroups + 1) > 0 then begin
             found := t;
             raise Exit
           end
         done
       with Exit -> ());
      !found
    end
  in
  let participant t =
    let vals_t = Array.make (max 1 ncomp) 0 in
    let exec_t = Flat.make_exec p ~vals:vals_t ~cycle in
    let h = Barrier.handle barrier in
    let lo_t = lo.(t) and hi_t = lo.(t + 1) in
    let wake_local id =
      let o = Array.unsafe_get dep_off id in
      let stop = o + Array.unsafe_get dep_len id in
      for j = o to stop - 1 do
        let i = Array.unsafe_get gdeps j in
        if i >= lo_t && i < hi_t then Bytes.unsafe_set dirty i '\001'
      done
    in
    let entry = p.Flat.p_comb_entry in
    let eval_seg g =
      for i = seg.(t).(g) to seg.(t).(g + 1) - 1 do
        if Bytes.unsafe_get dirty i <> '\000' then begin
          let v = exec_t (Array.unsafe_get entry i) 0 0 0 in
          Bytes.unsafe_set dirty i (Bytes.unsafe_get comb_fault i);
          let v =
            if Bytes.unsafe_get comb_fault i = '\000' then v
            else
              Fault.apply faults ~cycle:!cycle
                ~component:(Array.unsafe_get names i)
                v
          in
          if Array.unsafe_get vals_t i <> v then begin
            Array.unsafe_set vals_t i v;
            wake_local i
          end
        end
      done
    in
    let istart = imp_start.(t)
    and islots = imp_slots.(t)
    and estart = exp_start.(t)
    and eslots = exp_slots.(t)
    and mimp = mem_imp.(t) in
    fun () ->
      let attended = ref 0 in
      (try
         (* refresh private copies of memory outputs latched last cycle (the
            coordinator already marked our dependents dirty) *)
         for k = 0 to Array.length mimp - 1 do
           let s = Array.unsafe_get mimp k in
           Array.unsafe_set vals_t s (Array.unsafe_get master s)
         done;
         for g = 0 to ngroups - 1 do
           if g > 0 && t <> skew_t then
             Mailbox.import mailbox ~dst:vals_t ~slots:islots ~lo:istart.(g)
               ~hi:(istart.(g + 1))
               ~changed:wake_local;
           eval_seg g;
           if g < ngroups - 1 then begin
             Mailbox.post mailbox ~src:vals_t ~slots:eslots ~lo:estart.(g)
               ~hi:(estart.(g + 1));
             Barrier.wait h;
             incr attended
           end
         done
       with _ ->
         (* remember only that *some* domain failed; the coordinator replays
            the cycle sequentially to recover the canonical first error *)
         Atomic.set err true);
      (* keep meeting the barriers the failed wave still owes, or peers
         would wait forever *)
      for _ = !attended to ngroups - 2 do
        Barrier.wait h
      done;
      Barrier.wait h;
      if not (Atomic.get err) then
        Array.blit vals_t lo_t master lo_t (hi_t - lo_t)
  in
  let fns = if nd > 1 then Array.init nd participant else [||] in
  (* coordinator-side memory phase over the master state — the flat
     engine's latch-then-update sequence, without its memory activity *)
  let mems = p.Flat.p_mems in
  let nmem = Array.length mems in
  let stats =
    Stats.create
      ~memories:(Array.to_list (Array.map (fun m -> m.Flat.m_name) mems))
  in
  let maddr = Array.make (max 1 nmem) 0 and mop = Array.make (max 1 nmem) 0 in
  let mcount = Array.map (fun m -> Stats.memory stats m.Flat.m_name) mems in
  let mfault = Array.map (fun m -> List.mem m.Flat.m_name fault_targets) mems in
  let io = config.Machine.io in
  let trace = config.Machine.trace in
  let trace_active = not (trace == Trace.null_sink) in
  let snap k =
    let m = Array.unsafe_get mems k in
    Array.unsafe_set maddr k (exec_master m.Flat.m_addr_pc 0 0 0);
    Array.unsafe_set mop k (exec_master m.Flat.m_op_pc 0 0 0)
  in
  let update k =
    let m = Array.unsafe_get mems k in
    let id = m.Flat.m_id in
    let old = Array.unsafe_get master id in
    let a = Array.unsafe_get maddr k in
    let op = Array.unsafe_get mop k in
    let c = Array.unsafe_get mcount k in
    (match op land 3 with
    | 0 ->
        if a < 0 || a >= m.Flat.m_len then
          Machine.address_out_of_range ~component:m.Flat.m_name ~cycle:!cycle
            ~address:a ~cells:m.Flat.m_len;
        Array.unsafe_set master id (Array.unsafe_get cells (m.Flat.m_off + a));
        c.Stats.reads <- c.Stats.reads + 1
    | 1 ->
        if a < 0 || a >= m.Flat.m_len then
          Machine.address_out_of_range ~component:m.Flat.m_name ~cycle:!cycle
            ~address:a ~cells:m.Flat.m_len;
        let v = exec_master m.Flat.m_data_pc 0 0 0 in
        Array.unsafe_set master id v;
        Array.unsafe_set cells (m.Flat.m_off + a) v;
        c.Stats.writes <- c.Stats.writes + 1
    | 2 ->
        Array.unsafe_set master id (io.Io.input ~address:a);
        c.Stats.inputs <- c.Stats.inputs + 1
    | _ ->
        let v = exec_master m.Flat.m_data_pc 0 0 0 in
        Array.unsafe_set master id v;
        io.Io.output ~address:a ~data:v;
        c.Stats.outputs <- c.Stats.outputs + 1);
    if trace_active then (
      if Component.traces_writes op then
        trace (Trace.write_line ~memory:m.Flat.m_name ~address:a ~data:master.(id));
      if Component.traces_reads op then
        trace (Trace.read_line ~memory:m.Flat.m_name ~address:a ~data:master.(id)));
    (if Array.unsafe_get mfault k then begin
       let before = Array.unsafe_get master id in
       let v = Fault.apply faults ~cycle:!cycle ~component:m.Flat.m_name before in
       Array.unsafe_set master id v
     end);
    if Array.unsafe_get master id <> old then wake_all id
  in
  let traced =
    Spec.traced_names spec
    |> List.map (fun name -> (name, Hashtbl.find p.Flat.p_ids name))
    |> Array.of_list
  in
  let emit_cycle_line =
    if not trace_active then fun () -> ()
    else fun () ->
      trace
        (Trace.cycle_line ~cycle:!cycle
           (Array.to_list
              (Array.map (fun (name, id) -> (name, master.(id))) traced)))
  in
  let finish_cycle () =
    emit_cycle_line ();
    for k = 0 to nmem - 1 do
      snap k
    done;
    for k = 0 to nmem - 1 do
      update k
    done;
    incr cycle;
    Stats.bump_cycle stats
  in
  (* the sequential path: the flat engine's activity loop over the master,
     visiting positions in topological order — used as the whole step when
     [nd = 1] (the honest par@1 ablation) and as the replay after a wave
     error *)
  let entry = p.Flat.p_comb_entry in
  let seq_comb () =
    for o = 0 to ncomb - 1 do
      let i = Array.unsafe_get pos_of_topo o in
      if Bytes.unsafe_get dirty i <> '\000' then begin
        let v = exec_master (Array.unsafe_get entry i) 0 0 0 in
        Bytes.unsafe_set dirty i (Bytes.unsafe_get comb_fault i);
        let v =
          if Bytes.unsafe_get comb_fault i = '\000' then v
          else
            Fault.apply faults ~cycle:!cycle
              ~component:(Array.unsafe_get names i)
              v
        in
        if Array.unsafe_get master i <> v then begin
          Array.unsafe_set master i v;
          wake_all i
        end
      end
    done
  in
  let seq_step () =
    seq_comb ();
    finish_cycle ()
  in
  let broken = ref false in
  let step =
    if nd = 1 then seq_step
    else fun () ->
      if !broken then seq_step ()
      else begin
        Bytes.blit dirty 0 dirty_snap 0 (Bytes.length dirty);
        Pool.run fns;
        if Atomic.get err then begin
          (* Some domain raised mid-wave; partition state is not
             trustworthy and the first-failing component is order
             dependent.  The master is untouched (publishes were skipped),
             so restore the cycle-start dirty bits and replay sequentially:
             this raises exactly the error the flat engine would, leaves
             exactly its partial state, and the machine stays sequential
             from here on (re-stepping re-raises, like flat). *)
          broken := true;
          Bytes.blit dirty_snap 0 dirty 0 (Bytes.length dirty);
          seq_step ()
        end
        else finish_cycle ()
      end
  in
  let component_slot name =
    match Hashtbl.find_opt p.Flat.p_ids name with
    | Some id -> id
    | None -> Error.failf Error.Analysis "Component <%s> not found." name
  in
  let mem_by_name name =
    match Array.find_opt (fun m -> String.equal m.Flat.m_name name) mems with
    | Some m -> m
    | None -> Error.failf Error.Runtime "Component <%s> is not a memory." name
  in
  let read_cell name index =
    let m = mem_by_name name in
    if index < 0 || index >= m.Flat.m_len then
      invalid_arg "Par: cell index out of range"
    else cells.(m.Flat.m_off + index)
  in
  let write_cell name index value =
    let m = mem_by_name name in
    if index < 0 || index >= m.Flat.m_len then
      invalid_arg "Par: cell index out of range"
    else cells.(m.Flat.m_off + index) <- value
  in
  {
    Machine.analysis;
    step;
    read = (fun name -> master.(component_slot name));
    read_cell;
    write_cell;
    current_cycle = (fun () -> !cycle);
    stats;
  }
