(* The native-compiled engine (the paper's own build: translate the spec to a
   host-language program, hand it to the host compiler, run machine code).

   The analyzed spec is lowered through the same IR the source backends print
   ([Asim_core.Lower]) into one self-contained OCaml module over the flat
   [int array] state layout, compiled out of process with the host toolchain
   (`ocamlfind ocamlopt -shared` -> .cmxs; `ocamlc -c` -> .cmo under
   bytecode), and Dynlinked into this process.  The generated code depends
   only on the canonical spec text: tracing, memory-mapped I/O, fault
   injection and runtime errors all enter through host closures in
   [Asim_jit_runtime.ctx], so one cached artifact serves every config and the
   engine stays observably identical to the interpreted ones.

   Artifacts are cached on disk keyed by the canonical-form MD5 (the same
   keying as the batch compiled-spec cache) under a subdirectory naming the
   compiler version and the runtime interface digest, with a lock file for
   cross-process single-flight and an in-process memo for repeat builds. *)

open Asim_core
open Asim_sim
module Analysis = Asim_analysis.Analysis
module Emitter = Asim_codegen.Emitter
module Tracer = Asim_obs.Tracer
module Runtime = Asim_jit_runtime

(* --- toolchain probing ------------------------------------------------------ *)

let probed_commands =
  if Dynlink.is_native then [ "ocamlfind ocamlopt"; "ocamlopt" ]
  else [ "ocamlfind ocamlc"; "ocamlc" ]

let command_answers cmd = Sys.command (cmd ^ " -version > /dev/null 2>&1") = 0

let toolchain = lazy (List.find_opt command_answers probed_commands)

let available () = Lazy.force toolchain <> None

let first_output_line cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then None else Some line
  with _ -> None

let toolchain_description () =
  match Lazy.force toolchain with
  | None -> None
  | Some cc -> (
      match first_output_line (cc ^ " -version") with
      | Some v -> Some (cc ^ " " ^ v)
      | None -> Some cc)

let require_toolchain () =
  match Lazy.force toolchain with
  | Some cc -> cc
  | None ->
      Error.failf Error.Runtime
        "the native engine needs an OCaml toolchain: none of [%s] answered \
         -version on PATH (install one, or pick another engine via -e)"
        (String.concat "; " probed_commands)

(* --- locating the runtime interface ----------------------------------------- *)

(* The plugin is compiled against exactly one interface: asim_jit_runtime.cmi.
   In a dune tree it lives in the library's .objs/byte directory; walk up from
   the running executable (works for bin/, test/ and bench/ executables alike).
   ASIM_JIT_INCLUDE_DIR overrides the search for installed setups. *)
let cmi_name = "asim_jit_runtime.cmi"

let cmi_rel_dir =
  Filename.concat
    (Filename.concat (Filename.concat "lib" "jit") "runtime")
    (Filename.concat ".asim_jit_runtime.objs" "byte")

let find_include_dir () =
  match Sys.getenv_opt "ASIM_JIT_INCLUDE_DIR" with
  | Some d when d <> "" -> if Sys.file_exists (Filename.concat d cmi_name) then Some d else None
  | _ ->
      let rec up dir =
        let cand = Filename.concat dir cmi_rel_dir in
        if Sys.file_exists (Filename.concat cand cmi_name) then Some cand
        else
          let parent = Filename.dirname dir in
          if String.equal parent dir then None else up parent
      in
      up (Filename.dirname Sys.executable_name)

let require_include_dir () =
  match find_include_dir () with
  | Some d -> d
  | None ->
      Error.failf Error.Runtime
        "the native engine cannot locate %s (searched %s upward from %s; set \
         ASIM_JIT_INCLUDE_DIR to the directory holding it)"
        cmi_name cmi_rel_dir
        (Filename.dirname Sys.executable_name)

(* --- cache layout ------------------------------------------------------------ *)

(* Bump when the generated code's shape changes so stale artifacts from an
   older generator are never Dynlinked.  2: the cache key covers the
   evaluation order (the optimizer's scheduler reorders components without
   changing the pretty-printed spec text).  4: specs larger than one chunk
   get activity-scheduled chunk functions (3 is skipped: a discarded
   revision of this generator used it, and its artifacts may still sit in
   caches). *)
let generator_version = 4

let default_cache_dir () =
  match Sys.getenv_opt "ASIM_JIT_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ ->
      let base =
        match Sys.getenv_opt "XDG_CACHE_HOME" with
        | Some d when d <> "" -> d
        | _ -> (
            match Sys.getenv_opt "HOME" with
            | Some h when h <> "" -> Filename.concat h ".cache"
            | _ -> Filename.get_temp_dir_name ())
      in
      Filename.concat (Filename.concat base "asim") "jit"

(* The artifact cache's file-system calls report a failure as a runtime
   error naming the path and the reason, never as a raw [Unix_error]. *)
let cache_error what path err =
  Error.failf Error.Runtime "native engine: cannot %s %s: %s" what path
    (Unix.error_message err)

let rec ensure_dir path =
  if not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    if not (String.equal parent path) then ensure_dir parent;
    try Unix.mkdir path 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (err, _, _) -> cache_error "create directory" path err
  end

(* The generated module bakes in the evaluation order, and the optimizer's
   scheduler can permute it without altering the spec text — so the order is
   part of the key. *)
let spec_md5 (analysis : Analysis.t) =
  let order_names =
    List.map (fun (c : Component.t) -> c.name) analysis.Analysis.order
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" (Pretty.spec analysis.Analysis.spec :: order_names)))

let artifact_ext = if Dynlink.is_native then ".cmxs" else ".cmo"

(* The artifact is only valid for the exact runtime interface it was compiled
   against and the compiler that built it, so both digests name the cache
   subdirectory; a rebuilt _build tree or a compiler upgrade starts a fresh
   shelf instead of tripping Dynlink interface mismatches. *)
let version_dir ~cache_dir ~include_dir =
  let cmi_digest =
    try String.sub (Digest.to_hex (Digest.file (Filename.concat include_dir cmi_name))) 0 8
    with _ -> "nocmi"
  in
  Filename.concat cache_dir
    (Printf.sprintf "%s-%s-g%d" Sys.ocaml_version cmi_digest generator_version)

let plugin_unit md5 = "asim_jit_plugin_" ^ md5

let artifact_path ~cache_dir (analysis : Analysis.t) =
  let include_dir = require_include_dir () in
  Filename.concat
    (version_dir ~cache_dir ~include_dir)
    (plugin_unit (spec_md5 analysis) ^ artifact_ext)

(* --- code generation ---------------------------------------------------------- *)

type mem_layout = {
  g_name : string;
  g_id : int;  (** component slot *)
  g_index : int;  (** memory index (stats counters, trace lines) *)
  g_off : int;  (** offset into the shared cell array *)
  g_len : int;
  g_init : int array option;
  g_mem : Component.memory;
}

let layout_memories (analysis : Analysis.t) ids =
  let off = ref 0 in
  analysis.Analysis.memories
  |> List.mapi (fun k (c : Component.t) ->
         match c.kind with
         | Component.Memory m ->
             let g =
               {
                 g_name = c.name;
                 g_id = Hashtbl.find ids c.name;
                 g_index = k;
                 g_off = !off;
                 g_len = m.Component.cells;
                 g_init = m.Component.init;
                 g_mem = m;
               }
             in
             off := !off + m.Component.cells;
             g
         | Component.Alu _ | Component.Selector _ -> assert false)
  |> fun l -> (Array.of_list l, !off)

let slot ids name =
  match Hashtbl.find_opt ids name with
  | Some id -> id
  | None -> Error.failf Error.Analysis "Component <%s> not found." name

let int_lit n = if n < 0 then Printf.sprintf "(%d)" n else string_of_int n

let render_term ids term =
  let value name = Printf.sprintf "(Array.unsafe_get vals %d)" (slot ids name) in
  let shifted v shift =
    if shift > 0 then Printf.sprintf "(%s lsl %d)" v shift
    else if shift < 0 then Printf.sprintf "(%s lsr %d)" v (-shift)
    else v
  in
  match term with
  | Lower.Const c -> int_lit c
  | Lower.Whole { name; at } -> shifted (value name) at
  | Lower.Field { name; lo; hi; at } ->
      shifted (Printf.sprintf "(%s land %d)" (value name) (Bits.field_mask ~lo ~hi)) (at - lo)

let render_expr ids e =
  match Lower.lower e with
  | [ t ] -> render_term ids t
  | ts -> "(" ^ String.concat " + " (List.map (render_term ids) ts) ^ ")"

(* §4.4 as real code generation: a constant function expression becomes the
   inlined operation; only a dynamic function pays the [dologic] dispatch. *)
let render_alu ids (a : Component.alu) =
  let l () = render_expr ids a.Component.left
  and r () = render_expr ids a.Component.right in
  match Lower.alu_const_function a with
  | Some (Component.Fn_zero | Component.Fn_unused) -> "0"
  | Some Component.Fn_right -> r ()
  | Some Component.Fn_left -> l ()
  | Some Component.Fn_not -> Printf.sprintf "(mask - %s)" (l ())
  | Some Component.Fn_add -> Printf.sprintf "(%s + %s)" (l ()) (r ())
  | Some Component.Fn_sub -> Printf.sprintf "(%s - %s)" (l ()) (r ())
  | Some Component.Fn_shift_left -> Printf.sprintf "(dologic 6 %s %s)" (l ()) (r ())
  | Some Component.Fn_mul -> Printf.sprintf "(%s * %s)" (l ()) (r ())
  | Some Component.Fn_and -> Printf.sprintf "(%s land %s)" (l ()) (r ())
  | Some Component.Fn_or ->
      Printf.sprintf "(let a = %s and b = %s in a + b - (a land b))" (l ()) (r ())
  | Some Component.Fn_xor ->
      Printf.sprintf "(let a = %s and b = %s in a + b - (2 * (a land b)))" (l ())
        (r ())
  | Some Component.Fn_eq -> Printf.sprintf "(if %s = %s then 1 else 0)" (l ()) (r ())
  | Some Component.Fn_lt -> Printf.sprintf "(if %s < %s then 1 else 0)" (l ()) (r ())
  | None ->
      Printf.sprintf "(dologic %s %s %s)" (render_expr ids a.Component.fn) (l ())
        (r ())

let render_selector ids ~id ~select ~(cases : Expr.t array) =
  let n = Array.length cases in
  match Lower.lower select with
  | [ Lower.Const c ] when c >= 0 && c < n -> render_expr ids cases.(c)
  | [ Lower.Const c ] ->
      (* Constant but out of range: preserve the per-cycle runtime error. *)
      Printf.sprintf "(sel_error %d %s %d)" id (int_lit c) n
  | _ ->
      let arms =
        Array.to_list cases
        |> List.mapi (fun i e -> Printf.sprintf "| %d -> %s" i (render_expr ids e))
      in
      Printf.sprintf "(match %s with %s| i -> sel_error %d i %d)"
        (render_expr ids select)
        (String.concat " " arms ^ " ")
        id n

let dologic_text =
  [
    "let mask = 2147483647";
    "";
    "let dologic funct left right =";
    "  match funct land 15 with";
    "  | 1 -> right";
    "  | 2 -> left";
    "  | 3 -> mask - left";
    "  | 4 -> left + right";
    "  | 5 -> left - right";
    "  | 6 ->";
    "      let rec go v n = if n <= 0 || v = 0 then v else go ((v + v) land mask) (n - 1) in";
    "      go (left land mask) right";
    "  | 7 -> left * right";
    "  | 8 -> left land right";
    "  | 9 -> left + right - (left land right)";
    "  | 10 -> left + right - (2 * (left land right))";
    "  | 12 -> if left = right then 1 else 0";
    "  | 13 -> if left < right then 1 else 0";
    "  | _ -> 0";
  ]

let ctx_fields =
  [
    "vals"; "cells"; "faulted"; "fault"; "io_input"; "io_output"; "trace_active";
    "trace_cycle"; "trace_write"; "trace_read"; "reads"; "writes"; "inputs";
    "outputs"; "sel_error"; "addr_error";
  ]

(* --- chunk activity ------------------------------------------------------------ *)

(* A chunk is one supernode ([Analysis.supernode_size] combinational
   components in evaluation order).  A spec whose combinational phase fits
   in one chunk gets a single straight-line step function; a larger one is
   split into top-level chunk functions, and the step runs a chunk only when
   one of its inputs changed — the flat kernel's supernode activity, in
   generated code. *)

(* [readers.(slot)]: the chunks holding a combinational reader of [slot], in
   ascending order.  Every referenced name counts, including operands the
   generated code folds away: an extra wake-up costs time, never
   correctness. *)
let chunk_readers ids (order : Component.t array) =
  let readers = Array.make (max 1 (Hashtbl.length ids)) [] in
  Array.iteri
    (fun pos c ->
      let chunk = Analysis.supernode pos in
      List.iter
        (fun name ->
          let s = slot ids name in
          match readers.(s) with
          | c' :: _ when c' = chunk -> ()
          | l -> readers.(s) <- chunk :: l)
        (List.concat_map Expr.names (Component.combinational_inputs c)))
    order;
  Array.map List.rev readers

let marks chunks =
  String.concat "; "
    (List.map (Printf.sprintf "Bytes.unsafe_set active %d '\\001'") chunks)

(* --- module text ---------------------------------------------------------------- *)

let put e indent fmt = Printf.ksprintf (fun s -> Emitter.line e (indent ^ s)) fmt

(* One combinational component.  [woken] are the chunks to mark when its
   value changes: with none, the store is unconditional.  The fault hook is
   config-dependent so it is always emitted, gated on the per-slot flag. *)
let emit_comb e indent ids ~woken (c : Component.t) =
  let id = slot ids c.name in
  (match c.kind with
  | Component.Alu a -> put e indent "let v = %s in" (render_alu ids a)
  | Component.Selector { select; cases } ->
      put e indent "let v = %s in" (render_selector ids ~id ~select ~cases)
  | Component.Memory _ -> assert false);
  put e indent "let v = if Array.unsafe_get faulted %d then fault %d v else v in" id id;
  match woken with
  | [] -> put e indent "Array.unsafe_set vals %d v;" id
  | chunks ->
      put e indent
        "if v <> Array.unsafe_get vals %d then begin Array.unsafe_set vals %d v; %s end;"
        id id (marks chunks)

let generate_source (analysis : Analysis.t) =
  let spec = analysis.Analysis.spec in
  let ids = Hashtbl.create 64 in
  List.iteri
    (fun i (c : Component.t) -> Hashtbl.replace ids c.name i)
    spec.Spec.components;
  let mems, _cells_len = layout_memories analysis ids in
  let order = Array.of_list analysis.Analysis.order in
  let nchunks = Analysis.supernodes (Array.length order) in
  let chunked = nchunks > 1 in
  let readers = if chunked then chunk_readers ids order else [||] in
  let e = Emitter.create () in
  let line = Emitter.line e and linef fmt = Emitter.linef e fmt in
  linef "(* %s.ml — generated by asim_jit; do not edit. *)"
    (plugin_unit (spec_md5 analysis));
  Emitter.blank e;
  List.iter line dologic_text;
  Emitter.blank e;
  if chunked then begin
    (* The slot of every combinational component, in evaluation order: what
       [make] needs to pin the chunks holding a fault target. *)
    line "let comb_slots = [|";
    Array.iteri
      (fun pos (c : Component.t) ->
        linef "  %d;%s" (slot ids c.name)
          (if pos mod Analysis.supernode_size = 0 then
             Printf.sprintf " (* chunk %d *)" (Analysis.supernode pos)
           else ""))
      order;
    line "|]";
    Emitter.blank e;
    for chunk = 0 to nchunks - 1 do
      linef
        "let chunk_%d (vals : int array) (faulted : bool array) (fault : int -> int -> int)"
        chunk;
      line "    (sel_error : int -> int -> int -> int) (active : Bytes.t) =";
      for pos = chunk * Analysis.supernode_size
          to min (Array.length order) ((chunk + 1) * Analysis.supernode_size) - 1 do
        let c = order.(pos) in
        let woken = List.filter (fun r -> r > chunk) readers.(slot ids c.name) in
        emit_comb e "  " ids ~woken c
      done;
      line "  ()";
      Emitter.blank e
    done
  end;
  line "let make (ctx : Asim_jit_runtime.ctx) =";
  List.iter
    (fun f -> linef "  let %s = ctx.Asim_jit_runtime.%s in" f f)
    ctx_fields;
  if chunked then begin
    (* Every chunk starts active, so the initial state is evaluated in
       full on the first cycle.  A chunk holding a fault target is pinned
       active: a cycle-windowed fault keeps firing over quiet logic. *)
    linef "  let active = Bytes.make %d '\\001' in" nchunks;
    linef "  let pinned = Bytes.make %d '\\000' in" nchunks;
    linef
      "  Array.iteri (fun pos id -> if Array.unsafe_get faulted id then \
       Bytes.unsafe_set pinned (pos / %d) '\\001') comb_slots;"
      Analysis.supernode_size
  end;
  line "  fun () ->";
  let body fmt = put e "    " fmt in
  if chunked then
    (* A chunk's byte is cleared only after it returns, so a selector error
       re-raises if the machine is stepped again, as in the flat kernel. *)
    for chunk = 0 to nchunks - 1 do
      body "if Bytes.unsafe_get active %d <> '\\000' then begin" chunk;
      body "  chunk_%d vals faulted fault sel_error active;" chunk;
      body "  Bytes.unsafe_set active %d (Bytes.unsafe_get pinned %d)" chunk chunk;
      body "end;"
    done
  else
    (* Combinational phase, in topological evaluation order. *)
    Array.iter (emit_comb e "    " ids ~woken:[]) order;
  body "if trace_active then trace_cycle ();";
  (* Address and op snapshots for every memory happen before any update (the
     paper's two-phase cycle); data expressions are evaluated lazily inside
     the update so they see earlier memories' freshly latched outputs. *)
  Array.iter
    (fun g ->
      body "let a%d = %s in" g.g_index (render_expr ids g.g_mem.Component.addr);
      match Lower.memory_const_op g.g_mem with
      | Some _ -> ()
      | None -> body "let o%d = %s in" g.g_index (render_expr ids g.g_mem.Component.op))
    mems;
  Array.iter
    (fun g ->
      let k = g.g_index and id = g.g_id in
      let a = Printf.sprintf "a%d" k in
      let cell =
        if g.g_off = 0 then a else Printf.sprintf "(%s + %d)" a g.g_off
      in
      let bounds_check =
        Printf.sprintf "if %s < 0 || %s >= %d then addr_error %d %s" a a g.g_len k a
      in
      let bump counter =
        Printf.sprintf "Array.unsafe_set %s %d (Array.unsafe_get %s %d + 1)"
          counter k counter k
      in
      let read_arm =
        String.concat "; "
          [
            bounds_check;
            Printf.sprintf "Array.unsafe_set vals %d (Array.unsafe_get cells %s)" id
              cell;
            bump "reads";
          ]
      and write_arm =
        String.concat "; "
          [
            bounds_check;
            Printf.sprintf "let d = %s in Array.unsafe_set vals %d d; \
                            Array.unsafe_set cells %s d; %s"
              (render_expr ids g.g_mem.Component.data)
              id cell (bump "writes");
          ]
      and input_arm =
        String.concat "; "
          [
            Printf.sprintf "Array.unsafe_set vals %d (io_input %s)" id a;
            bump "inputs";
          ]
      and output_arm =
        Printf.sprintf "let d = %s in Array.unsafe_set vals %d d; io_output %s d; %s"
          (render_expr ids g.g_mem.Component.data)
          id a (bump "outputs")
      in
      let trace_write_stmt =
        Printf.sprintf "trace_write %d %s (Array.unsafe_get vals %d)" k a id
      and trace_read_stmt =
        Printf.sprintf "trace_read %d %s (Array.unsafe_get vals %d)" k a id
      in
      let woken = if chunked then readers.(id) else [] in
      if woken <> [] then body "let old%d = Array.unsafe_get vals %d in" k id;
      (match Lower.memory_const_op g.g_mem with
      | Some op ->
          (* §4.4 memory specialization: the op is spec-constant, so only the
             live arm and the statically decided trace lines are emitted. *)
          (match op land 3 with
          | 0 -> body "%s;" read_arm
          | 1 -> body "(%s);" write_arm
          | 2 -> body "%s;" input_arm
          | _ -> body "(%s);" output_arm);
          if Component.traces_writes op then
            body "if trace_active then %s;" trace_write_stmt;
          if Component.traces_reads op then
            body "if trace_active then %s;" trace_read_stmt
      | None ->
          body "(match o%d land 3 with" k;
          body " | 0 -> %s" read_arm;
          body " | 1 -> %s" write_arm;
          body " | 2 -> %s" input_arm;
          body " | _ -> %s);" output_arm;
          body "if trace_active then begin";
          body "  if o%d land 5 = 5 then %s;" k trace_write_stmt;
          body "  if o%d land 9 = 8 then %s" k trace_read_stmt;
          body "end;");
      body
        "if Array.unsafe_get faulted %d then Array.unsafe_set vals %d (fault %d \
         (Array.unsafe_get vals %d));"
        id id id id;
      (* Marked right after this memory's own update, so an address error in
         a later memory cannot lose the marks (the flat kernel's rule). *)
      if woken <> [] then
        body "if Array.unsafe_get vals %d <> old%d then begin %s end;" id k
          (marks woken))
    mems;
  body "()";
  Emitter.blank e;
  line "let () = Asim_jit_runtime.register make";
  Emitter.contents e

(* --- compile, cache, Dynlink -------------------------------------------------- *)

(* Single flight per key: the first domain to ask for a spec owns its build
   and marks the key [Building]; later askers for the same key wait on
   [memo_changed], while other keys proceed.  [memo_lock] guards only the
   table, never a compile.  [load_lock] serializes Dynlink and the
   [Runtime] hand-off, and the lock file extends single flight across
   processes (batch workers, parallel fuzz campaigns sharing a cache
   directory). *)
type entry = Building | Ready of (Runtime.ctx -> unit -> unit)

let memo : (string, entry) Hashtbl.t = Hashtbl.create 8
let memo_lock = Mutex.create ()
let memo_changed = Condition.create ()
let load_lock = Mutex.create ()

(* Builds in flight keep their entry: their owners publish on completion. *)
let clear_memory_cache () =
  Mutex.protect memo_lock (fun () ->
      Hashtbl.filter_map_inplace
        (fun _ entry -> match entry with Ready _ -> None | Building -> Some entry)
        memo)

let with_file_lock path f =
  let fd =
    try Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
    with Unix.Unix_error (err, _, _) -> cache_error "create lock file" path err
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd (* releases the lockf region *))
    (fun () ->
      (try Unix.lockf fd Unix.F_LOCK 0
       with Unix.Unix_error (err, _, _) -> cache_error "lock" path err);
      f ())

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun entry -> remove_tree (Filename.concat path entry)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* Build directories are removed on the spot; the at_exit sweep covers builds
   interrupted by an exception that unwinds past the engine (e.g. a user ^C
   turned into an exit). *)
let live_build_dirs : (string, unit) Hashtbl.t = Hashtbl.create 4
let build_dirs_lock = Mutex.create ()

let () =
  at_exit (fun () ->
      Mutex.protect build_dirs_lock (fun () ->
          Hashtbl.iter (fun dir () -> remove_tree dir) live_build_dirs))

let read_log_excerpt path =
  try
    let ic = open_in path in
    let rec go acc n =
      if n = 0 then acc
      else match input_line ic with
        | l -> go (acc @ [ l ]) (n - 1)
        | exception End_of_file -> acc
    in
    let lines = go [] 3 in
    close_in ic;
    String.concat " | " lines
  with _ -> ""

let compile_artifact ~cc ~include_dir ~subdir ~unit ~source ~artifact =
  let build_dir =
    Filename.concat subdir (Printf.sprintf "build-%s-%d" unit (Unix.getpid ()))
  in
  ensure_dir build_dir;
  Mutex.protect build_dirs_lock (fun () -> Hashtbl.replace live_build_dirs build_dir ());
  Fun.protect
    ~finally:(fun () ->
      remove_tree build_dir;
      Mutex.protect build_dirs_lock (fun () -> Hashtbl.remove live_build_dirs build_dir))
    (fun () ->
      let src = Filename.concat build_dir (unit ^ ".ml") in
      let oc = open_out src in
      output_string oc source;
      close_out oc;
      let log = Filename.concat build_dir "compile.log" in
      let out = Filename.concat build_dir (unit ^ artifact_ext) in
      let cmd =
        if Dynlink.is_native then
          Printf.sprintf "%s -shared -w -a -I %s -o %s %s > %s 2>&1" cc
            (Filename.quote include_dir) (Filename.quote out) (Filename.quote src)
            (Filename.quote log)
        else
          Printf.sprintf "cd %s && %s -c -w -a -I %s %s > %s 2>&1"
            (Filename.quote build_dir) cc (Filename.quote include_dir)
            (Filename.quote src) (Filename.quote log)
      in
      if Sys.command cmd <> 0 then
        Error.failf Error.Runtime
          "native engine: plugin compilation failed (%s): %s" cc
          (read_log_excerpt log);
      (* Publish atomically so concurrent readers only ever see a complete
         artifact. *)
      Sys.rename out artifact)

exception Retry_compile

let dynlink_factory ~tracer ~key ~cache artifact =
  Tracer.span tracer
    ~args:[ ("key", key); ("cache", cache) ]
    "codegen.native.dynlink"
    (fun () ->
      Mutex.protect load_lock @@ fun () ->
      ignore (Runtime.take ());
      (match Dynlink.loadfile_private artifact with
      | () -> ()
      | exception Dynlink.Error err ->
          if String.equal cache "hit" then raise Retry_compile
          else
            Error.failf Error.Runtime "native engine: Dynlink failed: %s"
              (Dynlink.error_message err));
      match Runtime.take () with
      | Some make -> make
      | None ->
          Error.failf Error.Runtime
            "native engine: plugin %s did not register a step function" key)

let build_factory ~tracer ~cache_dir ~cc ~include_dir ~md5 (analysis : Analysis.t) =
  let subdir = version_dir ~cache_dir ~include_dir in
  ensure_dir subdir;
  let unit = plugin_unit md5 in
  let artifact = Filename.concat subdir (unit ^ artifact_ext) in
  let key = String.sub md5 0 8 in
  let build_once () =
    with_file_lock (Filename.concat subdir ("." ^ md5 ^ ".lock")) (fun () ->
        let cache = if Sys.file_exists artifact then "hit" else "miss" in
        Tracer.span tracer
          ~args:[ ("key", key); ("cache", cache) ]
          "codegen.native.compile"
          (fun () ->
            if String.equal cache "miss" then
              compile_artifact ~cc ~include_dir ~subdir ~unit
                ~source:(generate_source analysis) ~artifact);
        (cache, artifact))
  in
  let cache, artifact = build_once () in
  match dynlink_factory ~tracer ~key ~cache artifact with
  | make -> make
  | exception Retry_compile ->
      (* A cached artifact that does not load (corrupted file, partial write
         from a killed process) is discarded and rebuilt once instead of
         crashing the run. *)
      (try Sys.remove artifact with Sys_error _ -> ());
      let cache, artifact = build_once () in
      dynlink_factory ~tracer ~key ~cache artifact

let obtain_factory ~tracer ~cache_dir (analysis : Analysis.t) =
  let md5 = spec_md5 analysis in
  let rec claim () =
    match Hashtbl.find_opt memo md5 with
    | Some (Ready make) -> `Ready make
    | Some Building ->
        Condition.wait memo_changed memo_lock;
        claim ()
    | None ->
        let cc = require_toolchain () in
        let include_dir = require_include_dir () in
        Hashtbl.replace memo md5 Building;
        `Build (cc, include_dir)
  in
  match Mutex.protect memo_lock claim with
  | `Ready make -> make
  | `Build (cc, include_dir) ->
      (* A failed build drops its entry, so a waiter retries on its own. *)
      let publish entry =
        Mutex.protect memo_lock (fun () ->
            (match entry with
            | Some make -> Hashtbl.replace memo md5 (Ready make)
            | None -> Hashtbl.remove memo md5);
            Condition.broadcast memo_changed)
      in
      (match build_factory ~tracer ~cache_dir ~cc ~include_dir ~md5 analysis with
      | make ->
          publish (Some make);
          make
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          publish None;
          Printexc.raise_with_backtrace e bt)

(* --- the engine --------------------------------------------------------------- *)

let create ?(config = Machine.default_config) ?(tracer = Tracer.null) ?cache_dir
    (analysis : Analysis.t) =
  let cache_dir = match cache_dir with Some d -> d | None -> default_cache_dir () in
  let spec = analysis.Analysis.spec in
  let components = spec.Spec.components in
  let ncomp = List.length components in
  let ids = Hashtbl.create 64 in
  List.iteri (fun i (c : Component.t) -> Hashtbl.replace ids c.name i) components;
  let comp_names =
    Array.of_list (List.map (fun (c : Component.t) -> c.name) components)
  in
  let mems, cells_len = layout_memories analysis ids in
  let nmem = Array.length mems in
  let vals = Array.make (max 1 ncomp) 0 in
  let cells = Array.make (max 1 cells_len) 0 in
  Array.iter
    (fun g ->
      match g.g_init with
      | Some init -> Array.blit init 0 cells g.g_off (Array.length init)
      | None -> ())
    mems;
  let stats =
    Stats.create ~memories:(Array.to_list (Array.map (fun g -> g.g_name) mems))
  in
  let mcount = Array.map (fun g -> Stats.memory stats g.g_name) mems in
  let reads = Array.make (max 1 nmem) 0
  and writes = Array.make (max 1 nmem) 0
  and inputs = Array.make (max 1 nmem) 0
  and outputs = Array.make (max 1 nmem) 0 in
  let cycle = ref 0 in
  let io = config.Machine.io in
  let trace = config.Machine.trace in
  let faults = config.Machine.faults in
  let fault_targets = Fault.targets faults in
  let faulted = Array.make (max 1 ncomp) false in
  Array.iteri
    (fun i name -> if List.mem name fault_targets then faulted.(i) <- true)
    comp_names;
  let traced =
    Spec.traced_names spec
    |> List.map (fun name -> (name, slot ids name))
    |> Array.of_list
  in
  let mem_names = Array.map (fun g -> g.g_name) mems in
  let ctx =
    {
      Runtime.vals;
      cells;
      faulted;
      fault =
        (fun id v ->
          Fault.apply faults ~cycle:!cycle ~component:comp_names.(id) v);
      io_input = (fun address -> io.Io.input ~address);
      io_output = (fun address data -> io.Io.output ~address ~data);
      trace_active = not (trace == Trace.null_sink);
      trace_cycle =
        (fun () ->
          trace
            (Trace.cycle_line ~cycle:!cycle
               (Array.to_list
                  (Array.map (fun (name, id) -> (name, vals.(id))) traced))));
      trace_write =
        (fun k address data ->
          trace (Trace.write_line ~memory:mem_names.(k) ~address ~data));
      trace_read =
        (fun k address data ->
          trace (Trace.read_line ~memory:mem_names.(k) ~address ~data));
      reads;
      writes;
      inputs;
      outputs;
      sel_error =
        (fun id index cases ->
          Machine.selector_out_of_range ~component:comp_names.(id) ~cycle:!cycle
            ~index ~cases);
      addr_error =
        (fun k address ->
          Machine.address_out_of_range ~component:mem_names.(k) ~cycle:!cycle
            ~address ~cells:mems.(k).g_len);
    }
  in
  let make = obtain_factory ~tracer ~cache_dir analysis in
  let plugin_step = make ctx in
  let flush () =
    for k = 0 to nmem - 1 do
      let c = mcount.(k) in
      c.Stats.reads <- reads.(k);
      c.Stats.writes <- writes.(k);
      c.Stats.inputs <- inputs.(k);
      c.Stats.outputs <- outputs.(k)
    done
  in
  let step () =
    (match plugin_step () with
    | () -> ()
    | exception e ->
        (* Keep the per-memory counters observable even when the cycle dies on
           a runtime error, exactly like the in-process engines. *)
        flush ();
        raise e);
    flush ();
    incr cycle;
    Stats.bump_cycle stats
  in
  let mem_by_name name =
    match Array.find_opt (fun g -> String.equal g.g_name name) mems with
    | Some g -> g
    | None -> Error.failf Error.Runtime "Component <%s> is not a memory." name
  in
  let read_cell name index =
    let g = mem_by_name name in
    if index < 0 || index >= g.g_len then invalid_arg "Jit: cell index out of range"
    else cells.(g.g_off + index)
  in
  let write_cell name index value =
    let g = mem_by_name name in
    if index < 0 || index >= g.g_len then invalid_arg "Jit: cell index out of range"
    else cells.(g.g_off + index) <- value
  in
  {
    Machine.analysis;
    step;
    read =
      (fun name ->
        match Hashtbl.find_opt ids name with
        | Some i -> vals.(i)
        | None -> Error.failf Error.Runtime "Component <%s> not found." name);
    read_cell;
    write_cell;
    current_cycle = (fun () -> !cycle);
    stats;
  }
