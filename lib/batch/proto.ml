type source =
  | File of string
  | Inline of string
  | Example of string
  | Hash of string

type want =
  | Outputs
  | Memory
  | Trace
  | Events
  | Stats
  | Timing
  | Profile

type job = {
  id : string option;
  trace_id : string option;
  source : source;
  engine : Asim.engine;
  opt : Asim.Opt.level option;
      (* middle-end level for this job; [None] defers to the session default *)
  cycles : int option;
  inputs : int list;
  want : want list;
  timeout_s : float option;
}

let want_of_string = function
  | "outputs" -> Some Outputs
  | "memory" -> Some Memory
  | "trace" -> Some Trace
  | "events" -> Some Events
  | "stats" -> Some Stats
  | "timing" -> Some Timing
  | "profile" -> Some Profile
  | _ -> None

let known_fields =
  [ "id"; "trace_id"; "spec_file"; "spec"; "example"; "spec_hash"; "engine"; "opt";
    "cycles"; "inputs"; "want"; "timeout_s" ]

let is_md5_hex s =
  String.length s = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let ( let* ) = Result.bind

let field_opt json key decode ~expected =
  match Json.member key json with
  | None -> Ok None
  | Some v -> (
      match decode v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "field %S must be %s" key expected))

type upload = { upload_id : string option; source_text : string }

type request =
  | Run of job
  | Metrics
  | Upload of upload

let job_of_json json =
  match json with
  | Json.Obj fields ->
      let* () =
        match List.find_opt (fun (k, _) -> not (List.mem k known_fields)) fields with
        | Some (k, _) -> Error (Printf.sprintf "unknown field %S" k)
        | None -> Ok ()
      in
      let* id = field_opt json "id" Json.to_string_opt ~expected:"a string" in
      let* trace_id = field_opt json "trace_id" Json.to_string_opt ~expected:"a string" in
      let* spec_file = field_opt json "spec_file" Json.to_string_opt ~expected:"a string" in
      let* inline = field_opt json "spec" Json.to_string_opt ~expected:"a string" in
      let* example = field_opt json "example" Json.to_string_opt ~expected:"a string" in
      let* hash = field_opt json "spec_hash" Json.to_string_opt ~expected:"a string" in
      let* hash =
        match hash with
        | None -> Ok None
        | Some h ->
            let h = String.lowercase_ascii h in
            if is_md5_hex h then Ok (Some h)
            else Error "field \"spec_hash\" must be a 32-character MD5 hex digest"
      in
      let* source =
        match (spec_file, inline, example, hash) with
        | Some p, None, None, None -> Ok (File p)
        | None, Some s, None, None -> Ok (Inline s)
        | None, None, Some e, None -> Ok (Example e)
        | None, None, None, Some h -> Ok (Hash h)
        | None, None, None, None ->
            Error "job needs one of \"spec_file\", \"spec\", \"example\" or \"spec_hash\""
        | _ ->
            Error
              "job must name exactly one of \"spec_file\", \"spec\", \"example\" or \
               \"spec_hash\""
      in
      let* engine =
        let* name = field_opt json "engine" Json.to_string_opt ~expected:"a string" in
        match name with
        | None -> Ok `Compiled
        | Some name -> (
            match Asim.engine_of_string name with
            | Some e -> Ok e
            | None -> Error (Printf.sprintf "unknown engine %S" name))
      in
      let* opt =
        field_opt json "opt"
          (fun v ->
            match Json.to_int v with
            | Some n -> Asim.Opt.level_of_string (string_of_int n)
            | None ->
                Option.bind (Json.to_string_opt v) Asim.Opt.level_of_string)
          ~expected:"an opt level (0, 1 or 2)"
      in
      let* cycles = field_opt json "cycles" Json.to_int ~expected:"an integer" in
      let* () =
        match cycles with
        | Some n when n < 0 -> Error "field \"cycles\" must be non-negative"
        | _ -> Ok ()
      in
      let* inputs =
        match Json.member "inputs" json with
        | None -> Ok []
        | Some v -> (
            match Json.to_list v with
            | None -> Error "field \"inputs\" must be a list of integers"
            | Some items ->
                let ints = List.filter_map Json.to_int items in
                if List.length ints = List.length items then Ok ints
                else Error "field \"inputs\" must be a list of integers")
      in
      let* want =
        match Json.member "want" json with
        | None -> Ok [ Outputs ]
        | Some v -> (
            match Json.to_list v with
            | None -> Error "field \"want\" must be a list of strings"
            | Some items ->
                List.fold_left
                  (fun acc item ->
                    let* acc = acc in
                    match Option.bind (Json.to_string_opt item) want_of_string with
                    | Some w -> Ok (w :: acc)
                    | None ->
                        Error
                          (Printf.sprintf "field \"want\" has an unknown entry %s"
                             (Json.to_string item)))
                  (Ok []) items
                |> Result.map List.rev)
      in
      let* timeout_s = field_opt json "timeout_s" Json.to_float ~expected:"a number" in
      let* () =
        match timeout_s with
        | Some s when s < 0.0 -> Error "field \"timeout_s\" must be non-negative"
        | _ -> Ok ()
      in
      Ok { id; trace_id; source; engine; opt; cycles; inputs; want; timeout_s }
  | _ -> Error "job must be a JSON object"

let request_of_json json =
  match Json.member "control" json with
  | Some v -> (
      match Json.to_string_opt v with
      | Some "metrics" -> (
          match json with
          | Json.Obj [ _ ] -> Ok Metrics
          | _ -> Error "a metrics control request carries no other fields")
      | Some "upload" -> (
          match json with
          | Json.Obj fields -> (
              let* () =
                match
                  List.find_opt
                    (fun (k, _) -> not (List.mem k [ "control"; "spec"; "id" ]))
                    fields
                with
                | Some (k, _) ->
                    Error (Printf.sprintf "unknown field %S in upload request" k)
                | None -> Ok ()
              in
              let* upload_id = field_opt json "id" Json.to_string_opt ~expected:"a string" in
              match Json.member "spec" json with
              | Some (Json.String source_text) -> Ok (Upload { upload_id; source_text })
              | Some _ -> Error "field \"spec\" must be a string"
              | None -> Error "an upload request needs a \"spec\" field")
          | _ -> Error "an upload request must be a JSON object")
      | Some other -> Error (Printf.sprintf "unknown control request %S" other)
      | None -> Error "field \"control\" must be a string")
  | None -> Result.map (fun j -> Run j) (job_of_json json)

(* --- results ---------------------------------------------------------------- *)

type status =
  | Ok_
  | Error_ of string
  | Timeout of int

type outcome = {
  job : job;
  status : status;
  cycles_run : int;
  outputs : (string * int) list;
  cells : (string * int list) list;
  trace : string list;
  events : string list;
  stats_json : Json.t option;
  profile_json : Json.t option;
  elapsed_s : float;
}

let status_class = function
  | Ok_ -> `Ok
  | Error_ _ -> `Error
  | Timeout _ -> `Timeout

let result_to_json ~index outcome =
  let job = outcome.job in
  let wanted w = List.mem w job.want in
  let fields = ref [] in
  let add key value = fields := (key, value) :: !fields in
  (* Built in reverse; [add] order below is the reverse of field order. *)
  if wanted Timing then add "elapsed_ms" (Json.Float (outcome.elapsed_s *. 1000.0));
  (match outcome.profile_json with
  | Some p when wanted Profile -> add "profile" p
  | _ -> ());
  (match outcome.stats_json with Some s when wanted Stats -> add "stats" s | _ -> ());
  if wanted Events then
    add "events" (Json.List (List.map (fun e -> Json.String e) outcome.events));
  if wanted Trace then
    add "trace" (Json.List (List.map (fun l -> Json.String l) outcome.trace));
  if wanted Memory && outcome.status = Ok_ then
    add "memory"
      (Json.Obj
         (List.map
            (fun (name, cells) ->
              (name, Json.List (List.map (fun c -> Json.Int c) cells)))
            outcome.cells));
  if wanted Outputs && outcome.status = Ok_ then
    add "outputs" (Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) outcome.outputs));
  (match outcome.status with
  | Ok_ -> ()
  | Error_ msg -> add "error" (Json.String msg)
  | Timeout done_ -> add "cycles_done" (Json.Int done_));
  add "cycles" (Json.Int outcome.cycles_run);
  add "status"
    (Json.String
       (match outcome.status with Ok_ -> "ok" | Error_ _ -> "error" | Timeout _ -> "timeout"));
  Option.iter (fun i -> add "id" (Json.String i)) job.id;
  add "index" (Json.Int index);
  Json.Obj !fields
