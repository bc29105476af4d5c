(* [suite.exe compare BASE.jsonl OTHER.jsonl...]: each file is a set of
   runs (one result object per line, as [run --out] appends them).  Every
   OTHER set is compared with BASE per workload and metric: medians and
   quartiles of both sides, and for gated metrics a verdict against the
   bound in BENCHMARK.json. *)

module Json = Asim_batch.Json

type gate = { lower_better : bool; bound : float }

let read_lines file = In_channel.with_open_text file In_channel.input_lines

let load file =
  List.filter_map
    (fun line -> if String.trim line = "" then None else Some (Report.of_json (Json.parse line)))
    (read_lines file)

let gates benchmark =
  let json = Json.parse (In_channel.with_open_text benchmark In_channel.input_all) in
  List.filter_map
    (fun m ->
      match
        ( Option.bind (Json.member "name" m) Json.to_string_opt,
          Option.bind (Json.member "better" m) Json.to_string_opt,
          Option.bind (Json.member "bound" m) Json.to_float )
      with
      | Some name, Some better, Some bound -> Some (name, { lower_better = better = "lower"; bound })
      | _ -> None)
    (Option.value (Option.bind (Json.member "end_to_end" json) Json.to_list) ~default:[])

let values runs ~workload ~metric =
  List.filter_map
    (fun (r : Report.t) ->
      if r.workload = workload then
        Option.map (fun (m : Report.metric) -> m.value)
          (List.find_opt (fun (m : Report.metric) -> m.name = metric) r.metrics)
      else None)
    runs

(* Quartile spread as a share of the median: the noise a verdict must
   clear. *)
let spread xs =
  let q1, m, q3 = Sample.quartiles xs in
  (q3 -. q1) /. Float.abs m

(* [within], [worse] or [better] by more than the bound; [unresolved] when
   either side's spread is wider than the bound, unless every run of one
   side beats every run of the other. *)
let verdict gate a b =
  let ma = Sample.median a and mb = Sample.median b in
  let worse_by = (if gate.lower_better then mb -. ma else ma -. mb) /. Float.abs ma in
  let beats xs ys =
    List.for_all (fun x -> List.for_all (fun y -> if gate.lower_better then x < y else x > y) ys) xs
  in
  if Float.max (spread a) (spread b) > gate.bound then
    if beats b a then "better" else if beats a b then "worse" else "unresolved"
  else if worse_by > gate.bound then "worse"
  else if worse_by < -.gate.bound then "better"
  else "within"

let compare_sets gates (base_file, base) (other_file, other) =
  Printf.printf "== %s (%d runs) vs %s (%d runs)\n" base_file (List.length base) other_file
    (List.length other);
  Printf.printf "%-13s %-30s %12s %7s %12s %7s %8s %6s  %s\n" "workload" "metric" "base median"
    "spread" "other median" "spread" "change" "bound" "verdict";
  let worse = ref 0 in
  List.iter
    (fun workload ->
      let names =
        List.sort_uniq compare
          (List.concat_map
             (fun (r : Report.t) ->
               if r.workload = workload then List.map (fun (m : Report.metric) -> m.name) r.metrics
               else [])
             base)
      in
      List.iter
        (fun metric ->
          let a = values base ~workload ~metric and b = values other ~workload ~metric in
          if a <> [] && b <> [] then begin
            let ma = Sample.median a and mb = Sample.median b in
            let bound, v =
              match List.assoc_opt metric gates with
              | Some g -> (Printf.sprintf "%.2f" g.bound, verdict g a b)
              | None -> ("-", "-")
            in
            if v = "worse" then incr worse;
            Printf.printf "%-13s %-30s %12.5g %6.1f%% %12.5g %6.1f%% %+7.1f%% %6s  %s\n" workload metric
              ma (100.0 *. spread a) mb (100.0 *. spread b)
              (100.0 *. (mb -. ma) /. Float.abs ma)
              bound v
          end)
        names)
    Workload.names;
  !worse

let run ~benchmark files =
  match files with
  | base :: (_ :: _ as others) ->
      let gates = gates benchmark in
      let base = (base, load base) in
      let worse = List.fold_left (fun acc f -> acc + compare_sets gates base (f, load f)) 0 others in
      if worse > 0 then 1 else 0
  | _ ->
      prerr_endline "usage: suite.exe compare [--benchmark FILE] BASE.jsonl OTHER.jsonl...";
      2
