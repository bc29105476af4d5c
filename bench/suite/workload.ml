(* The four workloads.  Each names the specs its engine phase runs in process
   and the job stream its serve phase sends, so every workload measures every
   layer: a workload stresses a layer by what it feeds it, not by skipping
   the others.  Why each workload exists is recorded in BENCHMARK.json. *)

module Gen = Asim_fuzz.Gen
module Demos = Asim_stackm.Demos

(* [Runs]: every sample is k fresh machines each running an item's whole
   cycle count (the sieve's ROM overruns past 5545 cycles, so it cannot run
   on).  [Continuous]: one machine per engine runs on and every sample is the
   next slice of cycles, because rebuilding a 10k-component machine per
   sample would dominate the run. *)
type mode = Runs | Continuous

type item = { label : string; text : string; cycles : int }

type t = {
  name : string;
  mode : mode;
  items : item list;  (** what the engine phase builds and runs *)
  hot : string list;  (** spec texts uploaded before serving *)
  miss : int -> string;  (** the i-th fresh spec: an inline job that misses *)
  open_rate : float;  (** jobs/s of the open-loop phase *)
  native_cold : int;  (** cold native builds (codegen + ocamlopt + dynlink) *)
}

(* Every served job runs this many cycles on the flat engine. *)
let job_cycles = 2000

let names = [ "fig51-sieve"; "mesh-10k"; "pipeline-10k"; "serve-mix" ]
let text spec = Asim.Pretty.spec spec
let stack_machine program = text (Asim_stackm.Microcode.spec ~program ())

let fig51_sieve ~seed =
  {
    name = "fig51-sieve";
    mode = Runs;
    items =
      [
        {
          label = "sieve";
          text = Asim.Specs.stack_machine_sieve;
          cycles = Asim_stackm.Programs.sieve_cycles;
        };
      ];
    hot =
      List.map stack_machine
        [
          Asim_stackm.Programs.sieve;
          Demos.sieve_reassembled;
          Demos.countdown 9;
          Demos.squares 9;
          Demos.fibonacci 12;
        ];
    (* a fresh gcd program per miss: (a, b) is injective in i *)
    miss =
      (fun i ->
        stack_machine (Demos.gcd (2 + (i mod 3000)) (2 + (((i / 3000) + seed) mod 3000))));
    open_rate = 400.0;
    native_cold = 5;
  }

(* The big spec and the hot set are fixed designs (generator seed 1), so
   every run measures the same work and the same split of hot specs over
   the shards; the seed varies which jobs are sent and the fresh specs the
   misses carry, drawn from the same generator.  Misses take seeds from a
   range disjoint from the hot set's, so a miss never reuses a hot spec. *)
let generated ~name ~big ~small ~open_rate ~seed =
  {
    name;
    mode = Continuous;
    items = [ { label = name; text = text (big 1); cycles = 200 } ];
    hot = List.init 8 (fun i -> text (small ((1 lsl 20) + i)));
    miss = (fun i -> text (small ((seed lsl 20) + 1024 + i)));
    open_rate;
    native_cold = 2;
  }

let serve_mix ~seed =
  {
    name = "serve-mix";
    mode = Runs;
    items =
      List.map
        (fun (label, text) -> { label; text; cycles = job_cycles })
        Asim.Specs.all;
    hot = List.map snd Asim.Specs.all;
    miss =
      (fun i ->
        text
          (Gen.spec_at
             { Gen.max_comb = 200; max_mem = 8; cycles = 500; wide = false }
             ~seed ~index:i));
    open_rate = 1000.0;
    native_cold = 3;
  }

(* [smoke] shrinks the 10k-component specs to 1k components. *)
let make name ~seed ~smoke =
  let scale n = if smoke then n / 10 else n in
  match name with
  | "fig51-sieve" -> Some (fig51_sieve ~seed)
  | "mesh-10k" ->
      Some
        (generated ~name ~seed ~open_rate:400.0
           ~big:(fun seed -> Gen.mesh ~width:99 ~height:(scale 100) ~seed ())
           ~small:(fun seed -> Gen.mesh ~width:9 ~height:10 ~seed ()))
  | "pipeline-10k" ->
      Some
        (generated ~name ~seed ~open_rate:300.0
           ~big:(fun seed -> Gen.pipeline ~cores:(scale 100) ~depth:99 ~seed ())
           ~small:(fun seed -> Gen.pipeline ~cores:10 ~depth:9 ~seed ()))
  | "serve-mix" -> Some (serve_mix ~seed)
  | _ -> None
