(** Seedable, size-parameterized generator of random well-formed
    specifications.

    This is the generator behind both the equivalence property tests
    ([test/test_equiv.ml]) and the [asim fuzz] campaign driver: one source of
    specs, consumed by QCheck in the tests (a [Random.State.t -> 'a] function
    {e is} a [QCheck.Gen.t]) and by {!Runner} in the CLI.

    Guarantees on every generated spec:
    - structurally valid and analyzable (no undefined references, no
      combinational cycles: combinational component [ci] only reads
      [c0..c(i-1)] and memories);
    - every expression respects the paper's width accounting (narrow fields
      always fit in the 31-bit word; wide mode additionally places one
      filling atom, only ever leftmost);
    - it pretty-prints ({!Asim_core.Pretty.spec}) to text the parser reads
      back to an equal spec;
    - selector selects and memory addresses are field-narrowed to the case
      count / cell count, so the documented runtime range errors cannot fire
      spuriously (engines must agree on errors too, but a spec that always
      traps makes a poor equivalence witness). *)

type size = {
  max_comb : int;  (** upper bound on combinational components (>= 1) *)
  max_mem : int;  (** upper bound on memories (>= 1) *)
  cycles : int;  (** the generated spec's [= N] directive *)
  wide : bool;
      (** also generate filling atoms (whole-component references,
          un-suffixed constants): full-word values, negative intermediates *)
}

val default_size : size
(** [{ max_comb = 6; max_mem = 3; cycles = 20; wide = false }] — the shape
    the original in-test generator used. *)

val spec : size -> Random.State.t -> Asim_core.Spec.t
(** Draw one spec.  Deterministic in the state; usable directly as a
    [QCheck.Gen.t]. *)

(** {1 Structured workloads}

    Deterministic generators of {e large} well-formed specs (1k-100k
    components) with partitionable structure, behind [asim genspec] and the
    benchmark suite's 10k-component workloads.  They obey the same safety discipline
    as the random generator (narrow fields, field-narrowed selects,
    constant plain-write memory ops), so the specs are analyzable, run
    without spurious range errors, and pretty-print/parse round-trip.
    About one component in ten is a selector; a deterministic ~1% sample of
    components is traced.  The spec's comment records kind, parameters and
    seed. *)

val pipeline :
  ?cycles:int -> cores:int -> depth:int -> seed:int -> unit -> Asim_core.Spec.t
(** [cores] replicated pipelines of [depth] combinational stages, each core
    closed through a single-cell register.  Stage [s] of core [r] reads
    stage [s-1] of its own core and (for [r > 0], [s > 0]) stage [s] of
    core [r-1] — neighbouring replicas are coupled, so partitioners must
    co-locate neighbours or pay cross-partition traffic.
    [cores * (depth + 1)] components. *)

val mesh :
  ?cycles:int -> width:int -> height:int -> seed:int -> unit -> Asim_core.Spec.t
(** A [width * height] grid: each row is a west-to-east combinational chain
    seeded from a per-row register, and rows communicate only through the
    previous row's register — a row-aligned partitioning has zero
    cross-partition combinational edges.  [height * (width + 1)]
    components. *)

val spec_at : size -> seed:int -> index:int -> Asim_core.Spec.t
(** The [index]-th spec of the campaign seeded with [seed]: each index gets
    its own derived generator state, so any single spec of a run can be
    replayed without regenerating its predecessors.  The spec's comment
    records seed and index. *)
