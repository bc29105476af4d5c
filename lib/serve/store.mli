(** The content-addressed spec store: upload a specification once, submit
    jobs by hash forever after.

    The key is the MD5 of the spec's canonical pretty-printed form — the
    same digest {!Asim_batch.Runner.cache_key} builds its compiled-spec
    cache key from — so any source text that parses to the same spec lands
    on the same entry, and a submit-by-hash job hits the compiled-spec
    cache entry its upload's first run left warm, whichever worker runs
    it.

    Uploads are parsed eagerly: a spec that does not parse is rejected at
    upload time with the parser's error, never at job time.  The store is
    thread-safe and bounded; at capacity, fresh uploads are refused (an
    explicit, client-visible limit rather than silent unbounded growth). *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 1024 specs) is clamped to at least 1. *)

type uploaded = {
  digest : string;  (** lowercase MD5 hex of the canonical form *)
  components : int;  (** component count of the parsed spec *)
  fresh : bool;  (** false when the digest was already stored *)
}

val upload : t -> string -> (uploaded, string) result
(** Parse, canonicalize, digest and remember a spec source.  [Error] for
    specs that fail to parse and for a full store. *)

val find : t -> string -> string option
(** The canonical source stored under a digest. *)

val count : t -> int
val capacity : t -> int
val uploads : t -> int
(** Total accepted upload requests, fresh or duplicate. *)
