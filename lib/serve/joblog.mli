(** Per-job service journal: the crash-recovery log of [fi serve].

    Line-delimited plain text, in the style of {!Engine.Journal}: one
    versioned header line, then for every admitted job a [job] line
    (spec + shard size, the client-supplied output path last as an
    escaped OCaml string literal so no byte of it can forge a line), a
    [shard] line per completed shard tally,
    and finally a [done] (digest) or [fail] line.  Every append is
    flushed, so a SIGKILLed server loses at most the shards in flight;
    on restart, jobs with no terminal line are re-admitted with their
    journaled shards pre-filled — only the missing shards re-run, and
    the deterministic per-trial RNG streams make the merged result
    byte-identical to an uninterrupted (or offline) run.

    Unparseable lines (a crash mid-append) are skipped on load, and a
    header mismatch is refused, exactly as {!Engine.Journal}. *)

type shard = {
  s_tool : Core.Campaign.tool;
  s_category : Core.Category.t;
  s_first : int;
  s_count : int;
  s_population : int;
  s_tally : Core.Verdict.tally;
}

type entry = {
  e_id : int;
  e_chunk : int;  (** shard size the job was planned with *)
  e_job : Wire.job;
  mutable e_shards : shard list;  (** completed, in journal order *)
  mutable e_done : bool;
  mutable e_failed : bool;
}

type t

val start : path:string -> t * entry list
(** Open (or create) the journal.  An existing file is validated and
    loaded — the returned entries are every journaled job, terminal or
    not, in id order — and subsequent records append.
    @raise Invalid_argument if the existing header does not match. *)

val record_job : t -> id:int -> chunk:int -> Wire.job -> unit
val record_shard : t -> id:int -> shard -> unit
val record_done : t -> id:int -> digest:string -> unit
val record_fail : t -> id:int -> unit
val close : t -> unit

(** {2 Plumbing, exposed for tests} *)

val job_line : id:int -> chunk:int -> Wire.job -> string
val shard_line : id:int -> shard -> string
val load : path:string -> entry list
