(** Per-job service journal: the crash-recovery log of [fi serve].

    An {!Engine.Journal} log with one versioned header line, then for
    every admitted job a [job] record (spec + shard size, the
    client-supplied output path last as an escaped OCaml string literal
    so no byte of it can forge a line), a [shard] record per completed
    shard tally, and finally a [done] (digest) or [fail] record.  Every
    record is flushed as it is appended, so a SIGKILLed server loses at
    most the shards in flight; on restart, jobs with no terminal record
    are re-admitted with their journaled shards pre-filled — only the
    missing shards re-run, and the deterministic per-trial RNG streams
    make the merged result byte-identical to an uninterrupted (or
    offline) run.

    A record counts only if its line ends in ['\n']: the unterminated
    tail a crash mid-append leaves is ignored on load and truncated by
    {!start} before the next append.  A header mismatch is refused. *)

type shard = {
  s_tool : Core.Campaign.tool;
  s_category : Core.Category.t;
  s_first : int;
  s_count : int;
  s_population : int;
  s_tally : Core.Verdict.tally;
}

type record =
  | Job of { id : int; chunk : int; job : Wire.job }
  | Shard of { id : int; shard : shard }
  | Done of { id : int; digest : string }
  | Fail of { id : int }

type entry = {
  e_id : int;
  e_chunk : int;  (** shard size the job was planned with *)
  e_job : Wire.job;
  mutable e_shards : shard list;  (** completed, in journal order *)
  mutable e_done : bool;
  mutable e_failed : bool;
}

val schema : record Engine.Journal.schema
(** The [# fi-serve-journal v3] header and the codec of the four record
    kinds. *)

val start : path:string -> record Engine.Journal.t * entry list
(** Open (or create) the journal.  An existing file is validated and
    loaded — the returned entries are every journaled job, terminal or
    not, in id order — and subsequent {!Engine.Journal.record}s append.
    @raise Invalid_argument if the existing header does not match. *)

val load : path:string -> entry list
(** The entries of a journal file, as {!start} returns them. *)
