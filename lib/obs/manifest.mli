(** Run manifest: one machine-readable JSON record per [fi] invocation.

    The manifest is the auditable summary of what a run actually did:
    the configuration it ran under (seed, trials, jobs, model),
    the environment it ran in (OCaml version, git revision, host),
    per-section wall-clock, a merged {!Metrics} snapshot, and MD5
    digests of the run's outputs (the campaign CSV above all).  Two
    runs can then be diffed for both behaviour — equal seeds must give
    equal digests, whatever [--jobs] — and performance, without
    scraping logs.  CI uploads manifests as artifacts and compares the
    CSV digest between [--jobs 1] and [--jobs 4].

    Schema (field order fixed; see README "Observability"):
    {v
    { "fi_manifest": 1,
      "command": "campaign",
      "config":      { ... flag values ... },
      "environment": { "ocaml": "5.2.0", "os": "Unix", "word_size": 64,
                       "host": "...", "git_rev": "..." },
      "sections":    [ { "name": "execute", "seconds": 12.3 }, ... ],
      "metrics":     { ... Metrics.to_json ... },
      "digests":     { "csv": "<md5 hex>", ... },
      "wall_seconds": 12.9 }
    v} *)

type t

val create : command:string -> t
(** Start a manifest (records the wall-clock origin and environment). *)

val set : t -> string -> Json.t -> unit
(** Add one [config] entry (kept in insertion order). *)

val section : t -> string -> (unit -> 'a) -> 'a
(** Time one named phase of the run.  Purely wall-clock bookkeeping —
    records no tracer span, so it is safe around
    {!Engine.Scheduler.run} (see the {!Trace} note on jobs
    invariance). *)

val add_digest : t -> string -> payload:string -> unit
(** Record the MD5 hex digest of [payload] under the given name. *)

val to_json : ?metrics:bool -> t -> Json.t
(** Assemble the manifest ([metrics] defaults to [true]: include the
    current merged {!Metrics.to_json} snapshot). *)

val write : ?metrics:bool -> t -> path:string -> unit
(** {!to_json} to [path], newline-terminated. *)
