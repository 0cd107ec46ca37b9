(** Append-only record logs: checkpoint/resume for long-running
    campaigns, exact campaigns and the [fi serve] job log.

    A log is a plain-text file: one header line binding the file to the
    invocation that wrote it, then one line per record, each written by
    a {!schema}'s [encode].  A record counts only if its line ends in
    ['\n']: {!record} appends and flushes one record at a time, so a
    process killed mid-append leaves at most one unterminated tail,
    which {!load} ignores and {!start} [~resume:true] truncates before
    it appends — a torn record is never decoded and never glues onto
    the next one.  A complete line the schema does not decode is
    skipped.  The deterministic per-cell RNG streams make a resumed
    run's merged result identical to an uninterrupted one. *)

type 'a schema = {
  header : string;  (** the first line, without its newline *)
  encode : 'a -> string;  (** one record; must hold no newline *)
  decode : string -> 'a option;  (** [None] for a line of another kind *)
  flushes : Obs.Metrics.counter;  (** counts every {!record} *)
}

type 'a t

val start : 'a schema -> path:string -> resume:bool -> 'a t * 'a list
(** Open a log at [path].  With [resume=false] (or no existing file)
    the file is truncated and a fresh header written; the record list
    is empty.  With [resume=true] and an existing file, its complete
    records are returned, an unterminated tail is truncated away, and
    subsequent {!record}s append.
    @raise Invalid_argument if resuming against a file whose header is
    not [schema.header] (another seed, trial count, cell grid or format
    version); the error shows both headers. *)

val record : 'a t -> 'a -> unit
(** Append one record and flush.  Thread-safe; a no-op after {!close}. *)

val close : 'a t -> unit

val load : 'a schema -> path:string -> 'a list
(** The complete records of a log file, in file order; validates the
    header like {!start}. *)

(** {2 Campaign and exhaust journals} *)

val grid :
  workloads:string list ->
  tools:Core.Campaign.tool list ->
  categories:Core.Category.t list ->
  string
(** Canonical description of the cell grid for the header:
    comma-separated workload, tool and category names joined with
    [|]. *)

val cells : grid:string -> Core.Campaign.config -> Core.Campaign.cell schema
(** One [cell] line per completed campaign cell.  The header binds the
    file to the seed, trial count, fault model (a [model=...] token,
    present only when not {!Core.Fault_model.Bitflip}) and [grid]; cell
    lines don't repeat the model, the decoder fills it in. *)

val exact_cells :
  grid:string -> seed:int -> prune:bool -> sample_bound:int ->
  Core.Fault_model.t -> Core.Campaign.exact_cell schema
(** One [xcell] line per completed exact cell.  The header binds
    everything that changes an exact result: the seed (used only by the
    bounded residual sampler), pruning on/off, the sample bound (0 means
    fully exact), the model and the grid.  The error bound is written
    as a hex float so resumed cells reload bit-identically. *)

(** {2 Field codecs shared by the schemas} *)

val cell_fields :
  Core.Campaign.tool -> Core.Category.t -> int list -> Core.Verdict.tally ->
  string list
(** [tool category n1 ... nk] followed by the tally's seven counts. *)

val of_cell_fields :
  string list ->
  (Core.Campaign.tool * Core.Category.t * int list * Core.Verdict.tally)
  option
(** Inverse of {!cell_fields}. *)

val all : ('a -> 'b option) -> 'a list -> 'b list option
(** [Some] of every image, or [None] if any is [None]. *)
