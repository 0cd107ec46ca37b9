(** Campaign execution policy: split a campaign into cell tasks, run
    them on a {!Pool}, and reassemble results in canonical order.

    [Core.Campaign] stays the pure experiment definition — what a cell
    is and how one trial runs.  This module owns {e how} the ~60k-run
    study executes: on how many domains, in what task granularity, with
    which checkpoints.  Because every cell (and every trial within a
    cell, see {!Core.Campaign.run_cell_range}) draws from its own
    deterministic RNG stream, execution order is free: the returned
    cell list — and hence {!Core.Campaign.to_csv} — is byte-identical
    whatever [jobs] is, and identical to the sequential
    {!Core.Campaign.run_all}.

    Workloads are {!Core.Campaign.prepare}d once each (compile + golden
    runs + profiles) and the resulting read-only structures are shared
    across domains.  Campaigns large enough to amortize them also get
    per-workload rejoin journals ({!Core.Campaign.record_rejoin}) built
    up front: trials then finish early at the first golden
    reconvergence, with byte-identical output.

    Execution is coordinator-drained: workers compute trial batches
    and publish the partial cells into per-worker buffers; the calling
    domain drains those buffers and does all merging, journal appends
    and progress reporting itself, so the workers' hot path takes no
    shared lock. *)

type result = {
  prepared : Core.Campaign.prepared list;
      (** one per workload, in input order *)
  cells : Core.Campaign.cell list;
      (** canonical order: workload x tool x category, as
          {!Core.Campaign.run_all} *)
  resumed : int;  (** cells restored from the journal, not re-run *)
}

val run :
  ?jobs:int ->
  ?journal:string ->
  ?resume:bool ->
  ?progress:Progress.t ->
  ?tools:Core.Campaign.tool list ->
  ?categories:Core.Category.t list ->
  ?chunk:int ->
  ?observe:
    (workload:string ->
    tool:Core.Campaign.tool ->
    category:Core.Category.t ->
    trial:int ->
    Core.Verdict.t ->
    Vm.Outcome.stats ->
    unit) ->
  ?track_use:bool ->
  Core.Campaign.config ->
  Core.Workload.t list ->
  result
(** Run the campaign.

    - [jobs] (default 1): worker domains, capped at
      {!Pool.default_size} (the runtime's recommended domain count) —
      oversubscribing a host adds only GC-synchronization churn, and
      results are order-insensitive either way.  An effective count of
      1 runs inline on the calling domain with no pool.
    - [journal]: path of a checkpoint file; every completed cell is
      appended and flushed (see {!Journal}).
    - [resume] (default false): skip cells already present in
      [journal] instead of truncating it.
    - [tools] / [categories]: restrict the cell grid (defaults: both
      tools, all categories) — this is how [fi inject] runs a single
      cell through the engine.
    - [chunk]: maximum trials per scheduled task.  The default is
      {!adaptive_chunk}: cells are scheduled whole unless the grid is
      too small to level-load every domain.
    - [observe]: called once per executed trial with its verdict and
      full {!Vm.Outcome.stats} (the diagnosis record stream).  Called
      from worker domains in scheduling order — the observer must be
      thread-safe and order-insensitive, like {!Diagnose.Sink}-style
      collectors that re-sort.  Cells restored from a resumed journal
      are not re-run and produce no observations.
    - [track_use] (default false): run the interpreters with
      first-consumer classification on (see {!Core.Campaign.run_cell_range}).

    @raise Invalid_argument on a journal/config mismatch, and
    re-raises the first (in canonical order) exception of any failed
    cell after all in-flight work has drained — completed cells are
    already journaled, so a crashed campaign resumes where it died. *)

(** {2 Batch planning}

    Pure planning helpers, exposed so tests can check their algebra
    (coverage, adversarial cell sizes) without running a campaign. *)

val ranges : chunk:int option -> int -> (int * int) list
(** [(first, count)] trial ranges covering [0 .. trials-1] exactly
    once, in order, none longer than [chunk] — a campaign's batches
    and a served job's shards.  [chunk = None] yields the whole cell
    as one range; with a chunk, [trials <= 0] yields the single empty
    range [(0, 0)] so the cell (and its population) is still produced.
    @raise Invalid_argument if [chunk] is [Some n] with [n <= 0]. *)

val merge_parts : Core.Campaign.cell option array -> Core.Campaign.cell
(** One cell from its ranges' results, all present, in range order:
    the first part with the merged tally of all
    ({!Core.Verdict.merge}).
    @raise Invalid_argument on an empty array. *)

val adaptive_chunk : jobs:int -> cells:int -> trials:int -> int option
(** The default batch size for a grid of [cells] pending cells:
    [None] (whole cells — maximal fast-forward amortization) unless
    fewer than two cells per worker, in which case the coarsest chunk
    that gives each domain about two batches, floored at 8 trials. *)
