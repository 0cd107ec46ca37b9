(** Admission planning: pure arithmetic between a submitted job and the
    shard tasks the pool executes.  No I/O, no state — everything here
    is property-testable, and everything the server journals about a
    job's plan (its shard size) is enough to rebuild the identical plan
    on restart.

    Determinism contract: a job's cells are its [tools x categories]
    grid in the given order (the scheduler's canonical order for one
    workload), each cell's trial range is partitioned into contiguous
    shards by {!Engine.Scheduler.ranges}, and every shard runs through
    {!Core.Campaign.run_cell_range} — whose per-trial RNG streams make
    the merged tally byte-identical to a sequential offline run for
    {e any} shard size. *)

(** Identity of one cell computation.  Two jobs whose specs agree on a
    key compute that cell {e once}: the admission layer merges
    overlapping requests onto the same in-flight computation.  The
    shard size is part of the key so shared streaming batches always
    line up with each waiter's journaled plan. *)
type cell_id = {
  p_workload : string;
  p_tool : Core.Campaign.tool;
  p_category : Core.Category.t;
  p_model : Core.Fault_model.t;
  p_trials : int;
  p_seed : int;
  p_chunk : int;
}

val cells : Wire.job -> (Core.Campaign.tool * Core.Category.t) list
(** The job's cell grid, tool-major — the exact order of the offline
    scheduler's canonical cell list for one workload, and hence of the
    job's result CSV. *)

val default_chunk : pool:int -> trials:int -> int
(** Shard size when the submitter leaves it to the server: small enough
    that a single-cell job still feeds every domain (and streams
    incremental batches), floored at 1 and capped so tiny jobs are not
    shredded into per-trial tasks. *)

val cell_id :
  workload:string ->
  tool:Core.Campaign.tool ->
  category:Core.Category.t ->
  model:Core.Fault_model.t ->
  trials:int -> seed:int -> chunk:int -> cell_id

val config_for :
  base:Core.Campaign.config ->
  model:Core.Fault_model.t ->
  trials:int -> seed:int -> Core.Campaign.config
(** The campaign config a job's cells run under: the server's base
    config (tool policies) with the job's fault model,
    trials and seed — the same override an offline
    [fi campaign -n T --seed S --model M] applies. *)

val validate : Wire.job -> (Core.Workload.t, string) result
(** Admission check: the workload must be registered, the grid
    non-empty, the trial count sane.  Returns the resolved workload. *)
