(** Exhaustive and pruned fault-space campaigns: exact outcome rates.

    Where a Monte-Carlo campaign ({!Core.Campaign}, {!Engine.Scheduler})
    estimates each cell's crash/SDC/benign rates from N sampled trials,
    this module computes the rates {e exactly}: an instrumented golden
    run describes every (dynamic instance, bit) fault the sampler could
    draw ({!Core.Campaign.enumerate}), three sound pruning rules settle
    most of them without execution, and each surviving fault runs once
    via the snapshot/fast-forward path, its verdict multiplied by its
    sampling weight.

    The pruning rules, each a machine-checked implication of the
    enumeration facts ({!Vm.Fault_space.instance}):

    - {e dead destination} — the corrupted value is never read, so the
      run is indistinguishable from golden (benign under LLFI's
      always-activated selection, never-activated under PINFI's
      architectural watch);
    - {e masked bit} — every consumer provably discards the bit
      (truncation, masking and, shifts), so all downstream values are
      golden;
    - {e golden-key observation equivalence} — the value is consumed
      exactly once, by an instruction whose result is captured by a
      small key (comparison outcome, resulting flag word); a fault
      whose key equals the golden key leaves control on the golden path
      with a never-again-read register, hence benign.

    All three rules settle only faults that provably keep execution on
    the golden path.  Faults that diverge are never grouped: two faults
    sharing the same {e non}-golden key may still end differently,
    because the divergent path can re-read the corrupted register,
    whose contents differ between them.

    Everything is deterministic: the survivor list, shard boundaries
    and weighted tallies do not depend on the worker count, so results
    are byte-identical for any [--jobs]. *)

type config = {
  prune : bool;
      (** apply the pruning rules; [false] executes every fault
          (brute force — the oracle the tests compare against) *)
  sample_bound : int;
      (** when positive, cells whose survivor count exceeds the bound
          are finished by a deterministic weighted sampler instead, and
          the cell carries a Chernoff-certified error bound; [0]
          executes every surviving fault (fully exact) *)
  seed : int;  (** residual-sampler stream; unused when fully exact *)
}

val default_config : config
(** Pruning on, no sample bound, seed 2014. *)

(** {1 The pruner's specification} *)

(** What the planner does with one (instance, bit) fault. *)
type fate =
  | Settled of Core.Verdict.t
      (** provably this verdict; never executed *)
  | Execute  (** may diverge from the golden path: must run *)

val enumerable : Core.Fault_model.t -> bool
(** Whether a fault model has a finite per-instance space an exact
    campaign can cover: {!Core.Fault_model.Bitflip}, the stuck-at
    models (one bit each) and {!Core.Fault_model.Skip} (one fault per
    instance).  [Multi_bit] spans width{^ n} bit tuples and
    [Load_value] the whole value range — both are Monte-Carlo-only. *)

val fate :
  model:Core.Fault_model.t ->
  Core.Campaign.tool ->
  Vm.Fault_space.instance ->
  bit:int ->
  fate
(** The per-fault pruning decision, stated independently of the batch
    planner; the property tests replay [Settled] faults straight-line
    and check the prediction.  Model-aware: a stuck-at fault whose stuck value
    equals the golden bit is settled benign (the write is unchanged),
    a stuck bit that differs from its golden value follows the bitflip
    rules (it {e is} a flip of that bit), and a [Skip] fault — [bit] is
    ignored — is settled only when the destination is never read.
    @raise Invalid_argument for non-{!enumerable} models. *)

(** {1 Running} *)

val run_cell :
  ?model:Core.Fault_model.t ->
  ?pool:Engine.Pool.t ->
  config ->
  Core.Campaign.prepared ->
  Core.Campaign.tool ->
  Core.Category.t ->
  Core.Campaign.exact_cell
(** One exact cell: enumerate, prune, execute the surviving faults
    (sharded across [pool] when given — contiguous deterministic
    shards, merged in order), and tally by weight.  The weighted tally
    covers the whole space: [e_tally.trials = population * e_unit]
    (for {!Core.Fault_model.Skip}, [e_unit = 1] — one fault per
    instance).
    @raise Invalid_argument if the enumeration pre-pass disagrees with
    the profiling pass about the cell population, or for a
    non-{!enumerable} [model]. *)

type result = {
  prepared : Core.Campaign.prepared list;  (** one per workload *)
  cells : Core.Campaign.exact_cell list;
      (** canonical order: workload x tool x category *)
  resumed : int;  (** cells restored from the journal, not re-run *)
}

val run :
  ?jobs:int ->
  ?journal:string ->
  ?resume:bool ->
  ?tools:Core.Campaign.tool list ->
  ?categories:Core.Category.t list ->
  ?on_cell:(Core.Campaign.exact_cell -> unit) ->
  config ->
  Core.Campaign.config ->
  Core.Workload.t list ->
  result
(** The exact-campaign grid.  [campaign_config] supplies workload
    preparation (backend and injector configs) and the fault model
    ([campaign_config.model], which must be {!enumerable}); trial
    counts and the campaign seed play no role.  [jobs] shards each
    cell's survivor execution over a pool; [journal]/[resume]
    checkpoint completed cells ({!Engine.Journal.exact_cells}, whose header
    binds the model).  Cells are emitted in canonical order regardless
    of journal state. *)
