(** Campaign runner: the experimental procedure of paper §V.

    For each benchmark x tool x category cell: profile the dynamic
    population once, then run N independent single-bit-flip injections,
    classifying each run against the golden output.  Deterministic in the
    configured seed. *)

type tool = Llfi_tool | Pinfi_tool

val tool_name : tool -> string

val tool_of_name : string -> tool option
(** Inverse of {!tool_name}; [None] for unknown names. *)

type config = {
  trials : int;
  seed : int;
  model : Fault_model.t;
      (** the corruption applied at each trial's planned target (default
          {!Fault_model.Bitflip}, the paper's single-bit flip).  A
          non-default model keys distinct per-cell RNG streams and adds
          a [model] column to the CSV; the default keeps both
          byte-identical to a pre-model-axis campaign. *)
  llfi : Llfi.config;
  pinfi : Pinfi.config;
  backend : Backend.config;
  compile : bool;
      (** [true] (the default, and the only production setting): both
          programs run on their closure tables.  [false] selects the
          tree-walking test reference ({!Vm.Ir_exec.reference} /
          {!Vm.X86_exec.reference}, through {!Llfi.prepare} /
          {!Pinfi.prepare} with [~compile]); results are byte-identical
          either way.  No CLI flag sets it. *)
}

val default_config : config
(** 200 trials per cell, seed 2014, both tools' paper policies,
    closure tables on. *)

val paper_config : config
(** The paper's 1000 injections per cell. *)

type prepared = {
  workload : Workload.t;
  prog : Ir.Prog.t;  (** optimized IR, shared by both tools *)
  asm : Backend.Program.t;
  llfi : Llfi.t;
  pinfi : Pinfi.t;
}

type cell = {
  c_workload : string;
  c_tool : tool;
  c_category : Category.t;
  c_model : Fault_model.t;
  c_population : int;
  c_tally : Verdict.tally;
}

val cell_rng : config -> workload:string -> tool:tool -> category:Category.t -> Support.Rng.t
(** The deterministic per-cell random stream.  Keyed by seed, workload,
    tool, category — and [config.model] when it is not the default, so
    each model's campaign is an independent experiment while default
    streams stay byte-identical to the pre-model-axis ones. *)

val target_draw : int
(** The index of the injection-target draw within a trial's RNG stream:
    always [0], i.e. the target is the {e first} thing a trial draws
    (the bit position comes later, inside the interpreter).  This single
    definition is the authority both consumers rely on — the snapshot
    planner in {!run_cell_range} (plan all targets up front, leaving
    every stream positioned exactly as the direct path would) and the
    injection-space coverage report ([fi fuzz --coverage]).  Asserted
    behaviorally, for both injectors, by test_fuzz.ml. *)

val prepare : config -> Workload.t -> prepared
(** Compile at both levels and make one fault-free profiling run at
    each, which counts the dynamic instances and yields the golden
    output.
    @raise Invalid_argument if the two levels' golden outputs differ. *)

type runner
(** A per-cell fast-forward machine (see {!Vm.Ir_exec.ff}), reusable
    across successive trial ranges of the same cell.  Mutable — use one
    per domain. *)

type rejoin
(** Golden-run reconvergence journals for one prepared workload, one
    per tool level (see {!Vm.Rejoin}); shared read-only by every
    category's runners. *)

val record_rejoin : prepared -> rejoin
(** One extra digest-maintaining golden run per tool level
    ({!Llfi.record_rejoin} / {!Pinfi.record_rejoin}).  Trials of a
    [runner ~rejoin] finish early once their state digest matches a
    recorded golden landmark — same stats, byte-identical output — so
    the engine can use it freely without touching the determinism
    guarantee.  The cost is amortized over every cell of the workload;
    a golden run that would outgrow {!Vm.Rejoin.max_recorded_entries}
    yields no journal for its level. *)

val runner : ?rejoin:rejoin -> prepared -> tool -> Category.t -> runner

val runner_matches : runner -> prepared -> tool -> Category.t -> bool
(** Whether the runner was built by {!runner} on this same [prepared]
    value (physical equality), tool and category — i.e. whether
    {!run_cell_range} would accept it.  Lets callers that cache runners
    (the scheduler keeps one per domain) validate before reuse. *)

val run_cell_range :
  ?runner:runner ->
  ?on_trial:(int -> Verdict.t -> unit) ->
  ?on_stats:(int -> Verdict.t -> Vm.Outcome.stats -> unit) ->
  ?track_use:bool ->
  config -> prepared -> tool -> Category.t -> first:int -> count:int -> cell
(** Run trials [first .. first+count-1] of a cell.  Trial [k] always
    draws the [k]-th split of the cell's master stream, so disjoint
    ranges computed in any order (or on any domain) merge — via
    {!Verdict.merge} — into exactly the tally a single sequential
    [run_cell] would produce.

    The range's targets are planned first and executed sorted on a
    fast-forward machine ([runner], or a fresh one), with results
    re-emitted in trial order; every observable — tally, callbacks,
    stats — is byte-identical to direct from-entry trials
    ({!Llfi.inject} / {!Pinfi.inject}) on the same streams.  A
    supplied [runner] must come from {!runner} on the same [prepared]
    value, tool and category ([Invalid_argument] otherwise).

    [on_stats] observes each trial's full {!Vm.Outcome.stats} (for the
    diagnosis record stream); [track_use] turns on first-consumer
    classification in the interpreters.  Neither consumes randomness, so
    tallies are unchanged by either. *)

val run_cell :
  ?runner:runner ->
  ?on_trial:(int -> Verdict.t -> unit) ->
  ?on_stats:(int -> Verdict.t -> Vm.Outcome.stats -> unit) ->
  ?track_use:bool ->
  config -> prepared -> tool -> Category.t -> cell
(** [run_cell_range ~first:0 ~count:config.trials]. *)

val run_workload :
  ?on_cell:(cell -> unit) -> ?categories:Category.t list -> config -> Workload.t ->
  prepared * cell list

val run_all :
  ?on_cell:(cell -> unit) -> ?categories:Category.t list -> config -> Workload.t list ->
  cell list

val find : cell list -> workload:string -> tool:tool -> category:Category.t -> cell option

val to_csv : cell list -> string
(** One row per cell.  When every cell used the default model the
    columns are exactly the historical ones; any non-default cell adds
    a [model] column after [category]. *)

(** {1 Exhaustive campaigns (lib/exhaust)}

    Tool-dispatching accessors the exact-campaign planner builds on,
    plus the exact result record.  The weighted-tally convention: the
    Monte-Carlo sampler draws an instance uniformly, then a bit
    uniformly within its width, so fault [(i, b)] has probability
    [1 / (population * width i)].  With [e_unit] the lcm of the distinct
    instance widths in the cell, each fault carries integer weight
    [e_unit / width i] and the whole space weighs
    [population * e_unit]; rates over the weighted tally are the
    sampler's exact outcome probabilities, free of sampling error. *)

val population : prepared -> tool -> Category.t -> int
val golden_output : prepared -> tool -> string

val enumerate : prepared -> tool -> Category.t -> Vm.Fault_space.instance array
(** The exhaustive pre-pass ({!Llfi.enumerate} / {!Pinfi.enumerate}). *)

val inject_bit :
  model:Fault_model.t -> runner -> target:int -> bit:int -> Vm.Outcome.stats
(** Deterministic replay of one (instance, bit) fault under [model];
    consumes no randomness
    ({!Llfi.inject_bit} / {!Pinfi.inject_bit}). *)

type exact_cell = {
  e_workload : string;
  e_tool : tool;
  e_category : Category.t;
  e_model : Fault_model.t;
      (** the replayed model ({!Fault_model.Bitflip}, a stuck-at model
          or {!Fault_model.Skip} — the enumerable ones) *)
  e_population : int;  (** dynamic instances *)
  e_enumerated : int;  (** individual (instance, bit) faults *)
  e_pruned_dead : int;  (** settled by the dead-destination rule *)
  e_pruned_masked : int;  (** settled by the masked-bit rule *)
  e_pruned_equiv : int;  (** settled by golden-key observation equivalence *)
  e_executed : int;  (** trials actually run *)
  e_unit : int;  (** weight unit (lcm of instance widths) *)
  e_tally : Verdict.tally;  (** weighted; [trials = population * e_unit] *)
  e_bound : float;
      (** certified absolute error bound on the reported rates: [0.]
          when every surviving fault was executed, the Chernoff bound
          of the residual sampler otherwise *)
}

val pruning_ratio : exact_cell -> float
(** enumerated / executed; [infinity] for a fully pruned cell. *)

val exact_sdc_rate : exact_cell -> float
val exact_crash_rate : exact_cell -> float
val exact_benign_rate : exact_cell -> float
val exact_hang_rate : exact_cell -> float
(** Rates among activated weight, as {!Verdict.sdc_rate} etc. *)

val find_exact :
  exact_cell list ->
  workload:string -> tool:tool -> category:Category.t -> exact_cell option

val exact_to_csv : exact_cell list -> string
