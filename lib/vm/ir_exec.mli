(** IR-level interpreter with fault-injection hooks.

    A program is {!compile}d once — lowered, then each instruction
    translated into a closure with operand shapes, widths and
    destination slots resolved — and can then be {!run} many times
    cheaply, once per fault-injection trial.  Every run mode dispatches
    through that closure table.

    Run modes ({!mode}): golden, profiling (count dynamic instances
    per category bitmask — paper step 1), injection (corrupt the
    destination of the [target]-th dynamic instance matching the
    category mask — paper step 3), each with optional propagation
    tracing.

    Category semantics are supplied by the caller as a [classify]
    function so the injector policy ({!Core.Llfi}) stays outside the VM. *)

type compiled
(** A compiled program with its per-instruction closure table;
    reusable across runs.

    Thread-safety contract: [compiled] is immutable once {!compile}
    returns — the closure table included, which is shared by every
    run and every domain — and every {!run} allocates its own
    run-local machine state (memory image, output buffer, step
    counters, injection bookkeeping), so concurrent [run]s of the same
    [compiled] value from multiple domains are safe.  The mutable
    values a run does touch are the ones passed in — [plan.rng],
    profile arrays, [trace] — which therefore must not be shared
    between concurrent runs. *)

val compile : ?classify:(Ir.Func.t -> Ir.Instr.t -> int) -> Ir.Prog.t -> compiled
(** Lower the program and build its closure table; O(program size).
    [classify] assigns each instruction a category bitmask (0 = not an
    injection candidate); defaults to all zeros.
    @raise Invalid_argument if the program has no [main]. *)

val reference : compiled -> compiled
(** The same program with every table entry a closure over the
    tree-walking interpreter (the fallback unspecialized shapes already
    use).  Bit-for-bit identical results — outputs, traps, step counts,
    injection draws, activation tracking, rejoin digests — which the
    compile differential tests check.  The test reference, not a
    product tier. *)

(** {1 Static injection-site enumeration}

    Read-only views of the compiled program used by coverage tooling
    (which static instructions can a sampler ever pick, and with what
    category mask). *)

type site = {
  site_gid : int;  (** program-wide instruction id, as [stats.fault_site] *)
  site_mask : int;  (** category bitmask assigned by [classify] *)
  site_func : string;
  site_instr : Ir.Instr.t;
  site_width : int;
      (** bits a fault into the site's destination is drawn from — the
          lane injection and {!enumerate} use: the integer width, 64
          for f64, 0 without a destination *)
}

val sites : compiled -> site array
(** Every injection candidate (nonzero mask), in ascending gid order. *)

val gid_limit : compiled -> int
(** One past the largest program-wide instruction id — the length to
    allocate for a [Profile_sites] array. *)

val is_landmark : compiled -> func:int -> block:int -> bool
(** Whether the end of block [block] (its index in the function's
    block list) of the [func]-th function of the source program is a
    {!Rejoin} landmark: the function's entry block, or the target of an
    edge whose target index is at most its source index.  Journals
    record, and trials probe, only there. *)

type plan = {
  inj_mask : int;  (** category bit(s) to match *)
  target : int;  (** which dynamic instance to corrupt *)
  rng : Support.Rng.t;  (** chooses the bit to flip *)
}

(** A propagation trace: fingerprints of every value-producing
    instruction's result, in execution order (LLFI's error-propagation
    analysis). *)
type trace = {
  mutable t_gids : int array;  (** program-wide instruction ids *)
  mutable t_vals : int array;  (** value fingerprints *)
  mutable t_len : int;
}

val create_trace : unit -> trace
val trace_push : trace -> int -> int -> unit

(** What a {!run} is for: the paper's two phases — a fault-free
    profiling run that counts dynamic instances (Figure 1, step 1),
    then one injection run per trial (step 3) — plus a plain golden
    run.  One mode per run, so no combination needs rejecting. *)
type mode =
  | Golden  (** fault-free run; only the stats *)
  | Profile of int array
      (** fault-free profiling run: dynamic counts per category
          bitmask, into an array of length [2^categories] *)
  | Profile_sites of int array
      (** fault-free profiling run: execution counts per static
          instruction (gid) for injection candidates and phis — the
          per-site population the coverage report rests on — into an
          array of length {!gid_limit} *)
  | Inject of plan * Fault_model.fault
      (** one injection into the destination of the [plan.target]-th
          dynamic instance matching [plan.inj_mask].  The fault's
          [model] is the corruption — the paper's single-bit flip,
          multi-bit, stuck-at, write suppression ([Skip]) or
          full-value replacement ([Load_value]); [forced_bit] pins
          the faulted bit instead of drawing it from [plan.rng]
          (exhaustive replay); [track_use] classifies what the
          corrupted value flows into first ({!First_use.t}) into
          [stats.first_use], adding no per-instruction work when
          off. *)

val run :
  ?inputs:int array -> ?max_steps:int -> ?trace:trace -> mode -> compiled ->
  Outcome.stats
(** Execute [main] on a fresh memory image in [mode].

    - [inputs]: the vector served by the [input] intrinsic;
    - [max_steps]: hang budget (default 10^8);
    - [trace]: record a propagation trace into the given buffer. *)

(** {1 Snapshot / fast-forward execution}

    A rolling fault-free machine per (program, category): for each
    trial it advances monotonically to just before the target dynamic
    instance, snapshots its state (explicit call stack, counters,
    output, copy-on-write memory view) and runs only the faulty
    remainder.  With targets sorted ascending a whole cell costs about
    one golden run of forward progress instead of one golden-run
    prefix per trial, and each trial's result is bit-identical to
    {!run} with the same plan.

    Thread-safety: an [ff] value is a mutable machine — use one per
    domain. *)

type ff

val record_journal : compiled -> inputs:int array -> Rejoin.t option
(** One digest-maintaining golden run producing a {!Rejoin}
    reconvergence journal for [ff_create ~rejoin]; [None] when it
    would outgrow {!Rejoin.max_recorded_entries}.  The journal serves
    every category of the same (program, inputs).
    @raise Invalid_argument if the golden run traps or overflows. *)

val ff_create :
  compiled ->
  ?rejoin:Rejoin.t ->
  inputs:int array ->
  inj_mask:int ->
  unit ->
  ff
(** A rolling machine at step 0.  [inj_mask] fixes the category whose
    dynamic instances [target] indexes.  With [?rejoin], trials
    additionally maintain the state digest and finish early when they
    reconverge to a recorded golden boundary — same stats,
    byte-identical output, a fraction of the steps. *)

val ff_trial :
  ff -> fault:Fault_model.fault -> target:int -> max_steps:int ->
  rng:Support.Rng.t -> Outcome.stats
(** The {!run} of [Inject (plan, fault)] for the plan with this
    [target] and [rng] and the [ff]'s category, resumed from the
    rolling machine.  [rng] must be positioned exactly as that
    [plan.rng] would be (it only draws the faulted bit).  Targets may
    arrive in any order — a smaller target than an earlier one
    restarts the rolling run from step 0 — but ascending order is the
    fast path.
    @raise Invalid_argument if [target] is negative or at least the
    category's dynamic population. *)

(** {1 Fault-space enumeration}

    The exhaustive-campaign pre-pass: one instrumented golden run that
    emits a {!Fault_space.instance} per dynamic instance matching
    [inj_mask], in target order — element [k] describes exactly the
    fault that an injection with [target = k] produces. *)

val enumerate :
  compiled ->
  inputs:int array ->
  inj_mask:int ->
  max_steps:int ->
  Fault_space.instance array
(** @raise Invalid_argument if the golden run traps or exceeds
    [max_steps]. *)
