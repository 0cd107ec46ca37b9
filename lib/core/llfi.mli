(** LLFI: the IR-level fault injector (paper §III, Figure 1).

    Step 1 — {!classify} selects instructions/operands per category,
    pruning dead destinations (def-use activation guarantee) and
    restricting casts to int/fp conversions; step 2 — {!prepare}
    "instruments" by compiling the program once with the selector baked
    in; step 3 — {!inject} flips one bit of the destination of a
    uniformly chosen dynamic instance at runtime. *)

type config = {
  conversion_casts_only : bool;
      (** restrict the cast category to trunc/zext/sext/fptosi/sitofp
          (the paper's mitigation, Table I row 5) *)
  include_pointer_instrs : bool;
      (** let 'all' include gep/alloca results, as LLFI does *)
  custom_selector : (Ir.Func.t -> Ir.Instr.t -> bool) option;
      (** LLFI's custom instruction selectors (Figure 1, step 1): when
          set, only accepted instructions are candidates *)
}

val default_config : config

val in_functions : string list -> (Ir.Func.t -> Ir.Instr.t -> bool) option
(** A ready-made selector restricting injection to the named functions. *)

val classify : config -> Ir.Func.t -> Ir.Instr.t -> int
(** Category bitmask of an instruction; 0 for non-candidates. *)

type t = {
  config : config;
  compiled : Vm.Ir_exec.compiled;
  golden_output : string;
  golden_steps : int;
  max_steps : int;  (** hang budget: 10x the golden run *)
  dynamic_counts : (Category.t * int) list;
  inputs : int array;
}

val prepare : ?config:config -> ?compile:bool -> inputs:int array -> Ir.Prog.t -> t
(** One fault-free profiling run, which yields the golden output and
    step count as well as the dynamic counts.  [compile:false] swaps
    the program's closure table for {!Vm.Ir_exec.reference}, the
    tree-walker the differential tests compare against; results are
    bit-identical either way, and the default is the only production
    setting.
    @raise Invalid_argument if the golden run does not finish. *)

val dynamic_count : t -> Category.t -> int

val inject :
  ?track_use:bool ->
  ?model:Fault_model.t ->
  t ->
  Category.t ->
  Support.Rng.t ->
  Vm.Outcome.stats
(** One injection run into the category.  [track_use] additionally
    classifies the corrupted value's first consumer (see
    {!Vm.Ir_exec.mode}); it draws nothing from the RNG, so results are
    bit-identical with it on or off.  [model] (default
    {!Fault_model.Bitflip}, the paper's single-bit flip) selects the
    corruption applied at the chosen instance.
    @raise Invalid_argument on empty categories. *)

(** {1 Planned execution (snapshot/fast-forward path)} *)

val plan_target : t -> Category.t -> Support.Rng.t -> int
(** Draw a trial's injection target without running it — exactly the
    first draw {!inject} would make, so [plan_target] followed by
    {!inject_at} on the same rng reproduces {!inject} bit for bit.
    @raise Invalid_argument on empty categories. *)

type runner
(** A reusable fast-forward machine for one (prepared program,
    category) pair: see {!Vm.Ir_exec.ff}.  Mutable — use one per
    domain; cheapest when targets arrive in ascending order. *)

val record_rejoin : t -> Vm.Rejoin.t option
(** One extra digest-maintaining golden run producing a reconvergence
    journal (see {!Vm.Rejoin}) shared by every category's runners;
    [None] when the golden run would outgrow
    {!Vm.Rejoin.max_recorded_entries}.  Trials of a [runner ~rejoin]
    finish early once their state matches a recorded golden landmark —
    same stats, byte-identical output. *)

val runner : ?rejoin:Vm.Rejoin.t -> t -> Category.t -> runner

val inject_at :
  ?track_use:bool ->
  ?model:Fault_model.t ->
  runner ->
  target:int ->
  Support.Rng.t ->
  Vm.Outcome.stats
(** Run one injection at a planned [target], resuming from the runner's
    rolling snapshot.  Stats are bit-identical to the {!inject} the rng
    came from (same [model] on both sides). *)

(** {1 Exhaustive campaigns (lib/exhaust)} *)

val enumerate : t -> Category.t -> Vm.Fault_space.instance array
(** One instrumented golden run describing every dynamic instance of
    the category, in target order — the pre-pass an exact campaign
    prunes from (see {!Vm.Ir_exec.enumerate}). *)

val inject_bit :
  ?track_use:bool ->
  model:Fault_model.t ->
  runner ->
  target:int ->
  bit:int ->
  Vm.Outcome.stats
(** Deterministic single-fault replay: inject into instance [target]
    with the faulted bit pinned to [bit], under [model] (exhaustive
    campaigns pass {!Fault_model.Bitflip}, the stuck-at models or
    {!Fault_model.Skip}).  Consumes no randomness — the result is a
    pure function of (target, bit, model). *)
