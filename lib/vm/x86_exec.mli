(** x86-level interpreter with PIN-style fault-injection hooks.

    Mirrors {!Ir_exec} one level down: a program assembled by the
    backend is {!load}ed (each instruction classified into injection
    categories, as PIN tools do at instrumentation time, and translated
    into the closure every run dispatches through) and can then be
    executed many times; {!reference} swaps the closures for the
    tree-walking interpreter the tests compare against.  Injection
    corrupts the destination register of a chosen dynamic instance;
    the paper's two PINFI activation heuristics (Figure 2) are
    {!policy} switches.  Activation is tracked architecturally: the
    corrupted register must be read before being overwritten. *)

type machine
(** One run's machine state; internal. *)

(** Thread-safety contract: as {!Ir_exec.compiled} — [loaded] is
    immutable once {!load} returns ([masks], [landmarks] and the
    [exec] table are built only at load time and shared by every run
    and every domain) and each {!run} builds a fresh machine record,
    so concurrent runs of one [loaded] program are safe provided the
    [plan.rng] and profile arrays passed in each run's mode are not
    shared. *)
type loaded = private {
  program : Backend.Program.t;
  masks : int array;  (** per-instruction category bitmask *)
  landmarks : bool array;
      (** per instruction index, one longer than [program.insns]: the
          {!Rejoin} landmarks — every function's entry (so every
          [Call] target) and every backward [Jmp]/[Jcc] target.
          Journals record, and trials probe, only at boundaries where
          [rip] is one. *)
  exec : (machine -> unit) array;
      (** per instruction index, the closure every run dispatches
          through: operand shapes, addressing modes, branch targets
          and flag algebra resolved at load time, the tree-walker for
          shapes without a specialization *)
}

val load :
  ?classify:(Backend.Program.t -> int -> X86.Insn.t -> int) ->
  Backend.Program.t -> loaded
(** Classify and translate the program; O(program size). *)

val reference : loaded -> loaded
(** As {!Ir_exec.reference}: every [exec] entry a closure over the
    tree-walking interpreter; the test reference, not a product
    tier. *)

type policy = {
  flag_dependent_bits : bool;
      (** faults into compares hit only the flag bit(s) the following
          conditional jump reads (Figure 2a) *)
  xmm_low64_only : bool;
      (** XMM faults restricted to the low 64 bits used by scalar double
          code (Figure 2b); when off, upper-half flips are recorded as
          injected-but-never-activated *)
}

val paper_policy : policy
(** Both heuristics on, as in the paper. *)

type plan = {
  inj_mask : int;
  target : int;
  rng : Support.Rng.t;
  policy : policy;
}

(** The destination register PINFI would corrupt. *)
type dest = Dgp of X86.Reg.t | Dxmm of X86.Reg.t | Dflags | Dnone

val primary_dest : X86.Insn.t -> dest

val site_width : policy -> Backend.Program.t -> int -> int
(** The bits a fault into instruction [index]'s destination is drawn
    from under [policy] — the same lane injection and {!enumerate}
    use: [Word.width] for a GP register, 64 or 128 for XMM, the
    candidate flag bits for a compare; 0 without a destination. *)

(** What a {!run} is for: the paper's two phases plus a plain golden
    run.  One mode per run, so no combination needs rejecting. *)
type mode =
  | Golden  (** fault-free run; only the stats *)
  | Profile of int array
      (** fault-free profiling run: dynamic counts per category bitmask,
          into an array of length [2^categories] *)
  | Profile_index of int array
      (** fault-free profiling run: dynamic counts per instruction
          index (hotspot analysis, per-site coverage), into an array as
          long as [masks] *)
  | Inject of plan * Fault_model.fault
      (** one injection into the [plan.target]-th dynamic instance
          matching [plan.inj_mask]: the destination register PINFI
          would corrupt takes the fault's [model] (see
          {!Ir_exec.mode}).  [forced_bit] pins the faulted bit — for a
          flags destination, the index into the candidate bit list —
          instead of drawing it from [plan.rng].  [track_use]
          classifies the corrupted register's first consumer —
          address, control, stack (spill / push-pop /
          rsp-rbp-relative), or data — into [stats.first_use]. *)

val run :
  ?inputs:int array -> ?max_steps:int -> mode -> loaded -> Outcome.stats
(** Execute from the program entry on a fresh memory image;
    [inputs] and [max_steps] as {!Ir_exec.run}. *)

(** {1 Snapshot / fast-forward execution}

    Same contract as {!Ir_exec.ff_trial}: a rolling fault-free machine
    advances monotonically to just before the target dynamic instance;
    each trial runs only the faulty remainder on a copied register file
    and a copy-on-write memory view, producing stats bit-identical to
    {!run} with the same plan.  An [ff] value is a mutable machine —
    use one per domain. *)

type ff

val record_journal : loaded -> inputs:int array -> Rejoin.t option
(** One digest-maintaining golden run producing a {!Rejoin}
    reconvergence journal for [ff_create ~rejoin]; [None] when it
    would outgrow {!Rejoin.max_recorded_entries}.
    @raise Invalid_argument if the golden run traps or never halts. *)

val ff_create :
  loaded ->
  ?policy:policy ->
  ?rejoin:Rejoin.t ->
  inputs:int array ->
  inj_mask:int ->
  unit ->
  ff
(** With [?rejoin], trials additionally maintain the state digest and
    finish early when they reconverge to a recorded golden boundary —
    same stats, byte-identical output, fraction of the steps. *)

val ff_trial :
  ff -> fault:Fault_model.fault -> target:int -> max_steps:int ->
  rng:Support.Rng.t -> Outcome.stats
(** The {!run} of [Inject (plan, fault)] for the plan with this
    [target], [rng] and the [ff]'s category and policy, resumed from
    the rolling machine.
    @raise Invalid_argument if [target] is negative or at least the
    category's dynamic population. *)

(** {1 Fault-space enumeration}

    The exhaustive-campaign pre-pass: one instrumented golden run that
    emits a {!Fault_space.instance} per dynamic instance matching
    [inj_mask], in target order.  Instance widths are the
    {!site_width}s under [policy]; for flags the enumerated "bit"
    indexes the candidate list, as [forced_bit] does. *)

val enumerate :
  ?policy:policy ->
  inputs:int array ->
  inj_mask:int ->
  max_steps:int ->
  loaded ->
  Fault_space.instance array
(** @raise Invalid_argument if the golden run traps or exceeds
    [max_steps]. *)
