(** PINFI: the assembly-level fault injector (paper §IV).

    Classification happens at load time (as PIN instruments when the
    program is loaded); injection corrupts the destination register of a
    uniformly chosen dynamic instance.  The activation heuristics of
    Figure 2 live in the policy and can be disabled for ablations.
    [Syscall] pseudo-instructions (libc) are never candidates. *)

type config = { policy : Vm.X86_exec.policy }

val default_config : config
(** The paper's policy: dependent flag bits + XMM low-64 pruning. *)

val is_arithmetic : X86.Insn.t -> bool
val is_convert : X86.Insn.t -> bool
val is_mem_load : X86.Insn.t -> bool

val classify : Backend.Program.t -> int -> X86.Insn.t -> int
(** Category bitmask for the instruction at the given index ('cmp'
    requires looking at the next instruction). *)

type t = {
  config : config;
  loaded : Vm.X86_exec.loaded;
  golden_output : string;
  golden_steps : int;
  max_steps : int;
  dynamic_counts : (Category.t * int) list;
  inputs : int array;
}

val prepare :
  ?config:config -> ?compile:bool -> inputs:int array -> Backend.Program.t -> t
(** As {!Llfi.prepare}: [compile:false] runs on
    {!Vm.X86_exec.reference}, the test reference. *)

val dynamic_count : t -> Category.t -> int
val inject :
  ?track_use:bool ->
  ?model:Fault_model.t ->
  t ->
  Category.t ->
  Support.Rng.t ->
  Vm.Outcome.stats
(** As {!Llfi.inject}: [track_use] classifies the corrupted register's
    first consumer without consuming randomness; [model] selects the
    corruption applied at the chosen instance (default
    {!Fault_model.Bitflip}). *)

(** {1 Planned execution (snapshot/fast-forward path)}

    Mirrors {!Llfi.plan_target}/{!Llfi.runner}/{!Llfi.inject_at}. *)

val plan_target : t -> Category.t -> Support.Rng.t -> int

type runner

val record_rejoin : t -> Vm.Rejoin.t option
(** As {!Llfi.record_rejoin}: a reconvergence journal for
    [runner ~rejoin], or [None] when the golden run would outgrow
    {!Vm.Rejoin.max_recorded_entries}. *)

val runner : ?rejoin:Vm.Rejoin.t -> t -> Category.t -> runner

val inject_at :
  ?track_use:bool ->
  ?model:Fault_model.t ->
  runner ->
  target:int ->
  Support.Rng.t ->
  Vm.Outcome.stats

(** {1 Exhaustive campaigns (lib/exhaust)}

    Mirrors {!Llfi.enumerate}/{!Llfi.inject_bit}.  Instance widths
    follow the sampler's bit spaces under the configured policy; for a
    flags destination the enumerated/forced "bit" is an index into the
    candidate bit list (see {!Vm.X86_exec.enumerate}). *)

val enumerate : t -> Category.t -> Vm.Fault_space.instance array

val inject_bit :
  ?track_use:bool ->
  model:Fault_model.t ->
  runner ->
  target:int ->
  bit:int ->
  Vm.Outcome.stats
