(** Corrupted-use classification: what a flipped value flowed into first.

    When an interpreter runs with use tracking enabled, the destination
    corrupted by the injection is watched until its first consumer
    executes; the consumer's role classifies the fault (paper §V's crash
    cause analysis: address arithmetic, stack plumbing, control flow, or
    plain data).  [Unone] means the corrupted value was never consumed —
    the fault vanished (overwritten, or the frame died). *)

type t =
  | Unone  (** never consumed before the run ended *)
  | Uaddr  (** memory address: load/store address, GEP/lea address arithmetic *)
  | Ucontrol  (** control flow: branch condition, compare operand, flag read *)
  | Ustack  (** stack/frame slot: spill store, push/pop, rsp/rbp-relative *)
  | Udata  (** any other (pure data) consumer *)

val all : t list
(** In report order: address, stack, control, data, none. *)

val name : t -> string
(** Stable one-token name, used in record files. *)

val of_name : string -> t option
