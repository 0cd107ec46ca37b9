(** The campaign-level fault-model axis (alias of {!Vm.Fault_model}).
    [Bitflip] is the paper's model and the default everywhere; a
    campaign's model widens the tool × category grid to
    tool × category × model. *)

type t = Vm.Fault_model.t =
  | Bitflip
  | Multi_bit of int
  | Stuck_at_0
  | Stuck_at_1
  | Skip
  | Load_value

val name : t -> string
val of_name : string -> t option
val all : t list
val equal : t -> t -> bool
