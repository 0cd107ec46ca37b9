(* Re-export of the VM-level fault-model type so campaign code can say
   [Core.Fault_model.t] without reaching into lib/vm.  The definition
   lives in lib/vm because both execution tiers dispatch on it. *)

type t = Vm.Fault_model.t =
  | Bitflip
  | Multi_bit of int
  | Stuck_at_0
  | Stuck_at_1
  | Skip
  | Load_value

let name = Vm.Fault_model.name
let of_name = Vm.Fault_model.of_name
let all = Vm.Fault_model.all
let equal = Vm.Fault_model.equal
