(** Raw result of one program execution under either interpreter. *)

type t =
  | Finished of string  (* the program's captured output *)
  | Crashed of Trap.t
  | Hung                (* exceeded its step budget *)

exception Hang_limit

let output_cap = 1 lsl 20

let emit out s = if Buffer.length out < output_cap then Buffer.add_string out s

type stats = {
  outcome : t;
  steps : int;  (* dynamic instructions executed *)
  injected : bool;  (* the planned fault was actually inserted *)
  activated : bool;  (* the corrupted state was subsequently read *)
  fault_note : string;  (* human-readable description of the fault site *)
  fault_bit : int;  (* first drawn bit (flags: flag bit number), -1 if none *)
  injected_step : int;  (* dynamic step of the injection, -1 if none *)
  fault_site : int;  (* static id of the injected instruction, -1 if none *)
  first_use : First_use.t;  (* first consumer class, Unone unless tracked *)
}

let pp fmt = function
  | Finished out -> Fmt.pf fmt "finished (%d bytes of output)" (String.length out)
  | Crashed trap -> Fmt.pf fmt "crashed: %a" Trap.pp trap
  | Hung -> Fmt.string fmt "hung"

let equal_kind a b =
  match (a, b) with
  | Finished _, Finished _ | Crashed _, Crashed _ | Hung, Hung -> true
  | (Finished _ | Crashed _ | Hung), _ -> false
