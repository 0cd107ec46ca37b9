(* The fault-model axis: what corruption a planned injection applies at
   its target destination.  The paper's original experiments use
   [Bitflip] only; the other constructors extend the campaign space to
   the hardware fault classes surveyed by InjectV/CHAOS (PAPERS.md):
   multi-bit upsets, stuck-at-0/1, instruction skip and corrupted
   destination values.

   The type lives in lib/vm (not lib/core) because its semantics do:
   [Lane.corrupt], which both VMs inject through, is the one place a
   model corrupts a value.  lib/core re-exports it as
   [Core.Fault_model]. *)

type t =
  | Bitflip  (* flip one uniformly drawn destination bit (the paper) *)
  | Multi_bit of int  (* n successive uniform bit flips, with replacement *)
  | Stuck_at_0  (* clear one uniformly drawn destination bit *)
  | Stuck_at_1  (* set one uniformly drawn destination bit *)
  | Skip  (* suppress the destination write entirely *)
  | Load_value  (* replace the destination with a uniform random value *)

let name = function
  | Bitflip -> "bitflip"
  | Multi_bit n -> Printf.sprintf "multi_bit:%d" n
  | Stuck_at_0 -> "stuck_at_0"
  | Stuck_at_1 -> "stuck_at_1"
  | Skip -> "skip"
  | Load_value -> "load_value"

let of_name s =
  match s with
  | "bitflip" -> Some Bitflip
  | "stuck_at_0" -> Some Stuck_at_0
  | "stuck_at_1" -> Some Stuck_at_1
  | "skip" -> Some Skip
  | "load_value" -> Some Load_value
  | _ ->
    let pfx = "multi_bit:" in
    let pl = String.length pfx in
    if String.length s > pl && String.sub s 0 pl = pfx then
      match int_of_string_opt (String.sub s pl (String.length s - pl)) with
      | Some n when n >= 1 && n <= 64 -> Some (Multi_bit n)
      | _ -> None
    else None

(* The canonical campaign sweep: one representative per constructor
   (multi-bit at n=2, the double-upset case InjectV measures). *)
let all = [ Bitflip; Multi_bit 2; Stuck_at_0; Stuck_at_1; Skip; Load_value ]

let equal (a : t) (b : t) = a = b

(* One injection's settings, as both VMs' [Inject] mode takes them. *)
type fault = { model : t; forced_bit : int option; track_use : bool }

let sampled model = { model; forced_bit = None; track_use = false }
