(** The fault-model axis: which corruption an injection applies at its
    planned destination.  [Bitflip] is the paper's original model; the
    rest extend campaigns to multi-bit upsets, stuck-at faults,
    instruction skip and corrupted load/destination values.  What each
    model does to a destination is written once, in {!Lane.corrupt}.
    Re-exported as [Core.Fault_model]. *)

type t =
  | Bitflip  (** flip one uniformly drawn destination bit (the paper) *)
  | Multi_bit of int  (** n successive uniform bit flips, with replacement *)
  | Stuck_at_0  (** clear one uniformly drawn destination bit *)
  | Stuck_at_1  (** set one uniformly drawn destination bit *)
  | Skip  (** suppress the destination write entirely *)
  | Load_value  (** replace the destination with a uniform random value *)

val name : t -> string
(** Stable textual name: ["bitflip"], ["multi_bit:<n>"],
    ["stuck_at_0"], ["stuck_at_1"], ["skip"], ["load_value"].  Used in
    CSV columns, cell keying, CLI flags and the serve wire protocol. *)

val of_name : string -> t option
(** Inverse of {!name}; [Multi_bit n] accepts 1 ≤ n ≤ 64. *)

val all : t list
(** The canonical sweep: one representative per constructor, with
    [Multi_bit 2] for the multi-bit class. *)

val equal : t -> t -> bool

(** One injection's settings: the corruption, an optional pinned bit
    and first-use tracking.  Both VMs' [Inject] mode takes one. *)
type fault = {
  model : t;
  forced_bit : int option;
      (** pin the faulted bit instead of drawing it (exhaustive
          replay); for an x86 flags destination, an index into the
          candidate bit list *)
  track_use : bool;
      (** classify the corrupted value's first consumer into
          [stats.first_use]; draws nothing, so results are unchanged *)
}

val sampled : t -> fault
(** [model] with the bit drawn from the trial's rng and no tracking. *)
