(** Raw result of one program execution under either interpreter. *)

type t =
  | Finished of string  (** the program's captured output *)
  | Crashed of Trap.t
  | Hung  (** exceeded its step budget *)

exception Hang_limit
(** Raised internally by the interpreters when the step budget runs out. *)

val output_cap : int
(** Output a run keeps: once the buffer holds this many bytes, further
    output is dropped. *)

val emit : Buffer.t -> string -> unit
(** Append program output, unless the buffer already holds
    {!output_cap} bytes. *)

type stats = {
  outcome : t;
  steps : int;  (** dynamic instructions executed *)
  injected : bool;  (** the planned fault was actually inserted *)
  activated : bool;  (** the corrupted state was subsequently read *)
  fault_note : string;  (** human-readable fault-site description *)
  fault_bit : int;
      (** the first bit the fault model drew — for an x86 flags
          destination the flag bit number — or -1 when none was drawn
          (no injection, [Skip], [Load_value]) *)
  injected_step : int;  (** dynamic step of the injection, -1 if none *)
  fault_site : int;
      (** static id of the injected instruction (IR gid / assembly index),
          -1 if no fault was inserted *)
  first_use : First_use.t;
      (** what the corrupted value flowed into first; always [Unone]
          unless the run tracked uses (see the interpreters'
          [track_use]) *)
}

val pp : Format.formatter -> t -> unit

val equal_kind : t -> t -> bool
(** Same constructor, payloads ignored. *)
