(** What a VM run is for — golden, profiling, injecting, fast-forwarding
    or enumerating — carrying that mode's own mutable state, so the
    machines of {!Ir_exec} and {!X86_exec} hold none of it.  Internal to
    the two VMs. *)

(** An injection in progress. *)
type inj = {
  mutable countdown : int;  (** matching instances left before the target *)
  rng : Support.Rng.t;  (** draws the faulted bit(s) *)
  model : Fault_model.t;  (** the corruption applied at the target *)
  forced_bit : int;  (** [>= 0]: exhaustive replay pins the faulted bit *)
  mutable cap_i : int;  (** [Skip]: the integer / flags destination before the write *)
  mutable cap_f : float;  (** [Skip]: the float destination before the write *)
}

(** Fast-forward: count matching instances, pause before instance
    [> ff_stop]. *)
type fwd = { mutable ff_stop : int; mutable matched : int }

type 'e t =
  | Plain
  | Counting of int array  (** dynamic count per category bitmask *)
  | Counting_sites of int array  (** dynamic count per static site *)
  | Injecting of inj
  | Forward of fwd
  | Enumerate of 'e  (** the VM's fault-space pre-pass state *)

val injecting : countdown:int -> rng:Support.Rng.t -> Fault_model.fault -> 'e t
val forward : unit -> fwd  (** at step 0: nothing matched, no stop *)

val skip_capture : 'e t -> bool
(** Whether the run must capture each targeted destination before its
    write: an injection under [Skip]. *)

val traced : string -> target:int -> (unit -> 'a) -> 'a
(** A fast-forward step for trial [target], in a trace span [name] when
    tracing is on; the disabled path allocates no argument list. *)

val draw_bit : inj -> int -> int
(** The faulted bit in [0, w): the pinned one, else one rng draw. *)
