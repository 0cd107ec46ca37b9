(** A lane is one kind of destination's fault space: how many bits a
    fault is drawn from, how enumeration records the golden value, and
    how one bit is flipped or forced and a random value drawn.  Every
    fault model is applied to a lane by the one function {!corrupt},
    so both VMs, the enumeration pre-pass and the coverage site widths
    read each bit space from the same definition.  Internal to the two
    VMs.

    The lanes: an IR integer result of width [w] ({!int}, which also
    serves the x86 general-purpose registers at [Word.width]), a
    double ({!f64}: an IR f64 result or an XMM register under the
    paper's low-64 policy), a whole 128-bit XMM register whose upper
    half is inert ({!xmm128}), and the flags bits a compare fault may
    hit ({!flags}). *)

type 'v t

val int : int -> int t
(** A [w]-bit integer in canonical form, [1 <= w <= 64]; widths from
    [Word.width] up flip the native word. *)

val f64 : float t
(** The 64 bits of an IEEE double. *)

val xmm128 : float t
(** A double in a 128-bit register: faults draw from 128 bits, and
    those from bit 64 up leave the value unchanged. *)

val flags : int list -> int t
(** The flag word, restricted to the given candidate flag bits: lane
    bit [i] is the [i]-th candidate, and the golden value packs the
    candidates' values in that order. *)

val width : 'v t -> int
(** Bits a fault is drawn from; the static site width coverage
    reports. *)

val live : 'v t -> int
(** Bits below [live] reach the value; the rest are inert. *)

val flip : 'v t -> 'v -> int -> 'v
(** Flip lane bit [bit], as injection does (the enumeration funnels
    evaluate the same flip). *)

val instance : 'v t -> 'v -> Fault_space.builder
(** Start the enumeration record of one dynamic instance whose
    destination just took this golden value. *)

(** One applied fault. *)
type 'v fault = {
  value : 'v;  (** the corrupted destination value *)
  bit : int;
      (** the first drawn bit (for flags, the flag bit number), or -1
          when the model draws none ([Skip], [Load_value]) *)
  touched : bool;  (** some drawn bit, or the whole value, is live *)
  note : string;  (** the human-readable [stats.fault_note] *)
}

val corrupt :
  'v t -> Phase.inj -> what:string -> prior:'v -> 'v -> 'v fault
(** Apply [inj.model] to value [v].  Draws from [inj]: the first bit by
    {!Phase.draw_bit} (pinned under exhaustive replay), then
    [Multi_bit]'s further bits by [Rng.int rng width]; [Load_value]
    takes one value draw and [Skip] none, restoring [prior] (the
    destination before the write).  [what] names the destination in
    the note, e.g. ["32-bit result"] or ["rax"]. *)
