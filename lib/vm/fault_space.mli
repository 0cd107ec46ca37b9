(** Per-instance fault-space records produced by the interpreters'
    enumeration pre-pass (one instrumented golden run per cell) and
    consumed by the exhaustive campaign planner ({!Exhaust}).

    For every dynamic instance of an injection candidate the pass
    records, in the order the Inject-mode countdown would meet them:

    - the size of the instance's bit space: the width of the
      destination's {!Lane}, exactly the range the Monte-Carlo sampler
      draws the faulted bit from;
    - how many times the destination value was read before being
      overwritten (or dying with its frame / the program);
    - which bits some read could observe ({e live} bits): a read
      through a trunc/zext/narrow store consumes only its low bits, so
      a flip of any other bit provably reproduces the golden execution;
    - an optional {e funnel}: when the value's only read is a compare
      whose other operand is fault-free, the entire downstream
      execution depends on the value only through the compare's result,
      so bits are partitioned into provable equivalence classes by a
      per-bit key (the compare outcome / resulting flag state). *)

type instance = {
  width : int;  (** bit-space size the sampler draws from *)
  reads : int;  (** dynamic reads before overwrite or death *)
  live_mask : int;  (** value-independently consumed bits 0..62 *)
  live_full : bool;  (** some read consumes every bit *)
  keys : int array;
      (** funnel: per-bit downstream key; [[||]] when no funnel applies
          (zero reads, several reads, or a non-funnelling first read) *)
  gold_key : int;  (** funnel: the fault-free key *)
  gold_bits : int64;
      (** the destination's golden bit pattern in the sampler's bit
          space (unsigned value bits for integers, the IEEE encoding
          for floats, packed candidate-flag values for flags) — lets a
          stuck-at pruner settle faults whose stuck value equals the
          golden bit *)
}

val bit_live : instance -> int -> bool
(** Whether flipping this bit could change any read's result (ignoring
    the funnel refinement). *)

val gold_bit : instance -> int -> bool
(** Bit [bit] of {!field-gold_bits}: the golden value of the bit a
    stuck-at fault would force. *)

(** {1 Builder} — mutable accumulation during the enumeration run. *)

type builder

val create : gold:int64 -> width:int -> builder
(** [gold] is the instance's golden destination bit pattern ([0L] for
    destinations without one). *)

val read_full : builder -> unit
(** A read that may observe every bit. *)

val read_masked : builder -> low:int -> unit
(** A read that observes only the low [low] bits (trunc/zext/narrow
    store/narrow load of a register). *)

val read_bits : builder -> mask:int -> unit
(** A read that observes exactly the bits set in [mask] (and/or/shift
    with a constant).  Only valid for bit spaces below [Word.width]. *)

val read_funnel : builder -> keys:int array -> gold_key:int -> unit
(** A compare-shaped read: if it stays the value's only read, bits with
    equal keys are provably equivalent and bits with the golden key are
    provably benign.  Conservatively consumes every bit in case further
    reads invalidate the funnel. *)

val finish : builder list -> instance array
(** Freeze builders, most recent first (accumulation order reversed). *)
