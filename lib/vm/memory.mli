(** Sparse paged byte-addressable memory with trapping semantics.

    The address space mirrors a Linux process closely enough for the
    crash-rate experiments to be meaningful: a guard region at address 0,
    a text segment (jump targets only), a globals segment, a chunked heap
    arena, and a demand-mapped stack.  Accesses to unmapped pages raise
    {!Trap.Trap} — this is what turns a bit-flipped pointer into the
    paper's "crash" outcome: flips in low address bits tend to stay
    inside a mapped region, flips in high bits tend to escape it. *)

val page_bits : int
val page_size : int

(** Segment layout (byte addresses); see {!Support.Segments}. *)

val text_base : int
val globals_base : int
val heap_base : int

val stack_top : int
(** First address above the stack. *)

val default_stack_bytes : int

type t

val create : unit -> t
(** An empty address space: only stack pages (on demand) and explicitly
    mapped regions are accessible. *)

(** {1 Snapshots}

    A {!snapshot} is a copy-on-write {e view}, not a deep copy: it
    shares page storage with the memory it was taken from.  The
    intended protocol (the snapshot/fast-forward executor's) is
    strictly sequential: freeze the rolling machine's memory, run any
    number of {!resume}d trial memories {e to completion}, and only
    then let the frozen memory execute again.  Writes through a resumed
    view clone the touched page into the view's private layer and never
    disturb the frozen memory; writes by the frozen memory after the
    protocol window would be visible through still-live views, so don't
    interleave. *)

type snapshot

val freeze : t -> snapshot
(** Capture the current pages and heap frontier as a shared base
    layer.  O(1): no page is copied. *)

val resume : snapshot -> t
(** A fresh copy-on-write memory over the snapshot: reads fall through
    to the captured pages, the first write to a page clones it. *)

val snapshot_depth : snapshot -> int
(** Number of page layers the snapshot stacks (>= 1) — the checkpoint
    depth reported by the {!Obs.Metrics} [vm.*.checkpoint_depth]
    histograms. *)

val map_region : t -> addr:int -> len:int -> unit
(** Map (zeroed) every page overlapping [addr, addr+len). *)

(** {1 Accessors}

    All raise {!Trap.Trap} on unmapped addresses.  Multi-byte accessors
    are little-endian and may straddle pages. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u16 : t -> int -> int
val write_u16 : t -> int -> int -> unit
val read_u32 : t -> int -> int
val write_u32 : t -> int -> int -> unit

val read_word : t -> int -> int
(** 64-bit slots holding the VM's 63-bit words; signed round-trips are
    exact. *)

val write_word : t -> int -> int -> unit

val read_f64 : t -> int -> float
(** Bit-exact IEEE-754 round-trips. *)

val write_f64 : t -> int -> float -> unit

(** Width-specialized variants used by the compiled execution tier: one
    page lookup and one multi-byte load/store when the access stays
    inside a page, delegating to the byte-composed accessor above
    otherwise.  Same traps, demand mapping and copy-on-write, byte for
    byte. *)

val read_u8_fast : t -> int -> int
val write_u8_fast : t -> int -> int -> unit
val read_u16_fast : t -> int -> int
val write_u16_fast : t -> int -> int -> unit
val read_u32_fast : t -> int -> int
val write_u32_fast : t -> int -> int -> unit
val read_word_fast : t -> int -> int
val write_word_fast : t -> int -> int -> unit
val read_f64_fast : t -> int -> float
val write_f64_fast : t -> int -> float -> unit

val blit_string : t -> addr:int -> string -> unit

val write_globals :
  t -> (Ir.Types.t -> int) -> (int * Ir.Types.t * Ir.Prog.init) list -> unit
(** Write a program's global initializers at their addresses, given
    the program's type sizes; both VMs' memory images start from it.
    @raise Invalid_argument on an initializer that does not fit its
    global's type. *)

val heap_alloc : t -> int -> int
(** Bump allocation, 16-byte aligned.  The arena is mapped in 64 KiB
    chunks like an sbrk-grown malloc arena, so small overruns read
    zeroes (silent corruption) while far-out accesses trap. *)

val heap_brk : t -> int
(** The bump-allocator frontier (next allocation address). *)

val heap_mapped : t -> int
(** End of the mapped heap arena — together with {!heap_brk} this pins
    the full allocator state, so two memories with equal cell contents
    and equal [heap_brk]/[heap_mapped] trap identically forever after. *)

val cell_fp : t -> int -> int
(** Fingerprint of the aligned 8-byte cell at the given address
    ([addr land 7 = 0]), from raw bytes.  Unmapped cells fingerprint as
    zeros (the demand-zeroed-stack / chunked-arena convention).  Never
    raises and never maps a page; see {!Rejoin} for the digest scheme
    built on it. *)
