(** Golden-run reconvergence journals — the "rejoin" fast path.

    Most injected faults wash out: the corrupted value is masked,
    overwritten, or never consumed, and the trial's full machine state
    reconverges to the golden run's.  A journal maps an incremental
    digest of the golden run's state at every instruction boundary to
    (step count, output length); a trial that maintains the same
    digest and finds itself in the table finishes immediately by
    splicing the recorded golden output suffix and step count —
    byte-identical to running the suffix, at a fraction of the cost.

    Digest maintenance and the probe schedule live in the interpreters
    ({!Ir_exec}, {!X86_exec}); this module owns the hash primitives,
    the table and the trial-side probe with its match/splice guards
    and hang detector ({!probe}).  See rejoin.ml for the soundness
    argument (determinism makes true golden-state revisits impossible;
    a 2^-63 digest collision would be caught by the engine's
    byte-identical-CSV gate, not silent). *)

val h2 : int -> int -> int
val h3 : int -> int -> int -> int
(** Hash-combine 2 or 3 ints; bijective in each argument. *)

val x86_period_mask : int
val ir_period_mask : int
(** Trials probe on visited boundaries where
    [visited land period_mask = 0]; the recorder stores every
    boundary, so any alignment matches within one period.  Separate
    masks because the two interpreters' probe costs and boundary
    densities differ. *)

val max_recorded_steps : int
(** Journals are only recorded for golden runs up to this many steps
    (the table costs ~32 bytes per boundary). *)

type t
(** A finished journal: digest -> (steps, output length) at that
    boundary, plus the golden output and total step count. *)

type seen
(** A digest set for trial-side self-loop detection: a state digest
    recurring within one trial proves the deterministic machine is in
    an infinite loop (only the excluded step counter advances), i.e.
    the trial hangs. *)

val seen : unit -> seen
(** An empty set; its table is allocated at the first add. *)

val probe :
  t -> seen -> key:int -> steps:int -> max_steps:int -> Buffer.t -> int
(** One trial-side probe at a boundary with digest [key], after
    [steps] steps, output so far in the buffer.  Returns the step count
    the trial finishes at: on a journal hit whose splice is exact (no
    hang budget crossed, no output truncated on either side) the golden
    output suffix has been appended to the buffer and the result is
    the spliced total; on a miss past the golden step total, a digest
    already in [seen] proves a hang and the result is [max_steps + 1].
    Otherwise [-1]: run on. *)

type builder

val builder : unit -> builder

val add : builder -> digest:int -> steps:int -> outlen:int -> unit
(** Record one boundary; first boundary wins on digest duplicates, and
    boundaries whose output length exceeds the packing width are
    skipped (trials then simply cannot match there). *)

val finish : builder -> total_steps:int -> golden_out:string -> t
