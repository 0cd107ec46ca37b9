(** Golden-run reconvergence journals — the "rejoin" fast path.

    Most injected faults wash out: the corrupted value is masked,
    overwritten, or never consumed, and the trial's full machine state
    reconverges to the golden run's.  A journal maps an incremental
    digest of the golden run's state at every {e landmark} boundary to
    (step count, output length); a trial that maintains the same
    digest and finds itself in the table finishes immediately by
    splicing the recorded golden output suffix and step count —
    byte-identical to running the suffix, at a fraction of the cost.

    Landmarks are control positions fixed by the program, computed once
    per loaded program by each interpreter ({!X86_exec}: function
    entries and targets of backward jumps; {!Ir_exec}: the ends of
    function entry blocks and back-edge targets).  Every dynamic cycle
    passes one, and the control position is part of the digest, so
    recorder and trial meet there with no alignment argument; placement
    only changes the hit rate, never correctness.

    Digest maintenance and the landmark sets live in the interpreters;
    this module owns the hash primitives, the table, the probe rule's
    gap and the trial-side probe with its match/splice guards and hang
    detector ({!probe}).  See rejoin.ml for the soundness argument
    (determinism makes true golden-state revisits impossible; a 2^-63
    digest collision would be caught by the engine's
    byte-identical-CSV gate, not silent). *)

val h2 : int -> int -> int
val h3 : int -> int -> int -> int
(** Hash-combine 2 or 3 ints; bijective in each argument. *)

val float_key : float -> int
(** A digest key for all 64 bits of a double, sign included. *)

val probe_gap : int
(** The trial rule, shared by both interpreters: at a landmark boundary
    whose step count has reached the trial's next probe step, probe,
    and set the next probe step to [steps + probe_gap].  A trial's
    first landmark after the fault always probes. *)

val max_recorded_entries : int
(** The most entries one journal holds (2^20, at most 32 MB of table);
    {!record} yields no journal for a run that would store more. *)

type t
(** A finished journal: digest -> (steps, output length) at each
    landmark boundary, plus the golden output and total step count. *)

val entries : t -> int
(** Distinct digests recorded — the journal's size in work and memory
    terms (16 to 32 bytes of table each). *)

type seen
(** A digest set for trial-side self-loop detection: a state digest
    recurring within one trial proves the deterministic machine is in
    an infinite loop (only the excluded step counter advances), i.e.
    the trial hangs. *)

val seen : unit -> seen
(** An empty set; its table is allocated at the first add. *)

val probe :
  t -> seen -> key:int -> steps:int -> max_steps:int -> Buffer.t -> int
(** One trial-side probe at a landmark boundary with digest [key],
    after [steps] steps, output so far in the buffer.  Returns the step
    count the trial finishes at: on a journal hit whose splice is exact
    (no hang budget crossed, no output truncated on either side) the
    golden output suffix has been appended to the buffer and the result
    is the spliced total; on a miss past the golden step total, a
    digest already in [seen] proves a hang and the result is
    [max_steps + 1].  Otherwise [-1]: run on.  Counts
    [vm.rejoin.probes], and on a splice [vm.rejoin.hits] and the
    spliced steps in [vm.rejoin.steps_saved]. *)

type builder

val add : builder -> digest:int -> steps:int -> outlen:int -> unit
(** Record one landmark boundary; first boundary wins on digest
    duplicates, and boundaries whose output length exceeds the packing
    width are skipped (trials then simply cannot match there).  Past
    {!max_recorded_entries} it aborts the enclosing {!record}. *)

val record : (builder -> int * string) -> t option
(** [record run] gives [run] a fresh builder; [run] makes one
    recording golden run, {!add}ing its landmark boundaries, and
    returns its total step count and output.  [None] when the run
    outgrew {!max_recorded_entries} (it is cut short there).  Counts
    the journal's entries in [vm.rejoin.entries]. *)
