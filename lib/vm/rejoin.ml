(** Golden-run reconvergence journals — the "rejoin" fast path.

    A single-bit fault either crashes the program, hangs it, changes
    its output, or — very often — washes out: the corrupted value is
    masked, overwritten, or never consumed, and the trial's machine
    state becomes {e exactly} the golden run's state again.  From that
    instant the two executions are the same deterministic function of
    the same state, so the trial's remaining work is a replay of the
    golden suffix the campaign already ran once.

    The journal makes that observation executable.  A recording golden
    run maintains an incremental Zobrist-style digest of the full
    machine state (registers / SSA slots, memory cells, allocator
    frontier, control position) and stores digest -> (step count,
    output length) at every {e landmark} boundary in an open-addressed
    table.  A post-injection trial maintains the same digest and probes
    the table at landmark boundaries, at most once per {!probe_gap}
    steps; on a hit it splices the recorded golden output suffix onto
    its own, adds the remaining golden step count, and finishes
    immediately.  Every stats field is provably final at the match
    point (the interpreters guard the ones that are not), so the
    spliced result is byte-identical to running the suffix — at a
    fraction of the cost.

    Landmarks are control positions fixed by the program text, chosen
    once when a program is loaded (x86: function entries and targets of
    backward jumps; IR: the ends of entry blocks and back-edge targets).
    The control position is part of the digest, so two equal digests
    always sit at the same landmark: the recorder and a trial agree on
    where to look with no alignment argument, and a hit is a full-state
    match whatever the placement.  Placement only decides the hit rate:
    every dynamic cycle passes a landmark, so a trial back on the golden
    trajectory reaches a recorded boundary within one probe gap plus the
    longest landmark-free stretch of straight-line code.

    Soundness notes:
    - The digest covers state that determines future behavior and
      excludes the write-only output buffer and step counter — which is
      exactly what lets an SDC trial (different output so far) still
      rejoin.
    - A true state revisit inside one golden run is impossible (the
      machine is deterministic, so a revisit means nontermination);
      duplicate digests are hash collisions and resolve first-wins.
    - A 63-bit digest can collide across {e different} states with
      probability ~2^-63 per probe.  A false match would produce a
      wrong (spliced) result — visible, not silent: the engine's
      byte-identical-CSV gate compares every campaign against the
      non-rejoin reference. *)

(* SplitMix64-style finalizer on native 63-bit ints (constants
   truncated to fit; multiplication wraps mod 2^63). *)
let mix z =
  let z = (z lxor (z lsr 30)) * 0x3C79AC492BA7B653 in
  let z = (z lxor (z lsr 27)) * 0x1C69B3F74AC4AE35 in
  z lxor (z lsr 31)

let h2 a b = mix (a lxor mix b)
let h3 a b c = mix (a lxor mix (b lxor mix c))

(* [Int64.to_int] alone keeps the low 63 bits and drops the sign, so a
   sign-flipped double would digest like the golden one and splice a
   wrong suffix; fold bit 63 in separately. *)
let float_key f =
  let b = Int64.bits_of_float f in
  h2 (Int64.to_int b) (Int64.to_int (Int64.shift_right_logical b 63))

(* A trial probes at a landmark boundary once [probe_gap] steps have
   passed since its previous probe (its first landmark after the fault
   always probes).  Reconvergence is permanent — identical state
   implies identical future, so once a trial is back on the golden
   trajectory every later landmark also matches — so the gap only
   delays detection by about one gap; it never loses a rejoin.  The
   gap balances per-probe cost (a whole register file or live frame
   stack hashed, one table lookup) against that delay, which is small
   next to trial suffixes of tens of thousands of steps.  Counting
   steps, not landmark visits, keeps the rule the same for both VMs
   whatever their landmark densities. *)
let probe_gap = 512

(* A journal holds at most this many entries; a recording run that
   would store more yields no journal.  The table is two int arrays at
   load <= 1/2, so 16..32 bytes per entry: a full journal is at most
   32 MB.  Landmarks are about 8% of the boundaries (the twelve
   default-input journals hold 129,174 entries where recording every
   boundary took 1,608,357), so the cap sits past ten million golden
   boundaries — far past every shipped workload, and a run that long
   amortizes its trials well anyway. *)
let max_recorded_entries = 1 lsl 20

(* (steps, output length) packed into one int so the table is two flat
   int arrays: steps in the high bits, outlen in the low
   [outlen_bits].  Boundaries past the output cap are simply not
   recorded. *)
let outlen_bits = 24
let steps_of v = v lsr outlen_bits
let outlen_of v = v land ((1 lsl outlen_bits) - 1)

type t = {
  keys : int array;  (* open-addressed digest table, load <= 1/2 *)
  vals : int array;  (* packed (steps, outlen); -1 = empty slot *)
  mask : int;
  n : int;  (* entries held *)
  total_steps : int;  (* the golden run's final step count *)
  golden_out : string;  (* the golden run's full output *)
}

let entries t = t.n

let slot keys vals mask key =
  let i = ref (key land mask) in
  while vals.(!i) >= 0 && keys.(!i) <> key do
    i := (!i + 1) land mask
  done;
  !i

let lookup t key = t.vals.(slot t.keys t.vals t.mask key)

(* The table under construction, allocated at the first insertion. *)
type builder = {
  mutable b_keys : int array;
  mutable b_vals : int array;
  mutable b_mask : int;
  mutable b_n : int;
}

let builder () = { b_keys = [||]; b_vals = [||]; b_mask = -1; b_n = 0 }

let grow b =
  let cap = max 64 (2 * (b.b_mask + 1)) in
  let keys = Array.make cap 0 and vals = Array.make cap (-1) in
  let mask = cap - 1 in
  for i = 0 to b.b_mask do
    let v = b.b_vals.(i) in
    if v >= 0 then begin
      let j = slot keys vals mask b.b_keys.(i) in
      keys.(j) <- b.b_keys.(i);
      vals.(j) <- v
    end
  done;
  b.b_keys <- keys;
  b.b_vals <- vals;
  b.b_mask <- mask

(* Insert [key] unless present (the first insertion wins); whether it
   was present. *)
let insert b key v =
  if 2 * (b.b_n + 1) > b.b_mask + 1 then grow b;
  let i = slot b.b_keys b.b_vals b.b_mask key in
  b.b_vals.(i) >= 0
  ||
  begin
    b.b_keys.(i) <- key;
    b.b_vals.(i) <- v;
    b.b_n <- b.b_n + 1;
    false
  end

(* Raised by [add] past [max_recorded_entries]; ends the recording run
   at once, so an overlong golden run costs no more than the cap. *)
exception Full

(* First boundary wins: duplicates are hash collisions (a true state
   revisit would mean the golden run never terminates). *)
let add b ~digest ~steps ~outlen =
  if outlen < 1 lsl outlen_bits then begin
    if b.b_n >= max_recorded_entries then raise Full;
    ignore (insert b digest ((steps lsl outlen_bits) lor outlen))
  end

(* Telemetry (lib/obs): deterministic work counters.  A probe pays one
   boolean load for them when metrics are off. *)
let m_entries = Obs.Metrics.counter "vm.rejoin.entries"
let m_probes = Obs.Metrics.counter "vm.rejoin.probes"
let m_hits = Obs.Metrics.counter "vm.rejoin.hits"
let m_steps_saved = Obs.Metrics.counter "vm.rejoin.steps_saved"

let finish b ~total_steps ~golden_out =
  Obs.Metrics.incr ~by:b.b_n m_entries;
  if b.b_mask < 0 then grow b;
  {
    keys = b.b_keys;
    vals = b.b_vals;
    mask = b.b_mask;
    n = b.b_n;
    total_steps;
    golden_out;
  }

let record run =
  let b = builder () in
  match run b with
  | total_steps, golden_out -> Some (finish b ~total_steps ~golden_out)
  | exception Full -> None

(* Trial-side self-loop detection: a state digest recurring within one
   trial means the (deterministic) machine is in an infinite loop —
   only the excluded step counter advances — so the trial is provably
   a hang.  A digest set is a table whose values are unused; trials
   that never reach the detector pay for an empty record. *)
type seen = builder

let seen = builder

(* A trial-side probe, both VMs' match/splice guard.  On a journal hit
   the golden suffix is spliced only when that is exact: the spliced
   step total must not cross [max_steps] (each VM's hang check fires
   at points with steps <= total, so the reference run finishes), and
   neither output may have hit [Outcome.output_cap] — golden anywhere
   (monotone length, so a short final output rules it out), trial
   anywhere in the suffix.  On a miss, a digest seen twice within the
   trial proves a hang, worth [max_steps - steps] skipped work; the
   detector is armed only past the golden step total, which every hang
   must cross, so trials that finish on time never touch the table.
   A looping trial's landmark states are finitely many and it probes
   forever, so one of them recurs. *)
let probe j seen ~key ~steps ~max_steps out =
  Obs.Metrics.incr m_probes;
  let v = lookup j key in
  if v >= 0 then begin
    let total = steps + (j.total_steps - steps_of v) in
    let goutlen = outlen_of v in
    let suffix = String.length j.golden_out - goutlen in
    if
      total <= max_steps
      && String.length j.golden_out < Outcome.output_cap
      && Buffer.length out + suffix < Outcome.output_cap
    then begin
      Buffer.add_substring out j.golden_out goutlen suffix;
      Obs.Metrics.incr m_hits;
      Obs.Metrics.incr ~by:(total - steps) m_steps_saved;
      total
    end
    else -1
  end
  else if steps > j.total_steps && insert seen key 0 then max_steps + 1
  else -1
