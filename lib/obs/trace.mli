(** Span tracer: zero-cost when disabled, deterministic when merged.

    Instrumented code brackets work in {!span}.  When tracing is off
    (the default) a span is one boolean load and a call of the thunk —
    nothing is allocated or recorded, so the instrumented hot paths
    keep their performance.

    When enabled, each domain appends completed spans to its own buffer
    (registered once per domain, then written without locking), so
    tracing adds no cross-domain contention.  {!forest} merges the
    buffers {e canonically}: root spans are sorted by (name, args), not
    by time or by domain, and children keep their in-domain execution
    order.  Because every instrumented unit of campaign work carries a
    unique (name, args) key and executes deterministically, the merged
    span tree is identical for every [--jobs] value — only timestamps
    differ.  [scripts/ci.sh] smokes exactly that.

    Timestamps come from the OS monotonic clock (nanoseconds).

    Do {e not} open a span around {!Engine.Scheduler.run} itself: with
    [jobs = 1] the scheduler's task spans would nest under it while
    with a pool they root in worker domains, breaking the jobs
    invariance.  Use {!Manifest.section} for whole-phase wall-clock. *)

val on : unit -> bool
(** True after {!enable}; instrumentation may use it to skip building
    argument lists on the disabled path. *)

val enable : unit -> unit
(** Switch tracing on.  Call before spawning worker domains. *)

val reset : unit -> unit
(** Switch tracing off and drop every buffered span (tests, and bench
    sections that must not contaminate each other). *)

val span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording a span around it when tracing is
    on.  Exceptions propagate; the span still closes.  [args] label the
    span ([workload], [target], ...) and are part of its canonical
    identity — within one tracing session, root spans must have unique
    (name, args) keys for the merge order to be total. *)

(** A completed span tree, as returned by {!forest}. *)
type tree = {
  t_name : string;
  t_args : (string * string) list;
  t_start_ns : int64;  (** monotonic clock at entry *)
  t_dur_ns : int64;
  t_children : tree list;  (** in execution order *)
}

val forest : unit -> tree list
(** All completed root spans from all domains, canonically ordered.
    Spans still open are not included. *)

val skeleton : tree list -> string
(** The tree modulo timestamps: one [name key=value ...] line per span,
    indented two spaces per depth.  Equal skeletons = equal span trees
    in the sense of the determinism guarantee. *)

val to_chrome : tree list -> string
(** Chrome [trace_event] JSON (one complete-["X"] event per span,
    microsecond timestamps rebased to the earliest span, [tid] = the
    root's canonical index).  Load in [chrome://tracing] or Perfetto.
    One event per line, so text tooling can strip the [ts]/[dur]
    fields and compare runs. *)

val write : string -> unit
(** [write path]: {!to_chrome} of the current {!forest} to [path]. *)
