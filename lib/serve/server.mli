(** The campaign service: a long-running, sharded injection server.

    [run] binds a Unix-domain socket (plus an optional TCP listener),
    spawns a persistent warm {!Engine.Pool}, and serves {!Wire} jobs: a
    submitted job (workload x tools x categories x trials x seed) is
    validated, acknowledged, sharded into trial ranges, executed on the
    pool, and streamed back as per-shard verdict batches followed by the
    final CSV and its digest.

    Determinism: every shard runs through
    {!Core.Campaign.run_cell_range}, whose per-trial RNG streams make
    the merged result byte-identical to an offline [fi campaign] /
    [fi diagnose] of the same spec, for {e any} shard size or pool
    width.  Overlapping submissions are admitted onto the {e same}
    in-flight cell computations (keyed by {!Plan.cell_id}) and simply
    receive the same batches.

    Amortization: workloads stay prepared (compiled, golden-run,
    profiled) across jobs in a shared cache, and each pool domain keeps
    a fast-forward runner per cell in domain-local storage — the warm
    path skips everything but the trials themselves (measured by
    [bench/main.ml]'s SERVE section).

    Crash recovery: with a journal configured, every admitted job and
    every completed shard tally is checkpointed ({!Joblog}); a SIGKILLed
    server re-admits unfinished jobs on restart, re-running only the
    missing shards, and writes their results to the job's server-side
    output path.  SIGTERM (when [handle_signals]) and a
    [Shutdown {drain = true}] request both drain: no new jobs are
    admitted, in-flight jobs finish and stream completely, then every
    client gets [Bye]. *)

type config = {
  socket : string;  (** Unix-domain socket path; a stale file is replaced *)
  tcp : (string * int) option;  (** optional additional TCP listener *)
  pool_size : int;
  chunk : int option;
      (** shard size; [None] = {!Plan.default_chunk} per job *)
  journal : string option;  (** checkpoint path; [None] = no recovery *)
  base : Core.Campaign.config;
      (** tool policies; each job overrides trials/seed *)
  idle_timeout : float;  (** close idle job-less connections; [<= 0.] = never *)
  max_buffered : int;
      (** per-connection output backpressure: a peer that stops reading
          is dropped once this many bytes are queued (its jobs finish
          headless — journal and output file still happen) *)
  handle_signals : bool;
      (** install SIGTERM/SIGINT -> drain handlers; off for in-process
          embedding (tests, bench) *)
  name : string;  (** server name reported in [Welcome] *)
}

val default : socket:string -> config
(** Defaults: no TCP, {!Engine.Pool.default_size} workers, automatic
    chunking, no journal, {!Core.Campaign.default_config} base, no idle
    timeout, 8 MiB output backpressure, no signal handlers. *)

type stats = {
  connections : int;
  admitted : int;  (** jobs accepted from clients this run *)
  completed : int;  (** jobs finished (including resumed ones) *)
  failed : int;
  resumed : int;  (** unfinished journaled jobs re-admitted at startup *)
}

val run : ?on_ready:(unit -> unit) -> config -> stats
(** Serve until a shutdown request (or SIGTERM under [handle_signals]).
    [on_ready] fires once the listeners are bound and journal recovery
    has been admitted — the moment a client may connect. *)
