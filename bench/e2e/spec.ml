(* The benchmark's workloads and metrics.  BENCHMARK.json at the root
   of the repository states the same table for tools that run the
   benchmark; test_gate.ml checks that the two agree. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;
      (** share of the parent's median by which an end-to-end metric may
          get worse before a change counts as a regression; [0.] for
          per-layer metrics, which are not gated *)
}

let workloads =
  [
    ( "paper-grid",
      "the paper's experiment: 6 programs x 2 tools x 5 categories on 2 \
       domains, cold process; trial execution and rejoin do the work" );
    ( "inject-sweep",
      "60 single-cell fi inject calls at jobs=1: prepare and fast-forward \
       from zero weigh, rejoin is never built" );
    ( "exact-cells",
      "two exhaustive mcf cells on a 2-domain pool: enumeration, pruning \
       and in-order replay, with pruning settling much of one cell and \
       none of the other" );
    ( "serve-burst",
      "closed loop of small jobs against a fi serve child over 2 \
       connections, 1 in 4 a repeat: per-job cost, caches and \
       coalescing" );
  ]

let e2e name unit_ better bound = { name; unit_; better; bound }
let layer name unit_ better = { name; unit_; better; bound = 0. }

(* What a user of each workload sees.  An "op" is the unit a user waits
   for: a whole grid campaign, one fi inject call, one pass over both
   exact cells, one served job. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "trials_per_s" "1/s" Higher 0.20;
    e2e "op_p50_ms" "ms" Lower 0.20;
    e2e "op_p99_ms" "ms" Lower 0.20;
    e2e "peak_rss_mb" "MB" Lower 0.20;
  ]

let programs = [ "bzip2"; "libquantum"; "ocean"; "hmmer"; "mcf"; "raytrace" ]
let exact_cells = [ "arith"; "cmp" ]

(* Every time-valued metric is measured on every workload.  Counts,
   shares and rates of a layer a workload never reaches read 0 there. *)
let per_layer =
  [
    layer "minic.compile_s" "s" Lower;
    layer "opt.optimize_s" "s" Lower;
    layer "backend.compile_s" "s" Lower;
    layer "core.llfi_prepare_s" "s" Lower;
    layer "core.pinfi_prepare_s" "s" Lower;
    layer "core.record_rejoin_s" "s" Lower;
    layer "core.cell_s.p50" "s" Lower;
    layer "core.cell_s.max" "s" Lower;
  ]
  @ List.map (fun p -> layer ("core.busy_share." ^ p) "frac" Lower) programs
  @ [
      layer "core.busy_share.llfi" "frac" Lower;
      layer "core.activated_frac" "frac" Higher;
      layer "vm.steps" "count" Lower;
      layer "vm.ff_trials" "count" Lower;
      layer "vm.ff_rebuilds" "count" Lower;
      layer "vm.prefix_steps" "count" Lower;
      layer "vm.post_fault_steps" "count" Lower;
      layer "vm.hang_frac" "frac" Lower;
      layer "vm.ns_per_step" "ns" Lower;
      layer "engine.busy_frac" "frac" Higher;
      layer "engine.tail_frac" "frac" Lower;
      layer "engine.overhead_frac" "frac" Lower;
      layer "engine.runner_cache_hit_frac" "frac" Higher;
    ]
  @ List.concat_map
      (fun c ->
        [
          layer ("exhaust.enumerated." ^ c) "count" Lower;
          layer ("exhaust.executed." ^ c) "count" Lower;
          layer ("exhaust.covered_per_executed." ^ c) "x" Higher;
          layer ("exhaust.settled_frac." ^ c) "frac" Higher;
          layer ("exhaust.enumerate_share." ^ c) "frac" Lower;
          layer ("exhaust.replays_per_s." ^ c) "1/s" Higher;
        ])
      exact_cells
  @ [
      layer "serve.ack_share" "frac" Lower;
      layer "serve.first_batch_share" "frac" Lower;
      layer "serve.stream_share" "frac" Lower;
      layer "serve.batches_per_job" "count" Lower;
      layer "serve.bytes_per_job" "bytes" Lower;
      layer "serve.cells_shared" "count" Higher;
      layer "serve.runner_cache_hit_frac" "frac" Higher;
      layer "serve.prepared_cache_misses" "count" Lower;
      layer "serve.journal_flushes" "count" Lower;
      layer "loadgen.cpu_frac" "frac" Lower;
      layer "trace.overhead_frac" "frac" Lower;
    ]
