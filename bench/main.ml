(* Benchmark / reproduction harness.

   Running this executable regenerates every table and figure of the
   paper's evaluation (with the paper's published numbers printed
   alongside), runs the ablation studies for the design choices called
   out in DESIGN.md, and finishes with Bechamel micro-benchmarks of the
   infrastructure itself.

     dune exec bench/main.exe                 # full run (default trials)
     BENCH_TRIALS=1000 dune exec bench/main.exe   # the paper's 1000/cell

   Expect a few minutes at the default of 150 trials per cell. *)

let trials =
  match Sys.getenv_opt "BENCH_TRIALS" with
  | Some s -> (try max 10 (int_of_string s) with _ -> 150)
  | None -> 150

let config = { Core.Campaign.default_config with trials }

let jobs =
  match Sys.getenv_opt "BENCH_JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> Engine.Pool.default_size ())
  | None -> Engine.Pool.default_size ()

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* Machine-readable summaries: every gated section emits one JSON object,
   both as a greppable BENCH_<SECTION> line on stdout and as a
   BENCH_<SECTION>.json file (in BENCH_JSON_DIR, default the working
   directory) for scripts/bench_gate.sh to diff against the committed
   baselines. *)
let bench_json name json =
  Printf.printf "BENCH_%s %s\n" name json;
  let dir =
    match Sys.getenv_opt "BENCH_JSON_DIR" with Some d -> d | None -> "."
  in
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" name) in
  let oc = open_out path in
  output_string oc json;
  output_char oc '\n';
  close_out oc

(* Every top-level part is timed so a full run doubles as a wall-clock
   profile of the harness itself. *)
let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "\n[wall-clock] %s: %.1fs\n%!" name (Unix.gettimeofday () -. t0);
  r

(* ----------------------------------------------------------------- *)
(* Part 1: the paper's tables and figures                            *)
(* ----------------------------------------------------------------- *)

let run_campaign () =
  section
    (Printf.sprintf
       "Reproduction campaign: 6 benchmarks x 2 tools x 5 categories x %d \
        injections (%d jobs)"
       trials jobs);
  let t0 = Unix.gettimeofday () in
  let result =
    Engine.Scheduler.run ~jobs ~progress:(Engine.Progress.create ()) config
      Workloads.all
  in
  let prepared = result.Engine.Scheduler.prepared in
  let cells = result.Engine.Scheduler.cells in
  Printf.printf "  campaign wall-clock: %.1fs\n" (Unix.gettimeofday () -. t0);
  section "Table II — benchmark characteristics";
  Core.Report.table2 Workloads.all;
  section "Table III — injection categories";
  Core.Report.table3 ();
  section "Table I — IR-to-assembly lowering effects (mechanical evidence)";
  Core.Report.table1 prepared;
  section "Figure 2 — PINFI activation heuristics";
  Core.Report.figure2 ();
  section "Table IV — dynamic instructions per category (ours vs paper)";
  Core.Report.table4 prepared;
  section "Figure 3 — aggregate outcome breakdown";
  Core.Report.figure3 cells;
  section "Figure 4 — SDC rates with 95% confidence intervals";
  Core.Report.figure4 cells;
  section "Table V — crash rates per category (ours vs paper)";
  Core.Report.table5 cells;
  section "Paper claims, evaluated on this run";
  Core.Report.print_claims (Core.Report.evaluate_claims prepared cells);
  (prepared, cells)

(* ----------------------------------------------------------------- *)
(* Part 1b: the execution engine vs the sequential baseline           *)
(* ----------------------------------------------------------------- *)

(* Same cells, one domain vs a pool: the per-cell RNG streams make the
   outputs byte-identical, so this both benchmarks the engine and
   re-checks its determinism guarantee on every bench run. *)
let engine_speedup () =
  section
    (Printf.sprintf "Execution engine: sequential baseline vs %d-domain pool"
       jobs);
  let subset = [ Workloads.find_exn "mcf"; Workloads.find_exn "libquantum" ] in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let seq_cells, seq_s = time (fun () -> Core.Campaign.run_all config subset) in
  let par, par_s =
    time (fun () -> Engine.Scheduler.run ~jobs config subset)
  in
  let par4, jobs4_s =
    time (fun () -> Engine.Scheduler.run ~jobs:4 config subset)
  in
  let seq_csv = Core.Campaign.to_csv seq_cells in
  let par_csv = Core.Campaign.to_csv par.Engine.Scheduler.cells in
  let par4_csv = Core.Campaign.to_csv par4.Engine.Scheduler.cells in
  if not (String.equal seq_csv par_csv) then
    failwith "engine_speedup: parallel CSV diverges from sequential baseline";
  if not (String.equal seq_csv par4_csv) then
    failwith "engine_speedup: jobs=4 CSV diverges from sequential baseline";
  let speedup = if par_s > 0.0 then seq_s /. par_s else 0.0 in
  let jobs4_speedup = if jobs4_s > 0.0 then seq_s /. jobs4_s else 0.0 in
  (* Efficiency is relative to the cores the scheduler can actually
     use: speedup per usable core at jobs=4.  On a multicore host this
     demands real scaling; on a single-core host it reduces to the
     engine-vs-baseline ratio, which the gate's 1.0x hard floor still
     polices. *)
  let cores = Engine.Pool.default_size () in
  let per_core_eff = jobs4_speedup /. float_of_int (min 4 cores) in
  Printf.printf "  sequential (jobs=1): %6.1fs\n" seq_s;
  Printf.printf "  engine    (jobs=%d): %6.1fs  (%.2fx)\n" jobs par_s speedup;
  Printf.printf "  engine    (jobs=4): %6.1fs  (%.2fx, %.2fx/core on %d)\n"
    jobs4_s jobs4_speedup per_core_eff cores;
  Printf.printf "  CSV byte-identical at every jobs level\n";
  bench_json "ENGINE"
    (Printf.sprintf
       "{\"workloads\": %d, \"trials\": %d, \"jobs\": %d, \"cores\": %d, \
        \"seq_s\": %.3f, \"par_s\": %.3f, \"speedup\": %.3f, \
        \"jobs4_s\": %.3f, \"jobs4_speedup\": %.3f, \"per_core_eff\": %.3f, \
        \"identical\": true}"
       (List.length subset) trials jobs cores seq_s par_s speedup jobs4_s
       jobs4_speedup per_core_eff)

(* ----------------------------------------------------------------- *)
(* Part 1c: diagnosis capture overhead                                *)
(* ----------------------------------------------------------------- *)

(* Failures collected here turn into a non-zero exit at the end, so CI
   can gate on bench regressions without parsing the report. *)
let bench_failures : string list ref = ref []

(* Both overhead sections time the hook-free [Engine.Scheduler.run
   ~jobs:1] against the same call on the same config with the hooks
   switched on, so the two arms differ only in the hooks.  The arms
   alternate in 7 rounds (base, on per round): within one round they
   run seconds apart, so machine-load drift cancels out of the
   quotient.  The gated figure is the median per-round ratio, which one
   noisy round cannot move either way.  Returns best base and enabled
   wall-clock, the median ratio and the spread (min, max) of ratios. *)
let overhead_rounds ~run_base ~run_on =
  (* Compact before each timing so one arm never pays for major heap
     garbage the other left behind. *)
  let once f =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  let rounds =
    List.init 7 (fun _ ->
        let b = once run_base in
        let on = once run_on in
        (b, on))
  in
  let best sel =
    List.fold_left (fun acc r -> min acc (sel r)) infinity rounds
  in
  let ratios =
    List.sort compare
      (List.filter_map
         (fun (b, on) -> if b > 0.0 then Some (on /. b) else None)
         rounds)
  in
  let median, lo, hi =
    match ratios with
    | [] -> (1.0, 1.0, 1.0)
    | _ ->
      ( List.nth ratios (List.length ratios / 2),
        List.hd ratios,
        List.nth ratios (List.length ratios - 1) )
  in
  (best fst, best snd, median, (lo, hi))

(* Ceiling on the median enabled/base ratio of both overhead sections:
   hooks that are switched on may cost something, but not a quarter of
   a run. *)
let overhead_gate = 1.25

let overhead_report ~section_name ~json_name ~what ~trials
    (base_s, on_s, ratio, (lo, hi)) =
  Printf.printf "  baseline  (hooks off):       %6.2fs\n" base_s;
  Printf.printf "  %-28s %6.2fs  (median %.3fx, rounds %.3f-%.3f)\n"
    (what ^ " enabled:") on_s ratio lo hi;
  bench_json json_name
    (Printf.sprintf
       "{\"trials\": %d, \"base_s\": %.3f, \"enabled_s\": %.3f, \
        \"enabled_ratio\": %.3f, \"ratio_min\": %.3f, \"ratio_max\": %.3f, \
        \"gate\": %.2f}"
       trials base_s on_s ratio lo hi overhead_gate);
  if ratio > overhead_gate then
    bench_failures :=
      Printf.sprintf
        "%s: %s-enabled path is %.1f%% slower than hooks off (gate: %.0f%%)"
        section_name what
        ((ratio -. 1.0) *. 100.0)
        ((overhead_gate -. 1.0) *. 100.0)
      :: !bench_failures

(* Diagnosis capture (first-use tracking plus a record sink) against the
   same scheduler run without it.  The floor of 100 trials keeps each
   run long enough that the scheduler's fixed per-cell costs stay
   inside the gate. *)
let diagnose_overhead () =
  section "Diagnosis capture: overhead enabled vs hooks off";
  let subset = [ Workloads.find_exn "mcf" ] in
  let cfg = { config with trials = max 100 (trials / 3) } in
  let run_base () = Engine.Scheduler.run ~jobs:1 cfg subset in
  let run_on () =
    let sink = Diagnose.Sink.create () in
    let r =
      Engine.Scheduler.run ~jobs:1
        ~observe:(fun ~workload ~tool ~category ~trial verdict stats ->
          Diagnose.Sink.add sink
            (Diagnose.Record.of_stats ~workload ~tool ~category ~trial verdict
               stats))
        ~track_use:true cfg subset
    in
    ignore (Diagnose.Sink.to_string sink);
    r
  in
  overhead_report ~section_name:"diagnose_overhead" ~json_name:"DIAGNOSE"
    ~what:"capture" ~trials:cfg.Core.Campaign.trials
    (overhead_rounds ~run_base ~run_on)

(* ----------------------------------------------------------------- *)
(* Part 1d: snapshot/fast-forward executor vs from-entry trials       *)
(* ----------------------------------------------------------------- *)

(* Per cell, targets are planned up front and trials run sorted on one
   rolling machine, so the shared golden prefix is executed once instead
   of once per trial.  The baseline prepares the same workloads and runs
   every trial from the program entry ([Llfi.inject] / [Pinfi.inject] on
   the cell's rng splits, the reference the campaign path must match);
   outputs are byte-identical — re-checked here on every bench run — and
   the snapshot path must stay >= 2x faster at a representative trial
   count. *)
let direct_cells (w : Core.Workload.t) =
  let p = Core.Campaign.prepare config w in
  List.concat_map
    (fun tool ->
      List.map
        (fun category ->
          let population = Core.Campaign.population p tool category in
          let golden_output = Core.Campaign.golden_output p tool in
          let tally = Core.Verdict.fresh_tally () in
          if population > 0 then begin
            let master =
              Core.Campaign.cell_rng config ~workload:w.name ~tool ~category
            in
            for _ = 1 to config.Core.Campaign.trials do
              let rng = Support.Rng.split master in
              let stats =
                match tool with
                | Core.Campaign.Llfi_tool ->
                  Core.Llfi.inject p.Core.Campaign.llfi category rng
                | Core.Campaign.Pinfi_tool ->
                  Core.Pinfi.inject p.Core.Campaign.pinfi category rng
              in
              Core.Verdict.add tally (Core.Verdict.of_run ~golden_output stats)
            done
          end;
          {
            Core.Campaign.c_workload = w.name;
            c_tool = tool;
            c_category = category;
            c_model = config.Core.Campaign.model;
            c_population = population;
            c_tally = tally;
          })
        Core.Category.all)
    [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ]

let snapshot_speedup () =
  section "Snapshot executor: fast-forward trials vs from-entry baseline";
  let subset = [ Workloads.find_exn "mcf"; Workloads.find_exn "hmmer" ] in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let off_cells, off_s = time (fun () -> List.concat_map direct_cells subset) in
  let on_cells, on_s = time (fun () -> Core.Campaign.run_all config subset) in
  let off_csv = Core.Campaign.to_csv off_cells in
  let on_csv = Core.Campaign.to_csv on_cells in
  if not (String.equal off_csv on_csv) then
    failwith "snapshot_speedup: snapshot CSV diverges from from-entry trials";
  let speedup = if on_s > 0.0 then off_s /. on_s else 0.0 in
  Printf.printf "  from-entry trials:     %6.2fs\n" off_s;
  Printf.printf "  snapshot/fast-forward: %6.2fs\n" on_s;
  Printf.printf "  speedup: %.2fx — CSV byte-identical\n" speedup;
  (* The prefix sharing only amortizes over enough trials; at smoke-test
     trial counts (bench_gate.sh runs with small BENCH_TRIALS) just
     require it not to lose. *)
  let gate = if trials >= 100 then 2.0 else 1.0 in
  bench_json "SNAPSHOT"
    (Printf.sprintf
       "{\"workloads\": %d, \"trials\": %d, \"off_s\": %.3f, \"on_s\": %.3f, \
        \"speedup\": %.3f, \"gate\": %.1f, \"identical\": true}"
       (List.length subset) trials off_s on_s speedup gate);
  if speedup < gate then
    bench_failures :=
      Printf.sprintf
        "snapshot_speedup: %.2fx over from-entry trials (gate: %.1fx at \
         %d trials)"
        speedup gate trials
      :: !bench_failures

(* ----------------------------------------------------------------- *)
(* Part 1d'': closure tables vs the tree-walking reference          *)
(* ----------------------------------------------------------------- *)

(* Raw fault-free step throughput of each program's closure table (the
   one every trial, fast-forward advance, profiling run and rejoin
   recording dispatches through) against the same program's
   [reference] table of tree-walker closures, per workload and per
   engine, plus a dispatch-bound integer kernel.  Both arms run the
   same dispatch loop and differ only in the table.  The
   kernel carries the hard [compile_floor] gate: the six reproduction
   workloads mix memory traffic and intrinsic calls where both engines
   share the same Memory and syscall code, so their speedups vary with
   workload shape; the kernel isolates the dispatch +
   operand-resolution cost the closures exist to remove.  The identity
   attestation is a whole campaign run through both tables and
   compared CSV byte for byte — the closures' contract is speed with
   bit-identical results. *)

let dispatch_kernel : Core.Workload.t =
  {
    name = "dispatch";
    suite = "micro";
    description = "dispatch-bound integer kernel (no memory traffic)";
    paper_counterpart = "(none — bench-only microbenchmark)";
    source =
      {|
int main() {
  int acc = 7;
  int i = 0;
  int n = 400000;
  while (i < n) {
    acc = acc * 31 + i;
    acc = acc ^ (acc >> 7);
    acc = (acc + (acc & 8191)) | (i & 63);
    i = i + 1;
  }
  print_int(acc);
  return 0;
}
|};
    inputs = [||];
    input_name = "none";
  }

(* 0.9x the best speedup committed in BENCH_COMPILE.json (4.34x, the
   x86 kernel, on a 2-core x86-64 host), leaving room for host noise:
   repeated runs there ranged 4.3-5.6x. *)
let compile_floor = 3.9

let compile_speedup () =
  section "Compiled execution: closure tables vs the tree-walking reference";
  (* The arms alternate within each rep, so a burst of load on the
     host slows every arm of that rep rather than one arm's whole
     block; each arm keeps its best time. *)
  let best_of n arms =
    let best = Array.make (List.length arms) infinity in
    for _ = 1 to n do
      List.iteri
        (fun k f ->
          let t0 = Unix.gettimeofday () in
          ignore (Sys.opaque_identity (f ()));
          best.(k) <- min best.(k) (Unix.gettimeofday () -. t0))
        arms
    done;
    best
  in
  let ms v t = float_of_int v /. t /. 1e6 in
  (* One row per workload x engine: reference and compiled step
     throughput from the best of [reps] fault-free runs each. *)
  let row reps (w : Core.Workload.t) =
    let p = Core.Campaign.prepare config w in
    let l = p.Core.Campaign.llfi.Core.Llfi.compiled
    and x = p.Core.Campaign.pinfi.Core.Pinfi.loaded in
    let l_ref = Vm.Ir_exec.reference l and x_ref = Vm.X86_exec.reference x in
    let inputs = w.Core.Workload.inputs in
    let t =
      best_of reps
        [
          (fun () -> Vm.Ir_exec.run ~inputs Golden l_ref);
          (fun () -> Vm.Ir_exec.run ~inputs Golden l);
          (fun () -> Vm.X86_exec.run ~inputs Golden x_ref);
          (fun () -> Vm.X86_exec.run ~inputs Golden x);
        ]
    in
    let t_li = t.(0) and t_lc = t.(1) and t_xi = t.(2) and t_xc = t.(3) in
    let lsteps = p.Core.Campaign.llfi.Core.Llfi.golden_steps
    and xsteps = p.Core.Campaign.pinfi.Core.Pinfi.golden_steps in
    Printf.printf
      "  %-12s IR  %7.1f -> %7.1f Msteps/s (%5.2fx)   x86 %7.1f -> %7.1f \
       Msteps/s (%5.2fx)\n"
      w.Core.Workload.name (ms lsteps t_li) (ms lsteps t_lc) (t_li /. t_lc)
      (ms xsteps t_xi) (ms xsteps t_xc) (t_xi /. t_xc);
    (t_li /. t_lc, t_xi /. t_xc)
  in
  let rows = List.map (row 3) Workloads.all in
  let ir_k, x86_k = row 9 dispatch_kernel in
  (* Identity attestation: a whole campaign, compiled vs reference,
     must be CSV byte-identical (the differential tests check this per
     workload; the bench re-checks it on every run so the committed
     JSON attests it for the exact build being measured). *)
  let w = Workloads.find_exn "mcf" in
  let csv_c =
    Core.Campaign.to_csv
      (snd (Core.Campaign.run_workload { config with compile = true } w))
  in
  let csv_i =
    Core.Campaign.to_csv
      (snd (Core.Campaign.run_workload { config with compile = false } w))
  in
  if not (String.equal csv_c csv_i) then
    failwith "compile_speedup: compiled campaign CSV diverges from the reference";
  let best_speedup =
    List.fold_left
      (fun acc (a, b) -> max acc (max a b))
      (max ir_k x86_k) rows
  in
  Printf.printf
    "  %-12s IR  %5.2fx   x86 %5.2fx   (dispatch-bound kernel)\n" "dispatch"
    ir_k x86_k;
  Printf.printf "  best speedup: %.2fx — campaign CSV byte-identical\n"
    best_speedup;
  bench_json "COMPILE"
    (Printf.sprintf
       "{\"workloads\": %d, \"kernel_ir_speedup\": %.3f, \
        \"kernel_x86_speedup\": %.3f, \"best_speedup\": %.3f, \"gate\": \
        %.1f, \"identical\": true}"
       (List.length Workloads.all) ir_k x86_k best_speedup compile_floor);
  if best_speedup < compile_floor then
    bench_failures :=
      Printf.sprintf
        "compile_speedup: best speedup %.2fx below the %.1fx dispatch floor"
        best_speedup compile_floor
      :: !bench_failures

(* ----------------------------------------------------------------- *)
(* Part 1d': exhaustive campaign — enumeration and pruning            *)
(* ----------------------------------------------------------------- *)

(* One bounded exact cell: how fast the instrumented golden run
   enumerates the (instance, bit) space, how much of it the pruning
   rules settle without execution, and the headline ratio of faults
   covered per fault executed (pruning plus the Chernoff-bounded
   residual sampler).  The survivor count is reported separately so the
   two effects are never conflated.  The cell runs twice — one domain
   vs a pool — and the exact-rate CSV must be byte-identical. *)
let exhaust_ratio () =
  section "Exhaustive campaign: enumeration throughput and pruning ratio";
  let w = Workloads.find_exn "mcf" in
  let p = Core.Campaign.prepare config w in
  let tool = Core.Campaign.Llfi_tool in
  let category = Core.Category.Arithmetic in
  let bound =
    match Sys.getenv_opt "BENCH_EXHAUST_BOUND" with
    | Some s -> (try max 100 (int_of_string s) with _ -> 2000)
    | None -> 2000
  in
  let cfg = { Exhaust.default_config with sample_bound = bound } in
  let t0 = Unix.gettimeofday () in
  let instances = Core.Campaign.enumerate p tool category in
  let enum_s = Unix.gettimeofday () -. t0 in
  let enumerated =
    Array.fold_left
      (fun acc (i : Vm.Fault_space.instance) -> acc + i.Vm.Fault_space.width)
      0 instances
  in
  let t1 = Unix.gettimeofday () in
  let seq = Exhaust.run_cell cfg p tool category in
  let cell_s = Unix.gettimeofday () -. t1 in
  let pool = Engine.Pool.create ~size:jobs () in
  let par =
    Fun.protect
      ~finally:(fun () -> Engine.Pool.shutdown pool)
      (fun () -> Exhaust.run_cell ~pool cfg p tool category)
  in
  if
    not
      (String.equal
         (Core.Campaign.exact_to_csv [ seq ])
         (Core.Campaign.exact_to_csv [ par ]))
  then failwith "exhaust_ratio: exact cell diverges between 1 domain and pool";
  let settled =
    seq.Core.Campaign.e_pruned_dead + seq.Core.Campaign.e_pruned_masked
    + seq.Core.Campaign.e_pruned_equiv
  in
  let survivors = seq.Core.Campaign.e_enumerated - settled in
  let ratio = Core.Campaign.pruning_ratio seq in
  let per_s = if enum_s > 0.0 then float_of_int enumerated /. enum_s else 0.0 in
  Printf.printf "  cell: mcf x LLFI x arithmetic (sample bound %d)\n" bound;
  Printf.printf "  enumerated %d faults in %.2fs (%.0f faults/s)\n" enumerated
    enum_s per_s;
  Printf.printf
    "  settled by pruning: %d (%.1f%%) — %d survivors, %d executed in %.2fs\n"
    settled
    (100.0 *. float_of_int settled /. float_of_int enumerated)
    survivors seq.Core.Campaign.e_executed cell_s;
  Printf.printf
    "  %.1f faults covered per fault executed (rates certified to ±%.4f%%) — \
     CSV byte-identical\n"
    ratio
    (100.0 *. seq.Core.Campaign.e_bound);
  bench_json "EXHAUST"
    (Printf.sprintf
       "{\"workload\": \"mcf\", \"tool\": \"LLFI\", \"category\": \
        \"arithmetic\", \"enumerated\": %d, \"settled\": %d, \"survivors\": \
        %d, \"sample_bound\": %d, \"executed\": %d, \"pruning_ratio\": %.3f, \
        \"error_bound\": %.6f, \"enum_s\": %.3f, \"faults_per_s\": %.1f, \
        \"gate\": 5.0, \"identical\": true}"
       enumerated settled survivors bound seq.Core.Campaign.e_executed ratio
       seq.Core.Campaign.e_bound enum_s per_s);
  if ratio < 5.0 then
    bench_failures :=
      Printf.sprintf
        "exhaust_ratio: %.1f faults covered per fault executed (gate: 5.0)"
        ratio
      :: !bench_failures

(* ----------------------------------------------------------------- *)
(* Part 1e: telemetry (lib/obs) overhead                              *)
(* ----------------------------------------------------------------- *)

(* Telemetry (spans plus metrics) against the same scheduler run with
   it off.  With no --trace/--metrics/--manifest flag every
   instrumentation site is a boolean load, so the hooks-off arm is the
   disabled path itself. *)
let obs_overhead () =
  section "Telemetry: overhead enabled vs off";
  let subset = [ Workloads.find_exn "mcf" ] in
  let cfg = { config with trials = max 100 (trials / 3) } in
  Obs.Trace.reset ();
  Obs.Metrics.reset ();
  let run_base () = Engine.Scheduler.run ~jobs:1 cfg subset in
  let run_on () =
    Obs.Trace.enable ();
    Obs.Metrics.enable ();
    let r = Engine.Scheduler.run ~jobs:1 cfg subset in
    ignore (Sys.opaque_identity (Obs.Trace.skeleton (Obs.Trace.forest ())));
    ignore (Sys.opaque_identity (Obs.Metrics.snapshot ()));
    Obs.Trace.reset ();
    Obs.Metrics.reset ();
    r
  in
  overhead_report ~section_name:"obs_overhead" ~json_name:"OBS"
    ~what:"telemetry" ~trials:cfg.Core.Campaign.trials
    (overhead_rounds ~run_base ~run_on)

(* ----------------------------------------------------------------- *)
(* Part 2: ablations of the design choices in DESIGN.md              *)
(* ----------------------------------------------------------------- *)

(* Ablation 1: GEP folding.  The paper's Discussion item 1 says the
   IR/assembly 'arithmetic' discrepancy comes from address computations
   folding into addressing modes.  Turning folding off should collapse
   the arithmetic-count gap. *)
let ablation_gep_folding () =
  section "Ablation: GEP folding (paper Discussion #1)";
  Printf.printf "%-12s %18s %18s %18s\n" "program" "LLFI arith"
    "PINFI arith (fold)" "PINFI arith (nofold)";
  List.iter
    (fun (w : Core.Workload.t) ->
      let prog = Opt.optimize (Minic.compile w.source) in
      let count cfg =
        let asm = Backend.compile ~config:cfg prog in
        let pinfi = Core.Pinfi.prepare ~inputs:w.inputs asm in
        Core.Pinfi.dynamic_count pinfi Core.Category.Arithmetic
      in
      let llfi = Core.Llfi.prepare ~inputs:w.inputs prog in
      Printf.printf "%-12s %18d %18d %18d\n" w.name
        (Core.Llfi.dynamic_count llfi Core.Category.Arithmetic)
        (count { Backend.fold_geps = true })
        (count { Backend.fold_geps = false }))
    [ Workloads.find_exn "bzip2"; Workloads.find_exn "ocean";
      Workloads.find_exn "mcf" ];
  print_endline
    "\nWithout folding, every address computation is explicit arithmetic at";
  print_endline
    "the assembly level, widening the arithmetic gap the paper describes."

(* Ablation 2: PINFI's dependent-flag-bit heuristic (Figure 2a). *)
let ablation_flag_bits () =
  section "Ablation: dependent flag bits (paper Figure 2a)";
  let w = Workloads.find_exn "mcf" in
  let prog = Opt.optimize (Minic.compile w.source) in
  let asm = Backend.compile prog in
  let run policy =
    let pinfi =
      Core.Pinfi.prepare ~config:{ Core.Pinfi.policy } ~inputs:w.inputs asm
    in
    let tally = Core.Verdict.fresh_tally () in
    let rng = Support.Rng.of_int 5 in
    for _ = 1 to 300 do
      let stats = Core.Pinfi.inject pinfi Core.Category.Cmp (Support.Rng.split rng) in
      Core.Verdict.add tally
        (Core.Verdict.of_run ~golden_output:pinfi.Core.Pinfi.golden_output stats)
    done;
    tally
  in
  let show name tally =
    Printf.printf
      "  %-22s activated %3d/300   benign %3d  sdc %3d  crash %3d\n" name
      (Core.Verdict.activated tally)
      tally.Core.Verdict.benign tally.Core.Verdict.sdc tally.Core.Verdict.crash
  in
  show "dependent bits" (run Vm.X86_exec.paper_policy);
  show "any flag bit"
    (run { Vm.X86_exec.paper_policy with flag_dependent_bits = false });
  print_endline
    "\nInjecting an arbitrary flag bit frequently misses the bit the jcc";
  print_endline
    "reads: the fault stays architecturally silent and the run is wasted —";
  print_endline "exactly why PINFI computes the dependent bit set."

(* Ablation 3: XMM low-64 pruning (Figure 2b). *)
let ablation_xmm_pruning () =
  section "Ablation: XMM low-64-bit pruning (paper Figure 2b)";
  let w = Workloads.find_exn "ocean" in
  let prog = Opt.optimize (Minic.compile w.source) in
  let asm = Backend.compile prog in
  let run policy =
    let pinfi =
      Core.Pinfi.prepare ~config:{ Core.Pinfi.policy } ~inputs:w.inputs asm
    in
    let tally = Core.Verdict.fresh_tally () in
    let rng = Support.Rng.of_int 5 in
    for _ = 1 to 300 do
      let stats =
        Core.Pinfi.inject pinfi Core.Category.Arithmetic (Support.Rng.split rng)
      in
      Core.Verdict.add tally
        (Core.Verdict.of_run ~golden_output:pinfi.Core.Pinfi.golden_output stats)
    done;
    tally
  in
  let show name tally =
    Printf.printf "  %-22s activated %3d/300   not-activated %3d\n" name
      (Core.Verdict.activated tally)
      tally.Core.Verdict.not_activated
  in
  show "low 64 bits only" (run Vm.X86_exec.paper_policy);
  show "all 128 bits"
    (run { Vm.X86_exec.paper_policy with xmm_low64_only = false });
  print_endline
    "\nRoughly half of unpruned XMM injections land in the unused upper half";
  print_endline "of the register and can never be activated."

(* Ablation 4: LLFI's conversion-only cast selection (Table I row 5). *)
let ablation_cast_pruning () =
  section "Ablation: LLFI cast pruning (paper Table I row 5, Discussion #2)";
  Printf.printf "%-12s %24s %24s\n" "program" "casts (conversions only)"
    "casts (all cast opcodes)";
  List.iter
    (fun (w : Core.Workload.t) ->
      let prog = Opt.optimize (Minic.compile w.source) in
      let count cfg =
        let llfi = Core.Llfi.prepare ~config:cfg ~inputs:w.inputs prog in
        Core.Llfi.dynamic_count llfi Core.Category.Cast
      in
      Printf.printf "%-12s %24d %24d\n" w.name
        (count Core.Llfi.default_config)
        (count { Core.Llfi.default_config with conversion_casts_only = false }))
    Workloads.all;
  print_endline
    "\nPointer casts (bitcast/ptrtoint/inttoptr) have no assembly counterpart;";
  print_endline
    "including them inflates the IR cast population with crash-prone";
  print_endline "injections no hardware fault corresponds to."

(* Ablation 5: inlining (pipeline parity with clang -O2). *)
let ablation_inlining () =
  section "Ablation: function inlining in the standard pipeline";
  Printf.printf "%-12s %16s %16s %16s %16s\n" "program" "IR all (inline)"
    "asm all (inline)" "IR all (no inl)" "asm all (no inl)";
  List.iter
    (fun (w : Core.Workload.t) ->
      let counts inline =
        let prog = Opt.optimize ~inline (Minic.compile w.source) in
        let llfi = Core.Llfi.prepare ~inputs:w.inputs prog in
        let pinfi = Core.Pinfi.prepare ~inputs:w.inputs (Backend.compile prog) in
        ( Core.Llfi.dynamic_count llfi Core.Category.All,
          Core.Pinfi.dynamic_count pinfi Core.Category.All )
      in
      let i_ir, i_asm = counts true in
      let n_ir, n_asm = counts false in
      Printf.printf "%-12s %16d %16d %16d %16d\n" w.name i_ir i_asm n_ir n_asm)
    [ Workloads.find_exn "hmmer"; Workloads.find_exn "raytrace" ];
  print_endline
    "\nWithout inlining, assembly-level call plumbing (stack argument loads,";
  print_endline
    "callee-saved saves) that LLVM's optimizer would have removed dominates";
  print_endline "the PINFI population — LLVM-parity requires the inliner."

(* ----------------------------------------------------------------- *)
(* Part 2b: extension — crash latency                                  *)
(* ----------------------------------------------------------------- *)

(* How many dynamic instructions pass between the bit flip and the
   crash?  Short latencies mean the corrupted value was consumed as an
   address almost immediately — the mechanism behind the level-dependent
   crash rates of Table V. *)
let extension_crash_latency () =
  section "Extension: crash latency (instructions from flip to trap)";
  let percentile sorted p =
    match Array.length sorted with
    | 0 -> 0
    | n -> sorted.(min (n - 1) (p * n / 100))
  in
  Printf.printf "  %-12s %-6s %8s %10s %10s %10s\n" "program" "tool" "crashes"
    "p50" "p90" "max";
  List.iter
    (fun name ->
      let w = Workloads.find_exn name in
      let prog = Opt.optimize (Minic.compile w.Core.Workload.source) in
      let llfi = Core.Llfi.prepare ~inputs:w.inputs prog in
      let pinfi = Core.Pinfi.prepare ~inputs:w.inputs (Backend.compile prog) in
      let study label inject =
        let rng = Support.Rng.of_int 23 in
        let latencies = ref [] in
        for _ = 1 to 300 do
          let stats = inject (Support.Rng.split rng) in
          match stats.Vm.Outcome.outcome with
          | Vm.Outcome.Crashed _ when stats.Vm.Outcome.injected ->
            latencies :=
              (stats.Vm.Outcome.steps - stats.Vm.Outcome.injected_step)
              :: !latencies
          | _ -> ()
        done;
        let sorted = Array.of_list !latencies in
        Array.sort compare sorted;
        Printf.printf "  %-12s %-6s %8d %10d %10d %10d\n" name label
          (Array.length sorted) (percentile sorted 50) (percentile sorted 90)
          (percentile sorted 100)
      in
      study "LLFI" (fun rng -> Core.Llfi.inject llfi Core.Category.All rng);
      study "PINFI" (fun rng -> Core.Pinfi.inject pinfi Core.Category.All rng))
    [ "mcf"; "ocean" ];
  print_endline
    "\nMedian latencies of a few instructions show faults dying on their";
  print_endline
    "first use as an address; long tails come from corrupted values parked";
  print_endline "in memory and re-read much later."

(* ----------------------------------------------------------------- *)
(* Part 2b': robustness — input sensitivity of the rates              *)
(* ----------------------------------------------------------------- *)

(* The paper runs one input per benchmark.  How input-dependent are the
   measured rates?  Re-run one benchmark under several inputs. *)
let robustness_inputs () =
  section "Robustness: outcome rates across different inputs (mcf, LLFI 'all')";
  Printf.printf "  %-10s %10s %8s %8s %8s\n" "input" "population" "crash" "sdc"
    "benign";
  let w = Workloads.find_exn "mcf" in
  List.iter
    (fun seed ->
      let prog = Opt.optimize (Minic.compile w.Core.Workload.source) in
      let llfi = Core.Llfi.prepare ~inputs:[| seed |] prog in
      let tally = Core.Verdict.fresh_tally () in
      let rng = Support.Rng.of_int (1000 + seed) in
      for _ = 1 to 200 do
        let stats = Core.Llfi.inject llfi Core.Category.All (Support.Rng.split rng) in
        Core.Verdict.add tally
          (Core.Verdict.of_run ~golden_output:llfi.Core.Llfi.golden_output stats)
      done;
      Printf.printf "  %-10d %10d %7.0f%% %7.0f%% %7.0f%%\n" seed
        (Core.Llfi.dynamic_count llfi Core.Category.All)
        (100.0 *. Core.Verdict.crash_rate tally)
        (100.0 *. Core.Verdict.sdc_rate tally)
        (100.0 *. Core.Verdict.benign_rate tally))
    [ 11; 29; 53; 97 ];
  print_endline
    "\nRates move by only a few points across inputs: the study's";
  print_endline "conclusions do not hinge on the particular test input."

(* ----------------------------------------------------------------- *)
(* Part 2c: extension — EDC severity of SDCs (related work [12])      *)
(* ----------------------------------------------------------------- *)

let extension_edc () =
  section "Extension: Egregious Data Corruption (EDC) severity of SDCs";
  Printf.printf
    "Grading every LLFI 'all'-category SDC by output deviation (>%.0f%%\n\
     relative deviation or structural change = egregious):\n\n"
    (100.0 *. Core.Edc.default_threshold);
  Printf.printf "  %-12s %8s %8s %12s %12s\n" "program" "trials" "sdc"
    "egregious" "tolerable";
  List.iter
    (fun (w : Core.Workload.t) ->
      let prog = Opt.optimize (Minic.compile w.source) in
      let llfi = Core.Llfi.prepare ~inputs:w.inputs prog in
      let study =
        Core.Edc.run_study llfi Core.Category.All ~trials:(max 100 (trials / 2))
          (Support.Rng.of_int 17)
      in
      Printf.printf "  %-12s %8d %8d %12d %12d\n" w.name study.Core.Edc.s_trials
        study.s_sdc study.s_egregious study.s_tolerable)
    Workloads.all;
  print_endline
    "\nFor the stencil code (ocean) most SDCs are tolerable deviations, while";
  print_endline
    "checksummed outputs (bzip2, libquantum) make almost every SDC egregious";
  print_endline
    "— the EDC-vs-SDC distinction of Thomas et al. that the paper contrasts";
  print_endline "its full-SDC evaluation against."

(* ----------------------------------------------------------------- *)
(* Part 3: Bechamel micro-benchmarks of the infrastructure            *)
(* ----------------------------------------------------------------- *)

let bechamel_suite () =
  section "Infrastructure micro-benchmarks (Bechamel)";
  let open Bechamel in
  let w = Workloads.find_exn "mcf" in
  let prog = Opt.optimize (Minic.compile w.Core.Workload.source) in
  let asm = Backend.compile prog in
  let ir_compiled = Vm.Ir_exec.compile prog in
  let llfi = Core.Llfi.prepare ~inputs:w.inputs prog in
  let pinfi = Core.Pinfi.prepare ~inputs:w.inputs asm in
  let rng = Support.Rng.of_int 3 in
  let tests =
    [
      (* One Test.make per reproduced artifact: what it costs to build
         the data behind each table/figure. *)
      Test.make ~name:"tableII:frontend+optimize"
        (Staged.stage (fun () ->
             ignore (Opt.optimize (Minic.compile w.Core.Workload.source))));
      Test.make ~name:"tableI:backend-compile"
        (Staged.stage (fun () -> ignore (Backend.compile prog)));
      Test.make ~name:"tableIV:llfi-profile-run"
        (Staged.stage (fun () ->
             let counts = Array.make 32 0 in
             ignore
               (Vm.Ir_exec.run ~inputs:w.inputs (Profile counts) ir_compiled)));
      Test.make ~name:"tableIV:pinfi-profile-run"
        (Staged.stage (fun () ->
             let counts = Array.make 32 0 in
             ignore
               (Vm.X86_exec.run ~inputs:w.inputs (Profile counts)
                  pinfi.Core.Pinfi.loaded)));
      Test.make ~name:"fig3/fig4:llfi-injection-run"
        (Staged.stage (fun () ->
             ignore (Core.Llfi.inject llfi Core.Category.All (Support.Rng.split rng))));
      Test.make ~name:"tableV:pinfi-injection-run"
        (Staged.stage (fun () ->
             ignore
               (Core.Pinfi.inject pinfi Core.Category.All (Support.Rng.split rng))));
    ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.3) ~kde:(Some 100) ()
  in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ])
      in
      let results =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                       ~predictors:[| Measure.run |])
          (Toolkit.Instance.monotonic_clock) results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
            Printf.printf "  %-32s %12.1f ns/run\n" name est
          | _ -> Printf.printf "  %-32s (no estimate)\n" name)
        results)
    tests

(* ----------------------------------------------------------------- *)
(* Differential fuzzing throughput                                    *)
(* ----------------------------------------------------------------- *)

(* Informational (not ratio-gated): how fast the differential oracle
   chews through generated programs — the number that decides how
   large a FUZZ_BUDGET the CI fuzz smoke can afford.  Any divergence
   or invalid program here is a hard failure: the campaign at these
   seeds is clean on a healthy build (test_fuzz.ml checks the same
   property over its own seed range). *)
let fuzz_throughput () =
  section "Differential fuzzing: oracle throughput";
  let count =
    match Sys.getenv_opt "BENCH_FUZZ_N" with
    | Some s -> (try max 10 (int_of_string s) with _ -> 100)
    | None -> 100
  in
  let t0 = Unix.gettimeofday () in
  let summary = Fuzz.campaign ~seed:0 ~count () in
  let secs = Unix.gettimeofday () -. t0 in
  let per_sec = float_of_int count /. secs in
  Printf.printf
    "  %d programs (%d MiniC, %d IR), %d stage comparisons in %.2fs (%.0f \
     programs/s)\n"
    count summary.Fuzz.s_minic summary.Fuzz.s_ir summary.Fuzz.s_stages secs
    per_sec;
  if summary.Fuzz.s_findings <> [] then
    bench_failures := "fuzz: generated programs diverged on HEAD" :: !bench_failures;
  if summary.Fuzz.s_invalid > 0 then
    bench_failures := "fuzz: generator produced invalid programs" :: !bench_failures;
  bench_json "FUZZ"
    (Printf.sprintf
       "{\"programs\": %d, \"stages\": %d, \"secs\": %.3f, \
        \"programs_per_sec\": %.1f}"
       count summary.Fuzz.s_stages secs per_sec)

(* ----------------------------------------------------------------- *)
(* Campaign service: warm-pool amortization                           *)
(* ----------------------------------------------------------------- *)

(* The service's pitch is that preparation (compile both levels,
   golden-run, profile) is paid once per workload, after which every
   job runs only its trials on the warm pool.  The cold baseline is
   what N separate CLI invocations of the same jobs pay: a fresh
   prepare per job, then the same trials sequentially.  Warm >= 3x
   cold is a hard floor (not just a baseline ratio): if the prepared
   cache or the DLS runner cache stops amortizing, the service has
   lost its reason to exist.  Byte-identity of a served job against
   its cold run is re-checked here and attested in the summary. *)
let serve_throughput () =
  section "Campaign service: warm-pool jobs vs cold per-job preparation";
  (* Job size is deliberately fixed and small: the amortization claim
     is about many short interactive jobs, where preparation would
     dominate a cold run — it is not a scale knob, so BENCH_TRIALS
     does not stretch it.  bzip2 has the steepest prepare-to-trial
     cost ratio of the suite, i.e. it is the workload the service
     exists for.  One shard per cell (chunk = trials): with many jobs
     in flight, cross-job concurrency already fills the pool, and
     splitting tiny cells would only multiply the per-shard
     fast-forward setup both paths pay. *)
  let serve_trials = 2 in
  let n_jobs = 16 in
  let concurrency = max 2 (min 4 jobs) in
  let workload = "bzip2" in
  let job_of i =
    {
      Serve.Wire.j_workload = workload;
      j_tools = [ Core.Campaign.Llfi_tool ];
      j_categories = [ Core.Category.All ];
      j_model = Core.Fault_model.Bitflip;
      j_trials = serve_trials;
      j_seed = 9000 + i;
      j_out = None;
    }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let run_cold (job : Serve.Wire.job) =
    let cfg =
      Serve.Plan.config_for ~base:config ~model:job.Serve.Wire.j_model
        ~trials:job.Serve.Wire.j_trials ~seed:job.Serve.Wire.j_seed
    in
    let p = Core.Campaign.prepare cfg (Workloads.find_exn workload) in
    Core.Campaign.to_csv
      (List.map
         (fun (tool, category) -> Core.Campaign.run_cell cfg p tool category)
         (Serve.Plan.cells job))
  in
  let cold_csvs, cold_s =
    time (fun () -> List.init n_jobs (fun i -> run_cold (job_of i)))
  in
  let dir = Filename.temp_file "fi-serve-bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let sconfig =
    {
      (Serve.Server.default ~socket) with
      Serve.Server.pool_size = jobs;
      chunk = Some serve_trials;
      base = config;
    }
  in
  let ready = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        Serve.Server.run ~on_ready:(fun () -> Atomic.set ready true) sconfig)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.005
  done;
  let addr = Serve.Client.Unix_sock socket in
  (* untimed warm-up: fills the prepared cache, exactly like a running
     service that has seen the workload before *)
  let c = Serve.Client.connect addr in
  (match Serve.Client.submit c (job_of 0) with
  | Ok _ -> ()
  | Error e -> failwith ("serve bench warm-up: " ^ e));
  let stats = Serve.Client.loadgen addr ~jobs:n_jobs ~concurrency ~job_of in
  (* a served job must stream byte-for-byte what its cold run computed
     (same seed -> the cell cache replays it; the digest seals it) *)
  let identical =
    match Serve.Client.submit c (job_of 1) with
    | Ok r -> String.equal r.Serve.Client.r_csv (List.nth cold_csvs 1)
    | Error e -> failwith ("serve bench identity check: " ^ e)
  in
  Serve.Client.shutdown c ~drain:true;
  Serve.Client.close c;
  let _stats = Domain.join domain in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let warm_s = stats.Serve.Client.l_wall in
  let warm_speedup = if warm_s > 0.0 then cold_s /. warm_s else 0.0 in
  Printf.printf "  cold (prepare per job, sequential): %6.2fs for %d jobs\n"
    cold_s n_jobs;
  Printf.printf "  warm (service, %d-way clients):     %6.2fs for %d jobs\n"
    concurrency warm_s stats.Serve.Client.l_jobs;
  Printf.printf
    "  throughput: %.1f jobs/s   latency p50 %.0fms  p99 %.0fms  mean %.0fms\n"
    stats.Serve.Client.l_jobs_per_s stats.Serve.Client.l_p50_ms
    stats.Serve.Client.l_p99_ms stats.Serve.Client.l_mean_ms;
  Printf.printf "  warm speedup: %.2fx — CSV byte-identical: %b\n" warm_speedup
    identical;
  bench_json "SERVE"
    (Printf.sprintf
       "{\"jobs\": %d, \"concurrency\": %d, \"trials\": %d, \"pool\": %d, \
        \"cold_s\": %.3f, \"warm_s\": %.3f, \"warm_speedup\": %.3f, \
        \"jobs_per_s\": %.2f, \"p50_ms\": %.1f, \"p99_ms\": %.1f, \
        \"identical\": %b}"
       n_jobs concurrency serve_trials jobs cold_s warm_s warm_speedup
       stats.Serve.Client.l_jobs_per_s stats.Serve.Client.l_p50_ms
       stats.Serve.Client.l_p99_ms identical);
  if stats.Serve.Client.l_failed > 0 then
    bench_failures :=
      Printf.sprintf "serve: %d of %d load-test jobs failed"
        stats.Serve.Client.l_failed n_jobs
      :: !bench_failures;
  if not identical then
    bench_failures :=
      "serve: served CSV diverges from the cold offline run" :: !bench_failures;
  if warm_speedup < 3.0 then
    bench_failures :=
      Printf.sprintf
        "serve: warm-pool speedup %.2fx is below the 3x amortization floor"
        warm_speedup
      :: !bench_failures

(* ----------------------------------------------------------------- *)
(* Fault models: per-model trial cost                                  *)
(* ----------------------------------------------------------------- *)

(* The fault-model axis must be free: every model does the same
   plan-then-execute trial as a bitflip, differing only in how the
   drawn target word is corrupted (a couple of extra RNG draws at
   most).  Throughput is measured in executed steps per second, not
   trials per second, because the models legitimately shift the
   outcome mix — a skipped loop-counter update runs to the hang bound
   where a flipped one crashes early — so trial wall conflates model
   cost with outcome shape; steps/s isolates the per-step price of the
   model dispatch in the trial hot loop, which is what the gate is
   about.  Interleaved rounds with per-round ratios, same rationale as
   the diagnose/obs sections: machine-load drift cancels out of a
   quotient of adjacent runs.  Gate at 10%.  The identity attestation
   re-checks, per model, that the closure tables and the tree-walking
   reference agree on the full campaign CSV byte for byte. *)
let model_overhead () =
  section "Fault models: per-model step throughput vs the bitflip baseline";
  let w = Workloads.find_exn "mcf" in
  let mk model =
    { config with Core.Campaign.trials = max 100 (trials / 3); model }
  in
  List.iter
    (fun m ->
      let csv compile =
        Core.Campaign.to_csv
          (Core.Campaign.run_all { (mk m) with Core.Campaign.compile } [ w ])
      in
      if not (String.equal (csv true) (csv false)) then
        failwith
          (Printf.sprintf
             "model_overhead: %s campaign CSV diverges between the closure \
              tables and the reference"
             (Core.Fault_model.name m)))
    Core.Fault_model.all;
  let prog = Opt.optimize (Minic.compile w.Core.Workload.source) in
  let llfi = Core.Llfi.prepare ~compile:true ~inputs:w.inputs prog in
  let pinfi =
    Core.Pinfi.prepare ~compile:true ~inputs:w.inputs (Backend.compile prog)
  in
  let n = max 60 (trials / 2) in
  let sps model =
    Gc.compact ();
    let steps = ref 0 in
    let t0 = Unix.gettimeofday () in
    let rng = Support.Rng.of_int 41 in
    for _ = 1 to n do
      let s = Core.Llfi.inject ~model llfi Core.Category.All (Support.Rng.split rng) in
      steps := !steps + s.Vm.Outcome.steps
    done;
    let rng = Support.Rng.of_int 43 in
    for _ = 1 to n do
      let s = Core.Pinfi.inject ~model pinfi Core.Category.All (Support.Rng.split rng) in
      steps := !steps + s.Vm.Outcome.steps
    done;
    let secs = Unix.gettimeofday () -. t0 in
    if secs > 0.0 then float_of_int !steps /. secs else 0.0
  in
  let others =
    List.filter
      (fun m -> not (Core.Fault_model.equal m Core.Fault_model.Bitflip))
      Core.Fault_model.all
  in
  let ratios = Array.make (List.length others) infinity in
  let base_sps = ref 0.0 in
  for _ = 1 to 4 do
    let b = sps Core.Fault_model.Bitflip in
    base_sps := max !base_sps b;
    List.iteri
      (fun i m ->
        let s = sps m in
        if b > 0.0 && s > 0.0 then ratios.(i) <- min ratios.(i) (b /. s))
      others
  done;
  let ratios = Array.map (fun r -> if r < infinity then r else 1.0) ratios in
  Printf.printf "  %-14s %8.1f Msteps/s  (baseline)\n" "bitflip"
    (!base_sps /. 1e6);
  List.iteri
    (fun i m ->
      Printf.printf "  %-14s %8.3fx the bitflip step cost\n"
        (Core.Fault_model.name m) ratios.(i))
    others;
  let worst = Array.fold_left max 1.0 ratios in
  Printf.printf
    "  worst overhead: %.3fx — per-model CSV byte-identical to the reference\n"
    worst;
  let key m =
    String.map
      (fun c -> if c = ':' then '_' else c)
      (Core.Fault_model.name m)
  in
  let per_model =
    String.concat ""
      (List.mapi
         (fun i m -> Printf.sprintf "\"%s_ratio\": %.3f, " (key m) ratios.(i))
         others)
  in
  bench_json "MODELS"
    (Printf.sprintf
       "{\"trials\": %d, \"models\": %d, \"base_msteps_per_s\": %.1f, %s\
        \"worst_overhead\": %.3f, \"gate\": 1.10, \"identical\": true}"
       (2 * n)
       (List.length Core.Fault_model.all)
       (!base_sps /. 1e6) per_model worst);
  if worst > 1.10 then
    bench_failures :=
      Printf.sprintf
        "model_overhead: worst per-model overhead %.1f%% over the bitflip \
         baseline (gate: 10%%)"
        ((worst -. 1.0) *. 100.0)
      :: !bench_failures

(* BENCH_ONLY=engine,snapshot selects sections by key; unset runs
   everything.  scripts/bench_gate.sh uses it to run just the gated,
   JSON-emitting sections at a small trial count. *)
let parts : (string * string * (unit -> unit)) list =
  [
    ("campaign", "reproduction campaign", fun () -> ignore (run_campaign ()));
    ("engine", "engine speedup", engine_speedup);
    ("diagnose", "diagnosis overhead", diagnose_overhead);
    ("snapshot", "snapshot speedup", snapshot_speedup);
    ("compile", "compiled execution speedup", compile_speedup);
    ("exhaust", "exhaustive pruning ratio", exhaust_ratio);
    ("obs", "telemetry overhead", obs_overhead);
    ("serve", "campaign service warm pool", serve_throughput);
    ("models", "fault-model overhead", model_overhead);
    ("gep", "ablation: gep folding", ablation_gep_folding);
    ("flags", "ablation: flag bits", ablation_flag_bits);
    ("xmm", "ablation: xmm pruning", ablation_xmm_pruning);
    ("casts", "ablation: cast pruning", ablation_cast_pruning);
    ("inline", "ablation: inlining", ablation_inlining);
    ("latency", "extension: crash latency", extension_crash_latency);
    ("inputs", "robustness: inputs", robustness_inputs);
    ("edc", "extension: edc", extension_edc);
    ("fuzz", "fuzzing: oracle throughput", fuzz_throughput);
    ("micro", "bechamel micro-benchmarks", bechamel_suite);
  ]

let () =
  let only =
    match Sys.getenv_opt "BENCH_ONLY" with
    | None | Some "" -> None
    | Some s -> Some (List.map String.trim (String.split_on_char ',' s))
  in
  List.iter
    (fun (key, name, f) ->
      match only with
      | Some keys when not (List.mem key keys) -> ()
      | _ -> timed name f)
    parts;
  print_endline "\nDone.  See EXPERIMENTS.md for the paper-vs-measured analysis.";
  match !bench_failures with
  | [] -> ()
  | fs ->
    List.iter (fun f -> Printf.eprintf "BENCH FAILURE: %s\n" f) fs;
    exit 1
