(* Benchmark harness: the wall-clock perf gates, the ablation studies
   for the design choices called out in DESIGN.md, and the extension
   studies.  The paper's tables and figures come from [fi campaign].

     dune exec bench/main.exe                     # every section
     BENCH_ONLY=engine,serve dune exec bench/main.exe  # chosen sections
     BENCH_TRIALS=1000 dune exec bench/main.exe   # trials per cell

   Every gated section follows one rule.  Its arms run alternately in
   this process, a few rounds each, and the gate is the median over
   rounds of one arm's cost over another's, held to an absolute bound.
   No baseline is committed: both arms share the host and the moment,
   so machine speed and load drift cancel out of each round's
   quotient, and one noisy round cannot move the median.  A failed
   gate makes the process exit non-zero (scripts/bench_gate.sh).

   Claims about work rather than time (steps skipped by fast-forward,
   faults settled by pruning) are exact counts, pinned in
   [dune runtest]. *)

let trials =
  match Sys.getenv_opt "BENCH_TRIALS" with
  | Some s -> (try max 10 (int_of_string s) with _ -> 150)
  | None -> 150

let config = { Core.Campaign.default_config with trials }

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* Every top-level part is timed so a full run doubles as a wall-clock
   profile of the harness itself. *)
let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "\n[wall-clock] %s: %.1fs\n%!" name (Unix.gettimeofday () -. t0);
  r

(* ----------------------------------------------------------------- *)
(* Part 1: wall-clock gates on paired in-process ratios               *)
(* ----------------------------------------------------------------- *)

(* Failures collected here turn into a non-zero exit at the end, so CI
   can gate on bench regressions without parsing the report. *)
let bench_failures : string list ref = ref []

(* Run [arms] in order, once each per round, for [rounds] rounds.  An
   arm returns the units of work it did (1 for a whole run); its cost
   in a round is seconds per unit.  Within one round the arms run
   seconds apart, so load drift on the host hits them alike.  The heap
   is compacted before each timing so one arm never pays for major
   garbage another left behind. *)
let paired_rounds ~rounds arms =
  let once f =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let units = Sys.opaque_identity (f ()) in
    (Unix.gettimeofday () -. t0) /. float_of_int (max 1 units)
  in
  List.init rounds (fun _ -> List.map once arms)

(* The median and the spread (min, max) over rounds of arm [num]'s cost
   over arm [den]'s. *)
let ratio rounds ~num ~den =
  let rs =
    List.sort compare
      (List.map (fun costs -> List.nth costs num /. List.nth costs den) rounds)
  in
  let n = List.length rs in
  (List.nth rs (n / 2), List.hd rs, List.nth rs (n - 1))

(* The best cost of arm [k] over all rounds. *)
let best rounds k =
  List.fold_left (fun acc costs -> min acc (List.nth costs k)) infinity rounds

type bound = At_most of float | At_least of float

(* Print one gated ratio and record a failure if its median misses the
   bound. *)
let gate name (median, lo, hi) bound =
  let ok, rel, b =
    match bound with
    | At_most b -> (median <= b, "<=", b)
    | At_least b -> (median >= b, ">=", b)
  in
  Printf.printf "  %-30s median %.3fx  (rounds %.3f-%.3f)  gate %s %.2f  %s\n"
    name median lo hi rel b
    (if ok then "ok" else "FAIL");
  if not ok then
    bench_failures :=
      Printf.sprintf "%s: median %.3fx, gate %s %.2fx" name median rel b
      :: !bench_failures

(* An arm timed as one unit: the whole run. *)
let whole f () =
  ignore (Sys.opaque_identity (f ()));
  1

(* Execution engine: the sequential campaign against the scheduler at
   jobs 2 and 4, same cells.  Below 1.0x the batching and pool
   machinery costs more than it returns, a failure on any host.  With
   two or more cores, jobs 2 must clear 1.5x.  Jobs 4 must reach
   0.75x per core the scheduler can use. *)
let engine_speedup () =
  section "Execution engine: sequential campaign vs 2- and 4-domain pool";
  let subset = [ Workloads.find_exn "mcf"; Workloads.find_exn "libquantum" ] in
  let rounds =
    paired_rounds ~rounds:5
      [
        whole (fun () -> Core.Campaign.run_all config subset);
        whole (fun () -> Engine.Scheduler.run ~jobs:2 config subset);
        whole (fun () -> Engine.Scheduler.run ~jobs:4 config subset);
      ]
  in
  let cores = Engine.Pool.default_size () in
  Printf.printf "  best: sequential %.2fs  jobs=2 %.2fs  jobs=4 %.2fs  (%d cores)\n"
    (best rounds 0) (best rounds 1) (best rounds 2) cores;
  let speedup2 = ratio rounds ~num:0 ~den:1 in
  gate "speedup at jobs=2" speedup2 (At_least 1.0);
  if cores >= 2 then gate "speedup at jobs=2, >=2 cores" speedup2 (At_least 1.5);
  let per_core (m, lo, hi) =
    let c = float_of_int (min 4 cores) in
    (m /. c, lo /. c, hi /. c)
  in
  gate "speedup per core at jobs=4" (per_core (ratio rounds ~num:0 ~den:2))
    (At_least 0.75)

(* Hooks switched on against the same [Engine.Scheduler.run ~jobs:1]
   call with them off (the hook-free post-fault loop), 7 rounds.  The
   floor of 100 trials keeps each run long enough that the scheduler's
   fixed per-cell costs stay inside the gate. *)
let overhead ~name ~bound ~run_on =
  let subset = [ Workloads.find_exn "mcf" ] in
  let cfg = { config with trials = max 100 (trials / 3) } in
  let rounds =
    paired_rounds ~rounds:7
      [
        whole (fun () -> Engine.Scheduler.run ~jobs:1 cfg subset);
        whole (fun () -> run_on cfg subset);
      ]
  in
  Printf.printf "  best: hooks off %.2fs  on %.2fs  (%d trials per cell)\n"
    (best rounds 0) (best rounds 1) cfg.Core.Campaign.trials;
  gate name (ratio rounds ~num:1 ~den:0) (At_most bound)

(* Diagnosis capture: first-use tracking plus a record sink. *)
let diagnose_overhead () =
  section "Diagnosis capture: overhead enabled vs hooks off";
  overhead ~name:"capture on / off" ~bound:1.23 ~run_on:(fun cfg subset ->
      let sink = Diagnose.Sink.create () in
      let r =
        Engine.Scheduler.run ~jobs:1
          ~observe:(fun ~workload ~tool ~category ~trial verdict stats ->
            Diagnose.Sink.add sink
              (Diagnose.Record.of_stats ~workload ~tool ~category ~trial
                 verdict stats))
          ~track_use:true cfg subset
      in
      ignore (Diagnose.Sink.to_string sink);
      r)

(* Telemetry: spans plus metrics.  With no --trace/--metrics/--manifest
   flag every instrumentation site is a boolean load, so the hooks-off
   arm is the disabled path itself. *)
let obs_overhead () =
  section "Telemetry: overhead enabled vs off";
  Obs.Trace.reset ();
  Obs.Metrics.reset ();
  overhead ~name:"telemetry on / off" ~bound:1.16 ~run_on:(fun cfg subset ->
      Obs.Trace.enable ();
      Obs.Metrics.enable ();
      let r = Engine.Scheduler.run ~jobs:1 cfg subset in
      ignore (Sys.opaque_identity (Obs.Trace.skeleton (Obs.Trace.forest ())));
      ignore (Sys.opaque_identity (Obs.Metrics.snapshot ()));
      Obs.Trace.reset ();
      Obs.Metrics.reset ();
      r)

(* Campaign service: preparation (compile both levels, golden run,
   profile) is paid once per workload, after which every job runs only
   its trials on the warm pool.  The cold arm is what separate CLI
   invocations of the same jobs pay: a fresh prepare per job, then the
   same trials sequentially.  Warm >= 3x cold: if the prepared cache or
   the per-domain runner cache stops amortizing, the service has lost
   its reason to exist.  Jobs are small and fixed (many short
   interactive jobs are the claim, so BENCH_TRIALS does not stretch
   them), on bzip2, the workload with the steepest prepare-to-trial
   cost ratio, one shard per cell.  Each round submits fresh seeds, so
   the server's cell cache never replays a job. *)
let serve_throughput () =
  section "Campaign service: warm-pool jobs vs cold per-job preparation";
  let serve_trials = 2 and n_jobs = 16 and workload = "bzip2" in
  let job_of seed =
    {
      Serve.Wire.j_workload = workload;
      j_tools = [ Core.Campaign.Llfi_tool ];
      j_categories = [ Core.Category.All ];
      j_model = Core.Fault_model.Bitflip;
      j_trials = serve_trials;
      j_seed = seed;
      j_out = None;
    }
  in
  let run_cold (job : Serve.Wire.job) =
    let cfg =
      Serve.Plan.config_for ~base:config ~model:job.Serve.Wire.j_model
        ~trials:job.Serve.Wire.j_trials ~seed:job.Serve.Wire.j_seed
    in
    let p = Core.Campaign.prepare cfg (Workloads.find_exn workload) in
    List.map
      (fun (tool, category) -> Core.Campaign.run_cell cfg p tool category)
      (Serve.Plan.cells job)
  in
  let dir = Filename.temp_file "fi-serve-bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let sconfig =
    {
      (Serve.Server.default ~socket) with
      Serve.Server.pool_size = 2;
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
  (match Serve.Client.submit c (job_of 8999) with
  | Ok _ -> ()
  | Error e -> failwith ("serve bench warm-up: " ^ e));
  let round = ref 0 in
  let failed = ref 0 in
  let rounds =
    paired_rounds ~rounds:7
      [
        (fun () ->
          incr round;
          for i = 0 to n_jobs - 1 do
            ignore (run_cold (job_of ((1000 * !round) + i)))
          done;
          1);
        (fun () ->
          let stats =
            Serve.Client.loadgen addr ~jobs:n_jobs ~concurrency:2
              ~job_of:(fun i -> job_of ((1000 * !round) + i))
          in
          failed := !failed + stats.Serve.Client.l_failed;
          1);
      ]
  in
  Serve.Client.shutdown c ~drain:true;
  Serve.Client.close c;
  let _stats = Domain.join domain in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  Printf.printf "  best, %d jobs: cold %.2fs  warm %.2fs (2 connections)\n"
    n_jobs (best rounds 0) (best rounds 1);
  if !failed > 0 then
    bench_failures :=
      Printf.sprintf "serve: %d load-test jobs failed" !failed :: !bench_failures;
  gate "warm speedup (cold / warm)" (ratio rounds ~num:0 ~den:1)
    (At_least 3.0)

(* The fault-model axis must be free: every model does the same
   plan-then-execute trial as a bitflip, differing only in how the
   drawn target word is corrupted (a couple of extra RNG draws at
   most).  Cost is seconds per executed step, not per trial, because
   the models legitimately shift the outcome mix — a skipped
   loop-counter update runs to the hang bound where a flipped one
   crashes early — so trial wall conflates model cost with outcome
   shape.  Each model's median cost over the bitflip's stays within
   10%. *)
let model_overhead () =
  section "Fault models: per-model step cost vs the bitflip baseline";
  let w = Workloads.find_exn "mcf" in
  let prog = Opt.optimize (Minic.compile w.Core.Workload.source) in
  let llfi = Core.Llfi.prepare ~inputs:w.inputs prog in
  let pinfi = Core.Pinfi.prepare ~inputs:w.inputs (Backend.compile prog) in
  let n = max 60 (trials / 2) in
  let steps_of model () =
    let steps = ref 0 in
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
    !steps
  in
  (* Each model's arm runs right after a bitflip arm of its own, so
     every ratio is of two adjacent timings.  [Fault_model.all] starts
     with the bitflip. *)
  let others = List.tl Core.Fault_model.all in
  let rounds =
    paired_rounds ~rounds:7
      (List.concat_map
         (fun m -> [ steps_of Core.Fault_model.Bitflip; steps_of m ])
         others)
  in
  Printf.printf "  %-30s %.1f Msteps/s (best)\n" "bitflip"
    (1e-6 /. best rounds 0);
  List.iteri
    (fun k m ->
      gate
        (Core.Fault_model.name m ^ " / bitflip")
        (ratio rounds ~num:((2 * k) + 1) ~den:(2 * k))
        (At_most 1.10))
    others

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


(* BENCH_ONLY=engine,serve selects sections by key; unset runs
   everything.  scripts/bench_gate.sh uses it to run the gated
   sections. *)
let parts : (string * string * (unit -> unit)) list =
  [
    ("engine", "engine speedup", engine_speedup);
    ("diagnose", "diagnosis overhead", diagnose_overhead);
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
    List.iter (fun f -> Printf.eprintf "BENCH FAILURE: %s\n" f) (List.rev fs);
    exit 1
