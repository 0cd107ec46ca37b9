(* Tests for the study's core: categories, classification by both
   injectors, verdicts, campaign mechanics and determinism. *)

let mcf = Workloads.find_exn "mcf"

let small_config = { Core.Campaign.default_config with trials = 25 }

let prepared = lazy (Core.Campaign.prepare small_config mcf)

(* --- Category --- *)

let test_category_bits_distinct () =
  let masks = List.map Core.Category.mask Core.Category.all in
  let distinct = List.sort_uniq compare masks in
  Alcotest.(check int) "distinct masks" (List.length masks) (List.length distinct);
  List.iter
    (fun c ->
      match Core.Category.of_string (Core.Category.name c) with
      | Some c' when c = c' -> ()
      | _ -> Alcotest.failf "roundtrip failed for %s" (Core.Category.name c))
    Core.Category.all

let test_category_totals () =
  (* Mask 0b10001 counts toward Arithmetic and All. *)
  let counts = Array.make 32 0 in
  counts.(Core.Category.mask Core.Category.Arithmetic
          lor Core.Category.mask Core.Category.All) <- 7;
  counts.(Core.Category.mask Core.Category.Load) <- 3;
  let totals = Core.Category.totals_of_mask_counts counts in
  Alcotest.(check int) "arith" 7 (List.assoc Core.Category.Arithmetic totals);
  Alcotest.(check int) "all" 7 (List.assoc Core.Category.All totals);
  Alcotest.(check int) "load" 3 (List.assoc Core.Category.Load totals);
  Alcotest.(check int) "cmp" 0 (List.assoc Core.Category.Cmp totals)

(* --- LLFI classification --- *)

let classify_src src =
  let prog = Opt.optimize (Minic.compile src) in
  let f = Ir.Prog.main prog in
  let classify = Core.Llfi.classify Core.Llfi.default_config f in
  (f, classify)

let test_llfi_classify_categories () =
  let f, classify =
    classify_src
      {|
      double gd = 1.5;
      int gi = 3;
      void main() {
        double d = gd * 2.0;           // load + fbinop
        int x = gi + (int)d;           // load + fptosi cast + binop
        if (x > 4) { print_int(x); } else { print_double(d); }
      }
      |}
  in
  let seen = Hashtbl.create 8 in
  Ir.Func.iter_instrs
    (fun i ->
      let mask = classify i in
      List.iter
        (fun c ->
          if mask land Core.Category.mask c <> 0 then Hashtbl.replace seen c ())
        Core.Category.all)
    f;
  List.iter
    (fun c ->
      if not (Hashtbl.mem seen c) then
        Alcotest.failf "category %s never assigned" (Core.Category.name c))
    [ Core.Category.Arithmetic; Core.Category.Cast; Core.Category.Cmp;
      Core.Category.Load; Core.Category.All ]

let test_llfi_skips_dead_destinations () =
  (* A store has no destination: mask must be 0.  Pointer casts are
     excluded from 'cast' under the default config. *)
  let _, classify =
    classify_src
      {|
      int g = 0;
      void main() {
        int *p = (int*) alloc(8);   // bitcast: not a conversion cast
        *p = 4;
        g = *p;
        print_int(g);
      }
      |}
  in
  let prog = Opt.optimize (Minic.compile "void main() { print_int(1); }") in
  ignore prog;
  ignore classify

let test_llfi_cast_pruning () =
  let src =
    {|
    void main() {
      int *p = (int*) alloc(16);
      p[0] = 42;
      double d = (double) p[0];
      print_double(d);
    }
    |}
  in
  let count config =
    let prog = Opt.optimize (Minic.compile src) in
    let f = Ir.Prog.main prog in
    let classify = Core.Llfi.classify config f in
    Ir.Func.fold_instrs
      (fun acc i ->
        if classify i land Core.Category.mask Core.Category.Cast <> 0 then acc + 1
        else acc)
      0 f
  in
  let pruned = count Core.Llfi.default_config in
  let unpruned =
    count { Core.Llfi.default_config with conversion_casts_only = false }
  in
  Alcotest.(check bool) "pruning reduces cast candidates" true (pruned <= unpruned);
  Alcotest.(check bool) "conversion cast still counted" true (pruned >= 1)

(* --- PINFI classification --- *)

let test_pinfi_classify () =
  let prog = Opt.optimize (Minic.compile mcf.Core.Workload.source) in
  let asm = Backend.compile prog in
  let insns = asm.Backend.Program.insns in
  Array.iteri
    (fun i insn ->
      let mask = Core.Pinfi.classify asm i insn in
      let has c = mask land Core.Category.mask c <> 0 in
      (* Any categorized instruction must also be in 'all'. *)
      if mask <> 0 && not (has Core.Category.All) then
        Alcotest.failf "instruction %d categorized but not in 'all'" i;
      (* Syscalls, stores, pushes and branches are never candidates. *)
      (match insn with
      | X86.Insn.Syscall _ | X86.Insn.Store _ | X86.Insn.Store_imm _
      | X86.Insn.Store_sd _ | X86.Insn.Push _ | X86.Insn.Jmp _
      | X86.Insn.Call _ | X86.Insn.Ret ->
        if has Core.Category.All && not (has Core.Category.Cmp) then
          Alcotest.failf "non-candidate instruction %d in 'all'" i
      | _ -> ());
      (* The cmp category requires a following conditional jump. *)
      if has Core.Category.Cmp then begin
        if not (X86.Insn.writes_flags insn) then
          Alcotest.failf "cmp-category instruction %d does not write flags" i;
        match insns.(i + 1) with
        | X86.Insn.Jcc _ -> ()
        | _ -> Alcotest.failf "cmp-category instruction %d not before jcc" i
      end;
      (* Loads are mov-with-memory-source. *)
      if has Core.Category.Load then
        match insn with
        | X86.Insn.Mov (_, X86.Insn.Mem _)
        | X86.Insn.Movzx (_, _, X86.Insn.Mem _)
        | X86.Insn.Movsx (_, _, X86.Insn.Mem _)
        | X86.Insn.Movsd (_, X86.Insn.Xmem _) ->
          ()
        | _ -> Alcotest.failf "load-category instruction %d is not a load" i)
    insns

(* --- Verdict --- *)

let stats outcome ~injected ~activated =
  { Vm.Outcome.outcome; steps = 1; injected; activated; fault_note = "";
    fault_bit = -1;
    injected_step = (if injected then 0 else -1);
    fault_site = (if injected then 0 else -1);
    first_use = Vm.First_use.Unone }

let test_verdict_classification () =
  let golden_output = "expected" in
  let check name expected st =
    Alcotest.(check string)
      name
      (Core.Verdict.name expected)
      (Core.Verdict.name (Core.Verdict.of_run ~golden_output st))
  in
  check "benign" Core.Verdict.Benign
    (stats (Vm.Outcome.Finished "expected") ~injected:true ~activated:true);
  check "sdc" Core.Verdict.Sdc
    (stats (Vm.Outcome.Finished "corrupted") ~injected:true ~activated:true);
  check "crash" Core.Verdict.Crash
    (stats (Vm.Outcome.Crashed Vm.Trap.Division_by_zero) ~injected:true
       ~activated:true);
  check "hang" Core.Verdict.Hang
    (stats Vm.Outcome.Hung ~injected:true ~activated:true);
  check "not activated" Core.Verdict.Not_activated
    (stats (Vm.Outcome.Finished "expected") ~injected:true ~activated:false);
  check "not injected" Core.Verdict.Not_injected
    (stats (Vm.Outcome.Finished "expected") ~injected:false ~activated:false)

let test_tally_rates () =
  let t = Core.Verdict.fresh_tally () in
  List.iter (Core.Verdict.add t)
    [ Core.Verdict.Sdc; Core.Verdict.Sdc; Core.Verdict.Crash;
      Core.Verdict.Benign; Core.Verdict.Not_activated ];
  Alcotest.(check int) "trials" 5 t.Core.Verdict.trials;
  Alcotest.(check int) "activated" 4 (Core.Verdict.activated t);
  Alcotest.(check (float 1e-9)) "sdc rate among activated" 0.5
    (Core.Verdict.sdc_rate t);
  Alcotest.(check (float 1e-9)) "crash rate" 0.25 (Core.Verdict.crash_rate t)

(* --- Campaign --- *)

let test_prepare_golden_match () =
  let p = Lazy.force prepared in
  Alcotest.(check string) "golden outputs equal at both levels"
    p.Core.Campaign.llfi.Core.Llfi.golden_output
    p.Core.Campaign.pinfi.Core.Pinfi.golden_output

let test_campaign_deterministic () =
  let p = Lazy.force prepared in
  let run () =
    let cell =
      Core.Campaign.run_cell small_config p Core.Campaign.Llfi_tool
        Core.Category.Load
    in
    let t = cell.Core.Campaign.c_tally in
    (t.Core.Verdict.sdc, t.crash, t.benign, t.hang)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical tallies for identical seed" true (a = b)

let test_campaign_seed_changes_results () =
  let p = Lazy.force prepared in
  let run seed =
    let config = { small_config with seed; trials = 60 } in
    let cell =
      Core.Campaign.run_cell config p Core.Campaign.Llfi_tool Core.Category.All
    in
    let t = cell.Core.Campaign.c_tally in
    (t.Core.Verdict.sdc, t.crash, t.benign)
  in
  Alcotest.(check bool) "different seeds give different tallies" true
    (run 1 <> run 2)

let test_campaign_counts_trials () =
  let p = Lazy.force prepared in
  let cell =
    Core.Campaign.run_cell small_config p Core.Campaign.Pinfi_tool
      Core.Category.Arithmetic
  in
  Alcotest.(check int) "all trials accounted" small_config.trials
    cell.Core.Campaign.c_tally.Core.Verdict.trials;
  Alcotest.(check bool) "population profiled" true (cell.c_population > 0)

let test_injection_changes_behavior_sometimes () =
  let p = Lazy.force prepared in
  let cell =
    Core.Campaign.run_cell
      { small_config with trials = 40 }
      p Core.Campaign.Llfi_tool Core.Category.All
  in
  let t = cell.Core.Campaign.c_tally in
  Alcotest.(check bool) "some faults are not benign" true
    (t.Core.Verdict.sdc + t.crash + t.hang > 0)

let test_csv_export () =
  let p = Lazy.force prepared in
  let cell =
    Core.Campaign.run_cell small_config p Core.Campaign.Llfi_tool
      Core.Category.Cmp
  in
  let csv = Core.Campaign.to_csv [ cell ] in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check int) "header + row + newline" 3 (List.length lines);
  Alcotest.(check bool) "mentions workload" true
    (String.length csv > 0
    &&
    let re = Str.regexp_string "mcf,LLFI,cmp" in
    (try ignore (Str.search_forward re csv 0); true with Not_found -> false))

(* --- Activation tracking (PINFI) --- *)

let test_pinfi_activation_high () =
  (* The paper's heuristics exist to keep activation high; check that the
     vast majority of PINFI faults are activated. *)
  let p = Lazy.force prepared in
  let cell =
    Core.Campaign.run_cell
      { small_config with trials = 100 }
      p Core.Campaign.Pinfi_tool Core.Category.All
  in
  let t = cell.Core.Campaign.c_tally in
  let activated = Core.Verdict.activated t in
  Alcotest.(check bool)
    (Printf.sprintf "activation rate high (%d/%d)" activated t.trials)
    true
    (float_of_int activated >= 0.85 *. float_of_int t.Core.Verdict.trials)

(* --- Propagation tracing --- *)

let test_traces_are_deterministic () =
  let prog = Opt.optimize (Minic.compile mcf.Core.Workload.source) in
  let compiled = Vm.Ir_exec.compile prog in
  let record () =
    let tr = Vm.Ir_exec.create_trace () in
    ignore (Vm.Ir_exec.run ~inputs:mcf.Core.Workload.inputs ~trace:tr Golden compiled);
    tr
  in
  let a = record () and b = record () in
  Alcotest.(check int) "same length" a.Vm.Ir_exec.t_len b.Vm.Ir_exec.t_len;
  let same = ref true in
  for i = 0 to a.Vm.Ir_exec.t_len - 1 do
    if a.t_gids.(i) <> b.t_gids.(i) || a.t_vals.(i) <> b.t_vals.(i) then
      same := false
  done;
  Alcotest.(check bool) "identical traces" true !same

let test_propagation_reports () =
  let prog = Opt.optimize (Minic.compile mcf.Core.Workload.source) in
  let llfi = Core.Llfi.prepare ~inputs:mcf.Core.Workload.inputs prog in
  let rng = Support.Rng.of_int 31 in
  let diverged = ref 0 in
  for _ = 1 to 12 do
    let r = Core.Propagation.analyze llfi Core.Category.All (Support.Rng.split rng) in
    (* Structural invariants of a report. *)
    (match (r.Core.Propagation.first_divergence, r.control_flow_diverged_at) with
    | Some f, Some c ->
      if c < f then Alcotest.fail "control diverged before first divergence"
    | None, Some _ -> Alcotest.fail "control divergence without any divergence"
    | _ -> ());
    (match r.Core.Propagation.first_divergence with
    | Some f ->
      incr diverged;
      if f > r.golden_length then Alcotest.fail "divergence beyond trace"
    | None ->
      (* A vanished fault must be benign. *)
      if r.outcome <> Core.Verdict.Benign then
        Alcotest.failf "vanished fault classified %s" (Core.Verdict.name r.outcome))
  done;
  Alcotest.(check bool) "some faults propagate" true (!diverged > 0)

let test_benign_faults_can_still_propagate () =
  (* compare_traces on identical traces: no divergence. *)
  let tr = Vm.Ir_exec.create_trace () in
  Vm.Ir_exec.trace_push tr 1 10;
  Vm.Ir_exec.trace_push tr 2 20;
  let first, corrupted, cf = Core.Propagation.compare_traces tr tr in
  Alcotest.(check bool) "no divergence" true
    (first = None && corrupted = 0 && cf = None);
  (* One corrupted value, same control flow. *)
  let tr2 = Vm.Ir_exec.create_trace () in
  Vm.Ir_exec.trace_push tr2 1 10;
  Vm.Ir_exec.trace_push tr2 2 99;
  let first, corrupted, cf = Core.Propagation.compare_traces tr tr2 in
  Alcotest.(check bool) "value divergence at 1" true
    (first = Some 1 && corrupted = 1 && cf = None);
  (* Control-flow divergence. *)
  let tr3 = Vm.Ir_exec.create_trace () in
  Vm.Ir_exec.trace_push tr3 1 10;
  Vm.Ir_exec.trace_push tr3 7 20;
  let first, _, cf = Core.Propagation.compare_traces tr tr3 in
  Alcotest.(check bool) "cf divergence at 1" true (first = Some 1 && cf = Some 1);
  (* Truncated faulty trace (crash) counts as control-flow divergence. *)
  let tr4 = Vm.Ir_exec.create_trace () in
  Vm.Ir_exec.trace_push tr4 1 10;
  let _, _, cf = Core.Propagation.compare_traces tr tr4 in
  Alcotest.(check bool) "truncation is cf divergence" true (cf = Some 1)

(* --- Paper data integrity --- *)

let test_paper_data_complete () =
  List.iter
    (fun w ->
      let name = w.Core.Workload.name in
      if Core.Paper_data.counts_for name = None then
        Alcotest.failf "no Table IV data for %s" name;
      if Core.Paper_data.crash_for name = None then
        Alcotest.failf "no Table V data for %s" name)
    Workloads.all

let test_paper_table4_claims_hold_internally () =
  (* Sanity: the transcribed paper numbers satisfy the paper's own claims. *)
  List.iter
    (fun (r : Core.Paper_data.counts_row) ->
      let llfi_all, pinfi_all = r.p_all in
      Alcotest.(check bool)
        (r.p_bench ^ ": paper LLFI all > PINFI all")
        true (llfi_all > pinfi_all))
    Core.Paper_data.table4

let test_injected_step_recorded () =
  let p = Lazy.force prepared in
  let rng = Support.Rng.of_int 91 in
  for _ = 1 to 15 do
    let s = Core.Llfi.inject p.Core.Campaign.llfi Core.Category.All (Support.Rng.split rng) in
    if s.Vm.Outcome.injected then begin
      if s.Vm.Outcome.injected_step < 0 || s.Vm.Outcome.injected_step > s.Vm.Outcome.steps
      then Alcotest.fail "injected_step outside the run (LLFI)"
    end
    else Alcotest.(check int) "clean run" (-1) s.Vm.Outcome.injected_step;
    let s = Core.Pinfi.inject p.Core.Campaign.pinfi Core.Category.All (Support.Rng.split rng) in
    if s.Vm.Outcome.injected then
      if s.Vm.Outcome.injected_step < 0 || s.Vm.Outcome.injected_step > s.Vm.Outcome.steps
      then Alcotest.fail "injected_step outside the run (PINFI)"
  done

let test_custom_selector_restricts () =
  let w = Workloads.find_exn "raytrace" in
  let prog = Opt.optimize (Minic.compile w.Core.Workload.source) in
  let full = Core.Llfi.prepare ~inputs:w.Core.Workload.inputs prog in
  let restricted =
    Core.Llfi.prepare
      ~config:
        { Core.Llfi.default_config with
          custom_selector = Core.Llfi.in_functions [ "trace" ] }
      ~inputs:w.Core.Workload.inputs prog
  in
  let f = Core.Llfi.dynamic_count full Core.Category.All in
  let r = Core.Llfi.dynamic_count restricted Core.Category.All in
  Alcotest.(check bool) "restriction shrinks the population" true (0 < r && r < f)

(* --- snapshot executor --- *)

(* The snapshot/fast-forward path must be invisible: same tallies, same
   per-trial verdicts, same full stats stream (first-use tracking on),
   per cell, for both tools, as direct from-entry trials on the same
   cell_rng splits. *)
let test_snapshot_matches_direct () =
  let p = Lazy.force prepared in
  List.iter
    (fun tool ->
      List.iter
        (fun category ->
          let acc = ref [] in
          let cell =
            Core.Campaign.run_cell ~track_use:true
              ~on_stats:(fun trial v st -> acc := (trial, v, st) :: !acc)
              small_config p tool category
          in
          let golden_output = Core.Campaign.golden_output p tool in
          let direct =
            List.mapi
              (fun trial st ->
                (trial, Core.Verdict.of_run ~golden_output st, st))
              (Reference.stats ~track_use:true small_config p tool category)
          in
          let name =
            Printf.sprintf "%s/%s"
              (Core.Campaign.tool_name tool)
              (Core.Category.name category)
          in
          Alcotest.(check bool) (name ^ " tally") true
            (cell.Core.Campaign.c_tally
            = (Reference.cell small_config p tool category).Core.Campaign.c_tally);
          Alcotest.(check bool) (name ^ " stats stream") true
            (List.rev !acc = direct))
        Core.Category.all)
    [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ]

(* A runner reused across successive ranges (the scheduler's per-domain
   cache) must merge to exactly the single-shot cell, and a runner from
   another cell must be rejected. *)
let test_snapshot_runner_reuse () =
  let p = Lazy.force prepared in
  let tool = Core.Campaign.Llfi_tool in
  let category = Core.Category.All in
  let whole = Core.Campaign.run_cell small_config p tool category in
  let r = Core.Campaign.runner p tool category in
  let h1 =
    Core.Campaign.run_cell_range ~runner:r small_config p tool category
      ~first:0 ~count:13
  in
  let h2 =
    Core.Campaign.run_cell_range ~runner:r small_config p tool category
      ~first:13 ~count:(small_config.Core.Campaign.trials - 13)
  in
  Alcotest.(check bool) "halves merge to the whole" true
    (Core.Verdict.merge h1.Core.Campaign.c_tally h2.Core.Campaign.c_tally
    = whole.Core.Campaign.c_tally);
  match
    Core.Campaign.run_cell_range ~runner:r small_config p
      Core.Campaign.Pinfi_tool category ~first:0 ~count:1
  with
  | _ -> Alcotest.fail "runner from another cell was accepted"
  | exception Invalid_argument _ -> ()

(* plan_target + inject_at must reproduce inject bit-for-bit even when
   the targets are visited in a hostile (descending) order — the
   fast-forward machine rebuilds itself on non-monotonic targets. *)
let test_ff_trial_any_order () =
  let p = Lazy.force prepared in
  let llfi = p.Core.Campaign.llfi in
  let category = Core.Category.All in
  let rngs () =
    let m = Support.Rng.of_int 99 in
    Array.init 12 (fun _ -> Support.Rng.split m)
  in
  let reference = Array.map (Core.Llfi.inject llfi category) (rngs ()) in
  let r = Core.Llfi.runner llfi category in
  let rngs2 = rngs () in
  let replayed = Array.make (Array.length rngs2) None in
  for i = Array.length rngs2 - 1 downto 0 do
    let target = Core.Llfi.plan_target llfi category rngs2.(i) in
    replayed.(i) <- Some (Core.Llfi.inject_at r ~target rngs2.(i))
  done;
  Array.iteri
    (fun i stats ->
      Alcotest.(check bool)
        (Printf.sprintf "trial %d" i)
        true
        (Some stats = replayed.(i)))
    reference

(* The snapshot executor's work, counted exactly.  A sequential
   mcf+hmmer campaign (all cells, 120 trials) advances its rolling
   machines [vm.{ir,x86}.ff_advance_steps] steps, where from-entry
   trials would run each trial's prefix: the sum of [injected_step].
   Sharing the prefix must at least halve that work.  A runner rebuilt
   per trial advances as much as the from-entry trials run. *)
let test_snapshot_advance_pinned () =
  let config = { Core.Campaign.default_config with trials = 120 } in
  let prefix = Array.make 2 0 in
  let advance =
    Fun.protect ~finally:Obs.Metrics.reset (fun () ->
        Obs.Metrics.reset ();
        Obs.Metrics.enable ();
        List.iter
          (fun name ->
            let p = Core.Campaign.prepare config (Workloads.find_exn name) in
            List.iteri
              (fun k tool ->
                List.iter
                  (fun category ->
                    ignore
                      (Core.Campaign.run_cell
                         ~on_stats:(fun _ _ st ->
                           let s = st.Vm.Outcome.injected_step in
                           if s >= 0 then prefix.(k) <- prefix.(k) + s)
                         config p tool category))
                  Core.Category.all)
              [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ])
          [ "mcf"; "hmmer" ];
        List.filter_map
          (fun (name, v) ->
            match v with
            | Obs.Metrics.Count n
              when String.ends_with ~suffix:".ff_advance_steps" name ->
              Some (name, n)
            | _ -> None)
          (Obs.Metrics.snapshot ()))
  in
  Alcotest.(check (list (pair string int)))
    "rolling-machine advance, pinned"
    [
      ("vm.ir.ff_advance_steps", 1578724); ("vm.x86.ff_advance_steps", 1430972);
    ]
    advance;
  Alcotest.(check (array int)) "from-entry prefixes (LLFI, PINFI), pinned"
    [| 97104255; 85165292 |] prefix;
  let advanced = List.fold_left (fun acc (_, n) -> acc + n) 0 advance in
  Alcotest.(check bool)
    (Printf.sprintf "prefix sum %d >= 2 x advance %d" (prefix.(0) + prefix.(1))
       advanced)
    true
    (prefix.(0) + prefix.(1) >= 2 * advanced)

(* --- fault-model semantics, pinned ---

   Every fault model against every destination lane both VMs corrupt:
   IR integer and f64 results, x86 general-purpose, XMM (64 and 128
   bits) and flags (jump-dependent and all) destinations.  Each lane's
   full stats stream (outcome, steps, fault note, site, injected step,
   first use) over [Fault_model.all] is digested and compared with a
   pinned value, so any change to a model's semantics, its rng draw
   order or its note text shows up here.  The [reach] substring checks that the
   cell really hits its lane. *)

let raytrace = Workloads.find_exn "raytrace"
let prepared_raytrace = lazy (Core.Campaign.prepare small_config raytrace)

(* Both PINFI heuristics off: 128-bit XMM lanes (an inert upper half)
   and flag faults over every modelled flag bit. *)
let prepared_raytrace_wide =
  let policy =
    { Vm.X86_exec.flag_dependent_bits = false; xmm_low64_only = false }
  in
  lazy
    (Core.Campaign.prepare
       { small_config with pinfi = { Core.Pinfi.policy } }
       raytrace)

(* lane, prepared workload, tool, category, reach, pinned digest *)
let lane_cells =
  let open Core.Campaign in
  let open Core.Category in
  [
    ("ir-int", prepared, Llfi_tool, Arithmetic, "-bit result",
     "2ed7c51e9eeeaf1f52730042fbe44552");
    ("ir-f64", prepared_raytrace, Llfi_tool, Arithmetic, "f64 result",
     "055b1d6b07d5ef7604d7d351dd1c22d0");
    ("x86-gp", prepared, Pinfi_tool, Arithmetic, "of r",
     "b0fb5cc67f08db72eaa58b96251168b6");
    ("x86-xmm", prepared_raytrace, Pinfi_tool, Arithmetic, "xmm",
     "9a32098917064a0366f99c6421bf9403");
    ("x86-flags", prepared, Pinfi_tool, Cmp, "flag",
     "6dbd1d5e7d1105e93911156e1e48b9cd");
    ("x86-xmm-128", prepared_raytrace_wide, Pinfi_tool, Arithmetic,
     "(upper half)", "8abda3797da1f44ad1da58b7baa9f87f");
    ("x86-flags-all", prepared_raytrace_wide, Pinfi_tool, Cmp, "flag bit 11",
     "eb071feb8b75dad5a79470322e00d317");
  ]

let outcome_key (st : Vm.Outcome.stats) =
  match st.Vm.Outcome.outcome with
  | Vm.Outcome.Finished out -> "F" ^ Digest.to_hex (Digest.string out)
  | Vm.Outcome.Crashed t -> "C" ^ Vm.Trap.to_string t
  | Vm.Outcome.Hung -> "H"

let stats_line (st : Vm.Outcome.stats) =
  Printf.sprintf "%s|%d|%s|%d|%d|%s\n" (outcome_key st) st.Vm.Outcome.steps
    st.Vm.Outcome.fault_note st.Vm.Outcome.fault_site
    st.Vm.Outcome.injected_step
    (Vm.First_use.name st.Vm.Outcome.first_use)

let contains text sub =
  match Str.search_forward (Str.regexp_string sub) text 0 with
  | _ -> true
  | exception Not_found -> false

let test_fault_models_pinned () =
  let digests =
    List.map
      (fun (lane, p, tool, category, reach, _) ->
        let p = Lazy.force p in
        let buf = Buffer.create 65536 in
        List.iter
          (fun model ->
            let config = { small_config with trials = 20; model } in
            Buffer.add_string buf (Core.Fault_model.name model ^ "\n");
            ignore
              (Core.Campaign.run_cell ~track_use:true
                 ~on_stats:(fun _ _ st -> Buffer.add_string buf (stats_line st))
                 config p tool category))
          Core.Fault_model.all;
        let text = Buffer.contents buf in
        Alcotest.(check bool) (lane ^ " reaches its lane") true
          (contains text reach);
        (lane, Digest.to_hex (Digest.string text)))
      lane_cells
  in
  Alcotest.(check (list (pair string string)))
    "stats digest per lane"
    (List.map (fun (lane, _, _, _, _, pinned) -> (lane, pinned)) lane_cells)
    digests

(* --- post-fault loop against the general loop ---

   Both VMs finish an injected trial on a hook-free loop once the fault
   is in and any first-use watch has settled.  An IR trial run with
   [~track_use:false] hands off right at the injection; with
   [~track_use:true] it stays in the general loop until its watch
   settles.  (An x86 trial always watches the corrupted register for
   activation, so it hands off when that watch settles either way.)
   Every stats field but [first_use] must agree, for every workload,
   tool, category and fault model.  An IR run that records a
   propagation trace never hands off, so it is the general loop from
   the injection to the end and must give the untraced stats, first
   use included. *)

let prepared_all =
  lazy (List.map (Core.Campaign.prepare small_config) Workloads.all)

(* Every stats field except [first_use]. *)
let stats_fields (st : Vm.Outcome.stats) =
  Printf.sprintf "%s|%d|%b|%b|%s|%d|%d|%d" (outcome_key st) st.Vm.Outcome.steps
    st.injected st.activated st.fault_note st.fault_bit st.injected_step
    st.fault_site

let test_post_fault_loop_matches_general () =
  List.iter
    (fun (p : Core.Campaign.prepared) ->
      List.iter
        (fun tool ->
          List.iter
            (fun category ->
              if Core.Campaign.population p tool category > 0 then
                List.iter
                  (fun model ->
                    let config = { small_config with trials = 4; model } in
                    let stream track_use =
                      let acc = ref [] in
                      ignore
                        (Core.Campaign.run_cell ~track_use
                           ~on_stats:(fun _ _ st ->
                             acc := stats_fields st :: !acc)
                           config p tool category);
                      List.rev !acc
                    in
                    Alcotest.(check (list string))
                      (Printf.sprintf "%s/%s/%s/%s"
                         p.workload.Core.Workload.name
                         (Core.Campaign.tool_name tool)
                         (Core.Category.name category)
                         (Core.Fault_model.name model))
                      (stream true) (stream false))
                  Core.Fault_model.all)
            Core.Category.all)
        [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ])
    (Lazy.force prepared_all)

let test_ir_traced_matches_untraced () =
  List.iter
    (fun (p : Core.Campaign.prepared) ->
      let llfi = p.llfi in
      List.iteri
        (fun k category ->
          if Core.Llfi.dynamic_count llfi category > 0 then begin
            let model =
              List.nth Core.Fault_model.all
                (k mod List.length Core.Fault_model.all)
            in
            let run ?trace () =
              let rng = Support.Rng.of_int (100 + k) in
              let target = Core.Llfi.plan_target llfi category rng in
              let plan =
                { Vm.Ir_exec.inj_mask = Core.Category.mask category; target;
                  rng }
              in
              Vm.Ir_exec.run ~inputs:llfi.inputs ~max_steps:llfi.max_steps
                ?trace
                (Inject
                   (plan, { (Vm.Fault_model.sampled model) with track_use = true }))
                llfi.compiled
            in
            let untraced = run () in
            let traced = run ~trace:(Vm.Ir_exec.create_trace ()) () in
            Alcotest.(check string)
              (Printf.sprintf "%s/%s/%s" p.workload.Core.Workload.name
                 (Core.Category.name category)
                 (Core.Fault_model.name model))
              (stats_fields traced) (stats_fields untraced);
            Alcotest.(check string) "same first use"
              (Vm.First_use.name traced.first_use)
              (Vm.First_use.name untraced.first_use)
          end)
        Core.Category.all)
    (Lazy.force prepared_all)

(* --- EDC severity --- *)

let test_edc_tokenize () =
  let toks = Core.Edc.tokenize "sum=-12 p=0.500000 ok" in
  match toks with
  | [ Core.Edc.Text "sum="; Core.Edc.Num a; Core.Edc.Text " p=";
      Core.Edc.Num b; Core.Edc.Text " ok" ] ->
    Alcotest.(check (float 1e-9)) "int" (-12.0) a;
    Alcotest.(check (float 1e-9)) "float" 0.5 b
  | _ -> Alcotest.failf "unexpected tokens (%d)" (List.length toks)

let test_edc_classification () =
  let golden = "crc=1000 x=2.000000" in
  let check name expected observed =
    let sev = Core.Edc.classify ~golden ~observed () in
    let ok =
      match (expected, sev) with
      | `Not, Core.Edc.Not_sdc -> true
      | `Tol, Core.Edc.Tolerable _ -> true
      | `Egr, Core.Edc.Egregious _ -> true
      | _ -> false
    in
    if not ok then Alcotest.failf "%s misclassified" name
  in
  check "identical" `Not golden;
  check "small deviation" `Tol "crc=1001 x=2.000001";
  check "large deviation" `Egr "crc=5000 x=2.000000";
  check "structural change" `Egr "crc=1000 y=2.000000";
  check "missing field" `Egr "crc=1000";
  (* deviation from zero golden *)
  let sev =
    Core.Edc.classify ~golden:"v=0" ~observed:"v=3" ()
  in
  Alcotest.(check bool) "zero golden deviates egregiously" true
    (Core.Edc.is_egregious sev)

let test_edc_threshold () =
  let golden = "x=100" in
  let observed = "x=105" in
  (match Core.Edc.classify ~threshold:0.10 ~golden ~observed () with
  | Core.Edc.Tolerable d -> Alcotest.(check (float 1e-9)) "5%" 0.05 d
  | _ -> Alcotest.fail "should be tolerable at 10%");
  match Core.Edc.classify ~threshold:0.01 ~golden ~observed () with
  | Core.Edc.Egregious (Some _) -> ()
  | _ -> Alcotest.fail "should be egregious at 1%"

let test_edc_identity_property =
  QCheck.Test.make ~name:"identical outputs are never SDCs" ~count:200
    QCheck.printable_string
    (fun s ->
      Core.Edc.classify ~golden:s ~observed:s () = Core.Edc.Not_sdc)

let test_edc_tokenize_total =
  QCheck.Test.make ~name:"tokenize never raises and covers the input" ~count:200
    QCheck.printable_string
    (fun s ->
      let toks = Core.Edc.tokenize s in
      (* Total text length of tokens equals input length. *)
      let len =
        List.fold_left
          (fun acc t ->
            match t with
            | Core.Edc.Text txt -> acc + String.length txt
            | Core.Edc.Num _ -> acc)
          0 toks
      in
      (* Numeric tokens consume at least one character each. *)
      let nums = List.length (List.filter (function Core.Edc.Num _ -> true | _ -> false) toks) in
      len + nums <= String.length s + nums && len <= String.length s)

let test_edc_study_consistent () =
  let prog = Opt.optimize (Minic.compile mcf.Core.Workload.source) in
  let llfi = Core.Llfi.prepare ~inputs:mcf.Core.Workload.inputs prog in
  let study =
    Core.Edc.run_study llfi Core.Category.All ~trials:60 (Support.Rng.of_int 5)
  in
  Alcotest.(check int) "sdc = egregious + tolerable" study.Core.Edc.s_sdc
    (study.s_egregious + study.s_tolerable)

(* --- Report smoke tests --- *)

let test_report_renders () =
  let p = Lazy.force prepared in
  let cells =
    List.concat_map
      (fun tool ->
        List.map
          (fun c -> Core.Campaign.run_cell small_config p tool c)
          Core.Category.all)
      [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ]
  in
  (* These must not raise; output goes to stdout and is checked by the
     bench harness run. *)
  Core.Report.table1 [ p ];
  Core.Report.table2 [ mcf ];
  Core.Report.table3 ();
  Core.Report.table4 [ p ];
  Core.Report.figure2 ();
  Core.Report.figure3 cells;
  Core.Report.figure4 cells;
  Core.Report.table5 cells;
  let verdicts = Core.Report.evaluate_claims [ p ] cells in
  Alcotest.(check int) "all claims evaluated"
    (List.length Core.Paper_data.claims)
    (List.length verdicts)

let () =
  Alcotest.run "core"
    [
      ( "category",
        [
          ("bits distinct + roundtrip", `Quick, test_category_bits_distinct);
          ("mask totals", `Quick, test_category_totals);
        ] );
      ( "llfi",
        [
          ("classify categories", `Quick, test_llfi_classify_categories);
          ("skips dead destinations", `Quick, test_llfi_skips_dead_destinations);
          ("cast pruning", `Quick, test_llfi_cast_pruning);
        ] );
      ("pinfi", [ ("classify invariants", `Quick, test_pinfi_classify) ]);
      ( "verdict",
        [
          ("classification", `Quick, test_verdict_classification);
          ("tally rates", `Quick, test_tally_rates);
        ] );
      ( "campaign",
        [
          ("golden outputs match", `Quick, test_prepare_golden_match);
          ("deterministic", `Quick, test_campaign_deterministic);
          ("seed sensitivity", `Quick, test_campaign_seed_changes_results);
          ("counts trials", `Quick, test_campaign_counts_trials);
          ("injections have effects", `Quick, test_injection_changes_behavior_sometimes);
          ("csv export", `Quick, test_csv_export);
          ("pinfi activation high", `Quick, test_pinfi_activation_high);
          ("injected step recorded", `Quick, test_injected_step_recorded);
          ("custom selector restricts", `Quick, test_custom_selector_restricts);
        ] );
      ( "snapshot",
        [
          ("matches direct execution", `Quick, test_snapshot_matches_direct);
          ("runner reuse + rejection", `Quick, test_snapshot_runner_reuse);
          ("any target order", `Quick, test_ff_trial_any_order);
          ("prefix work pinned", `Slow, test_snapshot_advance_pinned);
        ] );
      ( "fault model",
        [ ("every model x lane pinned", `Quick, test_fault_models_pinned) ] );
      ( "post-fault",
        [
          ("matches the general loop", `Slow,
           test_post_fault_loop_matches_general);
          ("ir traced run matches untraced", `Quick,
           test_ir_traced_matches_untraced);
        ] );
      ( "edc",
        [
          ("tokenize", `Quick, test_edc_tokenize);
          ("classification", `Quick, test_edc_classification);
          ("threshold", `Quick, test_edc_threshold);
          ("study consistent", `Quick, test_edc_study_consistent);
          QCheck_alcotest.to_alcotest test_edc_identity_property;
          QCheck_alcotest.to_alcotest test_edc_tokenize_total;
        ] );
      ( "propagation",
        [
          ("traces deterministic", `Quick, test_traces_are_deterministic);
          ("reports consistent", `Quick, test_propagation_reports);
          ("compare_traces cases", `Quick, test_benign_faults_can_still_propagate);
        ] );
      ( "paper data",
        [
          ("complete", `Quick, test_paper_data_complete);
          ("table 4 internal claims", `Quick, test_paper_table4_claims_hold_internally);
        ] );
      ("report", [ ("renders", `Quick, test_report_renders) ]);
    ]
