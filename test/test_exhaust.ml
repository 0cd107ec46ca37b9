(* Tests for lib/exhaust: exact (exhaustive + pruned) fault-space
   campaigns.

   The load-bearing properties:
   - pruning soundness: every fault the planner settles without
     executing ([Exhaust.fate] = Settled) yields exactly the predicted
     verdict when replayed straight-line;
   - exactness: a pruned cell's weighted tally equals the brute-force
     tally with pruning disabled, fault for fault;
   - determinism: the tally is byte-identical whatever the worker
     count, and the journal line round-trips. *)

let campaign_config = Core.Campaign.default_config
let tools = [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ]

(* Tiny generated workloads: terminating, input-free, identical golden
   output at both levels, a few hundred dynamic instructions — small
   enough to brute-force every (instance, bit) fault. *)
let tiny seed size =
  {
    Core.Workload.name = Printf.sprintf "tiny-%d" seed;
    suite = "test";
    description = "generated test program";
    paper_counterpart = "(none)";
    source = Fuzz.Gen.source ~seed ~size ();
    inputs = [||];
    input_name = "none";
  }

let tally_ints (t : Core.Verdict.tally) =
  [
    t.Core.Verdict.trials; t.benign; t.sdc; t.crash; t.hang; t.not_activated;
    t.not_injected;
  ]

(* --- exactness: pruned == brute force --- *)

(* Every enumerable model: [Exhaust.fate] has stuck-at (golden-bit)
   and skip (unread-destination) rules besides the bitflip ones. *)
let test_pruned_equals_brute_force () =
  let p = Core.Campaign.prepare campaign_config (tiny 7 5) in
  List.iter
    (fun model ->
      List.iter
        (fun tool ->
          let name =
            Core.Campaign.tool_name tool ^ "/" ^ Core.Fault_model.name model
          in
          let pruned =
            Exhaust.run_cell ~model Exhaust.default_config p tool
              Core.Category.All
          in
          let brute =
            Exhaust.run_cell ~model
              { Exhaust.default_config with prune = false }
              p tool Core.Category.All
          in
          Alcotest.(check int)
            (name ^ ": same enumerated space")
            brute.Core.Campaign.e_enumerated pruned.Core.Campaign.e_enumerated;
          Alcotest.(check (list int))
            (name ^ ": pruned tally equals brute force")
            (tally_ints brute.Core.Campaign.e_tally)
            (tally_ints pruned.Core.Campaign.e_tally);
          Alcotest.(check bool)
            (name ^ ": pruning executed fewer trials")
            true
            (pruned.Core.Campaign.e_executed <= brute.Core.Campaign.e_executed))
        tools)
    Core.Fault_model.[ Bitflip; Stuck_at_0; Stuck_at_1; Skip ]

(* --- compiled execution tier: exact tallies are engine-independent ---

   The whole exhaustive pipeline (enumeration pre-pass, forced-bit
   replay of surviving faults, pruning verdicts against the golden
   run) through the closure-compiled tier must reproduce the
   interpreted tally fault for fault — and pruned must still equal
   brute force within the compiled engine. *)

let test_compiled_exact_identity () =
  let wl = tiny 7 5 in
  let p_i =
    Core.Campaign.prepare { campaign_config with compile = false } wl
  in
  let p_c = Core.Campaign.prepare { campaign_config with compile = true } wl in
  List.iter
    (fun tool ->
      let name = Core.Campaign.tool_name tool in
      let interp =
        Exhaust.run_cell Exhaust.default_config p_i tool Core.Category.All
      in
      let compiled =
        Exhaust.run_cell Exhaust.default_config p_c tool Core.Category.All
      in
      Alcotest.(check string)
        (name ^ ": compiled exact csv equals interpreted")
        (Core.Campaign.exact_to_csv [ interp ])
        (Core.Campaign.exact_to_csv [ compiled ]);
      let brute_c =
        Exhaust.run_cell
          { Exhaust.default_config with prune = false }
          p_c tool Core.Category.All
      in
      Alcotest.(check (list int))
        (name ^ ": compiled pruned tally equals compiled brute force")
        (tally_ints brute_c.Core.Campaign.e_tally)
        (tally_ints compiled.Core.Campaign.e_tally))
    tools

(* --- accounting invariants --- *)

let test_accounting () =
  let p = Core.Campaign.prepare campaign_config (tiny 11 6) in
  List.iter
    (fun tool ->
      let name = Core.Campaign.tool_name tool in
      let e = Exhaust.run_cell Exhaust.default_config p tool Core.Category.All in
      Alcotest.(check int)
        (name ^ ": weighted tally covers the whole space")
        (e.Core.Campaign.e_population * e.Core.Campaign.e_unit)
        e.Core.Campaign.e_tally.Core.Verdict.trials;
      Alcotest.(check int)
        (name ^ ": every fault is settled or executed")
        e.Core.Campaign.e_enumerated
        (e.Core.Campaign.e_pruned_dead + e.Core.Campaign.e_pruned_masked
        + e.Core.Campaign.e_pruned_equiv + e.Core.Campaign.e_executed);
      Alcotest.(check (float 0.0))
        (name ^ ": fully exact cell has no error bound")
        0.0 e.Core.Campaign.e_bound)
    tools

(* --- determinism across worker counts --- *)

let test_jobs_determinism () =
  let p = Core.Campaign.prepare campaign_config (tiny 23 6) in
  let pool = Engine.Pool.create ~size:3 () in
  Fun.protect
    ~finally:(fun () -> Engine.Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun tool ->
          let seq =
            Exhaust.run_cell Exhaust.default_config p tool Core.Category.All
          in
          let par =
            Exhaust.run_cell ~pool Exhaust.default_config p tool
              Core.Category.All
          in
          Alcotest.(check string)
            (Core.Campaign.tool_name tool ^ ": csv identical across jobs")
            (Core.Campaign.exact_to_csv [ seq ])
            (Core.Campaign.exact_to_csv [ par ]))
        tools)

(* --- bounded residual sampling --- *)

let test_sample_bound () =
  let p = Core.Campaign.prepare campaign_config (tiny 31 6) in
  let tool = Core.Campaign.Llfi_tool in
  let exact = Exhaust.run_cell Exhaust.default_config p tool Core.Category.All in
  let k = 5 in
  let bounded =
    Exhaust.run_cell
      { Exhaust.default_config with sample_bound = k }
      p tool Core.Category.All
  in
  Alcotest.(check int) "sampling preserves the space weight"
    exact.Core.Campaign.e_tally.Core.Verdict.trials
    bounded.Core.Campaign.e_tally.Core.Verdict.trials;
  if exact.Core.Campaign.e_executed > k then begin
    Alcotest.(check bool) "executes at most the bound" true
      (bounded.Core.Campaign.e_executed <= k);
    Alcotest.(check bool) "carries a positive certified bound" true
      (bounded.Core.Campaign.e_bound > 0.0)
  end

(* The pruning claim on a real cell, counted exactly: mcf x LLFI x
   arithmetic with the residual sampler capped at 2000 executions
   covers 114 faults per fault it executes.  Every count is pinned, so
   a rule that settles fewer faults (or an enumeration that finds more)
   shows up here. *)
let test_mcf_pruning_pinned () =
  let p = Core.Campaign.prepare campaign_config (Workloads.find_exn "mcf") in
  let e =
    Exhaust.run_cell
      { Exhaust.default_config with sample_bound = 2000 }
      p Core.Campaign.Llfi_tool Core.Category.Arithmetic
  in
  Alcotest.(check (list (pair string int)))
    "enumerated, settled by each rule, executed"
    [
      ("enumerated", 227115);
      ("dead", 0);
      ("masked", 0);
      ("equiv", 60389);
      ("executed", 1989);
    ]
    [
      ("enumerated", e.Core.Campaign.e_enumerated);
      ("dead", e.Core.Campaign.e_pruned_dead);
      ("masked", e.Core.Campaign.e_pruned_masked);
      ("equiv", e.Core.Campaign.e_pruned_equiv);
      ("executed", e.Core.Campaign.e_executed);
    ]

(* --- pruning soundness: replay what the planner claims ---

   For sampled faults across generated programs, [Exhaust.fate]'s
   Settled verdicts must match a straight-line replay.  (A regression
   here once caught a real bug: grouping faults by non-golden funnel
   key is unsound, because the divergent path can re-read the corrupted
   register.) *)

let check_fates seed =
  let model = Core.Fault_model.Bitflip in
  let p = Core.Campaign.prepare campaign_config (tiny (1000 + seed) 4) in
  List.iter
    (fun tool ->
      let insts = Core.Campaign.enumerate p tool Core.Category.All in
      if Array.length insts > 0 then begin
        let r = Core.Campaign.runner p tool Core.Category.All in
        let golden = Core.Campaign.golden_output p tool in
        let verdict target bit =
          Core.Verdict.of_run ~golden_output:golden
            (Core.Campaign.inject_bit ~model r ~target ~bit)
        in
        let budget = ref 150 in
        Array.iteri
          (fun target (inst : Vm.Fault_space.instance) ->
            let w = inst.Vm.Fault_space.width in
            let bits = List.sort_uniq compare [ 0; w / 2; w - 1 ] in
            List.iter
              (fun bit ->
                if !budget > 0 then begin
                  decr budget;
                  match Exhaust.fate ~model tool inst ~bit with
                  | Exhaust.Settled v ->
                    Alcotest.(check string)
                      (Printf.sprintf "%s target=%d bit=%d settled"
                         (Core.Campaign.tool_name tool)
                         target bit)
                      (Core.Verdict.name v)
                      (Core.Verdict.name (verdict target bit))
                  | Exhaust.Execute -> ()
                end)
              bits)
          insts
      end)
    tools;
  true

let test_fate_soundness_property =
  QCheck.Test.make ~name:"pruned faults replay to their predicted verdict"
    ~count:6
    QCheck.(int_range 0 500)
    check_fates

(* --- journal round-trip --- *)

let test_xcell_roundtrip () =
  let e =
    {
      Core.Campaign.e_workload = "mcf";
      e_tool = Core.Campaign.Pinfi_tool;
      e_category = Core.Category.Cmp;
      e_model = Core.Fault_model.Bitflip;
      e_population = 3;
      e_enumerated = 10;
      e_pruned_dead = 1;
      e_pruned_masked = 2;
      e_pruned_equiv = 3;
      e_executed = 4;
      e_unit = 20160;
      e_tally =
        {
          Core.Verdict.trials = 60480;
          benign = 30000;
          sdc = 20000;
          crash = 10000;
          hang = 480;
          not_activated = 0;
          not_injected = 0;
        };
      e_bound = 0.012345678912345678;
    }
  in
  let schema =
    Engine.Journal.exact_cells ~grid:"mcf|LLFI|all" ~seed:0 ~prune:true
      ~sample_bound:0 Core.Fault_model.Bitflip
  in
  (match schema.decode (schema.encode e) with
  | Some e' ->
    Alcotest.(check bool) "xcell line round-trips bit-exactly" true (e = e')
  | None -> Alcotest.fail "xcell line did not parse");
  Alcotest.(check (option unit)) "campaign cell lines are not xcells" None
    (Option.map ignore
       (schema.decode "cell mcf LLFI all 1 2 3 4 5 6 7 8"))

let () =
  Alcotest.run "exhaust"
    [
      ( "exactness",
        [
          ("pruned equals brute force", `Slow, test_pruned_equals_brute_force);
          ( "compiled tier: exact tallies identical",
            `Slow,
            test_compiled_exact_identity );
          ("accounting invariants", `Slow, test_accounting);
        ] );
      ( "determinism",
        [
          ("pool vs sequential csv", `Slow, test_jobs_determinism);
          ("xcell journal round-trip", `Quick, test_xcell_roundtrip);
        ] );
      ( "sampling",
        [
          ("bounded residual", `Slow, test_sample_bound);
          ("mcf pruning pinned", `Slow, test_mcf_pruning_pinned);
        ] );
      ( "soundness", [ QCheck_alcotest.to_alcotest test_fate_soundness_property ] );
    ]
