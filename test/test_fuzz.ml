(* Tests for the differential fuzzer: deterministic replay, generator
   well-formedness, pretty-printer round-trips, minimizer convergence
   on a planted bug, the Campaign.target_draw contract both injectors
   rely on, and coverage-report determinism across job counts. *)

let mcf = Workloads.find_exn "mcf"

(* --- deterministic replay --- *)

let test_replay_deterministic () =
  (* Same seed, same program text — for both generators. *)
  List.iter
    (fun seed ->
      Alcotest.(check string) "MiniC generator replays"
        (Fuzz.Gen.source ~seed ())
        (Fuzz.Gen.source ~seed ());
      Alcotest.(check string) "IR generator replays"
        (Fuzz.Gen_ir.text ~seed ())
        (Fuzz.Gen_ir.text ~seed ()))
    [ 0; 1; 17; 4096 ];
  (* Same seed+count, same campaign verdicts. *)
  let run () = Fuzz.campaign ~seed:0 ~count:24 () in
  Alcotest.(check string) "campaign summary replays"
    (Fuzz.render_summary (run ()))
    (Fuzz.render_summary (run ()))

(* --- generator well-formedness --- *)

(* Every generated program — through either grammar — must compile,
   verify, terminate, and agree with itself across all oracle stages.
   An [Invalid] here is a generator artifact; a [Diverged] on HEAD is a
   real compiler bug. *)
let test_generator_well_formed () =
  for seed = 0 to 59 do
    let kind, subject = Fuzz.subject_of_seed seed in
    let kname = match kind with `Minic -> "MiniC" | `Ir -> "IR" in
    match Fuzz.Oracle.run subject with
    | Fuzz.Oracle.Agree n ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d (%s) compares all stages" seed kname)
        true
        (n = List.length Fuzz.Oracle.stage_names)
    | Fuzz.Oracle.Invalid msg ->
      Alcotest.failf "seed %d (%s): generator artifact: %s" seed kname msg
    | Fuzz.Oracle.Diverged ds ->
      Alcotest.failf "seed %d (%s): diverges on HEAD at stage %s" seed kname
        (String.concat "," (List.map (fun d -> d.Fuzz.Oracle.d_stage) ds))
  done

(* --- pretty-printer round-trip --- *)

let test_pp_roundtrip_fixpoint () =
  for seed = 0 to 29 do
    let src = Fuzz.Gen.source ~seed () in
    (* [source] is already pp-of-AST, so one parse must reproduce it
       exactly: printing is a fixpoint. *)
    let reparsed = Fuzz.Pp.program (Minic.Parser.parse_program src) in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: pp . parse is the identity on pp output" seed)
      src reparsed
  done

(* --- minimizer convergence --- *)

(* Seed 21 is the first MiniC program whose [opt] stage the planted
   add-to-sub mutation corrupts (scripts/ci.sh smokes the same pair via
   the CLI).  The minimizer must shrink it to a tiny repro that still
   shows the planted bug and is clean without it. *)
let test_minimizer_convergence () =
  let mutate = Fuzz.Mutate.Add_to_sub in
  let src = Fuzz.Gen.source ~seed:21 () in
  Alcotest.(check bool) "planted bug detected on seed 21" true
    (Fuzz.Oracle.diverges ~mutate (Fuzz.Oracle.Minic_src src));
  let keep p =
    let s = Fuzz.Oracle.Minic_src (Fuzz.Pp.program p) in
    Fuzz.Oracle.diverges ~mutate s
    && match Fuzz.Oracle.run s with Fuzz.Oracle.Agree _ -> true | _ -> false
  in
  let small, tests =
    Fuzz.Minimize.minimize ~keep (Minic.Parser.parse_program src)
  in
  let small_src = Fuzz.Pp.program small in
  Alcotest.(check bool) "minimizer did some work" true (tests > 0);
  let lines = Fuzz.Pp.line_count small_src in
  Alcotest.(check bool)
    (Printf.sprintf "repro is <= 20 lines (got %d)" lines)
    true (lines <= 20);
  Alcotest.(check bool) "repro still shows the planted bug" true
    (Fuzz.Oracle.diverges ~mutate (Fuzz.Oracle.Minic_src small_src));
  Alcotest.(check bool) "repro is clean without the mutation" true
    (match Fuzz.Oracle.run (Fuzz.Oracle.Minic_src small_src) with
    | Fuzz.Oracle.Agree _ -> true
    | _ -> false)

(* Every mutation must be detectable at all: somewhere in the first 120
   seeds the oracle flags it.  (Guards against a mutation rewriting
   itself into a no-op after an IR refactor.) *)
let test_all_mutations_detectable () =
  List.iter
    (fun m ->
      let found = ref false in
      let seed = ref 0 in
      while (not !found) && !seed < 120 do
        let _, subject = Fuzz.subject_of_seed !seed in
        if Fuzz.Oracle.diverges ~mutate:m subject then found := true;
        incr seed
      done;
      Alcotest.(check bool)
        (Printf.sprintf "mutation %s detected within 120 seeds"
           (Fuzz.Mutate.name m))
        true !found)
    Fuzz.Mutate.all

(* --- the Campaign.target_draw contract --- *)

let stats_key (s : Vm.Outcome.stats) =
  Printf.sprintf "%s|site=%d|note=%s|inj=%d|steps=%d"
    (Format.asprintf "%a" Vm.Outcome.pp s.Vm.Outcome.outcome)
    s.Vm.Outcome.fault_site s.Vm.Outcome.fault_note
    s.Vm.Outcome.injected_step s.Vm.Outcome.steps

(* The documented contract: the injection target is draw #0 of a
   trial's RNG stream, for BOTH injectors — the coverage report and
   the snapshot planner each re-derive trial targets on that basis.
   Checked behaviorally: (a) [plan_target] equals a bare [Rng.int
   population] on a copy of the stream, and (b) plan-then-[inject_at]
   is bit-identical to the direct [inject] on the same stream. *)
let test_target_draw_contract () =
  Alcotest.(check int) "Campaign.target_draw is 0" 0 Core.Campaign.target_draw;
  let config = Core.Campaign.default_config in
  let prep = Core.Campaign.prepare config mcf in
  let cat = Core.Category.Arithmetic in
  let master = Support.Rng.of_int 987654321 in
  (* LLFI *)
  let llfi = prep.Core.Campaign.llfi in
  let population = Core.Llfi.dynamic_count llfi cat in
  for trial = 0 to 4 do
    let rng = Support.Rng.split master in
    let expected = Support.Rng.int (Support.Rng.copy rng) population in
    Alcotest.(check int)
      (Printf.sprintf "llfi trial %d: target is draw #0" trial)
      expected
      (Core.Llfi.plan_target llfi cat (Support.Rng.copy rng));
    let direct = Core.Llfi.inject llfi cat (Support.Rng.copy rng) in
    let planned_rng = Support.Rng.copy rng in
    let target = Core.Llfi.plan_target llfi cat planned_rng in
    let planned =
      Core.Llfi.inject_at (Core.Llfi.runner llfi cat) ~target planned_rng
    in
    Alcotest.(check string)
      (Printf.sprintf "llfi trial %d: plan+inject_at == inject" trial)
      (stats_key direct) (stats_key planned)
  done;
  (* PINFI *)
  let pinfi = prep.Core.Campaign.pinfi in
  let population = Core.Pinfi.dynamic_count pinfi cat in
  for trial = 0 to 4 do
    let rng = Support.Rng.split master in
    let expected = Support.Rng.int (Support.Rng.copy rng) population in
    Alcotest.(check int)
      (Printf.sprintf "pinfi trial %d: target is draw #0" trial)
      expected
      (Core.Pinfi.plan_target pinfi cat (Support.Rng.copy rng));
    let direct = Core.Pinfi.inject pinfi cat (Support.Rng.copy rng) in
    let planned_rng = Support.Rng.copy rng in
    let target = Core.Pinfi.plan_target pinfi cat planned_rng in
    let planned =
      Core.Pinfi.inject_at (Core.Pinfi.runner pinfi cat) ~target planned_rng
    in
    Alcotest.(check string)
      (Printf.sprintf "pinfi trial %d: plan+inject_at == inject" trial)
      (stats_key direct) (stats_key planned)
  done

(* --- coverage determinism --- *)

let test_coverage_jobs_identical () =
  let measure jobs =
    Fuzz.Coverage.render
      (Fuzz.Coverage.measure ~jobs ~workloads:[ mcf ] ~trials:30 ~seed:5 ())
  in
  Alcotest.(check string) "jobs=1 and jobs=2 render byte-identically"
    (measure 1) (measure 2)

(* The whole report for two workloads over every fault model, pinned:
   a change to any site's width or to the bit a trial records changes
   the digest. *)
let test_coverage_pinned () =
  let report =
    Fuzz.Coverage.render
      (Fuzz.Coverage.measure
         ~workloads:[ mcf; Workloads.find_exn "raytrace" ]
         ~models:Core.Fault_model.all ~trials:12 ~seed:3 ())
  in
  print_string report;
  Alcotest.(check string) "mcf + raytrace, every model"
    "089f290957a45682d62907452de18677"
    (Digest.to_hex (Digest.string report))

let () =
  Alcotest.run "fuzz"
    [
      ( "generator",
        [
          ("deterministic replay", `Quick, test_replay_deterministic);
          ("well-formed over 60 seeds", `Slow, test_generator_well_formed);
          ("pp round-trip fixpoint", `Quick, test_pp_roundtrip_fixpoint);
        ] );
      ( "minimizer",
        [
          ("converges on planted bug", `Slow, test_minimizer_convergence);
          ("all mutations detectable", `Slow, test_all_mutations_detectable);
        ] );
      ( "contract",
        [ ("target is rng draw #0", `Slow, test_target_draw_contract) ] );
      ( "coverage",
        [
          ("jobs-independent report", `Slow, test_coverage_jobs_identical);
          ("every model pinned", `Quick, test_coverage_pinned);
        ] );
    ]
