(* The benchmark's gate must be able to fail.  Synthetic samples with a
   planted regression, a spread wider than the bound, and no change at
   all go through the same [Gate.compare_runs] that [e2e.exe compare]
   uses; the metric table must match BENCHMARK.json. *)

let base (m : Spec.metric) =
  match m.name with "setup_s" -> 0.8 | "trials_per_s" -> 5000. | "peak_rss_mb" -> 60. | _ -> 40.

(* Ten runs of every workload with a deterministic ±1% jitter; [tweak]
   rescales one (workload, metric) value of run i. *)
let runs ?(tweak = fun _ _ _ v -> v) ?(failed = fun _ _ -> 0) () =
  List.concat_map
    (fun i ->
      List.map
        (fun (w, _) ->
          {
            Gate.s_workload = w;
            s_correct = true;
            s_attempted = 100;
            s_failed = failed w i;
            s_metrics =
              List.map
                (fun (m : Spec.metric) ->
                  let v = base m *. (1. +. (0.01 *. sin (float_of_int ((7 * i) + String.length w)))) in
                  (m.name, tweak w m.name i v))
                Spec.end_to_end;
          })
        Spec.workloads)
    (List.init 10 Fun.id)

let verdicts rows =
  List.map (fun (r : Gate.row) -> ((r.workload, r.metric.name), r.verdict)) rows

let only_changed rows key expected =
  List.iter
    (fun (k, v) ->
      let want = if k = key then expected else Gate.No_worse in
      if v <> want then
        Alcotest.failf "%s %s: %s, expected %s" (fst k) (snd k) (Gate.verdict_name v)
          (Gate.verdict_name want))
    (verdicts rows)

let test_identical () =
  let rows, problems = Gate.compare_runs ~parent:(runs ()) ~change:(runs ()) in
  Alcotest.(check (list string)) "no problems" [] problems;
  Alcotest.(check int) "a row per metric and workload"
    (List.length Spec.workloads * List.length Spec.end_to_end)
    (List.length rows);
  only_changed rows ("", "") Gate.No_worse

(* A regression half again as large as the bound fails the comparison;
   one inside the bound does not.  On a metric bounded at 10%, a planted
   15% regression is flagged. *)
let test_planted_regression () =
  let planted factor w name _ v = if w = "paper-grid" && name = "op_p50_ms" then v *. factor else v in
  let bound = (Option.get (List.find_opt (fun (m : Spec.metric) -> m.name = "op_p50_ms") Spec.end_to_end)).bound in
  let rows, problems =
    Gate.compare_runs ~parent:(runs ()) ~change:(runs ~tweak:(planted (1. +. (1.5 *. bound))) ())
  in
  only_changed rows ("paper-grid", "op_p50_ms") Gate.Regressed;
  Alcotest.(check int) "the regression fails the comparison" 1 (List.length problems);
  let rows, _ =
    Gate.compare_runs ~parent:(runs ()) ~change:(runs ~tweak:(planted (1. +. (0.5 *. bound))) ())
  in
  only_changed rows ("", "") Gate.No_worse;
  let m = { Spec.name = "wall_s"; unit_ = "s"; better = Lower; bound = 0.10 } in
  let parent = List.init 10 (fun i -> 30. *. (1. +. (0.01 *. sin (float_of_int i)))) in
  let row = Gate.judge ~workload:"w" m ~parent ~change:(List.map (fun v -> v *. 1.15) parent) in
  Alcotest.(check string) "15% over a 10% bound" "REGRESSED" (Gate.verdict_name row.verdict)

let test_wide_spread_unresolved () =
  let wobble phase w name i v =
    if w = "exact-cells" && name = "op_p99_ms" then v *. (1. +. (0.4 *. sin (float_of_int i +. phase)))
    else v
  in
  let rows, problems =
    Gate.compare_runs ~parent:(runs ~tweak:(wobble 0.) ()) ~change:(runs ~tweak:(wobble 1.) ())
  in
  only_changed rows ("exact-cells", "op_p99_ms") Gate.Unresolved;
  Alcotest.(check (list string)) "unresolved is not a failure" [] problems

let test_improvement () =
  let tweak w name _ v = if w = "serve-burst" && name = "trials_per_s" then v *. 1.2 else v in
  let rows, _ = Gate.compare_runs ~parent:(runs ()) ~change:(runs ~tweak ()) in
  only_changed rows ("serve-burst", "trials_per_s") Gate.Improved

let test_failures_fail () =
  let failed w i = if w = "inject-sweep" && i = 3 then 1 else 0 in
  let _, problems = Gate.compare_runs ~parent:(runs ()) ~change:(runs ~failed ()) in
  Alcotest.(check int) "a rise in failed_frac fails" 1 (List.length problems);
  let few = List.filteri (fun i _ -> i < 4 * 9) (runs ()) in
  let _, problems = Gate.compare_runs ~parent:few ~change:few in
  Alcotest.(check int) "every workload needs ten pairs" 4 (List.length problems)

(* Python's statistics.quantiles(range(1, 11), n=4) *)
let test_quartiles () =
  let q1, q2, q3 = Gate.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  Alcotest.(check (float 1e-12)) "p99 interpolates" 9.91
    (Gate.percentile 99. (List.init 10 (fun i -> float_of_int (i + 1))))

let benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Obs.Json.of_string s

let test_spec_matches_benchmark_json () =
  let j = benchmark_json () in
  let field k = match Obs.Json.member k j with Some (Obs.Json.List l) -> l | _ -> Alcotest.failf "no %s list" k in
  let str k v = match Obs.Json.member k v with Some (Obs.Json.Str s) -> s | _ -> Alcotest.failf "no %s" k in
  let num k v =
    match Obs.Json.member k v with
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int n) -> float_of_int n
    | _ -> Alcotest.failf "no %s" k
  in
  let better = function Spec.Lower -> "lower" | Spec.Higher -> "higher" in
  Alcotest.(check (list (pair string string)))
    "workloads" Spec.workloads
    (List.map (fun w -> (str "name" w, str "why" w)) (field "workloads"));
  let metrics (l : Spec.metric list) =
    List.map (fun (m : Spec.metric) -> (m.name, m.unit_, better m.better)) l
  in
  let listed k = List.map (fun m -> (str "name" m, str "unit" m, str "better" m)) (field k) in
  Alcotest.(check (list (triple string string string))) "end_to_end" (metrics Spec.end_to_end) (listed "end_to_end");
  Alcotest.(check (list (triple string string string))) "per_layer" (metrics Spec.per_layer) (listed "per_layer");
  Alcotest.(check (list (float 0.))) "bounds"
    (List.map (fun (m : Spec.metric) -> m.bound) Spec.end_to_end)
    (List.map (num "bound") (field "end_to_end"));
  List.iter
    (fun (w, why) ->
      if String.length why > 200 || String.contains why '\n' then Alcotest.failf "%s: why too long" w)
    Spec.workloads

let () =
  Alcotest.run "e2e"
    [
      ( "gate",
        [
          ("identical samples pass", `Quick, test_identical);
          ("planted regressions are flagged", `Quick, test_planted_regression);
          ("spread wider than the bound is unresolved", `Quick, test_wide_spread_unresolved);
          ("clear improvement is recognised", `Quick, test_improvement);
          ("failures and missing pairs fail", `Quick, test_failures_fail);
          ("quartiles match Python", `Quick, test_quartiles);
        ] );
      ("spec", [ ("matches BENCHMARK.json", `Quick, test_spec_matches_benchmark_json) ]);
    ]
