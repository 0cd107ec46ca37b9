(* Tests for the telemetry subsystem (lib/obs): span nesting, the
   jobs-invariant canonical merge, histogram bucket arithmetic, and the
   run-manifest JSON round-trip. *)

let mcf = Workloads.find_exn "mcf"

(* Every test that enables telemetry must leave it off and empty: the
   tests in this file share the process-global tracer and registry. *)
let with_telemetry f =
  Obs.Trace.reset ();
  Obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.reset ();
      Obs.Metrics.reset ())
    f

(* --- Trace: span nesting --- *)

let test_span_disabled_is_transparent () =
  with_telemetry (fun () ->
      Alcotest.(check int) "span returns f's value" 42
        (Obs.Trace.span "unrecorded" (fun () -> 42));
      Alcotest.(check int) "nothing recorded while disabled" 0
        (List.length (Obs.Trace.forest ())))

let test_span_nesting () =
  with_telemetry (fun () ->
      Obs.Trace.enable ();
      Obs.Trace.span "outer" ~args:[ ("k", "v") ] (fun () ->
          Obs.Trace.span "first" (fun () -> ());
          Obs.Trace.span "second" (fun () ->
              Obs.Trace.span "inner" (fun () -> ())));
      Alcotest.(check string)
        "skeleton reflects nesting and execution order"
        "outer k=v\n  first\n  second\n    inner\n"
        (Obs.Trace.skeleton (Obs.Trace.forest ())))

let test_span_closes_on_exception () =
  with_telemetry (fun () ->
      Obs.Trace.enable ();
      (try
         Obs.Trace.span "root" (fun () ->
             Obs.Trace.span "thrower" (fun () -> failwith "boom"))
       with Failure _ -> ());
      Alcotest.(check string) "both spans closed despite the exception"
        "root\n  thrower\n"
        (Obs.Trace.skeleton (Obs.Trace.forest ())))

let test_span_durations_nest () =
  with_telemetry (fun () ->
      Obs.Trace.enable ();
      Obs.Trace.span "outer" (fun () ->
          Obs.Trace.span "inner" (fun () -> Unix.sleepf 0.002));
      match Obs.Trace.forest () with
      | [ { Obs.Trace.t_children = [ inner ]; _ } as outer ] ->
        Alcotest.(check bool) "child starts at or after parent" true
          (inner.Obs.Trace.t_start_ns >= outer.t_start_ns);
        Alcotest.(check bool) "child duration within parent's" true
          (inner.t_dur_ns <= outer.t_dur_ns)
      | _ -> Alcotest.fail "expected one root with one child")

(* --- Trace + Metrics: per-domain merge determinism --- *)

(* The mcf grid is 1 workload x 2 tools x 5 categories = 10 cells, so
   every jobs value up to 10 schedules whole cells and the canonical
   forest must be identical.  Deterministic metrics — the campaign and
   vm families — must merge to the same totals; scheduling-dependent
   ones (pool tasks, runner-cache hits) legitimately differ. *)
let campaign_run ~jobs =
  let config = { Core.Campaign.default_config with trials = 8 } in
  ignore (Engine.Scheduler.run ~jobs config [ mcf ]);
  let skel = Obs.Trace.skeleton (Obs.Trace.forest ()) in
  let deterministic =
    List.filter
      (fun (name, _) ->
        String.length name >= 3
        && (String.sub name 0 3 = "cam" || String.sub name 0 3 = "vm."))
      (Obs.Metrics.snapshot ())
  in
  (skel, deterministic)

let metric_value_pp =
  let pp fmt = function
    | Obs.Metrics.Count n -> Format.fprintf fmt "Count %d" n
    | Obs.Metrics.Histo { count; sum; buckets } ->
      Format.fprintf fmt "Histo{count=%d;sum=%d;buckets=%s}" count sum
        (String.concat ","
           (Array.to_list (Array.map string_of_int buckets)))
  in
  Alcotest.testable pp ( = )

let test_merge_jobs_invariant () =
  let run jobs =
    with_telemetry (fun () ->
        Obs.Trace.enable ();
        Obs.Metrics.enable ();
        campaign_run ~jobs)
  in
  let skel1, metrics1 = run 1 in
  let skel4, metrics4 = run 4 in
  Alcotest.(check bool) "forest is non-trivial" true
    (String.length skel1 > 100);
  Alcotest.(check string) "span skeleton identical for jobs=1 and jobs=4"
    skel1 skel4;
  Alcotest.(check (list (pair string metric_value_pp)))
    "deterministic metrics identical for jobs=1 and jobs=4" metrics1 metrics4

(* The rejoin and post-fault-loop work counters are deterministic per
   trial, so they merge to the same totals on one domain and on two.
   40 trials per cell is enough for the engine to record journals; one
   mcf campaign per jobs value serves both tests below. *)
let engine_counters =
  lazy
    (let run jobs =
       with_telemetry (fun () ->
           Obs.Metrics.enable ();
           let config = { Core.Campaign.default_config with trials = 40 } in
           ignore (Engine.Scheduler.run ~jobs config [ mcf ]);
           Obs.Metrics.snapshot ())
     in
     let metrics1 = run 1 in
     (metrics1, run 2))

let engine_counters_matching keep =
  let metrics1, metrics2 = Lazy.force engine_counters in
  let only = List.filter (fun (name, _) -> keep name) in
  (only metrics1, only metrics2)

(* The run must actually rejoin. *)
let test_rejoin_counters_jobs_invariant () =
  let metrics1, metrics2 =
    engine_counters_matching (String.starts_with ~prefix:"vm.rejoin.")
  in
  Alcotest.(check (list string))
    "the four rejoin counters"
    [
      "vm.rejoin.entries";
      "vm.rejoin.hits";
      "vm.rejoin.probes";
      "vm.rejoin.steps_saved";
    ]
    (List.map fst metrics1);
  Alcotest.(check bool) "rejoin fired" true
    (List.assoc "vm.rejoin.hits" metrics1 <> Obs.Metrics.Count 0);
  Alcotest.(check (list (pair string metric_value_pp)))
    "rejoin counters identical for jobs=1 and jobs=2" metrics1 metrics2

(* Trials reach the hook-free post-fault loop on both VMs. *)
let test_suffix_counters_jobs_invariant () =
  let metrics1, metrics2 =
    engine_counters_matching (String.ends_with ~suffix:".suffix_trials")
  in
  Alcotest.(check (list string))
    "the two suffix counters"
    [ "vm.ir.suffix_trials"; "vm.x86.suffix_trials" ]
    (List.map fst metrics1);
  let total =
    List.fold_left
      (fun acc (_, v) ->
        match v with Obs.Metrics.Count n -> acc + n | _ -> acc)
      0 metrics1
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d trials reached the post-fault loop" total)
    true (total > 0);
  Alcotest.(check (list (pair string metric_value_pp)))
    "suffix counters identical for jobs=1 and jobs=2" metrics1 metrics2

let test_snapshot_sorted_and_complete () =
  with_telemetry (fun () ->
      Obs.Metrics.enable ();
      let c = Obs.Metrics.counter "test.snapshot.counter" in
      let h = Obs.Metrics.histogram "test.snapshot.histogram" in
      Obs.Metrics.incr c;
      Obs.Metrics.incr ~by:2 c;
      Obs.Metrics.observe h 5;
      let snap = Obs.Metrics.snapshot () in
      let names = List.map fst snap in
      Alcotest.(check (list string)) "snapshot sorted by name"
        (List.sort compare names) names;
      (match List.assoc "test.snapshot.counter" snap with
      | Obs.Metrics.Count 3 -> ()
      | v ->
        Alcotest.failf "counter: expected Count 3, got %a"
          (Alcotest.pp metric_value_pp) v);
      match List.assoc "test.snapshot.histogram" snap with
      | Obs.Metrics.Histo { count = 1; sum = 5; buckets } ->
        Alcotest.(check int) "observation in bucket_of 5" 1
          buckets.(Obs.Metrics.Hist.bucket_of 5)
      | v ->
        Alcotest.failf "histogram: expected one observation of 5, got %a"
          (Alcotest.pp metric_value_pp) v)

(* --- Hist: bucket arithmetic (QCheck) --- *)

let hist_array =
  QCheck.(array_of_size Gen.(int_range 0 Obs.Metrics.Hist.buckets) (int_range 0 1000))

let qcheck_merge_associative =
  QCheck.Test.make ~count:200 ~name:"Hist.merge associative"
    QCheck.(triple hist_array hist_array hist_array)
    (fun (a, b, c) ->
      Obs.Metrics.Hist.(merge (merge a b) c = merge a (merge b c)))

let qcheck_merge_commutative =
  QCheck.Test.make ~count:200 ~name:"Hist.merge commutative"
    QCheck.(pair hist_array hist_array)
    (fun (a, b) -> Obs.Metrics.Hist.(merge a b = merge b a))

let qcheck_merge_identity =
  QCheck.Test.make ~count:200 ~name:"Hist.merge identity is [||]"
    hist_array
    (fun a -> Obs.Metrics.Hist.(merge a [||] = a && merge [||] a = a))

let qcheck_bucket_monotone =
  QCheck.Test.make ~count:500 ~name:"Hist.bucket_of monotone"
    QCheck.(pair int int)
    (fun (v, w) ->
      let v, w = (min v w, max v w) in
      Obs.Metrics.Hist.(bucket_of v <= bucket_of w))

let qcheck_bucket_bounds =
  QCheck.Test.make ~count:500 ~name:"Hist.lower_bound brackets bucket_of"
    QCheck.(int_range 0 max_int)
    (fun v ->
      let open Obs.Metrics.Hist in
      let b = bucket_of v in
      (* The upper bound saturates to max_int when 2^b is not
         representable; the bucket then absorbs up to max_int. *)
      let ub = if b + 1 >= buckets then max_int else lower_bound (b + 1) in
      0 <= b && b < buckets
      && lower_bound b <= v
      && (v < ub || ub = max_int))

(* --- Json + Manifest: round-trip and digest stability --- *)

let rec json_eq a b =
  match (a, b) with
  | Obs.Json.Float x, Obs.Json.Float y ->
    (* NaN round-trips are out of scope; bit-equality otherwise. *)
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Obs.Json.List xs, Obs.Json.List ys ->
    List.length xs = List.length ys && List.for_all2 json_eq xs ys
  | Obs.Json.Obj xs, Obs.Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k, x) (l, y) -> String.equal k l && json_eq x y)
         xs ys
  | _ -> a = b

let test_json_round_trip () =
  let samples =
    [
      Obs.Json.Null;
      Obs.Json.Bool true;
      Obs.Json.Int (-42);
      Obs.Json.Int max_int;
      Obs.Json.Float 0.1;
      Obs.Json.Float 12.0;
      Obs.Json.Float 1.7976931348623157e308;
      Obs.Json.Str "plain";
      Obs.Json.Str "esc \" \\ \n \t \x01 end";
      Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Str "two"; Obs.Json.Null ];
      Obs.Json.Obj
        [
          ("a", Obs.Json.Int 1);
          ("nested", Obs.Json.Obj [ ("b", Obs.Json.List []) ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      let s = Obs.Json.to_string j in
      Alcotest.(check bool)
        (Printf.sprintf "of_string (to_string %s) round-trips" s)
        true
        (json_eq j (Obs.Json.of_string s)))
    samples

let test_manifest_round_trip () =
  with_telemetry (fun () ->
      let m = Obs.Manifest.create ~command:"test" in
      Obs.Manifest.set m "seed" (Obs.Json.Int 2014);
      Obs.Manifest.set m "snapshot" (Obs.Json.Bool true);
      ignore (Obs.Manifest.section m "work" (fun () -> 7));
      Obs.Manifest.add_digest m "csv" ~payload:"a,b\n1,2\n";
      let j = Obs.Manifest.to_json ~metrics:false m in
      let reparsed = Obs.Json.of_string (Obs.Json.to_string j) in
      Alcotest.(check bool) "manifest JSON round-trips" true
        (json_eq j reparsed);
      (match Obs.Json.member "config" reparsed with
      | Some (Obs.Json.Obj [ ("seed", Obs.Json.Int 2014); ("snapshot", Obs.Json.Bool true) ]) -> ()
      | _ -> Alcotest.fail "config lost its fields or their order");
      match Obs.Json.member "sections" reparsed with
      | Some (Obs.Json.List [ Obs.Json.Obj (("name", Obs.Json.Str "work") :: _) ]) -> ()
      | _ -> Alcotest.fail "sections lost the timed phase")

let test_digest_stability () =
  with_telemetry (fun () ->
      let digest_of payload =
        let m = Obs.Manifest.create ~command:"test" in
        Obs.Manifest.add_digest m "out" ~payload;
        match Obs.Json.member "digests" (Obs.Manifest.to_json ~metrics:false m) with
        | Some (Obs.Json.Obj [ ("out", Obs.Json.Str d) ]) -> d
        | _ -> Alcotest.fail "digest missing from manifest"
      in
      Alcotest.(check string) "equal payloads digest equally"
        (digest_of "w,tool,cat\n") (digest_of "w,tool,cat\n");
      Alcotest.(check bool) "different payloads digest differently" true
        (digest_of "a" <> digest_of "b");
      (* Pinned value: the digest is stdlib MD5 in hex, stable across
         runs and hosts — CI diffs it between --jobs 1 and --jobs 4. *)
      Alcotest.(check string) "known MD5 value"
        "0cc175b9c0f1b6a831c399e269772661" (digest_of "a"))

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "disabled span is transparent" `Quick
            test_span_disabled_is_transparent;
          Alcotest.test_case "nesting well-formed" `Quick test_span_nesting;
          Alcotest.test_case "closes on exception" `Quick
            test_span_closes_on_exception;
          Alcotest.test_case "durations nest" `Quick test_span_durations_nest;
        ] );
      ( "merge",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 identical" `Slow
            test_merge_jobs_invariant;
          Alcotest.test_case "rejoin counters jobs=1 vs jobs=2" `Slow
            test_rejoin_counters_jobs_invariant;
          Alcotest.test_case "suffix counters jobs=1 vs jobs=2" `Slow
            test_suffix_counters_jobs_invariant;
          Alcotest.test_case "snapshot sorted and complete" `Quick
            test_snapshot_sorted_and_complete;
        ] );
      ( "hist",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_merge_associative;
            qcheck_merge_commutative;
            qcheck_merge_identity;
            qcheck_bucket_monotone;
            qcheck_bucket_bounds;
          ] );
      ( "manifest",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
          Alcotest.test_case "manifest round-trip" `Quick
            test_manifest_round_trip;
          Alcotest.test_case "digest stability" `Quick test_digest_stability;
        ] );
    ]
