(* Tests for the diagnosis subsystem: record line format, sink
   determinism under parallel execution, first-use classification
   invariants, and tally neutrality of use tracking. *)

let mcf = Workloads.find_exn "mcf"
let libquantum = Workloads.find_exn "libquantum"

let small_config = { Core.Campaign.default_config with trials = 12 }

let activated (r : Diagnose.Record.t) =
  match r.verdict with
  | Core.Verdict.Benign | Core.Verdict.Sdc | Core.Verdict.Crash
  | Core.Verdict.Hang ->
    true
  | Core.Verdict.Not_activated | Core.Verdict.Not_injected -> false

(* Run a small campaign with diagnosis capture. *)
let capture ?(jobs = 1) ?(workloads = [ mcf ]) () =
  let sink = Diagnose.Sink.create () in
  let result =
    Engine.Scheduler.run ~jobs
      ~observe:(fun ~workload ~tool ~category ~trial verdict stats ->
        Diagnose.Sink.add sink
          (Diagnose.Record.of_stats ~workload ~tool ~category ~trial verdict
             stats))
      ~track_use:true small_config workloads
  in
  (sink, result)

(* --- record line format --- *)

let test_record_roundtrip () =
  let sink, result = capture () in
  let records = Diagnose.Sink.records sink in
  (* One record per executed trial; empty-population cells run none. *)
  let executed =
    List.fold_left
      (fun acc (c : Core.Campaign.cell) ->
        acc + c.c_tally.Core.Verdict.trials)
      0 result.Engine.Scheduler.cells
  in
  Alcotest.(check int) "captured one record per executed trial" executed
    (List.length records);
  List.iter
    (fun r ->
      match Diagnose.Record.of_line (Diagnose.Record.to_line r) with
      | Error msg -> Alcotest.fail msg
      | Ok r' ->
        Alcotest.(check string) "line roundtrip"
          (Diagnose.Record.to_line r)
          (Diagnose.Record.to_line r');
        Alcotest.(check int) "order key preserved" 0
          (Diagnose.Record.compare r r'))
    records

(* QCheck: the line format round-trips for *arbitrary* records, not
   just ones a campaign happens to produce.  Trap payloads (addresses)
   are deliberately not encoded, so equality is at the line level. *)
let record_arbitrary =
  let open QCheck.Gen in
  let gen =
    let* workload = oneofl [ "mcf"; "nw"; "libquantum"; "w"; "x0" ] in
    let* tool = oneofl [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ] in
    let* category = oneofl Core.Category.all in
    let* trial = small_nat in
    let* verdict =
      oneofl
        Core.Verdict.
          [ Benign; Sdc; Crash; Hang; Not_activated; Not_injected ]
    in
    let* fault_site = map (fun n -> n - 1) small_nat in
    let* injected_step = map (fun n -> n - 1) small_nat in
    let* steps = small_nat in
    let* payload = small_nat in
    let* trap =
      oneofl
        Vm.Trap.
          [
            None;
            Some (Unmapped_read payload);
            Some (Unmapped_write payload);
            Some Division_by_zero;
            Some (Invalid_jump payload);
            Some Stack_overflow;
            Some Unreachable_executed;
          ]
    in
    let* first_use = oneofl Vm.First_use.all in
    return
      {
        Diagnose.Record.workload;
        tool;
        category;
        trial;
        verdict;
        fault_site;
        injected_step;
        steps;
        trap;
        first_use;
      }
  in
  QCheck.make ~print:Diagnose.Record.to_line gen

let test_record_roundtrip_property =
  QCheck.Test.make ~name:"any record round-trips through its line" ~count:300
    record_arbitrary (fun r ->
      let line = Diagnose.Record.to_line r in
      match Diagnose.Record.of_line line with
      | Error _ -> false
      | Ok r' ->
        Diagnose.Record.to_line r' = line && Diagnose.Record.compare r r' = 0)

(* QCheck: writing any batch of records through a sink and loading the
   file back yields the same records in canonical order, regardless of
   insertion order. *)
let test_sink_roundtrip_property =
  QCheck.Test.make ~name:"sink write/load round-trips any batch" ~count:60
    (QCheck.list_of_size (QCheck.Gen.int_range 0 12) record_arbitrary)
    (fun records ->
      let sink = Diagnose.Sink.create () in
      List.iter (Diagnose.Sink.add sink) records;
      let path = Filename.temp_file "sink_prop" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Diagnose.Sink.write sink path;
          let loaded = Diagnose.Sink.load path in
          let lines = List.map Diagnose.Record.to_line in
          (* Exactly what the sink holds, in its canonical order... *)
          lines loaded = lines (Diagnose.Sink.records sink)
          (* ...which is sorted, and loses/invents nothing (records
             with equal sort keys may tie-break arbitrarily, so the
             content check is as a multiset). *)
          && List.sort compare (lines loaded)
             = List.sort compare (lines records)
          &&
          let rec sorted = function
            | a :: b :: tl ->
              Diagnose.Record.compare a b <= 0 && sorted (b :: tl)
            | _ -> true
          in
          sorted loaded))

let test_record_rejects_garbage () =
  List.iter
    (fun line ->
      match Diagnose.Record.of_line line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    [
      "";
      "mcf LLFI all 0 benign 1 2 3 -";
      "mcf NOFI all 0 benign 1 2 3 - data";
      "mcf LLFI all x benign 1 2 3 - data";
      "mcf LLFI all 0 benign 1 2 3 segv data";
    ]

(* --- sink: parallel determinism and file roundtrip --- *)

let test_sink_jobs_determinism () =
  let s1, r1 = capture ~jobs:1 ~workloads:[ mcf; libquantum ] () in
  let s4, r4 = capture ~jobs:4 ~workloads:[ mcf; libquantum ] () in
  Alcotest.(check string) "record files byte-identical"
    (Diagnose.Sink.to_string s1) (Diagnose.Sink.to_string s4);
  Alcotest.(check string) "cell csv byte-identical"
    (Core.Campaign.to_csv r1.Engine.Scheduler.cells)
    (Core.Campaign.to_csv r4.Engine.Scheduler.cells)

let test_sink_file_roundtrip () =
  let sink, _ = capture () in
  let path = Filename.temp_file "fi_records" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Diagnose.Sink.write sink path;
      let loaded = Diagnose.Sink.load path in
      Alcotest.(check (list string)) "records survive the file"
        (List.map Diagnose.Record.to_line (Diagnose.Sink.records sink))
        (List.map Diagnose.Record.to_line loaded))

(* --- first-use classification invariants --- *)

let test_first_use_invariants () =
  let sink, _ = capture ~workloads:[ mcf; libquantum ] () in
  let records = Diagnose.Sink.records sink in
  List.iter
    (fun (r : Diagnose.Record.t) ->
      (* The IR has no stack-frame traffic to corrupt — spills and
         push/pop exist only below the IR (the paper's §V point). *)
      if r.tool = Core.Campaign.Llfi_tool then
        Alcotest.(check bool)
          "LLFI never classifies a first use as stack" false
          (r.first_use = Vm.First_use.Ustack);
      (* At the assembly level activation IS the first read, so every
         activated PINFI trial has a classified consumer. *)
      if r.tool = Core.Campaign.Pinfi_tool && activated r then
        Alcotest.(check bool) "activated PINFI trial classified" true
          (r.first_use <> Vm.First_use.Unone);
      (* A cmp-category fault at the assembly level corrupts flags; the
         only reader of flags is conditional control. *)
      if
        r.tool = Core.Campaign.Pinfi_tool
        && r.category = Core.Category.Cmp
        && activated r
      then
        Alcotest.(check bool) "PINFI cmp first use is control" true
          (r.first_use = Vm.First_use.Ucontrol);
      (* Crash latency is defined exactly for crashed-after-injection
         trials and is positive. *)
      match Diagnose.Record.crash_latency r with
      | Some l ->
        Alcotest.(check bool) "latency positive" true (l > 0);
        Alcotest.(check bool) "latency only for crashes" true
          (r.verdict = Core.Verdict.Crash)
      | None ->
        Alcotest.(check bool) "no latency for non-crashes" true
          (r.verdict <> Core.Verdict.Crash || r.injected_step < 0))
    records;
  (* The data is not degenerate: addresses and control uses both occur. *)
  let count use =
    List.length (List.filter (fun r -> r.Diagnose.Record.first_use = use) records)
  in
  Alcotest.(check bool) "some addr uses" true (count Vm.First_use.Uaddr > 0);
  Alcotest.(check bool) "some control uses" true
    (count Vm.First_use.Ucontrol > 0);
  (* Each (tool, class) count, pinned: a change that loses or misfiles
     first uses (a trial handed to the post-fault loop with its watch
     still open, say) moves them. *)
  let classes tool =
    List.map
      (fun use ->
        ( Vm.First_use.name use,
          List.length
            (List.filter
               (fun (r : Diagnose.Record.t) ->
                 r.tool = tool && r.first_use = use)
               records) ))
      Vm.First_use.all
  in
  Alcotest.(check (list (pair string int))) "LLFI first-use classes"
    [ ("addr", 25); ("stack", 0); ("control", 43); ("data", 28); ("none", 0) ]
    (classes Core.Campaign.Llfi_tool);
  Alcotest.(check (list (pair string int))) "PINFI first-use classes"
    [ ("addr", 18); ("stack", 2); ("control", 39); ("data", 35); ("none", 2) ]
    (classes Core.Campaign.Pinfi_tool)

(* --- use tracking does not perturb results --- *)

let test_track_use_tally_neutral () =
  let p = Core.Campaign.prepare small_config mcf in
  let run track_use =
    List.concat_map
      (fun tool ->
        List.map
          (fun category ->
            Core.Campaign.run_cell ~track_use small_config p tool category)
          Core.Category.all)
      [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ]
  in
  Alcotest.(check string) "csv identical with tracking on"
    (Core.Campaign.to_csv (run false))
    (Core.Campaign.to_csv (run true))

(* --- summary rendering --- *)

let test_summary_renders () =
  let sink, _ = capture ~workloads:[ mcf; libquantum ] () in
  let out = Diagnose.Summary.render (Diagnose.Sink.records sink) in
  List.iter
    (fun needle ->
      let n = String.length needle and h = String.length out in
      let rec at i =
        i + n <= h && (String.sub out i n = needle || at (i + 1))
      in
      Alcotest.(check bool) (Printf.sprintf "mentions %S" needle) true (at 0))
    [ "Crash causes"; "Crash latency"; "divergence"; "mcf"; "libquantum" ];
  Alcotest.(check string) "empty input handled" "no diagnosis records\n"
    (Diagnose.Summary.render [])

let () =
  Alcotest.run "diagnose"
    [
      ( "record",
        [
          ("line roundtrip", `Slow, test_record_roundtrip);
          ("garbage rejected", `Quick, test_record_rejects_garbage);
          QCheck_alcotest.to_alcotest test_record_roundtrip_property;
          QCheck_alcotest.to_alcotest test_sink_roundtrip_property;
        ] );
      ( "sink",
        [
          ("jobs=1 vs jobs=4 byte-identical", `Slow, test_sink_jobs_determinism);
          ("file roundtrip", `Slow, test_sink_file_roundtrip);
        ] );
      ( "classification",
        [
          ("first-use invariants", `Slow, test_first_use_invariants);
          ("tracking is tally-neutral", `Slow, test_track_use_tally_neutral);
        ] );
      ("summary", [ ("renders", `Slow, test_summary_renders) ]);
    ]
