(* Tests for the execution engine: the domain pool, the jobs=1 vs
   jobs=N determinism guarantee, and journal checkpoint/resume. *)

let mcf = Workloads.find_exn "mcf"
let libquantum = Workloads.find_exn "libquantum"
let raytrace = Workloads.find_exn "raytrace"

let small_config = { Core.Campaign.default_config with trials = 12 }

(* --- Pool --- *)

let test_pool_map_order () =
  let pool = Engine.Pool.create ~size:4 () in
  Fun.protect
    ~finally:(fun () -> Engine.Pool.shutdown pool)
    (fun () ->
      let input = Array.init 32 Fun.id in
      (* Early tasks sleep so later ones finish first: order of the
         result array must follow submission, not completion. *)
      let out =
        Engine.Pool.map pool
          (fun i ->
            if i < 8 then Unix.sleepf 0.005;
            i * i)
          input
      in
      Alcotest.(check (array int)) "squares in input order"
        (Array.map (fun i -> i * i) input)
        out)

let test_pool_exception_propagates () =
  let pool = Engine.Pool.create ~size:3 () in
  Fun.protect
    ~finally:(fun () -> Engine.Pool.shutdown pool)
    (fun () ->
      let ran = Atomic.make 0 in
      (match
         Engine.Pool.map pool
           (fun i ->
             Atomic.incr ran;
             if i = 5 then failwith "task 5 exploded";
             i)
           (Array.init 16 Fun.id)
       with
      | _ -> Alcotest.fail "expected the task exception to re-raise"
      | exception Failure msg ->
        Alcotest.(check string) "task error surfaces" "task 5 exploded" msg);
      (* All tasks still ran to completion before the re-raise... *)
      Alcotest.(check int) "no task dropped" 16 (Atomic.get ran);
      (* ...and the pool survives for further use. *)
      let out = Engine.Pool.map pool (fun i -> i + 1) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "pool usable after error" [| 2; 3; 4 |] out)

let test_pool_shutdown () =
  let pool = Engine.Pool.create ~size:2 () in
  let counter = Atomic.make 0 in
  for _ = 1 to 50 do
    Engine.Pool.submit pool (fun () -> Atomic.incr counter)
  done;
  Engine.Pool.shutdown pool;
  Alcotest.(check int) "shutdown drains the queue" 50 (Atomic.get counter);
  Engine.Pool.shutdown pool;  (* idempotent *)
  (match Engine.Pool.submit pool (fun () -> ()) with
  | () -> Alcotest.fail "submit after shutdown must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "size" 2 (Engine.Pool.size pool)

(* --- Determinism: jobs=1 vs jobs=N --- *)

let test_jobs_determinism () =
  let workloads = [ mcf; libquantum ] in
  let seq = Core.Campaign.run_all small_config workloads in
  let par = Engine.Scheduler.run ~jobs:4 small_config workloads in
  Alcotest.(check string) "csv identical to sequential runner"
    (Core.Campaign.to_csv seq)
    (Core.Campaign.to_csv par.Engine.Scheduler.cells)

let test_chunked_cell_determinism () =
  (* One cell, four domains: the scheduler splits it into trial ranges;
     the merged tally must equal the straight-line run. *)
  let p = Core.Campaign.prepare small_config mcf in
  let seq =
    Core.Campaign.run_cell small_config p Core.Campaign.Llfi_tool
      Core.Category.Load
  in
  let par =
    Engine.Scheduler.run ~jobs:4 ~tools:[ Core.Campaign.Llfi_tool ]
      ~categories:[ Core.Category.Load ] small_config [ mcf ]
  in
  Alcotest.(check string) "chunked cell csv"
    (Core.Campaign.to_csv [ seq ])
    (Core.Campaign.to_csv par.Engine.Scheduler.cells)

let test_explicit_chunk_sizes () =
  (* Any chunk size must give the same answer. *)
  let baseline =
    Engine.Scheduler.run ~jobs:1 small_config [ libquantum ]
  in
  List.iter
    (fun chunk ->
      let r = Engine.Scheduler.run ~jobs:2 ~chunk small_config [ libquantum ] in
      Alcotest.(check string)
        (Printf.sprintf "chunk=%d" chunk)
        (Core.Campaign.to_csv baseline.Engine.Scheduler.cells)
        (Core.Campaign.to_csv r.Engine.Scheduler.cells))
    [ 1; 5; 7; 100 ]

(* --- Batch planning --- *)

let test_ranges_exact_cover () =
  List.iter
    (fun (chunk, trials) ->
      let rs = Engine.Scheduler.ranges ~chunk trials in
      let next =
        List.fold_left
          (fun expect (first, count) ->
            Alcotest.(check int) "ranges are contiguous and in order" expect
              first;
            Alcotest.(check bool) "count non-negative" true (count >= 0);
            (match chunk with
            | Some c ->
              Alcotest.(check bool) "count within chunk" true (count <= c)
            | None -> ());
            first + count)
          0 rs
      in
      Alcotest.(check int) "every trial covered exactly once" trials next;
      if trials = 0 then
        Alcotest.(check int) "empty cell still yields one range" 1
          (List.length rs))
    [
      (None, 0);
      (None, 1);
      (None, 17);
      (Some 1, 7);
      (Some 3, 7);
      (Some 7, 7);
      (Some 8, 7);
      (Some 5, 0);
      (Some 97, 96);
      (Some 97, 97);
      (Some 97, 98);
    ]

let test_adaptive_chunk_covers =
  QCheck.Test.make
    ~name:"adaptive batching covers every trial exactly once" ~count:500
    QCheck.(triple (int_range 1 64) (int_range 0 64) (int_range 0 500))
    (fun (jobs, cells, trials) ->
      let chunk = Engine.Scheduler.adaptive_chunk ~jobs ~cells ~trials in
      let rs = Engine.Scheduler.ranges ~chunk trials in
      let rec contiguous expect = function
        | [] -> expect = trials
        | (first, count) :: tl ->
          first = expect && count >= 0 && contiguous (first + count) tl
      in
      let shape =
        match chunk with
        | None -> true
        | Some c ->
          (* Splitting only happens on small grids, never below the
             8-trial floor, and never into a single whole-cell chunk. *)
          c >= 8 && c < trials && jobs > 1 && cells > 0 && cells < 2 * jobs
      in
      contiguous 0 rs && shape)

(* QCheck: the scheduler's chunk-reassembly is only sound because tally
   merging is associative (and starts from a zero tally) — any chunking
   of a cell's trials folds to the same totals.  Check that algebra on
   arbitrary tallies. *)
let tally_arbitrary =
  let open QCheck.Gen in
  let gen =
    map
      (fun l ->
        match l with
        | [ a; b; c; d; e; f ] ->
          {
            Core.Verdict.trials = a + b + c + d + e + f;
            benign = a;
            sdc = b;
            crash = c;
            hang = d;
            not_activated = e;
            not_injected = f;
          }
        | _ -> assert false)
      (flatten_l (List.init 6 (fun _ -> small_nat)))
  in
  let print (t : Core.Verdict.tally) =
    Printf.sprintf "{trials=%d benign=%d sdc=%d crash=%d hang=%d na=%d ni=%d}"
      t.trials t.benign t.sdc t.crash t.hang t.not_activated t.not_injected
  in
  QCheck.make ~print gen

let tally_equal (a : Core.Verdict.tally) (b : Core.Verdict.tally) =
  a.trials = b.trials && a.benign = b.benign && a.sdc = b.sdc
  && a.crash = b.crash && a.hang = b.hang
  && a.not_activated = b.not_activated
  && a.not_injected = b.not_injected

let test_merge_associative_property =
  QCheck.Test.make ~name:"Verdict.merge is associative and commutative"
    ~count:300
    (QCheck.triple tally_arbitrary tally_arbitrary tally_arbitrary)
    (fun (a, b, c) ->
      let open Core.Verdict in
      tally_equal (merge a (merge b c)) (merge (merge a b) c)
      && tally_equal (merge a b) (merge b a)
      && tally_equal (merge a (fresh_tally ())) a)

(* The coordinator drains per-worker completion buffers in whatever
   order subtasks happen to finish; correctness relies on the fold of
   partial tallies being permutation-invariant.  Model arbitrary
   arrival orders directly. *)
let test_drain_order_insensitive =
  QCheck.Test.make ~name:"buffer drain order cannot change a cell tally"
    ~count:300
    QCheck.(
      pair (list_of_size Gen.(int_range 1 8) tally_arbitrary) (int_bound 1000))
    (fun (parts, salt) ->
      let arr = Array.of_list parts in
      let n = Array.length arr in
      let r = ref (salt + 1) in
      for i = n - 1 downto 1 do
        r := ((!r * 48271) + 13) land 0xFFFF;
        let j = !r mod (i + 1) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t
      done;
      let fold l =
        List.fold_left Core.Verdict.merge (Core.Verdict.fresh_tally ()) l
      in
      tally_equal (fold parts) (fold (Array.to_list arr)))

(* --- Journal --- *)

let with_temp_file f =
  let path = Filename.temp_file "fi_journal" ".log" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* The grid Scheduler.run derives for a default-tools, all-categories
   invocation over [workloads]. *)
let grid_for workloads =
  Engine.Journal.grid
    ~workloads:(List.map (fun (w : Core.Workload.t) -> w.name) workloads)
    ~tools:[ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ]
    ~categories:Core.Category.all

let test_journal_roundtrip () =
  with_temp_file (fun path ->
      let run = Engine.Scheduler.run ~journal:path small_config [ libquantum ] in
      let cells = run.Engine.Scheduler.cells in
      let grid = grid_for [ libquantum ] in
      let schema = Engine.Journal.cells ~grid small_config in
      (* Every cell round-trips through its line format... *)
      List.iter
        (fun cell ->
          match schema.decode (schema.encode cell) with
          | Some cell' ->
            Alcotest.(check string) "roundtrip"
              (Core.Campaign.to_csv [ cell ])
              (Core.Campaign.to_csv [ cell' ])
          | None -> Alcotest.fail "cell line did not parse back")
        cells;
      (* ...and the journal file holds the whole campaign. *)
      let loaded = Engine.Journal.load schema ~path in
      Alcotest.(check int) "all cells journaled" (List.length cells)
        (List.length loaded);
      (* A garbage/truncated trailing line is ignored on load. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "cell mcf LLFI load 12 tru";
      close_out oc;
      Alcotest.(check int) "truncated tail skipped" (List.length cells)
        (List.length (Engine.Journal.load schema ~path));
      (* A journal for another config is rejected. *)
      match
        Engine.Journal.load
          (Engine.Journal.cells ~grid { small_config with seed = 999 })
          ~path
      with
      | _ -> Alcotest.fail "mismatched header must be rejected"
      | exception Invalid_argument _ -> ())

(* Regression: --resume against a journal recorded for a different cell
   grid (here: another workload set) must be refused with an error that
   names both invocations, not silently mix tallies. *)
let test_journal_grid_mismatch_refused () =
  with_temp_file (fun path ->
      ignore (Engine.Scheduler.run ~journal:path small_config [ libquantum ]);
      (match
         Engine.Scheduler.run ~journal:path ~resume:true small_config [ mcf ]
       with
      | _ -> Alcotest.fail "resume with a different workload grid must raise"
      | exception Invalid_argument msg ->
        let mentions needle =
          let n = String.length needle and h = String.length msg in
          let rec at i =
            i + n <= h && (String.sub msg i n = needle || at (i + 1))
          in
          at 0
        in
        Alcotest.(check bool) "error names the grids" true
          (mentions "libquantum" && mentions "mcf"));
      (* Same workloads but a restricted category grid: also refused. *)
      match
        Engine.Scheduler.run ~journal:path ~resume:true
          ~categories:[ Core.Category.Load ] small_config [ libquantum ]
      with
      | _ -> Alcotest.fail "resume with a different category grid must raise"
      | exception Invalid_argument _ -> ())

let test_journal_resume_skips_completed () =
  with_temp_file (fun path ->
      let full = Engine.Scheduler.run ~journal:path small_config [ mcf ] in
      let lines = In_channel.with_open_text path In_channel.input_lines in
      (* Simulate a run killed after three cells: header + 3 records. *)
      let truncated = List.filteri (fun i _ -> i < 4) lines in
      let schema = Engine.Journal.cells ~grid:(grid_for [ mcf ]) small_config in
      (* Poison the surviving tallies so a re-run of those cells would be
         detectable: resume must carry these through verbatim. *)
      let poisoned =
        List.map
          (fun line ->
            match schema.decode line with
            | None -> line  (* header *)
            | Some cell ->
              schema.encode
                {
                  cell with
                  c_tally =
                    { cell.c_tally with Core.Verdict.benign = 4242 };
                })
          truncated
      in
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> Printf.fprintf oc "%s\n" l) poisoned);
      let resumed =
        Engine.Scheduler.run ~jobs:2 ~journal:path ~resume:true small_config
          [ mcf ]
      in
      Alcotest.(check int) "three cells restored, not re-run" 3
        resumed.Engine.Scheduler.resumed;
      let poison_seen =
        List.filter
          (fun (c : Core.Campaign.cell) ->
            c.c_tally.Core.Verdict.benign = 4242)
          resumed.Engine.Scheduler.cells
      in
      Alcotest.(check int) "journaled tallies used verbatim" 3
        (List.length poison_seen);
      (* The cells that were NOT journaled match the uninterrupted run. *)
      List.iteri
        (fun i (cell : Core.Campaign.cell) ->
          if i >= 3 then
            Alcotest.(check string)
              (Printf.sprintf "cell %d recomputed identically" i)
              (Core.Campaign.to_csv [ List.nth full.Engine.Scheduler.cells i ])
              (Core.Campaign.to_csv [ cell ]))
        resumed.Engine.Scheduler.cells;
      (* After the resumed run the journal is complete: resuming again
         runs nothing. *)
      let again =
        Engine.Scheduler.run ~journal:path ~resume:true small_config [ mcf ]
      in
      Alcotest.(check int) "second resume re-runs nothing" 10
        again.Engine.Scheduler.resumed)

let test_resume_from_fixed_chunk_journal () =
  (* Journals written under an explicit (old-style fixed) chunk size
     carry the same per-cell records as adaptive batching produces: a
     resume under the adaptive default must accept them verbatim. *)
  with_temp_file (fun path ->
      let fixed =
        Engine.Scheduler.run ~jobs:2 ~chunk:5 ~journal:path small_config
          [ mcf ]
      in
      let resumed =
        Engine.Scheduler.run ~journal:path ~resume:true small_config [ mcf ]
      in
      Alcotest.(check int) "every cell restored from the fixed-chunk journal"
        10 resumed.Engine.Scheduler.resumed;
      Alcotest.(check string) "csv identical across chunking policies"
        (Core.Campaign.to_csv fixed.Engine.Scheduler.cells)
        (Core.Campaign.to_csv resumed.Engine.Scheduler.cells))

(* A crash can cut a journal at any byte: cell and xcell logs must drop
   exactly the torn record, and a resume must append cleanly after it. *)
let cell_key_gen =
  QCheck.Gen.(
    triple (oneofl [ "mcf"; "hmmer" ])
      (oneofl [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ])
      (oneofl Core.Category.all))

let test_cell_torn_tail =
  Torn_tail.property ~name:"cell journal drops exactly a torn tail" ~count:20
    (Engine.Journal.cells ~grid:(grid_for [ mcf ]) small_config)
    QCheck.Gen.(
      map
        (fun ((c_workload, c_tool, c_category), (c_population, c_tally)) ->
          {
            Core.Campaign.c_workload;
            c_tool;
            c_category;
            c_model = small_config.model;
            c_population;
            c_tally;
          })
        (pair cell_key_gen (pair nat (QCheck.get_gen tally_arbitrary))))

let test_xcell_torn_tail =
  let model = Core.Fault_model.Stuck_at_1 in
  Torn_tail.property ~name:"xcell journal drops exactly a torn tail" ~count:20
    (Engine.Journal.exact_cells ~grid:(grid_for [ mcf ]) ~seed:3 ~prune:true
       ~sample_bound:500 model)
    QCheck.Gen.(
      map
        (fun ((e_workload, e_tool, e_category), (counts, e_tally, e_bound)) ->
          match counts with
          | [ e_population; e_enumerated; e_pruned_dead; e_pruned_masked;
              e_pruned_equiv; e_executed; e_unit ] ->
            {
              Core.Campaign.e_workload;
              e_tool;
              e_category;
              e_model = model;
              e_population;
              e_enumerated;
              e_pruned_dead;
              e_pruned_masked;
              e_pruned_equiv;
              e_executed;
              e_unit;
              e_tally;
              e_bound;
            }
          | _ -> assert false)
        (pair cell_key_gen
           (triple (list_repeat 7 nat) (QCheck.get_gen tally_arbitrary) float)))

(* --- Rejoin --- *)

(* The golden-reconvergence early exit must be invisible in results:
   a runner armed with rejoin journals yields byte-identical cells for
   every tool and category.  The stuck-at-1 raytrace run holds trials
   whose only difference from the golden state is a double's sign bit,
   which a digest must not drop. *)
let test_rejoin_identity () =
  let default = Core.Campaign.default_config in
  List.iter
    (fun (config, (w : Core.Workload.t)) ->
      let p = Core.Campaign.prepare config w in
      let rejoin = Core.Campaign.record_rejoin p in
      List.iter
        (fun tool ->
          List.iter
            (fun cat ->
              let base = Core.Campaign.run_cell config p tool cat in
              let r = Core.Campaign.runner ~rejoin p tool cat in
              let rej = Core.Campaign.run_cell ~runner:r config p tool cat in
              Alcotest.(check string)
                (Printf.sprintf "%s/%s/%s" w.name
                   (Core.Campaign.tool_name tool)
                   (Core.Category.name cat))
                (Core.Campaign.to_csv [ base ])
                (Core.Campaign.to_csv [ rej ]))
            Core.Category.all)
        [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ])
    [
      ({ default with trials = 24 }, mcf);
      ({ default with trials = 24 }, libquantum);
      ( { default with trials = 60; model = Core.Fault_model.Stuck_at_1 },
        raytrace );
    ]

(* Invisible is not enough: every probe could miss and the identity
   test above would still pass.  A fixed journaled campaign (mcf +
   raytrace, both tools, every category, 40 trials, seed 2014) must
   rejoin at least 90% as often, and skip at least 90% as many steps,
   as when journals stored every boundary: that design splices 467
   trials and saves 48,509,294 steps on this campaign. *)
let counter name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()) with
  | Some (Obs.Metrics.Count n) -> n
  | _ -> Alcotest.failf "no counter %s" name

let test_rejoin_fires () =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect ~finally:Obs.Metrics.reset (fun () ->
      let config =
        { Core.Campaign.default_config with trials = 40; seed = 2014 }
      in
      ignore (Engine.Scheduler.run ~jobs:1 config [ mcf; raytrace ]);
      let hits = counter "vm.rejoin.hits"
      and saved = counter "vm.rejoin.steps_saved" in
      Alcotest.(check bool)
        (Printf.sprintf "%d hits >= 90%% of 467" hits)
        true
        (10 * hits >= 9 * 467);
      Alcotest.(check bool)
        (Printf.sprintf "%d steps saved >= 90%% of 48509294" saved)
        true
        (10 * saved >= 9 * 48_509_294))

(* Every dynamic cycle must pass a landmark, or a reconverged trial in
   a loop could run on without meeting a recorded state.  IR: every
   function's entry block and every target of an edge that does not
   go forward; x86: every function entry and every target of a jump
   that does not go forward (Call targets are function entries). *)
let test_landmarks_cover_cycles () =
  List.iter
    (fun (w : Core.Workload.t) ->
      let p = Core.Campaign.prepare small_config w in
      let c = p.llfi.Core.Llfi.compiled in
      List.iteri
        (fun fi (f : Ir.Func.t) ->
          let cfg = Ir.Cfg.of_func f in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s entry" w.name f.fname)
            true
            (Vm.Ir_exec.is_landmark c ~func:fi ~block:0);
          Array.iteri
            (fun bi _ ->
              List.iter
                (fun s ->
                  if s <= bi then
                    Alcotest.(check bool)
                      (Printf.sprintf "%s %s back edge %d->%d" w.name f.fname
                         bi s)
                      true
                      (Vm.Ir_exec.is_landmark c ~func:fi ~block:s))
                (Ir.Cfg.successors_of cfg bi))
            cfg.Ir.Cfg.blocks)
        p.prog.Ir.Prog.funcs;
      let loaded = p.pinfi.Core.Pinfi.loaded in
      let asm = loaded.Vm.X86_exec.program in
      List.iter
        (fun (f : Ir.Func.t) ->
          let e = Hashtbl.find asm.labels (Backend.Vfunc.func_label f.fname) in
          Alcotest.(check bool)
            (Printf.sprintf "%s x86 %s entry" w.name f.fname)
            true loaded.landmarks.(e))
        asm.source.Ir.Prog.funcs;
      Array.iteri
        (fun i (insn : X86.Insn.t) ->
          let t = asm.resolved.(i) in
          let must =
            match insn with
            | X86.Insn.Call _ -> true
            | X86.Insn.Jmp _ | X86.Insn.Jcc _ -> t <= i
            | _ -> false
          in
          if must then
            Alcotest.(check bool)
              (Printf.sprintf "%s x86 target of insn %d" w.name i)
              true loaded.landmarks.(t))
        asm.insns)
    Workloads.all

(* The recorded work, pinned: each default-input journal's exact entry
   count (LLFI, PINFI), so any change in where journals record shows
   up here.  129,174 in all; journals that stored every boundary held
   1,608,357. *)
let test_journal_entries_pinned () =
  let got =
    List.map
      (fun (w : Core.Workload.t) ->
        let p = Core.Campaign.prepare small_config w in
        let n = function
          | Some j -> Vm.Rejoin.entries j
          | None -> -1
        in
        Printf.sprintf "%s %d %d" w.name
          (n (Core.Llfi.record_rejoin p.llfi))
          (n (Core.Pinfi.record_rejoin p.pinfi)))
      Workloads.all
  in
  Alcotest.(check (list string))
    "entries per journal"
    [
      "bzip2 21341 28107";
      "libquantum 11013 11268";
      "ocean 8815 8814";
      "hmmer 8152 8151";
      "mcf 5690 6763";
      "raytrace 3980 7080";
    ]
    got

let () =
  Alcotest.run "engine"
    [
      ( "pool",
        [
          ("map preserves order", `Quick, test_pool_map_order);
          ("exception propagation", `Quick, test_pool_exception_propagates);
          ("shutdown", `Quick, test_pool_shutdown);
        ] );
      ( "planning",
        [
          ("ranges cover exactly once", `Quick, test_ranges_exact_cover);
          QCheck_alcotest.to_alcotest test_adaptive_chunk_covers;
        ] );
      ( "determinism",
        [
          ("jobs=1 vs jobs=4 csv", `Slow, test_jobs_determinism);
          ("chunked single cell", `Slow, test_chunked_cell_determinism);
          ("explicit chunk sizes", `Slow, test_explicit_chunk_sizes);
          QCheck_alcotest.to_alcotest test_merge_associative_property;
          QCheck_alcotest.to_alcotest test_drain_order_insensitive;
        ] );
      ( "rejoin",
        [
          ("rejoin keeps cells byte-identical", `Slow, test_rejoin_identity);
          ("rejoin fires on a fixed campaign", `Slow, test_rejoin_fires);
          ("landmarks cover every cycle", `Quick, test_landmarks_cover_cycles);
          ("journal entry counts pinned", `Quick, test_journal_entries_pinned);
        ] );
      ( "journal",
        [
          ("roundtrip + header check", `Slow, test_journal_roundtrip);
          ("resume skips completed", `Slow, test_journal_resume_skips_completed);
          ("grid mismatch refused", `Slow, test_journal_grid_mismatch_refused);
          ( "resume from fixed-chunk journal",
            `Slow,
            test_resume_from_fixed_chunk_journal );
          QCheck_alcotest.to_alcotest test_cell_torn_tail;
          QCheck_alcotest.to_alcotest test_xcell_torn_tail;
        ] );
    ]
