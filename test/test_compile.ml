(* Differential tests for the closure tables.

   Every program runs through its per-instruction closure table
   (Vm.Ir_exec.compile / Vm.X86_exec.load); Vm.Ir_exec.reference /
   Vm.X86_exec.reference swap each entry for a closure over the
   tree-walking interpreter, and [~compile:false] selects that
   reference.  The contract is bit-for-bit identity between the two
   tables: same output bytes, same trap tags, same step counts, same
   injection bookkeeping, same first-use classification, same
   fault-space enumeration — under every run mode, for every workload
   and fault model.  These tests hold the two against each other at
   increasing granularity: golden runs, per-site profiles, propagation
   traces, individual injected trials, whole campaign CSVs, and the
   snapshot x rejoin x compile interplay. *)

let tools = [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ]

(* One string capturing everything a trial observes, so a divergence
   names the field that moved.  Trap payloads are included (same level,
   same engine semantics — unlike the cross-level fuzz oracle, payloads
   must match exactly here). *)
let stats_key (s : Vm.Outcome.stats) =
  let outcome =
    match s.Vm.Outcome.outcome with
    | Vm.Outcome.Finished out -> "finished(" ^ String.escaped out ^ ")"
    | Vm.Outcome.Crashed t -> Format.asprintf "crashed(%a)" Vm.Trap.pp t
    | Vm.Outcome.Hung -> "hung"
  in
  Printf.sprintf "%s|steps=%d|inj=%b|act=%b|note=%s|istep=%d|site=%d|use=%s"
    outcome s.Vm.Outcome.steps s.Vm.Outcome.injected s.Vm.Outcome.activated
    s.Vm.Outcome.fault_note s.Vm.Outcome.injected_step s.Vm.Outcome.fault_site
    (Vm.First_use.name s.Vm.Outcome.first_use)

(* Two preparations of the same workload, one per table.  [compile] is
   the only difference, so every observable below must coincide. *)
let prepare_both (w : Core.Workload.t) =
  let prog = Opt.optimize (Minic.compile w.Core.Workload.source) in
  let asm = Backend.compile prog in
  let lc = Core.Llfi.prepare ~compile:true ~inputs:w.Core.Workload.inputs prog in
  let li = Core.Llfi.prepare ~compile:false ~inputs:w.Core.Workload.inputs prog in
  let pc = Core.Pinfi.prepare ~compile:true ~inputs:w.Core.Workload.inputs asm in
  let pi = Core.Pinfi.prepare ~compile:false ~inputs:w.Core.Workload.inputs asm in
  ((lc, li), (pc, pi))

(* --- golden + profile identity, all six workloads, both levels ---

   Also pins prepare to a single fault-free VM run per level: the
   profiling run doubles as the golden run. *)

let test_golden_identity () =
  List.iter
    (fun (w : Core.Workload.t) ->
      let (lc, li), (pc, pi) = prepare_both w in
      Alcotest.(check string)
        (w.name ^ ": llfi golden output")
        li.Core.Llfi.golden_output lc.Core.Llfi.golden_output;
      Alcotest.(check int)
        (w.name ^ ": llfi golden steps")
        li.Core.Llfi.golden_steps lc.Core.Llfi.golden_steps;
      Alcotest.(check
                  (list (pair string int)))
        (w.name ^ ": llfi dynamic profile")
        (List.map
           (fun (c, n) -> (Core.Category.name c, n))
           li.Core.Llfi.dynamic_counts)
        (List.map
           (fun (c, n) -> (Core.Category.name c, n))
           lc.Core.Llfi.dynamic_counts);
      Alcotest.(check string)
        (w.name ^ ": pinfi golden output")
        pi.Core.Pinfi.golden_output pc.Core.Pinfi.golden_output;
      Alcotest.(check int)
        (w.name ^ ": pinfi golden steps")
        pi.Core.Pinfi.golden_steps pc.Core.Pinfi.golden_steps;
      Alcotest.(check
                  (list (pair string int)))
        (w.name ^ ": pinfi dynamic profile")
        (List.map
           (fun (c, n) -> (Core.Category.name c, n))
           pi.Core.Pinfi.dynamic_counts)
        (List.map
           (fun (c, n) -> (Core.Category.name c, n))
           pc.Core.Pinfi.dynamic_counts);
      (* prepare takes its golden output and steps from the profiling
         run; a standalone plain run must agree with it *)
      let finished (s : Vm.Outcome.stats) =
        match s.Vm.Outcome.outcome with
        | Vm.Outcome.Finished out -> out
        | _ -> Alcotest.failf "%s: plain run did not finish" w.name
      in
      let lp =
        Vm.Ir_exec.run ~inputs:li.Core.Llfi.inputs Golden li.Core.Llfi.compiled
      in
      Alcotest.(check string)
        (w.name ^ ": llfi golden output = plain run")
        (finished lp) lc.Core.Llfi.golden_output;
      Alcotest.(check int)
        (w.name ^ ": llfi golden steps = plain run")
        lp.Vm.Outcome.steps lc.Core.Llfi.golden_steps;
      let pp =
        Vm.X86_exec.run ~inputs:pi.Core.Pinfi.inputs Golden pi.Core.Pinfi.loaded
      in
      Alcotest.(check string)
        (w.name ^ ": pinfi golden output = plain run")
        (finished pp) pc.Core.Pinfi.golden_output;
      Alcotest.(check int)
        (w.name ^ ": pinfi golden steps = plain run")
        pp.Vm.Outcome.steps pc.Core.Pinfi.golden_steps;
      (* the per-site profiles the coverage report rests on *)
      let sites (l : Core.Llfi.t) =
        let counts = Array.make (Vm.Ir_exec.gid_limit l.compiled) 0 in
        ignore (Vm.Ir_exec.run ~inputs:l.inputs (Profile_sites counts) l.compiled);
        counts
      in
      Alcotest.(check (array int))
        (w.name ^ ": llfi per-site profile")
        (sites li) (sites lc);
      let index (p : Core.Pinfi.t) =
        let counts = Array.make (Array.length p.loaded.masks) 0 in
        ignore (Vm.X86_exec.run ~inputs:p.inputs (Profile_index counts) p.loaded);
        counts
      in
      Alcotest.(check (array int))
        (w.name ^ ": pinfi per-instruction profile")
        (index pi) (index pc);
      (* propagation's traced golden and injected runs *)
      let traced mode (l : Core.Llfi.t) =
        let tr = Vm.Ir_exec.create_trace () in
        let st =
          Vm.Ir_exec.run ~inputs:l.inputs ~max_steps:l.max_steps ~trace:tr
            (mode ()) l.compiled
        in
        ( stats_key st,
          Array.sub tr.Vm.Ir_exec.t_gids 0 tr.Vm.Ir_exec.t_len,
          Array.sub tr.Vm.Ir_exec.t_vals 0 tr.Vm.Ir_exec.t_len )
      in
      let all = Core.Category.All in
      let inject () =
        Vm.Ir_exec.Inject
          ( {
              Vm.Ir_exec.inj_mask = Core.Category.mask all;
              target = Core.Llfi.dynamic_count lc all / 2;
              rng = Support.Rng.of_int 7;
            },
            Vm.Fault_model.sampled Vm.Fault_model.Bitflip )
      in
      List.iter
        (fun (what, mode) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: traced %s run" w.name what)
            true
            (traced mode li = traced mode lc))
        [ ("golden", fun () -> Vm.Ir_exec.Golden); ("injected", inject) ])
    Workloads.all;
  (* one VM execution per prepare: each run observes [run_steps] once *)
  let w = Workloads.find_exn "mcf" in
  let prog = Opt.optimize (Minic.compile w.Core.Workload.source) in
  let asm = Backend.compile prog in
  let observations name =
    match List.assoc_opt name (Obs.Metrics.snapshot ()) with
    | Some (Obs.Metrics.Histo { count; _ }) -> count
    | _ -> Alcotest.failf "metric %s missing" name
  in
  Fun.protect ~finally:Obs.Metrics.reset (fun () ->
      Obs.Metrics.reset ();
      Obs.Metrics.enable ();
      ignore (Core.Llfi.prepare ~inputs:w.Core.Workload.inputs prog);
      Alcotest.(check int) "Llfi.prepare runs the VM once" 1
        (observations "vm.ir.run_steps");
      ignore (Core.Pinfi.prepare ~inputs:w.Core.Workload.inputs asm);
      Alcotest.(check int) "Pinfi.prepare runs the VM once" 1
        (observations "vm.x86.run_steps"))

(* --- injected trials, every workload x level x category --- *)

(* Same rng stream into both engines; [track_use] on so the first-use
   classification is part of the compared surface. *)
let test_injected_trials_identity () =
  let trials = 8 in
  List.iter
    (fun (w : Core.Workload.t) ->
      let (lc, li), (pc, pi) = prepare_both w in
      List.iter
        (fun cat ->
          let cname = Core.Category.name cat in
          if Core.Llfi.dynamic_count li cat > 0 then
            for trial = 0 to trials - 1 do
              let seed = Int64.of_int ((trial * 7919) + 13) in
              let a =
                Core.Llfi.inject ~track_use:true li cat
                  (Support.Rng.create seed)
              in
              let b =
                Core.Llfi.inject ~track_use:true lc cat
                  (Support.Rng.create seed)
              in
              Alcotest.(check string)
                (Printf.sprintf "%s llfi %s trial %d" w.name cname trial)
                (stats_key a) (stats_key b)
            done;
          if Core.Pinfi.dynamic_count pi cat > 0 then
            for trial = 0 to trials - 1 do
              let seed = Int64.of_int ((trial * 104729) + 17) in
              let a =
                Core.Pinfi.inject ~track_use:true pi cat
                  (Support.Rng.create seed)
              in
              let b =
                Core.Pinfi.inject ~track_use:true pc cat
                  (Support.Rng.create seed)
              in
              Alcotest.(check string)
                (Printf.sprintf "%s pinfi %s trial %d" w.name cname trial)
                (stats_key a) (stats_key b)
            done)
        Core.Category.all)
    Workloads.all

(* --- fault-space enumeration identity --- *)

let test_enumerate_identity () =
  let w = Workloads.find_exn "mcf" in
  let (lc, li), (pc, pi) = prepare_both w in
  List.iter
    (fun cat ->
      let cname = Core.Category.name cat in
      let la = Core.Llfi.enumerate li cat
      and lb = Core.Llfi.enumerate lc cat in
      Alcotest.(check bool)
        ("llfi " ^ cname ^ ": identical fault space")
        true (la = lb);
      let pa = Core.Pinfi.enumerate pi cat
      and pb = Core.Pinfi.enumerate pc cat in
      Alcotest.(check bool)
        ("pinfi " ^ cname ^ ": identical fault space")
        true (pa = pb))
    Core.Category.all

(* --- whole campaigns: compiled CSV byte-equal to the reference ---

   Every workload under the default model, plus mcf under the two
   models whose mechanics differ most from a bitflip: stuck_at_1
   (forced-set) and skip (suppressed destination write). *)

let test_campaign_csv_identity () =
  let default = { Core.Campaign.default_config with trials = 20 } in
  let model m = { default with trials = 40; seed = 19; model = m } in
  let mcf = Workloads.find_exn "mcf" in
  List.iter
    (fun ((cfg_c : Core.Campaign.config), (w : Core.Workload.t)) ->
      let _, cells_c = Core.Campaign.run_workload cfg_c w in
      let _, cells_i =
        Core.Campaign.run_workload { cfg_c with compile = false } w
      in
      Alcotest.(check string)
        (Printf.sprintf "%s %s: campaign CSV identical to the reference"
           w.name (Core.Fault_model.name cfg_c.model))
        (Core.Campaign.to_csv cells_i)
        (Core.Campaign.to_csv cells_c))
    (List.map (fun w -> (default, w)) Workloads.all
    @ [ (model Core.Fault_model.Stuck_at_1, mcf); (model Core.Fault_model.Skip, mcf) ])

(* --- snapshot x rejoin x compile interplay ---

   Campaign cells through the fast-forward machine, on the reference
   and on the compiled table, plus the rejoin-journal path, must tally
   identically to direct from-entry trials: the table serves the ff
   machine's forward advance, the trial remainder, and the
   digest-maintaining journal recording, so each combination crosses a
   different set of engine code paths. *)

let test_snapshot_rejoin_interplay () =
  let w = Workloads.find_exn "libquantum" in
  let base = { Core.Campaign.default_config with trials = 25 } in
  let cfg compile = { base with compile } in
  let grid f =
    Core.Campaign.to_csv
      (List.concat_map (fun tool -> List.map (f tool) Core.Category.all) tools)
  in
  let reference =
    let config = cfg false in
    let p = Core.Campaign.prepare config w in
    grid (Reference.cell config p)
  in
  List.iter
    (fun compile ->
      let csv = Core.Campaign.to_csv (snd (Core.Campaign.run_workload (cfg compile) w)) in
      Alcotest.(check string)
        (Printf.sprintf "compile=%b equals reference" compile)
        reference csv)
    [ false; true ];
  (* rejoin journals recorded and consumed through each table *)
  let run_rejoin compile =
    let config = cfg compile in
    let p = Core.Campaign.prepare config w in
    let rejoin = Core.Campaign.record_rejoin p in
    grid (fun tool cat ->
        let r = Core.Campaign.runner ~rejoin p tool cat in
        Core.Campaign.run_cell ~runner:r config p tool cat)
  in
  Alcotest.(check string) "rejoin: walker table equals reference" reference
    (run_rejoin false);
  Alcotest.(check string) "rejoin: compiled equals reference" reference
    (run_rejoin true)

let () =
  Alcotest.run "compile"
    [
      ( "golden",
        [
          ("golden + profile identity, 6 workloads", `Quick, test_golden_identity);
        ] );
      ( "trials",
        [
          ( "injected trials identical, all cells",
            `Slow,
            test_injected_trials_identity );
          ("fault-space enumeration identical", `Quick, test_enumerate_identity);
        ] );
      ( "campaign",
        [
          ("campaign CSVs byte-equal, 6 workloads", `Slow, test_campaign_csv_identity);
          ( "snapshot x rejoin x compile interplay",
            `Slow,
            test_snapshot_rejoin_interplay );
        ] );
    ]
