(* fi — command-line driver for the LLFI/PINFI fault-injection study.

   Subcommands:
     list       benchmark registry (Table II data)
     run        golden-run a benchmark at either level
     emit       dump the optimized IR or the generated assembly
     profile    dynamic instruction counts per category (Table IV row)
     inject     run one fault-injection cell and print its tally
     propagate  trace fault propagation through the instruction stream
     edc        grade SDC severity (egregious vs tolerable corruption)
     check      parse/verify/execute a textual IR dump
     campaign   run the full study and print every table and figure
     diagnose   crash-cause analysis: first-use classes, crash latency,
                LLFI-vs-PINFI divergence attribution
     exhaust    exhaustive + pruned fault-space campaign: exact outcome
                rates with a measured pruning ratio
*)

open Cmdliner

let workload_conv =
  let parse s =
    match Workloads.find s with
    | Some w -> Ok w
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown workload %S (try: %s)" s
             (String.concat ", "
                (List.map (fun w -> w.Core.Workload.name) Workloads.all))))
  in
  let print fmt (w : Core.Workload.t) = Format.fprintf fmt "%s" w.name in
  Arg.conv (parse, print)

let category_conv =
  let parse s =
    match Core.Category.of_string s with
    | Some c -> Ok c
    | None -> Error (`Msg (Printf.sprintf "unknown category %S" s))
  in
  let print fmt c = Format.fprintf fmt "%s" (Core.Category.name c) in
  Arg.conv (parse, print)

let model_conv =
  let parse s =
    match Core.Fault_model.of_name s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown fault model %S (try: bitflip, multi_bit:N, stuck_at_0, \
              stuck_at_1, skip, load_value)"
             s))
  in
  let print fmt m = Format.fprintf fmt "%s" (Core.Fault_model.name m) in
  Arg.conv (parse, print)

let model_arg =
  Arg.(
    value
    & opt model_conv Core.Fault_model.Bitflip
    & info [ "model" ] ~docv:"MODEL"
        ~doc:
          "Fault model applied at each planned injection target: \
           $(b,bitflip) (the default, the paper's model), $(b,multi_bit:N) \
           (N bit flips drawn with replacement), $(b,stuck_at_0) / \
           $(b,stuck_at_1) (force one drawn bit), $(b,skip) (suppress the \
           targeted instruction's destination write), or $(b,load_value) \
           (replace the whole destination value).  Results are \
           deterministic per model and byte-identical for every \
           $(b,--jobs) value.")

let workload_opt_arg =
  Arg.(
    value
    & opt (some workload_conv) None
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Registered benchmark to use.")

let file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "f"; "file" ] ~docv:"PATH"
        ~doc:"A MiniC source file to study instead of a registered benchmark.")

let inputs_arg =
  Arg.(
    value
    & opt (list int) []
    & info [ "inputs" ] ~docv:"N,N,..."
        ~doc:"Input vector served by the program's input() builtin.")

let workload_of_file path inputs =
  let source = In_channel.with_open_text path In_channel.input_all in
  {
    Core.Workload.name = Filename.remove_extension (Filename.basename path);
    suite = "user";
    description = "user-supplied program " ^ path;
    paper_counterpart = "(none)";
    source;
    inputs = Array.of_list inputs;
    input_name = "custom";
  }

(* Either a registered benchmark (-w) or a source file (--file), with an
   optional input-vector override. *)
let workload_arg =
  let combine w file inputs =
    match (w, file) with
    | Some w, None -> (
      match inputs with
      | [] -> `Ok w
      | l -> `Ok { w with Core.Workload.inputs = Array.of_list l; input_name = "custom" })
    | None, Some path -> (
      match workload_of_file path inputs with
      | w -> `Ok w
      | exception Sys_error msg -> `Error (false, msg))
    | Some _, Some _ -> `Error (true, "use either -w or --file, not both")
    | None, None -> `Error (true, "one of -w NAME or --file PATH is required")
  in
  Term.(ret (const combine $ workload_opt_arg $ file_arg $ inputs_arg))

let seed_arg =
  Arg.(
    value & opt int 2014
    & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign master seed (deterministic).")

let trials_arg default =
  Arg.(
    value & opt int default
    & info [ "n"; "trials" ] ~docv:"N"
        ~doc:"Fault injections per benchmark x tool x category cell.")

let config_of ?(model = Core.Fault_model.Bitflip) ~trials ~seed () =
  { Core.Campaign.default_config with trials; seed; model }

(* --- execution-engine flags (campaign, inject) --- *)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the execution engine.  1 (the default) runs \
           sequentially on the calling domain; 0 uses the \
           runtime-recommended domain count.  Results are byte-identical \
           for every value of $(docv).")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:
          "Checkpoint file: append every completed campaign cell so an \
           interrupted run can be resumed with $(b,--resume).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume from the $(b,--journal) file, skipping cells it already \
           contains.")

let resolve_jobs jobs = if jobs <= 0 then Engine.Pool.default_size () else jobs

let check_engine_flags ~journal ~resume =
  if resume && journal = None then
    `Error (true, "--resume requires --journal PATH")
  else `Ok ()

(* --- observability flags (campaign, inject, diagnose, fuzz) ---

   All telemetry notices and tables go to stderr: stdout must stay
   byte-identical with telemetry on or off (ci.sh smokes this). *)

type obs_opts = {
  o_trace : string option;
  o_metrics : bool;
  o_manifest : string option;
}

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "Record spans (scheduler tasks, fast-forward / checkpoint / \
           trial phases) and write a Chrome trace_event JSON file to \
           $(docv) — open it in chrome://tracing or Perfetto.  The span \
           tree is identical for every $(b,--jobs) value.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the merged metrics table to stderr when the run ends.")

let manifest_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "manifest" ] ~docv:"PATH"
        ~doc:
          "Write a run manifest (config, environment, per-section \
           wall-clock, metrics, output digests) to $(docv).  On by \
           default for $(b,campaign) (fi-manifest.json); see \
           $(b,--no-manifest).")

let no_manifest_arg =
  Arg.(
    value & flag
    & info [ "no-manifest" ] ~doc:"Do not write a run manifest.")

(* Manifests record the full invocation — the whole argument vector,
   not just the subcommand name — so a run can be replayed from its
   manifest alone. *)
let argv_command () = String.concat " " (Array.to_list Sys.argv)

(* The tracer needs spans recorded as they happen, so enabling is part
   of argument resolution; metrics piggyback on any telemetry consumer
   (the manifest embeds a metrics snapshot). *)
let obs_resolve ~manifest_default trace metrics manifest no_manifest =
  let manifest =
    if no_manifest then None
    else match manifest with Some p -> Some p | None -> manifest_default
  in
  if trace <> None then Obs.Trace.enable ();
  if trace <> None || metrics || manifest <> None then Obs.Metrics.enable ();
  { o_trace = trace; o_metrics = metrics; o_manifest = manifest }

let obs_term ~manifest_default =
  Term.(
    const (obs_resolve ~manifest_default)
    $ trace_arg $ metrics_arg $ manifest_arg $ no_manifest_arg)

let obs_finish ?manifest o =
  (match o.o_trace with
  | Some path ->
    Obs.Trace.write path;
    Fmt.epr "Trace written to %s@." path
  | None -> ());
  (match (o.o_manifest, manifest) with
  | Some path, Some m ->
    Obs.Manifest.write m ~path;
    if path <> "/dev/null" then Fmt.epr "Run manifest written to %s@." path
  | _ -> ());
  if o.o_metrics then prerr_string (Obs.Metrics.render ())

(* Manifest plumbing shared by every campaign-shaped subcommand: create
   the manifest iff --manifest resolved to a path, record the config
   key/values, and expose section timing that is a no-op without a
   manifest.  [finish] is [obs_finish] with the context's manifest. *)
type mctx = {
  mf : Obs.Manifest.t option;
  in_section : 'a. string -> (unit -> 'a) -> 'a;
}

let manifest_ctx obs kvs =
  let mf =
    Option.map
      (fun _ -> Obs.Manifest.create ~command:(argv_command ()))
      obs.o_manifest
  in
  (match mf with
  | Some m -> List.iter (fun (k, v) -> Obs.Manifest.set m k v) kvs
  | None -> ());
  {
    mf;
    in_section =
      (fun name f ->
        match mf with Some m -> Obs.Manifest.section m name f | None -> f ());
  }

let finish ctx obs = obs_finish ?manifest:ctx.mf obs

(* The CSV epilogue every results-producing command shares: digest into
   the manifest, then optionally write the file. *)
let record_csv ctx ?path ~what csv =
  (match ctx.mf with
  | Some m -> Obs.Manifest.add_digest m "csv" ~payload:csv
  | None -> ());
  match path with
  | Some p ->
    let oc = open_out p in
    output_string oc csv;
    close_out oc;
    Fmt.pr "%s written to %s@." what p
  | None -> ()

let kv_workloads workloads =
  Obs.Json.List
    (List.map (fun (w : Core.Workload.t) -> Obs.Json.Str w.name) workloads)

(* --- list --- *)

let list_cmd =
  let run () =
    Core.Report.table2 Workloads.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark programs (Table II).")
    Term.(const run $ const ())

(* --- run --- *)

let level_arg =
  Arg.(
    value
    & opt (enum [ ("ir", `Ir); ("asm", `Asm) ]) `Ir
    & info [ "level" ] ~docv:"LEVEL" ~doc:"Execution level: ir or asm.")

let run_cmd =
  let run (w : Core.Workload.t) level =
    let prog = Opt.optimize (Minic.compile w.source) in
    let stats =
      match level with
      | `Ir -> Vm.Ir_exec.run ~inputs:w.inputs Golden (Vm.Ir_exec.compile prog)
      | `Asm ->
        Vm.X86_exec.run ~inputs:w.inputs Golden
          (Vm.X86_exec.load (Backend.compile prog))
    in
    (match stats.Vm.Outcome.outcome with
    | Vm.Outcome.Finished out -> print_string out
    | other -> Fmt.pr "%a@." Vm.Outcome.pp other);
    Fmt.pr "[%d dynamic instructions]@." stats.Vm.Outcome.steps;
    0
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Golden-run a benchmark and print its output.")
    Term.(const run $ workload_arg $ level_arg)

(* --- emit --- *)

let emit_cmd =
  let run (w : Core.Workload.t) what optimized =
    let prog = Minic.compile w.source in
    let prog = if optimized then Opt.optimize prog else prog in
    (match what with
    | `Ir -> print_string (Ir.Printer.prog_to_string prog)
    | `Asm -> print_string (Backend.Program.to_string (Backend.compile prog)));
    0
  in
  let what =
    Arg.(
      value
      & opt (enum [ ("ir", `Ir); ("asm", `Asm) ]) `Ir
      & info [ "emit" ] ~docv:"WHAT" ~doc:"What to dump: ir or asm.")
  in
  let optimized =
    Arg.(
      value & opt bool true
      & info [ "optimized" ] ~docv:"BOOL"
          ~doc:"Run the standard optimization pipeline first.")
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Dump a benchmark's IR or generated assembly.")
    Term.(const run $ workload_arg $ what $ optimized)

(* --- profile --- *)

let profile_cmd =
  let run (w : Core.Workload.t) =
    let config = Core.Campaign.default_config in
    let p = Core.Campaign.prepare config w in
    Core.Report.table4 [ p ];
    0
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile dynamic instruction counts per category (Table IV row).")
    Term.(const run $ workload_arg)

(* --- inject --- *)

let inject_cmd =
  let run (w : Core.Workload.t) tool category model trials seed functions jobs
      journal resume obs =
    match check_engine_flags ~journal ~resume with
    | `Error _ as e -> e
    | `Ok () ->
    let config = config_of ~model ~trials ~seed () in
    let config =
      match functions with
      | [] -> config
      | names ->
        {
          config with
          llfi =
            { config.llfi with Core.Llfi.custom_selector = Core.Llfi.in_functions names };
        }
    in
    let tool =
      match tool with
      | `Llfi -> Core.Campaign.Llfi_tool
      | `Pinfi -> Core.Campaign.Pinfi_tool
    in
    let ctx =
      manifest_ctx obs
        [
          ("workload", Obs.Json.Str w.name);
          ("tool", Obs.Json.Str (Core.Campaign.tool_name tool));
          ("category", Obs.Json.Str (Core.Category.name category));
          ("model", Obs.Json.Str (Core.Fault_model.name model));
          ("seed", Obs.Json.Int seed);
          ("trials", Obs.Json.Int trials);
          ("jobs", Obs.Json.Int (resolve_jobs jobs));
        ]
    in
    (* A single cell run through the engine: with --jobs N the cell is
       split into N trial ranges; the tally is identical either way. *)
    match
      ctx.in_section "execute" @@ fun () ->
      Engine.Scheduler.run ~jobs:(resolve_jobs jobs) ?journal ~resume
        ~tools:[ tool ] ~categories:[ category ] config [ w ]
    with
    | exception Invalid_argument msg -> `Error (false, msg)
    | result ->
    let cell = List.hd result.Engine.Scheduler.cells in
    let t = cell.Core.Campaign.c_tally in
    Fmt.pr "workload=%s tool=%s category=%s population=%d@." w.name
      (Core.Campaign.tool_name tool)
      (Core.Category.name category)
      cell.c_population;
    Fmt.pr "trials=%d activated=%d@." t.Core.Verdict.trials
      (Core.Verdict.activated t);
    Fmt.pr "crash=%d (%.1f%%)  sdc=%d (%.1f%%)  benign=%d (%.1f%%)  hang=%d@."
      t.crash
      (100.0 *. Core.Verdict.crash_rate t)
      t.sdc
      (100.0 *. Core.Verdict.sdc_rate t)
      t.benign
      (100.0 *. Core.Verdict.benign_rate t)
      t.hang;
    if t.not_activated > 0 then Fmt.pr "not activated: %d@." t.not_activated;
    finish ctx obs;
    `Ok 0
  in
  let tool_arg =
    Arg.(
      value
      & opt (enum [ ("llfi", `Llfi); ("pinfi", `Pinfi) ]) `Llfi
      & info [ "t"; "tool" ] ~docv:"TOOL" ~doc:"Injector: llfi or pinfi.")
  in
  let cat_arg =
    Arg.(
      value
      & opt category_conv Core.Category.All
      & info [ "c"; "category" ] ~docv:"CAT"
          ~doc:"Instruction category: arithmetic, cast, cmp, load or all.")
  in
  let functions_arg =
    Arg.(
      value & opt_all string []
      & info [ "in-function" ] ~docv:"FUNC"
          ~doc:
            "Restrict LLFI injection to the named function(s) — LLFI's \
             custom selectors (repeatable).")
  in
  Cmd.v
    (Cmd.info "inject" ~doc:"Run one fault-injection cell and print the tally.")
    Term.(
      ret
        (const run $ workload_arg $ tool_arg $ cat_arg $ model_arg
       $ trials_arg 200 $ seed_arg $ functions_arg $ jobs_arg $ journal_arg
       $ resume_arg
       $ obs_term ~manifest_default:None))

(* --- propagate --- *)

let propagate_cmd =
  let run (w : Core.Workload.t) category trials seed =
    let prog = Opt.optimize (Minic.compile w.source) in
    let llfi = Core.Llfi.prepare ~inputs:w.inputs prog in
    let rng = Support.Rng.of_int seed in
    Fmt.pr "Error propagation for %s, %d traced injections into '%s':@."
      w.name trials
      (Core.Category.name category);
    let vanished = ref 0 in
    let data_only = ref 0 in
    let cf = ref 0 in
    for trial = 1 to trials do
      let report = Core.Propagation.analyze llfi category (Support.Rng.split rng) in
      Fmt.pr "  %2d: %a@." trial Core.Propagation.pp_report report;
      (match
         (report.Core.Propagation.first_divergence,
          report.Core.Propagation.control_flow_diverged_at)
       with
      | None, _ -> incr vanished
      | Some _, None -> incr data_only
      | Some _, Some _ -> incr cf)
    done;
    Fmt.pr "@.summary: %d vanished, %d data-flow only, %d reached control flow@."
      !vanished !data_only !cf;
    0
  in
  let cat_arg =
    Arg.(
      value
      & opt category_conv Core.Category.All
      & info [ "c"; "category" ] ~docv:"CAT" ~doc:"Instruction category.")
  in
  Cmd.v
    (Cmd.info "propagate"
       ~doc:
         "Trace how injected faults propagate through the dynamic \
          instruction stream (LLFI's propagation analysis).")
    Term.(const run $ workload_arg $ cat_arg $ trials_arg 10 $ seed_arg)

(* --- check: parse/verify/run a textual IR dump --- *)

let check_cmd =
  let run path inputs execute =
    let text = In_channel.with_open_text path In_channel.input_all in
    match Ir.Parse.prog text with
    | exception Ir.Parse.Error msg ->
      Fmt.epr "parse error: %s@." msg;
      1
    | prog -> (
      match Ir.Verify.check_prog prog with
      | _ :: _ as errors ->
        List.iter (fun e -> Fmt.epr "%a@." Ir.Verify.pp_error e) errors;
        Fmt.epr "%d verification error(s)@." (List.length errors);
        1
      | [] ->
        Fmt.pr "%s: %d function(s), %d global(s) — OK@." path
          (List.length prog.Ir.Prog.funcs)
          (List.length prog.Ir.Prog.globals);
        if execute then begin
          let stats =
            Vm.Ir_exec.run ~inputs:(Array.of_list inputs) Golden
              (Vm.Ir_exec.compile prog)
          in
          match stats.Vm.Outcome.outcome with
          | Vm.Outcome.Finished out ->
            print_string out;
            Fmt.pr "[%d dynamic instructions]@." stats.Vm.Outcome.steps
          | other -> Fmt.pr "%a@." Vm.Outcome.pp other
        end;
        0)
  in
  let path_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE.ll" ~doc:"Textual IR dump (from 'fi emit').")
  in
  let exec_arg =
    Arg.(
      value & flag
      & info [ "exec" ] ~doc:"Also execute the parsed program's main.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Parse and verify a textual IR dump; optionally execute it.")
    Term.(const run $ path_arg $ inputs_arg $ exec_arg)

(* --- edc --- *)

let edc_cmd =
  let run (w : Core.Workload.t) category trials seed threshold =
    let prog = Opt.optimize (Minic.compile w.source) in
    let llfi = Core.Llfi.prepare ~inputs:w.inputs prog in
    let study =
      Core.Edc.run_study ~threshold llfi category ~trials
        (Support.Rng.of_int seed)
    in
    Fmt.pr "workload=%s category=%s trials=%d threshold=%.0f%%@." w.name
      (Core.Category.name category)
      trials (100.0 *. threshold);
    Fmt.pr "sdc=%d  egregious=%d  tolerable=%d  (worst tolerated deviation %.3f%%)@."
      study.Core.Edc.s_sdc study.s_egregious study.s_tolerable
      (100.0 *. study.s_max_tolerated);
    0
  in
  let cat_arg =
    Arg.(
      value
      & opt category_conv Core.Category.All
      & info [ "c"; "category" ] ~docv:"CAT" ~doc:"Instruction category.")
  in
  let threshold_arg =
    Arg.(
      value
      & opt float Core.Edc.default_threshold
      & info [ "threshold" ] ~docv:"FRAC"
          ~doc:"Relative deviation above which an SDC counts as egregious.")
  in
  Cmd.v
    (Cmd.info "edc"
       ~doc:
         "Grade SDC severity: egregious vs tolerable data corruptions \
          (the soft-computing extension).")
    Term.(const run $ workload_arg $ cat_arg $ trials_arg 200 $ seed_arg $ threshold_arg)

(* --- campaign --- *)

(* Glue between the scheduler's per-trial observation hook and the
   diagnosis record sink. *)
let sink_observer sink ~workload ~tool ~category ~trial verdict stats =
  Diagnose.Sink.add sink
    (Diagnose.Record.of_stats ~workload ~tool ~category ~trial verdict stats)

let records_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "records" ] ~docv:"PATH"
        ~doc:
          "Capture one diagnosis record per trial (fault site, first use \
           of the corrupted value, trap, crash latency) and write them to \
           $(docv); also prints the crash-cause analysis.  Byte-identical \
           for every $(b,--jobs) value.")

let campaign_cmd =
  let run model trials seed csv_file workload_filter jobs journal resume
      records obs =
    match check_engine_flags ~journal ~resume with
    | `Error _ as e -> e
    | `Ok () ->
    let jobs = resolve_jobs jobs in
    let config = config_of ~model ~trials ~seed () in
    let workloads =
      match workload_filter with
      | [] -> Workloads.all
      | names -> List.map Workloads.find_exn names
    in
    let ctx =
      manifest_ctx obs
        [
          ("seed", Obs.Json.Int seed);
          ("trials", Obs.Json.Int trials);
          ("model", Obs.Json.Str (Core.Fault_model.name model));
          ("jobs", Obs.Json.Int jobs);
          ("journal", Obs.Json.Bool (journal <> None));
          ("records", Obs.Json.Bool (records <> None));
          ("workloads", kv_workloads workloads);
        ]
    in
    Fmt.pr
      "Running campaign: %d workloads x 2 tools x %d categories x %d trials \
       (%d job%s)@."
      (List.length workloads)
      (List.length Core.Category.all)
      trials jobs
      (if jobs = 1 then "" else "s");
    let sink = Option.map (fun _ -> Diagnose.Sink.create ()) records in
    match
      ctx.in_section "execute" @@ fun () ->
      Engine.Scheduler.run ~jobs ?journal ~resume
        ~progress:(Engine.Progress.create ())
        ?observe:(Option.map sink_observer sink)
        ~track_use:(sink <> None) config workloads
    with
    | exception Invalid_argument msg -> `Error (false, msg)
    | result ->
    let prepared = result.Engine.Scheduler.prepared in
    let cells = result.Engine.Scheduler.cells in
    (ctx.in_section "report" @@ fun () ->
     print_newline ();
     Core.Report.table2 workloads;
     print_newline ();
     Core.Report.table3 ();
     print_newline ();
     Core.Report.table1 prepared;
     print_newline ();
     Core.Report.figure2 ();
     Core.Report.table4 prepared;
     print_newline ();
     Core.Report.figure3 cells;
     print_newline ();
     Core.Report.figure4 cells;
     print_newline ();
     Core.Report.table5 cells;
     print_newline ();
     Core.Report.print_claims (Core.Report.evaluate_claims prepared cells));
    (match (sink, records) with
    | Some sink, Some path ->
      print_newline ();
      print_string (Diagnose.Summary.render (Diagnose.Sink.records sink));
      Diagnose.Sink.write sink path;
      Fmt.pr "Diagnosis records written to %s@." path
    | _ -> ());
    record_csv ctx ?path:csv_file ~what:"Raw results"
      (Core.Campaign.to_csv cells);
    finish ctx obs;
    `Ok 0
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write raw cell tallies as CSV.")
  in
  let filter_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"WORKLOAD"
          ~doc:"Restrict the campaign to the named workloads.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run the full study and print every table and figure of the paper \
          (paper values alongside).  With $(b,--jobs) the cells run on a \
          domain pool; output is byte-identical to a sequential run.")
    Term.(
      ret
        (const run $ model_arg $ trials_arg 200 $ seed_arg $ csv_arg
       $ filter_arg $ jobs_arg $ journal_arg $ resume_arg $ records_arg
       $ obs_term ~manifest_default:(Some "fi-manifest.json")))

(* --- diagnose --- *)

let diagnose_cmd =
  let run workload_filter tools categories model trials seed from records
      csv_file jobs obs =
    match from with
    | Some path -> (
      (* Consume an existing record file instead of running anything. *)
      match Diagnose.Sink.load path with
      | exception Invalid_argument msg -> `Error (false, msg)
      | rs ->
        print_string (Diagnose.Summary.render rs);
        `Ok 0)
    | None ->
      let config = config_of ~model ~trials ~seed () in
      let workloads =
        match workload_filter with
        | [] -> Workloads.all
        | names -> List.map Workloads.find_exn names
      in
      let tools =
        match tools with
        | [] -> [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ]
        | l ->
          List.map
            (function
              | `Llfi -> Core.Campaign.Llfi_tool
              | `Pinfi -> Core.Campaign.Pinfi_tool)
            l
      in
      let categories =
        match categories with [] -> Core.Category.all | l -> l
      in
      let sink = Diagnose.Sink.create () in
      let ctx =
        manifest_ctx obs
          [
            ("seed", Obs.Json.Int seed);
            ("trials", Obs.Json.Int trials);
            ("model", Obs.Json.Str (Core.Fault_model.name model));
            ("jobs", Obs.Json.Int (resolve_jobs jobs));
          ]
      in
      (match
         ctx.in_section "execute" @@ fun () ->
         Engine.Scheduler.run ~jobs:(resolve_jobs jobs) ~tools ~categories
           ~observe:(sink_observer sink) ~track_use:true config workloads
       with
      | exception Invalid_argument msg -> `Error (false, msg)
      | result ->
        print_string (Diagnose.Summary.render (Diagnose.Sink.records sink));
        (match records with
        | Some path ->
          Diagnose.Sink.write sink path;
          Fmt.pr "Diagnosis records written to %s@." path
        | None -> ());
        record_csv ctx ?path:csv_file ~what:"Raw results"
          (Core.Campaign.to_csv result.Engine.Scheduler.cells);
        finish ctx obs;
        `Ok 0)
  in
  let filter_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"WORKLOAD"
          ~doc:"Restrict the analysis to the named workloads.")
  in
  let tools_arg =
    Arg.(
      value
      & opt_all (enum [ ("llfi", `Llfi); ("pinfi", `Pinfi) ]) []
      & info [ "t"; "tool" ] ~docv:"TOOL"
          ~doc:"Injector to diagnose (repeatable; default: both).")
  in
  let cats_arg =
    Arg.(
      value & opt_all category_conv []
      & info [ "c"; "category" ] ~docv:"CAT"
          ~doc:"Instruction category (repeatable; default: all five).")
  in
  let from_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "from" ] ~docv:"PATH"
          ~doc:
            "Analyse an existing record file (written by $(b,--records)) \
             instead of running a campaign.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write raw cell tallies as CSV.")
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:
         "Run an injection campaign with per-trial diagnosis capture and \
          print the crash-cause analysis: what corrupted values flow into \
          first (address / control / stack / data), crash-latency \
          distributions, and the attribution of the LLFI-vs-PINFI \
          crash-rate gap to those cause classes.")
    Term.(
      ret
        (const run $ filter_arg $ tools_arg $ cats_arg $ model_arg
       $ trials_arg 200 $ seed_arg $ from_arg $ records_arg $ csv_arg
       $ jobs_arg
       $ obs_term ~manifest_default:None))

(* --- exhaust --- *)

let exhaust_cmd =
  let print_exact_cell (e : Core.Campaign.exact_cell) =
    let t = e.Core.Campaign.e_tally in
    Fmt.pr "workload=%s tool=%s category=%s population=%d@." e.e_workload
      (Core.Campaign.tool_name e.e_tool)
      (Core.Category.name e.e_category)
      e.e_population;
    Fmt.pr
      "  enumerated=%d pruned: dead=%d masked=%d equiv=%d; executed=%d \
       (ratio %.1fx)@."
      e.e_enumerated e.e_pruned_dead e.e_pruned_masked e.e_pruned_equiv
      e.e_executed
      (Core.Campaign.pruning_ratio e);
    if Core.Verdict.activated t = 0 then Fmt.pr "  (empty category)@."
    else begin
      Fmt.pr "  exact rates: crash=%.4f%% sdc=%.4f%% benign=%.4f%% hang=%.4f%%"
        (100.0 *. Core.Campaign.exact_crash_rate e)
        (100.0 *. Core.Campaign.exact_sdc_rate e)
        (100.0 *. Core.Campaign.exact_benign_rate e)
        (100.0 *. Core.Campaign.exact_hang_rate e);
      if e.e_bound > 0.0 then
        Fmt.pr " (sampled residual, certified to ±%.4f%%)"
          (100.0 *. e.e_bound);
      Fmt.pr "@."
    end
  in
  let run workload_filter tools categories model prune sample_bound seed
      trials inputs csv_file jobs journal resume obs =
    match check_engine_flags ~journal ~resume with
    | `Error _ as e -> e
    | `Ok () ->
    let jobs = resolve_jobs jobs in
    let workloads =
      match workload_filter with
      | [] -> [ Workloads.libquantum; Workloads.mcf ]
      | names -> List.map Workloads.find_exn names
    in
    let workloads =
      match inputs with
      | [] -> workloads
      | l ->
        List.map
          (fun (w : Core.Workload.t) ->
            { w with Core.Workload.inputs = Array.of_list l;
              input_name = "custom" })
          workloads
    in
    let tools =
      match tools with
      | [] -> [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ]
      | l ->
        List.map
          (function
            | `Llfi -> Core.Campaign.Llfi_tool
            | `Pinfi -> Core.Campaign.Pinfi_tool)
          l
    in
    let categories =
      match categories with [] -> [ Core.Category.All ] | l -> l
    in
    let config =
      { Exhaust.prune = (prune = `All); sample_bound; seed }
    in
    let campaign_config = config_of ~model ~trials:(max trials 1) ~seed () in
    let ctx =
      manifest_ctx obs
        [
          ("seed", Obs.Json.Int seed);
          ("model", Obs.Json.Str (Core.Fault_model.name model));
          ("prune", Obs.Json.Bool config.Exhaust.prune);
          ("sample_bound", Obs.Json.Int sample_bound);
          ("jobs", Obs.Json.Int jobs);
          ("trials", Obs.Json.Int trials);
          ("workloads", kv_workloads workloads);
        ]
    in
    match
      ctx.in_section "execute" @@ fun () ->
      Exhaust.run ~jobs ?journal ~resume ~tools ~categories
        ~on_cell:print_exact_cell config campaign_config workloads
    with
    | exception Invalid_argument msg -> `Error (false, msg)
    | result ->
    let cells = result.Exhaust.cells in
    (* Pruning accounting, for the manifest (and the bench gate). *)
    let sum f = List.fold_left (fun acc e -> acc + f e) 0 cells in
    let enumerated = sum (fun e -> e.Core.Campaign.e_enumerated) in
    let executed = sum (fun e -> e.Core.Campaign.e_executed) in
    (match ctx.mf with
    | Some m ->
      Obs.Manifest.set m "enumerated" (Obs.Json.Int enumerated);
      Obs.Manifest.set m "pruned_dead"
        (Obs.Json.Int (sum (fun e -> e.Core.Campaign.e_pruned_dead)));
      Obs.Manifest.set m "pruned_masked"
        (Obs.Json.Int (sum (fun e -> e.Core.Campaign.e_pruned_masked)));
      Obs.Manifest.set m "pruned_equiv"
        (Obs.Json.Int (sum (fun e -> e.Core.Campaign.e_pruned_equiv)));
      Obs.Manifest.set m "executed" (Obs.Json.Int executed)
    | None -> ());
    (* The validation table: exact rates vs a Monte-Carlo campaign of
       --trials injections on the very same prepared workloads. *)
    if trials > 0 then begin
      let sampled =
        ctx.in_section "sampled-comparison" @@ fun () ->
        List.concat_map
          (fun (p : Core.Campaign.prepared) ->
            List.concat_map
              (fun tool ->
                List.map
                  (fun category ->
                    Core.Campaign.run_cell campaign_config p tool category)
                  categories)
              tools)
          result.Exhaust.prepared
      in
      print_newline ();
      Core.Report.exact_vs_sampled cells sampled
    end;
    record_csv ctx ?path:csv_file ~what:"Exact results"
      (Core.Campaign.exact_to_csv cells);
    finish ctx obs;
    `Ok 0
  in
  let filter_arg =
    Arg.(
      value & opt_all string []
      & info [ "w"; "workload" ] ~docv:"NAME"
          ~doc:
            "Benchmark to cover exhaustively (repeatable; default: \
             libquantum and mcf).")
  in
  let tools_arg =
    Arg.(
      value
      & opt_all (enum [ ("llfi", `Llfi); ("pinfi", `Pinfi) ]) []
      & info [ "t"; "tool" ] ~docv:"TOOL"
          ~doc:"Injector (repeatable; default: both).")
  in
  let cats_arg =
    Arg.(
      value & opt_all category_conv []
      & info [ "c"; "category" ] ~docv:"CAT"
          ~doc:"Instruction category (repeatable; default: all).")
  in
  let prune_arg =
    Arg.(
      value
      & opt (enum [ ("all", `All); ("none", `None) ]) `All
      & info [ "prune" ] ~docv:"MODE"
          ~doc:
            "Pruning mode: $(b,all) applies the dead-destination, \
             masked-bit and golden-key equivalence rules; $(b,none) \
             executes \
             every single (instance, bit) fault (the brute-force oracle).")
  in
  let bound_arg =
    Arg.(
      value & opt int 0
      & info [ "sample-bound" ] ~docv:"K"
          ~doc:
            "Cap the executed faults per cell at $(docv): oversized \
             residuals are finished by a deterministic weighted sampler \
             and the cell reports a Chernoff-certified error bound.  0 \
             (the default) executes every surviving fault — fully exact.")
  in
  let inputs_arg =
    Arg.(
      value
      & opt (list int) []
      & info [ "inputs" ] ~docv:"N,N,..."
          ~doc:
            "Replace every selected workload's input vector — the lever \
             that bounds the dynamic fault space (full default inputs \
             make exhaustive coverage very slow).")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write exact per-cell results (counts, pruning, rates) as CSV.")
  in
  let trials_arg =
    Arg.(
      value & opt int 200
      & info [ "n"; "trials" ] ~docv:"N"
          ~doc:
            "Monte-Carlo trials per cell for the exact-vs-sampled \
             validation table; 0 skips the comparison.")
  in
  Cmd.v
    (Cmd.info "exhaust"
       ~doc:
         "Exhaustive + pruned fault-space campaign: enumerate every \
          (dynamic instance, bit) fault of each cell, prune the provably \
          golden-path ones, execute each survivor once, and report exact \
          (CI-free) crash/SDC/benign rates beside \
          Monte-Carlo estimates.  Output is byte-identical for every \
          $(b,--jobs) value.")
    Term.(
      ret
        (const run $ filter_arg $ tools_arg $ cats_arg $ model_arg
       $ prune_arg $ bound_arg $ seed_arg $ trials_arg $ inputs_arg $ csv_arg
       $ jobs_arg $ journal_arg $ resume_arg $ obs_term ~manifest_default:None))

(* --- fuzz --- *)

let fuzz_cmd =
  let run seed count coverage trials jobs workload_filter models mutate corpus
      max_repros obs =
    let mutate =
      match mutate with
      | None -> `Ok None
      | Some name -> (
        match Fuzz.Mutate.of_name name with
        | Some m -> `Ok (Some m)
        | None ->
          `Error
            ( false,
              Printf.sprintf "unknown mutation %S (try: %s)" name
                (String.concat ", "
                   (List.map Fuzz.Mutate.name Fuzz.Mutate.all)) ))
    in
    match mutate with
    | `Error _ as e -> e
    | `Ok mutate ->
      let ctx =
        manifest_ctx obs
          [
            ("seed", Obs.Json.Int seed);
            ("count", Obs.Json.Int count);
            ("coverage", Obs.Json.Bool coverage);
          ]
      in
      if coverage then begin
        let workloads =
          match workload_filter with
          | [] -> Workloads.all
          | names -> List.map Workloads.find_exn names
        in
        let report =
          ctx.in_section "coverage" @@ fun () ->
          Fuzz.Coverage.measure ~jobs:(resolve_jobs jobs) ~workloads ~models
            ~trials ~seed ()
        in
        print_string (Fuzz.Coverage.render report);
        finish ctx obs;
        `Ok 0
      end
      else begin
        let summary =
          ctx.in_section "fuzz" @@ fun () ->
          Fuzz.campaign ?mutate ~max_repros ~seed ~count ()
        in
        print_string (Fuzz.render_summary ?mutate summary);
        (match corpus with
        | Some dir when summary.Fuzz.s_findings <> [] ->
          let paths = Fuzz.write_corpus ~dir summary in
          List.iter (fun p -> Fmt.pr "repro written to %s@." p) paths
        | _ -> ());
        finish ctx obs;
        `Ok (if summary.Fuzz.s_findings = [] then 0 else 1)
      end
  in
  let count_arg =
    Arg.(
      value & opt int 200
      & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate.")
  in
  let coverage_arg =
    Arg.(
      value & flag
      & info [ "coverage" ]
          ~doc:
            "Print the injection-space coverage report instead of fuzzing: \
             per workload x tool x category, the static sites and bit \
             positions the samplers can reach vs what $(b,--trials) \
             injections visit.  Byte-identical for every $(b,--jobs) value.")
  in
  let mutate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutate" ] ~docv:"BUG"
          ~doc:
            "Plant a known compiler bug (add-to-sub, cmp-flip, drop-store) \
             into the optimization pipeline; the fuzzer must find and \
             minimize it.  Exit status is then expected to be nonzero.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Write minimized repros for any divergence found into $(docv).")
  in
  let max_repros_arg =
    Arg.(
      value & opt int 5
      & info [ "max-repros" ] ~docv:"N"
          ~doc:"Minimize at most $(docv) divergent programs (minimization \
                dominates runtime once a bug is present).")
  in
  let filter_arg =
    Arg.(
      value & opt_all string []
      & info [ "w"; "workload" ] ~docv:"NAME"
          ~doc:"Restrict $(b,--coverage) to the named workloads (repeatable).")
  in
  let models_arg =
    Arg.(
      value & opt_all model_conv []
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Fault model for $(b,--coverage) (repeatable; default: \
             bitflip).  With several models the report covers the \
             (site, bit, model) fault space.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing of the pipeline itself: random MiniC and IR \
          programs are run through every optimization pass, the full \
          pipeline and the backend, and all levels must agree with the \
          unoptimized reference.  Exit status 1 if any divergence is found. \
          With $(b,--coverage), report injection-space coverage of the \
          LLFI/PINFI samplers instead.")
    Term.(
      ret
        (const run $ seed_arg $ count_arg $ coverage_arg $ trials_arg 200
       $ jobs_arg $ filter_arg $ models_arg $ mutate_arg $ corpus_arg
       $ max_repros_arg $ obs_term ~manifest_default:None))

(* --- serve / submit / shutdown / loadgen: the campaign service --- *)

let socket_arg =
  Arg.(
    value
    & opt string "fi-serve.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the campaign service listens (connects) on.")

let tools_of = function
  | [] -> [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ]
  | l ->
    List.map
      (function
        | `Llfi -> Core.Campaign.Llfi_tool | `Pinfi -> Core.Campaign.Pinfi_tool)
      l

let serve_cmd =
  let run socket tcp pool chunk journal idle obs =
    let tcp =
      match tcp with
      | None -> `Ok None
      | Some spec -> (
        match String.rindex_opt spec ':' with
        | Some i -> (
          match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
          | Some port -> `Ok (Some (String.sub spec 0 i, port))
          | None -> `Error (true, "bad --tcp PORT in " ^ spec))
        | None -> `Error (true, "--tcp expects HOST:PORT"))
    in
    match tcp with
    | `Error _ as e -> e
    | `Ok tcp ->
      let pool = resolve_jobs pool in
      let ctx =
        manifest_ctx obs
          [
            ("socket", Obs.Json.Str socket);
            ("pool", Obs.Json.Int pool);
            ("chunk", Obs.Json.Int (Option.value chunk ~default:0));
            ("journal", Obs.Json.Bool (journal <> None));
          ]
      in
      let cfg =
        {
          (Serve.Server.default ~socket) with
          Serve.Server.tcp;
          pool_size = pool;
          chunk;
          journal;
          idle_timeout = idle;
          handle_signals = true;
        }
      in
      let on_ready () =
        Fmt.pr "fi serve: listening on %s (%d workers)@." socket pool;
        (* scripts wait for this line before connecting *)
        flush stdout
      in
      (match ctx.in_section "serve" (fun () -> Serve.Server.run ~on_ready cfg) with
      | exception Unix.Unix_error (err, fn, arg) ->
        `Error
          (false, Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message err))
      | exception Invalid_argument msg -> `Error (false, msg)
      | stats ->
        (match ctx.mf with
        | Some m ->
          Obs.Manifest.set m "connections" (Obs.Json.Int stats.Serve.Server.connections);
          Obs.Manifest.set m "jobs_admitted" (Obs.Json.Int stats.Serve.Server.admitted);
          Obs.Manifest.set m "jobs_completed" (Obs.Json.Int stats.Serve.Server.completed);
          Obs.Manifest.set m "jobs_failed" (Obs.Json.Int stats.Serve.Server.failed);
          Obs.Manifest.set m "jobs_resumed" (Obs.Json.Int stats.Serve.Server.resumed)
        | None -> ());
        Fmt.pr
          "fi serve: drained after %d connection(s), %d job(s) admitted \
           (%d completed, %d failed, %d resumed)@."
          stats.Serve.Server.connections stats.Serve.Server.admitted stats.Serve.Server.completed
          stats.Serve.Server.failed stats.Serve.Server.resumed;
        finish ctx obs;
        `Ok 0)
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:"Also listen on a TCP socket (the Unix socket stays primary).")
  in
  let pool_arg =
    Arg.(
      value & opt int 0
      & info [ "pool" ] ~docv:"N"
          ~doc:
            "Worker domains in the persistent pool; 0 (the default) uses \
             the runtime-recommended count.")
  in
  let chunk_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "chunk" ] ~docv:"N"
          ~doc:
            "Trials per shard (streaming and checkpoint granularity).  \
             Default: sized per job so one cell feeds the whole pool.  \
             Results are byte-identical for every value.")
  in
  let serve_journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:
            "Job journal: every admitted job and completed shard is \
             checkpointed so a killed server resumes unfinished jobs on \
             restart (re-running only the missing shards).")
  in
  let idle_arg =
    Arg.(
      value & opt float 0.
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close connections with no jobs and no traffic for this long; \
                0 disables.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign service: a long-lived server with a warm worker \
          pool that accepts injection jobs over a Unix (or TCP) socket, \
          shards them into trial ranges, and streams verdict batches.  \
          Results are byte-identical to the offline $(b,campaign) / \
          $(b,diagnose) commands.  SIGTERM (or $(b,fi shutdown)) drains: \
          in-flight jobs finish and stream completely before the server \
          exits.")
    Term.(
      ret
        (const run $ socket_arg $ tcp_arg $ pool_arg $ chunk_arg
       $ serve_journal_arg $ idle_arg
       $ obs_term ~manifest_default:None))

let serve_tools_arg =
  Arg.(
    value
    & opt_all (enum [ ("llfi", `Llfi); ("pinfi", `Pinfi) ]) []
    & info [ "t"; "tool" ] ~docv:"TOOL"
        ~doc:"Injector (repeatable; default: both).")

let serve_cats_arg =
  Arg.(
    value & opt_all category_conv []
    & info [ "c"; "category" ] ~docv:"CAT"
        ~doc:"Instruction category (repeatable; default: all five).")

let submit_cmd =
  let run workload socket tools categories model trials seed csv_file out
      quiet obs =
    let job =
      {
        Serve.Wire.j_workload = workload;
        j_tools = tools_of tools;
        j_categories =
          (match categories with [] -> Core.Category.all | l -> l);
        j_model = model;
        j_trials = trials;
        j_seed = seed;
        j_out = out;
      }
    in
    let ctx =
      manifest_ctx obs
        [
          ("socket", Obs.Json.Str socket);
          ("workload", Obs.Json.Str workload);
          ("model", Obs.Json.Str (Core.Fault_model.name model));
          ("seed", Obs.Json.Int seed);
          ("trials", Obs.Json.Int trials);
        ]
    in
    match Serve.Client.connect (Serve.Client.Unix_sock socket) with
    | exception Unix.Unix_error (err, _, _) ->
      `Error
        ( false,
          Printf.sprintf "cannot reach the campaign service on %s: %s" socket
            (Unix.error_message err) )
    | client ->
      let batches = ref 0 in
      let on_batch (b : Serve.Wire.batch) =
        incr batches;
        if not quiet then
          Fmt.epr "batch %s/%s trials %d..%d@."
            (Core.Campaign.tool_name b.b_tool)
            (Core.Category.name b.b_category)
            b.b_first
            (b.b_first + b.b_count - 1)
      in
      let result =
        ctx.in_section "submit" @@ fun () -> Serve.Client.submit client ~on_batch job
      in
      Serve.Client.close client;
      (match result with
      | Error msg -> `Error (false, msg)
      | Ok r ->
        Fmt.pr "job %d done: %d verdict batches, digest %s@." r.Serve.Client.r_job
          r.Serve.Client.r_batches r.Serve.Client.r_digest;
        record_csv ctx ?path:csv_file ~what:"Raw results" r.Serve.Client.r_csv;
        finish ctx obs;
        `Ok 0)
  in
  let workload_name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc:"Workload to inject (validated server-side).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH"
          ~doc:
            "Server-side CSV output path: the server writes the result \
             there even if this client disconnects (and after a crash \
             recovery, when the job finishes headless).")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write the streamed result CSV client-side.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No per-batch progress on stderr.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit one injection job to a running campaign service and stream \
          its verdict batches.  The client independently reassembles the \
          batches and fails if they do not merge into the server's reported \
          CSV — no batch may be lost or duplicated, including across a \
          server drain.")
    Term.(
      ret
        (const run $ workload_name_arg $ socket_arg $ serve_tools_arg
       $ serve_cats_arg $ model_arg $ trials_arg 200 $ seed_arg $ csv_arg
       $ out_arg $ quiet_arg $ obs_term ~manifest_default:None))

let shutdown_cmd =
  let run socket immediate =
    match Serve.Client.connect (Serve.Client.Unix_sock socket) with
    | exception Unix.Unix_error (err, _, _) ->
      `Error
        ( false,
          Printf.sprintf "cannot reach the campaign service on %s: %s" socket
            (Unix.error_message err) )
    | client ->
      Serve.Client.shutdown client ~drain:(not immediate);
      Serve.Client.close client;
      Fmt.pr "fi shutdown: server %s@."
        (if immediate then "stopped" else "drained and stopped");
      `Ok 0
  in
  let now_arg =
    Arg.(
      value & flag
      & info [ "now" ]
          ~doc:
            "Stop without draining: in-flight jobs stay checkpointed in the \
             server's journal and resume on the next start.")
  in
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:
         "Ask a running campaign service to shut down.  By default it \
          drains first: every in-flight job finishes and streams its \
          remaining verdict batches before the server says goodbye.")
    Term.(ret (const run $ socket_arg $ now_arg))

let loadgen_cmd =
  let run socket jobs concurrency workload model trials seed vary_seed
      json_file =
    let job_of i =
      {
        Serve.Wire.j_workload = workload;
        j_tools = tools_of [];
        j_categories = Core.Category.all;
        j_model = model;
        j_trials = trials;
        j_seed = (if vary_seed then seed + i else seed);
        j_out = None;
      }
    in
    match
      Serve.Client.loadgen (Serve.Client.Unix_sock socket) ~jobs ~concurrency ~job_of
    with
    | exception Unix.Unix_error (err, _, _) ->
      `Error
        ( false,
          Printf.sprintf "cannot reach the campaign service on %s: %s" socket
            (Unix.error_message err) )
    | s ->
      Fmt.pr "jobs=%d ok=%d failed=%d wall=%.2fs throughput=%.2f jobs/s@."
        s.Serve.Client.l_jobs s.Serve.Client.l_ok s.Serve.Client.l_failed s.Serve.Client.l_wall
        s.Serve.Client.l_jobs_per_s;
      Fmt.pr "latency: mean=%.1fms p50=%.1fms p99=%.1fms@." s.Serve.Client.l_mean_ms
        s.Serve.Client.l_p50_ms s.Serve.Client.l_p99_ms;
      (match json_file with
      | Some path ->
        let oc = open_out path in
        Printf.fprintf oc
          "{\"jobs\": %d, \"ok\": %d, \"failed\": %d, \"wall_s\": %.6f, \
           \"jobs_per_s\": %.6f, \"mean_ms\": %.6f, \"p50_ms\": %.6f, \
           \"p99_ms\": %.6f}\n"
          s.Serve.Client.l_jobs s.Serve.Client.l_ok s.Serve.Client.l_failed s.Serve.Client.l_wall
          s.Serve.Client.l_jobs_per_s s.Serve.Client.l_mean_ms s.Serve.Client.l_p50_ms
          s.Serve.Client.l_p99_ms;
        close_out oc;
        Fmt.pr "Load-test stats written to %s@." path
      | None -> ());
      `Ok (if s.Serve.Client.l_failed = 0 then 0 else 1)
  in
  let jobs_arg =
    Arg.(
      value & opt int 16
      & info [ "jobs" ] ~docv:"N" ~doc:"Total jobs to submit.")
  in
  let concurrency_arg =
    Arg.(
      value & opt int 4
      & info [ "concurrency" ] ~docv:"C"
          ~doc:"Concurrent connections (one outstanding job each).")
  in
  let workload_name_arg =
    Arg.(
      value
      & opt string "mcf"
      & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload each job injects.")
  in
  let vary_seed_arg =
    Arg.(
      value & opt bool true
      & info [ "vary-seed" ] ~docv:"BOOL"
          ~doc:
            "Give every job a distinct seed so the server's cell cache \
             cannot coalesce them — each job really executes.  false \
             measures the pure cache-hit path.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the stats as JSON.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Load-test a running campaign service: submit $(b,--jobs) jobs \
          over $(b,--concurrency) connections and report throughput and \
          per-job latency percentiles.  Exit status 1 if any job failed.")
    Term.(
      ret
        (const run $ socket_arg $ jobs_arg $ concurrency_arg
       $ workload_name_arg $ model_arg $ trials_arg 20 $ seed_arg
       $ vary_seed_arg $ json_arg))

let main_cmd =
  let doc =
    "reproduction of 'Quantifying the Accuracy of High-Level Fault Injection \
     Techniques for Hardware Faults' (DSN 2014)"
  in
  Cmd.group
    (Cmd.info "fi" ~version:"1.0.0" ~doc)
    [ list_cmd; run_cmd; emit_cmd; profile_cmd; inject_cmd; propagate_cmd; edc_cmd; check_cmd; campaign_cmd; diagnose_cmd; exhaust_cmd; fuzz_cmd; serve_cmd; submit_cmd; shutdown_cmd; loadgen_cmd ]

let () = exit (Cmd.eval' main_cmd)
