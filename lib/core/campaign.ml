(** Campaign runner: the experimental procedure of paper §V.

    For each benchmark x tool x category cell: profile the dynamic
    population once, then run N independent single-bit-flip injections,
    classifying each run against the golden output.  Everything is
    deterministic in the configured seed. *)

type tool = Llfi_tool | Pinfi_tool

let tool_name = function Llfi_tool -> "LLFI" | Pinfi_tool -> "PINFI"

let tool_of_name = function
  | "LLFI" -> Some Llfi_tool
  | "PINFI" -> Some Pinfi_tool
  | _ -> None

type config = {
  trials : int;
  seed : int;
  model : Fault_model.t;  (* corruption applied at each trial's target *)
  llfi : Llfi.config;
  pinfi : Pinfi.config;
  backend : Backend.config;
  compile : bool;  (* false: run on the tree-walking test reference *)
}

let default_config =
  {
    trials = 200;
    seed = 2014;  (* the year the paper appeared, for luck *)
    model = Fault_model.Bitflip;
    llfi = Llfi.default_config;
    pinfi = Pinfi.default_config;
    backend = Backend.default_config;
    compile = true;
  }

(* The paper's configuration: 1000 injections per cell. *)
let paper_config = { default_config with trials = 1000 }

type prepared = {
  workload : Workload.t;
  prog : Ir.Prog.t;  (* optimized IR, shared by both tools *)
  asm : Backend.Program.t;
  llfi : Llfi.t;
  pinfi : Pinfi.t;
}

type cell = {
  c_workload : string;
  c_tool : tool;
  c_category : Category.t;
  c_model : Fault_model.t;
  c_population : int;  (* dynamic instances profiled in this category *)
  c_tally : Verdict.tally;
}

(* FNV-1a over a string, for deriving stable per-cell seeds. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let cell_rng config ~workload ~tool ~category =
  (* The model suffix is omitted for the default so every pre-existing
     bitflip stream — and with it every golden CSV — stays
     byte-identical. *)
  let key =
    Printf.sprintf "%d/%s/%s/%s%s" config.seed workload (tool_name tool)
      (Category.name category)
      (match config.model with
      | Fault_model.Bitflip -> ""
      | m -> "/" ^ Fault_model.name m)
  in
  Support.Rng.create (fnv1a key)

(* The injection-target draw is always draw #[target_draw] = #0 of a
   trial's stream: [Llfi.plan_target] / [Pinfi.plan_target] make exactly
   the draw(s) [inject] would make first, nothing before them.  Both the
   snapshot planner below and [Fuzz.Coverage] position trial streams
   with [Rng.advance]/[split] and then read the target as the stream's
   first draw, so this offset is part of the reproducibility contract;
   test_fuzz.ml asserts it behaviorally for both injectors. *)
let target_draw = 0

(* Telemetry (lib/obs).  Verdict counters are registered up front so
   the table renders all six rows even for an all-benign run. *)
let m_trials = Obs.Metrics.counter "campaign.trials"
let m_cells = Obs.Metrics.counter "campaign.cells"

let m_verdicts =
  List.map
    (fun v -> (v, Obs.Metrics.counter ("campaign.verdict." ^ Verdict.name v)))
    [
      Verdict.Benign;
      Verdict.Sdc;
      Verdict.Crash;
      Verdict.Hang;
      Verdict.Not_activated;
      Verdict.Not_injected;
    ]

let count_verdict v = Obs.Metrics.incr (List.assoc v m_verdicts)

let prepare config (w : Workload.t) =
  Obs.Trace.span "prepare"
    ~args:[ ("workload", w.Workload.name) ]
  @@ fun () ->
  let prog = Opt.optimize (Minic.compile w.Workload.source) in
  let asm = Backend.compile ~config:config.backend prog in
  let llfi =
    Llfi.prepare ~config:config.llfi ~compile:config.compile
      ~inputs:w.Workload.inputs prog
  in
  let pinfi =
    Pinfi.prepare ~config:config.pinfi ~compile:config.compile
      ~inputs:w.Workload.inputs asm
  in
  if not (String.equal llfi.Llfi.golden_output pinfi.Pinfi.golden_output) then
    invalid_arg
      (Printf.sprintf
         "Campaign.prepare: %s produces different golden outputs at the two \
          levels"
         w.Workload.name);
  { workload = w; prog; asm; llfi; pinfi }

(* A per-cell fast-forward machine, reusable across trial ranges of the
   same cell (the scheduler caches one per domain).  The [r_prepared]
   and cell identity are kept so a stale runner can never silently
   serve another cell's trials. *)
type runner_impl = Lrun of Llfi.runner | Prun of Pinfi.runner

type runner = {
  r_prepared : prepared;
  r_tool : tool;
  r_category : Category.t;
  r_impl : runner_impl;
}

(* Reconvergence journals: at most one per (prepared workload, tool
   level), built by one extra digest-maintaining golden run each and
   then shared read-only by every category's runners.  A [runner
   ~rejoin] produces byte-identical stats (see Vm.Rejoin) — the engine
   opts in without touching the determinism guarantee, and the
   sequential reference path ({!run_all}) never builds one. *)
type rejoin = { rj_llfi : Vm.Rejoin.t option; rj_pinfi : Vm.Rejoin.t option }

let record_rejoin (p : prepared) =
  Obs.Trace.span "record-rejoin"
    ~args:[ ("workload", p.workload.Workload.name) ]
  @@ fun () ->
  {
    rj_llfi = Llfi.record_rejoin p.llfi;
    rj_pinfi = Pinfi.record_rejoin p.pinfi;
  }

let runner ?rejoin (p : prepared) tool category =
  let journal pick = Option.bind rejoin pick in
  let impl =
    match tool with
    | Llfi_tool ->
      Lrun (Llfi.runner ?rejoin:(journal (fun r -> r.rj_llfi)) p.llfi category)
    | Pinfi_tool ->
      Prun
        (Pinfi.runner ?rejoin:(journal (fun r -> r.rj_pinfi)) p.pinfi category)
  in
  { r_prepared = p; r_tool = tool; r_category = category; r_impl = impl }

let runner_matches r (p : prepared) tool category =
  r.r_prepared == p && r.r_tool = tool && r.r_category = category

(* Trial [k] of a cell always draws its stream as the [k]-th split of
   the cell's master RNG, so a contiguous range of trials can run
   anywhere (another domain, a resumed process) and still see the exact
   stream the sequential runner would have given it.

   The range is executed out of order: all targets are planned first
   (the target draw is draw #[target_draw] of each trial stream, so
   planning changes no stream), trials run sorted by target so the
   fast-forward machine only ever advances, and results are buffered
   back into trial order before tallying — making the tally, callbacks
   and records byte-identical to from-entry [Llfi.inject] /
   [Pinfi.inject] trials on the same streams. *)
let run_cell_range ?runner:(r0 : runner option) ?on_trial ?on_stats
    ?(track_use = false) config (p : prepared) tool category ~first ~count =
  if first < 0 || count < 0 then
    invalid_arg "Campaign.run_cell_range: negative trial range";
  let model = config.model in
  let population, golden, plan =
    match tool with
    | Llfi_tool ->
      ( Llfi.dynamic_count p.llfi category,
        p.llfi.Llfi.golden_output,
        fun rng -> Llfi.plan_target p.llfi category rng )
    | Pinfi_tool ->
      ( Pinfi.dynamic_count p.pinfi category,
        p.pinfi.Pinfi.golden_output,
        fun rng -> Pinfi.plan_target p.pinfi category rng )
  in
  let tally = Verdict.fresh_tally () in
  if population > 0 then begin
    let master =
      cell_rng config ~workload:p.workload.Workload.name ~tool ~category
    in
    Support.Rng.advance master first;
    let r =
      match r0 with
      | Some r ->
        if not (runner_matches r p tool category) then
          invalid_arg "Campaign.run_cell_range: runner from another cell";
        r
      | None -> runner p tool category
    in
    let inject_at =
      match r.r_impl with
      | Lrun lr ->
        fun ~target rng -> Llfi.inject_at ~track_use ~model lr ~target rng
      | Prun pr ->
        fun ~target rng -> Pinfi.inject_at ~track_use ~model pr ~target rng
    in
    let rngs, targets, order =
      Obs.Trace.span "plan-targets" @@ fun () ->
      let rngs = Array.init count (fun _ -> Support.Rng.split master) in
      let targets = Array.map (fun rng -> plan rng) rngs in
      let order = Array.init count (fun i -> i) in
      Array.sort
        (fun a b ->
          let c = compare targets.(a) targets.(b) in
          if c <> 0 then c else compare a b)
        order;
      (rngs, targets, order)
    in
    let results = Array.make count None in
    (Obs.Trace.span "run-trials" @@ fun () ->
     Array.iter
       (fun i -> results.(i) <- Some (inject_at ~target:targets.(i) rngs.(i)))
       order);
    Array.iteri
      (fun i stats ->
        let stats = Option.get stats in
        let verdict = Verdict.of_run ~golden_output:golden stats in
        Verdict.add tally verdict;
        Obs.Metrics.incr m_trials;
        count_verdict verdict;
        (match on_stats with Some f -> f (first + i) verdict stats | None -> ());
        match on_trial with Some f -> f (first + i) verdict | None -> ())
      results
  end;
  Obs.Metrics.incr m_cells;
  {
    c_workload = p.workload.Workload.name;
    c_tool = tool;
    c_category = category;
    c_model = config.model;
    c_population = population;
    c_tally = tally;
  }

let run_cell ?runner ?on_trial ?on_stats ?track_use config p tool category =
  run_cell_range ?runner ?on_trial ?on_stats ?track_use config p tool category
    ~first:0 ~count:config.trials

let run_workload ?on_cell ?(categories = Category.all) config (w : Workload.t) =
  let p = prepare config w in
  let cells =
    List.concat_map
      (fun tool ->
        List.map
          (fun category ->
            let cell = run_cell config p tool category in
            (match on_cell with Some f -> f cell | None -> ());
            cell)
          categories)
      [ Llfi_tool; Pinfi_tool ]
  in
  (p, cells)

let run_all ?on_cell ?categories config workloads =
  List.concat_map
    (fun w ->
      let _, cells = run_workload ?on_cell ?categories config w in
      cells)
    workloads

(* --- exhaustive campaigns (lib/exhaust) --- *)

let population (p : prepared) tool category =
  match tool with
  | Llfi_tool -> Llfi.dynamic_count p.llfi category
  | Pinfi_tool -> Pinfi.dynamic_count p.pinfi category

let golden_output (p : prepared) tool =
  match tool with
  | Llfi_tool -> p.llfi.Llfi.golden_output
  | Pinfi_tool -> p.pinfi.Pinfi.golden_output

let enumerate (p : prepared) tool category =
  match tool with
  | Llfi_tool -> Llfi.enumerate p.llfi category
  | Pinfi_tool -> Pinfi.enumerate p.pinfi category

let inject_bit ~model r ~target ~bit =
  match r.r_impl with
  | Lrun lr -> Llfi.inject_bit ~model lr ~target ~bit
  | Prun pr -> Pinfi.inject_bit ~model pr ~target ~bit

(* An exact (exhaustive or pruned-exhaustive) cell.  The tally is in
   weight units: the sampler draws an instance uniformly and then a bit
   uniformly within it, so fault (i, b) has probability
   1/(population * width_i); with [e_unit] = lcm of the distinct widths,
   the integer weight of each fault is [e_unit / width_i] and the whole
   space weighs population * e_unit.  Rates over the weighted tally are
   therefore the sampler's exact outcome probabilities. *)
type exact_cell = {
  e_workload : string;
  e_tool : tool;
  e_category : Category.t;
  e_model : Fault_model.t;
  e_population : int;  (* dynamic instances *)
  e_enumerated : int;  (* individual (instance, bit) faults *)
  e_pruned_dead : int;  (* faults settled by the dead-destination rule *)
  e_pruned_masked : int;  (* faults settled by the masked-bit rule *)
  e_pruned_equiv : int;  (* faults settled by equivalence classes *)
  e_executed : int;  (* trials actually run *)
  e_unit : int;  (* weight of a width-[e_unit] fault's bit: see above *)
  e_tally : Verdict.tally;  (* weighted; trials = population * e_unit *)
  e_bound : float;  (* certified |rate error|; 0 when fully exact *)
}

let pruning_ratio e =
  if e.e_executed = 0 then infinity
  else float_of_int e.e_enumerated /. float_of_int e.e_executed

let exact_rate part e =
  let n = Verdict.activated e.e_tally in
  if n = 0 then 0.0 else float_of_int part /. float_of_int n

let exact_sdc_rate e = exact_rate e.e_tally.Verdict.sdc e
let exact_crash_rate e = exact_rate e.e_tally.Verdict.crash e
let exact_benign_rate e = exact_rate e.e_tally.Verdict.benign e
let exact_hang_rate e = exact_rate e.e_tally.Verdict.hang e

let find_exact cells ~workload ~tool ~category =
  List.find_opt
    (fun e ->
      String.equal e.e_workload workload
      && e.e_tool = tool
      && e.e_category = category)
    cells

(* The model column only appears when some cell used a non-default
   model, so default campaigns keep producing the seed's exact bytes
   (golden CSVs, diff-based tooling). *)
let models_column model_of cells =
  List.exists (fun c -> model_of c <> Fault_model.Bitflip) cells

let exact_to_csv cells =
  let with_model = models_column (fun e -> e.e_model) cells in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "workload,tool,category,%spopulation,enumerated,pruned_dead,\
        pruned_masked,pruned_equiv,executed,weight_unit,activated_w,benign_w,\
        sdc_w,crash_w,hang_w,not_activated_w,benign_rate,sdc_rate,crash_rate,\
        hang_rate,error_bound\n"
       (if with_model then "model," else ""));
  List.iter
    (fun e ->
      let t = e.e_tally in
      Buffer.add_string buf
        (Printf.sprintf
           "%s,%s,%s,%s%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.9f,%.9f,%.9f,%.9f,%.9f\n"
           e.e_workload (tool_name e.e_tool)
           (Category.name e.e_category)
           (if with_model then Fault_model.name e.e_model ^ "," else "")
           e.e_population e.e_enumerated e.e_pruned_dead e.e_pruned_masked
           e.e_pruned_equiv e.e_executed e.e_unit (Verdict.activated t)
           t.Verdict.benign t.Verdict.sdc t.Verdict.crash t.Verdict.hang
           t.Verdict.not_activated (exact_benign_rate e) (exact_sdc_rate e)
           (exact_crash_rate e) (exact_hang_rate e) e.e_bound))
    cells;
  Buffer.contents buf

(* --- lookups over result sets --- *)

let find cells ~workload ~tool ~category =
  List.find_opt
    (fun c ->
      String.equal c.c_workload workload
      && c.c_tool = tool
      && c.c_category = category)
    cells

(* CSV export for offline analysis.  As [exact_to_csv], the model
   column only appears for non-default campaigns. *)
let to_csv cells =
  let with_model = models_column (fun c -> c.c_model) cells in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "workload,tool,category,%spopulation,trials,activated,benign,sdc,crash,hang,not_activated,not_injected\n"
       (if with_model then "model," else ""));
  List.iter
    (fun c ->
      let t = c.c_tally in
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%s,%s%d,%d,%d,%d,%d,%d,%d,%d,%d\n" c.c_workload
           (tool_name c.c_tool)
           (Category.name c.c_category)
           (if with_model then Fault_model.name c.c_model ^ "," else "")
           c.c_population t.Verdict.trials (Verdict.activated t)
           t.Verdict.benign t.Verdict.sdc t.Verdict.crash t.Verdict.hang
           t.Verdict.not_activated t.Verdict.not_injected))
    cells;
  Buffer.contents buf
