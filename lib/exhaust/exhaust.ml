(** Exhaustive and pruned fault-space campaigns: exact outcome rates.

    A Monte-Carlo campaign estimates each cell's crash/SDC/benign rates
    from a sample; this module computes them {e exactly} by covering the
    whole (dynamic instance, bit) space the sampler draws from.  The
    space is first described by one instrumented golden run per cell
    ({!Core.Campaign.enumerate}), then pruned with three sound rules —
    dead destinations, masked bits, and golden-key observation
    equivalence — and only the surviving faults are executed, each
    verdict multiplied by its sampling weight.  Everything is
    deterministic: the survivor list, the shard boundaries and the
    weighted tallies are independent of how many domains execute them.

    All three rules share one soundness argument: the settled fault
    provably leaves execution on the golden path (the corrupted value is
    never read, read only through masks that discard the bit, or read
    once by a consumer whose observable result is unchanged), so the
    run's output and termination equal the fault-free run's.  Faults
    that make execution diverge are never settled or grouped — two
    faults with the {e same} non-golden comparison outcome may still
    differ later, because the divergent path can re-read the corrupted
    register, whose contents differ between them. *)

type config = {
  prune : bool;  (* apply the pruning rules; off = brute force *)
  sample_bound : int;  (* >0: cap executed classes per cell, Chernoff bound *)
  seed : int;  (* residual-sampler stream (sample_bound only) *)
}

let default_config = { prune = true; sample_bound = 0; seed = 2014 }

(* Telemetry (lib/obs): registered up front, weighted by actual counts. *)
let m_cells = Obs.Metrics.counter "exhaust.cells"
let m_enumerated = Obs.Metrics.counter "exhaust.enumerated"
let m_pruned_dead = Obs.Metrics.counter "exhaust.pruned_dead"
let m_pruned_masked = Obs.Metrics.counter "exhaust.pruned_masked"
let m_pruned_equiv = Obs.Metrics.counter "exhaust.pruned_equiv"
let m_executed = Obs.Metrics.counter "exhaust.executed"
let m_sampled_cells = Obs.Metrics.counter "exhaust.sampled_cells"

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let lcm a b = a / gcd a b * b

(* --- per-fault fate: the pruner's specification --- *)

type fate =
  | Settled of Core.Verdict.t  (* provably this verdict, no execution *)
  | Execute  (* may diverge from the golden path: must run *)

(* A never-read destination differs between the tools only in how the
   sampler reports it: LLFI's def-use selection counts every injection
   as activated, so a silent fault is benign; PINFI's architectural
   read-before-overwrite watch reports it as never activated. *)
let dead_verdict = function
  | Core.Campaign.Llfi_tool -> Core.Verdict.Benign
  | Core.Campaign.Pinfi_tool -> Core.Verdict.Not_activated

let bitflip_fate tool (inst : Vm.Fault_space.instance) ~bit =
  if inst.Vm.Fault_space.reads = 0 then Settled (dead_verdict tool)
  else if Array.length inst.Vm.Fault_space.keys > 0 then
    (* Single-read funnel: the flipped value is consumed exactly once,
       by an instruction whose result is fully described by the key
       (comparison outcome, resulting flag word).  The golden key means
       control stays on the golden path and the corrupted register is
       never read again, so the run is indistinguishable from the
       fault-free one.  A non-golden key diverges and must run: even
       faults sharing a key can differ later, because the divergent
       path may re-read the corrupted register. *)
    if inst.Vm.Fault_space.keys.(bit) = inst.Vm.Fault_space.gold_key then
      Settled Core.Verdict.Benign
    else Execute
  else if Vm.Fault_space.bit_live inst bit then Execute
  else
    (* Every read discards this bit, so all consumers observe golden
       values.  (Under PINFI the register was still read, so the fault
       counts as activated — and benign.) *)
    Settled Core.Verdict.Benign

(* The exactly enumerable models: one fault per (instance, bit) — or
   per instance for [Skip] — matching the sampler's draw.  [Multi_bit]
   spans width^n bit tuples and [Load_value] the whole value range;
   neither has a per-instance space an exact campaign can cover. *)
let enumerable (model : Core.Fault_model.t) =
  match model with
  | Core.Fault_model.Bitflip | Core.Fault_model.Stuck_at_0
  | Core.Fault_model.Stuck_at_1 | Core.Fault_model.Skip ->
    true
  | Core.Fault_model.Multi_bit _ | Core.Fault_model.Load_value -> false

let require_enumerable ~who model =
  if not (enumerable model) then
    invalid_arg
      (Printf.sprintf
         "%s: fault model %s cannot be enumerated exactly (use a Monte-Carlo \
          campaign)"
         who (Core.Fault_model.name model))

let fate ~model tool (inst : Vm.Fault_space.instance) ~bit =
  require_enumerable ~who:"Exhaust.fate" model;
  match model with
  | Core.Fault_model.Skip ->
    (* One fault per instance (no bit space): restoring an unread
       destination provably changes nothing; anything else must run. *)
    if inst.Vm.Fault_space.reads = 0 then Settled (dead_verdict tool)
    else Execute
  | Core.Fault_model.Stuck_at_0 | Core.Fault_model.Stuck_at_1 ->
    let b = model = Core.Fault_model.Stuck_at_1 in
    if inst.Vm.Fault_space.reads = 0 then Settled (dead_verdict tool)
    else if Vm.Fault_space.gold_bit inst bit = b then
      (* The stuck value equals the golden bit: the destination is
         written unchanged, so the run is the golden run.  (Under PINFI
         the register is still read, hence activated — and benign.) *)
      Settled Core.Verdict.Benign
    else
      (* Forcing a bit against its golden value is exactly a flip of
         that bit, so the bitflip rules (and the enumeration facts they
         rest on) carry over unchanged. *)
      bitflip_fate tool inst ~bit
  | Core.Fault_model.Bitflip | Core.Fault_model.Multi_bit _
  | Core.Fault_model.Load_value ->
    bitflip_fate tool inst ~bit

(* --- planning: classify the whole space without executing --- *)

(* A surviving fault (target, bit) and its weight in the tally; weights
   exceed the per-bit unit only when the residual sampler reassigns
   unexecuted mass. *)
type cls = { x_target : int; x_bit : int; x_weight : int }

type plan = {
  p_unit : int;  (* lcm of instance widths: integer weight scale *)
  p_enumerated : int;
  p_dead : int;
  p_masked : int;
  p_equiv : int;
  p_pretally : Core.Verdict.tally;  (* weighted verdicts settled a priori *)
  p_survivors : cls array;  (* ascending (target, bit) *)
}

(* Classifies every fault exactly as [fate] does (the QCheck soundness
   property replays what this settles); batch form so a whole instance
   is dispatched at once.

   Per-model bit spaces: [Bitflip] and the stuck-at models draw one bit
   per instance (space = width; a stuck bit that equals its golden
   value joins the masked-bit bucket), [Skip] draws nothing (space = a
   single fault per instance, so the weight unit is 1). *)
let plan_cell ~model config tool (instances : Vm.Fault_space.instance array) =
  require_enumerable ~who:"Exhaust.plan_cell" model;
  let skip = model = Core.Fault_model.Skip in
  let stuck =
    match model with
    | Core.Fault_model.Stuck_at_0 -> Some false
    | Core.Fault_model.Stuck_at_1 -> Some true
    | _ -> None
  in
  let unit_ =
    if skip then 1
    else
      Array.fold_left
        (fun acc (i : Vm.Fault_space.instance) ->
          lcm acc i.Vm.Fault_space.width)
        1 instances
  in
  let tally = Core.Verdict.fresh_tally () in
  let dead = ref 0 and masked = ref 0 and equiv = ref 0 in
  let enumerated = ref 0 in
  let survivors = ref [] in
  let dv = dead_verdict tool in
  Array.iteri
    (fun target (inst : Vm.Fault_space.instance) ->
      let w = if skip then 1 else inst.Vm.Fault_space.width in
      let wt = unit_ / w in
      enumerated := !enumerated + w;
      if not config.prune then
        for bit = 0 to w - 1 do
          survivors := { x_target = target; x_bit = bit; x_weight = wt }
            :: !survivors
        done
      else if inst.Vm.Fault_space.reads = 0 then begin
        dead := !dead + w;
        Core.Verdict.add_n tally dv (w * wt)
      end
      else if skip then
        survivors := { x_target = target; x_bit = 0; x_weight = wt }
          :: !survivors
      else
        for bit = 0 to w - 1 do
          match stuck with
          | Some b when Vm.Fault_space.gold_bit inst bit = b ->
            (* stuck value = golden bit: the write is unchanged *)
            incr masked;
            Core.Verdict.add_n tally Core.Verdict.Benign wt
          | _ ->
            if Array.length inst.Vm.Fault_space.keys > 0 then
              if inst.Vm.Fault_space.keys.(bit) = inst.Vm.Fault_space.gold_key
              then begin
                incr equiv;
                Core.Verdict.add_n tally Core.Verdict.Benign wt
              end
              else
                survivors := { x_target = target; x_bit = bit; x_weight = wt }
                  :: !survivors
            else if Vm.Fault_space.bit_live inst bit then
              survivors := { x_target = target; x_bit = bit; x_weight = wt }
                :: !survivors
            else begin
              incr masked;
              Core.Verdict.add_n tally Core.Verdict.Benign wt
            end
        done)
    instances;
  {
    p_unit = unit_;
    p_enumerated = !enumerated;
    p_dead = !dead;
    p_masked = !masked;
    p_equiv = !equiv;
    p_pretally = tally;
    p_survivors = Array.of_list (List.rev !survivors);
  }

(* --- bounded residual sampling (Chernoff-certified) --- *)

let sample_delta = 0.01 (* the certified bound holds with 99% confidence *)

(* Weighted sampling with replacement of [k] faults from the survivor
   classes, deterministic in the exhaust seed.  Survivor mass is
   reassigned to the hit classes by cumulative rounding, so the total
   weight (and hence the tally denominator) stays exact. *)
let sample_survivors ~model config ~workload ~tool ~category
    (survivors : cls array) =
  let k = config.sample_bound in
  let n = Array.length survivors in
  let cumulative = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    cumulative.(i + 1) <- cumulative.(i) + survivors.(i).x_weight
  done;
  let mass = cumulative.(n) in
  let rng =
    (* the campaign keying machinery, salted so the residual sampler
       never shares a stream with the Monte-Carlo cell of the same
       seed; carrying [model] keys each model's residual sample
       independently (and keeps the default stream byte-identical) *)
    Core.Campaign.cell_rng
      { Core.Campaign.default_config with seed = config.seed; model }
      ~workload:("exhaust:" ^ workload) ~tool ~category
  in
  let hits = Array.make n 0 in
  for _ = 1 to k do
    let x = Int64.to_int (Support.Rng.int64_bound rng (Int64.of_int mass)) in
    (* binary search: the class whose cumulative range contains x *)
    let lo = ref 0 and hi = ref n in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if cumulative.(mid) <= x then lo := mid else hi := mid
    done;
    hits.(!lo) <- hits.(!lo) + 1
  done;
  let out = ref [] in
  let cum_hits = ref 0 in
  let assigned_before = ref 0 in
  for i = 0 to n - 1 do
    if hits.(i) > 0 then begin
      cum_hits := !cum_hits + hits.(i);
      let assigned_now = mass * !cum_hits / k in
      let weight = assigned_now - !assigned_before in
      assigned_before := assigned_now;
      if weight > 0 then out := { survivors.(i) with x_weight = weight } :: !out
    end
  done;
  (Array.of_list (List.rev !out), mass)

(* --- execution: one trial per surviving class --- *)

let execute_range ~model (p : Core.Campaign.prepared) tool category
    (to_run : cls array) lo hi =
  let r = Core.Campaign.runner p tool category in
  let golden = Core.Campaign.golden_output p tool in
  let tally = Core.Verdict.fresh_tally () in
  for k = lo to hi - 1 do
    let c = to_run.(k) in
    let stats =
      Core.Campaign.inject_bit ~model r ~target:c.x_target ~bit:c.x_bit
    in
    let v = Core.Verdict.of_run ~golden_output:golden stats in
    Core.Verdict.add_n tally v c.x_weight
  done;
  tally

let execute ~model ?pool p tool category (to_run : cls array) =
  let n = Array.length to_run in
  if n = 0 then Core.Verdict.fresh_tally ()
  else begin
    let shards =
      match pool with
      | Some pl -> max 1 (min (Engine.Pool.size pl) n)
      | None -> 1
    in
    let ranges =
      Array.init shards (fun s -> (n * s / shards, n * (s + 1) / shards))
    in
    let tallies =
      match pool with
      | Some pl when shards > 1 ->
        Engine.Pool.map pl
          (fun (lo, hi) -> execute_range ~model p tool category to_run lo hi)
          ranges
      | _ ->
        Array.map
          (fun (lo, hi) -> execute_range ~model p tool category to_run lo hi)
          ranges
    in
    (* contiguous shards merged in order: the summed tally is the same
       whatever the shard count, so output is byte-identical across
       [--jobs] *)
    Array.fold_left Core.Verdict.merge (Core.Verdict.fresh_tally ()) tallies
  end

(* --- one exact cell --- *)

let run_cell ?(model = Core.Fault_model.Bitflip) ?pool config
    (p : Core.Campaign.prepared) tool category =
  require_enumerable ~who:"Exhaust.run_cell" model;
  let workload = p.Core.Campaign.workload.Core.Workload.name in
  Obs.Trace.span "exhaust-cell"
    ~args:
      [ ("workload", workload); ("tool", Core.Campaign.tool_name tool);
        ("category", Core.Category.name category);
        ("model", Core.Fault_model.name model) ]
  @@ fun () ->
  let instances =
    Obs.Trace.span "enumerate" @@ fun () ->
    Core.Campaign.enumerate p tool category
  in
  let population = Core.Campaign.population p tool category in
  if Array.length instances <> population then
    invalid_arg
      (Printf.sprintf
         "Exhaust.run_cell: enumeration found %d instances where the profile \
          counted %d"
         (Array.length instances) population);
  let plan =
    Obs.Trace.span "plan" @@ fun () -> plan_cell ~model config tool instances
  in
  let nclasses = Array.length plan.p_survivors in
  let to_run, sampled_mass =
    if config.sample_bound > 0 && nclasses > config.sample_bound then begin
      Obs.Metrics.incr m_sampled_cells;
      let sampled, mass =
        Obs.Trace.span "sample" @@ fun () ->
        sample_survivors ~model config ~workload ~tool ~category
          plan.p_survivors
      in
      (sampled, Some mass)
    end
    else (plan.p_survivors, None)
  in
  let exec_tally =
    Obs.Trace.span "execute" @@ fun () ->
    execute ~model ?pool p tool category to_run
  in
  let tally = Core.Verdict.merge plan.p_pretally exec_tally in
  let bound =
    match sampled_mass with
    | None -> 0.0
    | Some mass ->
      let activated = Core.Verdict.activated tally in
      if activated = 0 then 0.0
      else
        float_of_int mass /. float_of_int activated
        *. sqrt (log (2.0 /. sample_delta)
                 /. (2.0 *. float_of_int config.sample_bound))
  in
  let executed = Array.length to_run in
  Obs.Metrics.incr ~by:plan.p_enumerated m_enumerated;
  Obs.Metrics.incr ~by:plan.p_dead m_pruned_dead;
  Obs.Metrics.incr ~by:plan.p_masked m_pruned_masked;
  Obs.Metrics.incr ~by:plan.p_equiv m_pruned_equiv;
  Obs.Metrics.incr ~by:executed m_executed;
  Obs.Metrics.incr m_cells;
  {
    Core.Campaign.e_workload = workload;
    e_tool = tool;
    e_category = category;
    e_model = model;
    e_population = population;
    e_enumerated = plan.p_enumerated;
    e_pruned_dead = plan.p_dead;
    e_pruned_masked = plan.p_masked;
    e_pruned_equiv = plan.p_equiv;
    e_executed = executed;
    e_unit = plan.p_unit;
    e_tally = tally;
    e_bound = bound;
  }

(* --- full grid --- *)

type result = {
  prepared : Core.Campaign.prepared list;
  cells : Core.Campaign.exact_cell list;  (* workload x tool x category *)
  resumed : int;
}

let run ?(jobs = 1) ?journal ?(resume = false)
    ?(tools = [ Core.Campaign.Llfi_tool; Core.Campaign.Pinfi_tool ])
    ?(categories = Core.Category.all) ?on_cell config
    (campaign_config : Core.Campaign.config) workloads =
  let model = campaign_config.Core.Campaign.model in
  require_enumerable ~who:"Exhaust.run" model;
  let grid =
    Engine.Journal.grid
      ~workloads:(List.map (fun (w : Core.Workload.t) -> w.Core.Workload.name) workloads)
      ~tools ~categories
  in
  let journal, existing =
    match journal with
    | None -> (None, [])
    | Some path ->
      let j, cells =
        Engine.Journal.start
          (Engine.Journal.exact_cells ~grid ~seed:config.seed
             ~prune:config.prune ~sample_bound:config.sample_bound model)
          ~path ~resume
      in
      (Some j, cells)
  in
  let pool = if jobs > 1 then Some (Engine.Pool.create ~size:jobs ()) else None in
  Fun.protect
    ~finally:(fun () ->
      (match pool with Some pl -> Engine.Pool.shutdown pl | None -> ());
      match journal with Some j -> Engine.Journal.close j | None -> ())
  @@ fun () ->
  let resumed = ref 0 in
  let prepared =
    List.map (fun w -> Core.Campaign.prepare campaign_config w) workloads
  in
  let cells =
    List.concat_map
      (fun (p : Core.Campaign.prepared) ->
        List.concat_map
          (fun tool ->
            List.map
              (fun category ->
                let name = p.Core.Campaign.workload.Core.Workload.name in
                match
                  Core.Campaign.find_exact existing ~workload:name ~tool
                    ~category
                with
                | Some cell ->
                  incr resumed;
                  (match on_cell with Some f -> f cell | None -> ());
                  cell
                | None ->
                  let cell = run_cell ~model ?pool config p tool category in
                  (match journal with
                  | Some j -> Engine.Journal.record j cell
                  | None -> ());
                  (match on_cell with Some f -> f cell | None -> ());
                  cell)
              categories)
          tools)
      prepared
  in
  { prepared; cells; resumed = !resumed }
