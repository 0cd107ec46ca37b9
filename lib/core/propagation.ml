(** Error-propagation analysis: LLFI's tracing feature (paper §III,
    "Customizability and Analysis").

    A golden run records a fingerprint of every value-producing
    instruction's result; a fault-injection run records the same.
    Aligning the two traces shows how the corruption spread:

    - the dynamic position where the traces first differ;
    - how many values were corrupted while control flow still matched
      (data-flow propagation);
    - whether and when control flow itself diverged;
    - whether the corruption reached the program output. *)

type report = {
  outcome : Verdict.t;
  fault_note : string;
  first_divergence : int option;
      (* dynamic index of the first differing value; None = fault vanished *)
  corrupted_values : int;
      (* value mismatches while the instruction streams still agreed *)
  control_flow_diverged_at : int option;
      (* first position where the two runs executed different instructions *)
  golden_length : int;
  faulty_length : int;
}

let compare_traces (golden : Vm.Ir_exec.trace) (faulty : Vm.Ir_exec.trace) =
  let n = min golden.Vm.Ir_exec.t_len faulty.Vm.Ir_exec.t_len in
  let first = ref None in
  let corrupted = ref 0 in
  let cf_diverged = ref None in
  let k = ref 0 in
  while !cf_diverged = None && !k < n do
    let i = !k in
    if golden.t_gids.(i) <> faulty.t_gids.(i) then begin
      cf_diverged := Some i;
      if !first = None then first := Some i
    end
    else begin
      if golden.t_vals.(i) <> faulty.t_vals.(i) then begin
        incr corrupted;
        if !first = None then first := Some i
      end;
      incr k
    end
  done;
  (* Different lengths with no earlier divergence also mean the control
     flow changed (e.g. the faulty run crashed mid-way). *)
  if
    !cf_diverged = None
    && golden.Vm.Ir_exec.t_len <> faulty.Vm.Ir_exec.t_len
  then begin
    cf_diverged := Some n;
    if !first = None then first := Some n
  end;
  (!first, !corrupted, !cf_diverged)

(** Run one traced injection and align it against the golden trace. *)
let analyze (llfi : Llfi.t) category rng =
  let golden_trace = Vm.Ir_exec.create_trace () in
  let golden_stats =
    Vm.Ir_exec.run ~inputs:llfi.Llfi.inputs ~trace:golden_trace
      ~max_steps:llfi.Llfi.max_steps Golden llfi.Llfi.compiled
  in
  (match golden_stats.Vm.Outcome.outcome with
  | Vm.Outcome.Finished _ -> ()
  | other ->
    invalid_arg (Fmt.str "Propagation: golden run failed: %a" Vm.Outcome.pp other));
  let population = Llfi.dynamic_count llfi category in
  if population = 0 then invalid_arg "Propagation.analyze: empty category";
  let target = Support.Rng.int rng population in
  let faulty_trace = Vm.Ir_exec.create_trace () in
  let plan = { Vm.Ir_exec.inj_mask = Category.mask category; target; rng } in
  let stats =
    Vm.Ir_exec.run ~inputs:llfi.Llfi.inputs ~trace:faulty_trace
      ~max_steps:llfi.Llfi.max_steps
      (Inject (plan, Vm.Fault_model.sampled Fault_model.Bitflip))
      llfi.Llfi.compiled
  in
  let first_divergence, corrupted_values, control_flow_diverged_at =
    compare_traces golden_trace faulty_trace
  in
  {
    outcome = Verdict.of_run ~golden_output:llfi.Llfi.golden_output stats;
    fault_note = stats.Vm.Outcome.fault_note;
    first_divergence;
    corrupted_values;
    control_flow_diverged_at;
    golden_length = golden_trace.Vm.Ir_exec.t_len;
    faulty_length = faulty_trace.Vm.Ir_exec.t_len;
  }

let pp_report fmt r =
  Fmt.pf fmt "%-8s" (Verdict.name r.outcome);
  (match r.first_divergence with
  | None -> Fmt.pf fmt "  fault vanished (no value ever differed)"
  | Some k ->
    Fmt.pf fmt "  diverges at %d/%d" k r.golden_length;
    Fmt.pf fmt ", %d corrupted value%s before control flow %s" r.corrupted_values
      (if r.corrupted_values = 1 then "" else "s")
      (match r.control_flow_diverged_at with
      | Some c -> Printf.sprintf "diverged at %d" c
      | None -> "ever diverged"));
  Fmt.pf fmt "  (%s)" r.fault_note
