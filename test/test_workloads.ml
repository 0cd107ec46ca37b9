(* Every benchmark program must compile, verify, run to completion at
   both execution levels with identical output, and have a sane dynamic
   instruction-count profile. *)

let prepare (w : Core.Workload.t) =
  let prog = Opt.optimize (Minic.compile w.Core.Workload.source) in
  let asm = Backend.compile prog in
  (prog, asm)

let golden_outputs (w : Core.Workload.t) =
  let prog, asm = prepare w in
  let ir = Vm.Ir_exec.run ~inputs:w.Core.Workload.inputs Golden (Vm.Ir_exec.compile prog) in
  let x86 = Vm.X86_exec.run ~inputs:w.Core.Workload.inputs Golden (Vm.X86_exec.load asm) in
  (ir, x86)

let test_runs_and_matches (w : Core.Workload.t) () =
  let ir, x86 = golden_outputs w in
  match (ir.Vm.Outcome.outcome, x86.Vm.Outcome.outcome) with
  | Vm.Outcome.Finished a, Vm.Outcome.Finished b ->
    if not (String.equal a b) then
      Alcotest.failf "%s: level outputs differ\nIR : %S\nASM: %S"
        w.Core.Workload.name a b;
    if String.length a = 0 then Alcotest.failf "%s: empty output" w.Core.Workload.name
  | a, b ->
    Alcotest.failf "%s: did not finish (IR %a, ASM %a)" w.Core.Workload.name
      Vm.Outcome.pp a Vm.Outcome.pp b

let test_step_budget (w : Core.Workload.t) () =
  let ir, x86 = golden_outputs w in
  let s = ir.Vm.Outcome.steps in
  if s < 5_000 || s > 2_000_000 then
    Alcotest.failf "%s: IR dynamic length %d outside the campaign budget"
      w.Core.Workload.name s;
  (* Paper Table IV: the IR executes more instructions than the packed
     assembly would suggest; sanity-check both counts exist. *)
  if x86.Vm.Outcome.steps <= 0 then Alcotest.fail "no asm steps"

let test_input_sensitivity (w : Core.Workload.t) () =
  (* Different inputs must change the output (the input vector is real). *)
  let prog, _ = prepare w in
  let compiled = Vm.Ir_exec.compile prog in
  let run inputs =
    match (Vm.Ir_exec.run ~inputs Golden compiled).Vm.Outcome.outcome with
    | Vm.Outcome.Finished out -> out
    | other ->
      Alcotest.failf "%s: did not finish: %a" w.Core.Workload.name Vm.Outcome.pp
        other
  in
  let a = run w.Core.Workload.inputs in
  let b = run (Array.map (fun v -> v + 13) w.Core.Workload.inputs) in
  if String.equal a b then
    Alcotest.failf "%s: output ignores the input vector" w.Core.Workload.name

let test_determinism (w : Core.Workload.t) () =
  let ir1, _ = golden_outputs w in
  let ir2, _ = golden_outputs w in
  match (ir1.Vm.Outcome.outcome, ir2.Vm.Outcome.outcome) with
  | Vm.Outcome.Finished a, Vm.Outcome.Finished b ->
    Alcotest.(check string) "deterministic" a b
  | _ -> Alcotest.fail "did not finish"

let test_profile_nonempty (w : Core.Workload.t) () =
  let prog, asm = prepare w in
  let llfi = Core.Llfi.prepare ~inputs:w.Core.Workload.inputs prog in
  let pinfi = Core.Pinfi.prepare ~inputs:w.Core.Workload.inputs asm in
  List.iter
    (fun cat ->
      let n_ir = Core.Llfi.dynamic_count llfi cat in
      let n_asm = Core.Pinfi.dynamic_count pinfi cat in
      (* cast may legitimately be tiny, all others must be populated *)
      match cat with
      | Core.Category.Cast -> ()
      | _ ->
        if n_ir = 0 then
          Alcotest.failf "%s: empty LLFI category %s" w.Core.Workload.name
            (Core.Category.name cat);
        if n_asm = 0 then
          Alcotest.failf "%s: empty PINFI category %s" w.Core.Workload.name
            (Core.Category.name cat))
    Core.Category.all;
  (* Table IV shape: LLFI sees more dynamic instructions than PINFI
     under 'all' (IR code is less packed than assembly). *)
  let ir_all = Core.Llfi.dynamic_count llfi Core.Category.All in
  let asm_all = Core.Pinfi.dynamic_count pinfi Core.Category.All in
  if ir_all <= 0 || asm_all <= 0 then Alcotest.fail "empty 'all' category";
  ignore (ir_all, asm_all)

let test_loc_counts () =
  List.iter
    (fun w ->
      let loc = Core.Workload.lines_of_code w in
      if loc < 40 then
        Alcotest.failf "%s: suspiciously small (%d lines)" w.Core.Workload.name
          loc)
    Workloads.all

let test_registry () =
  Alcotest.(check int) "six workloads" 6 (List.length Workloads.all);
  Alcotest.(check bool) "find bzip2" true (Workloads.find "bzip2" <> None);
  Alcotest.(check bool) "find nothing" true (Workloads.find "gcc" = None)

let per_workload (w : Core.Workload.t) =
  ( w.Core.Workload.name,
    [
      ("runs and levels match", `Quick, test_runs_and_matches w);
      ("step budget", `Quick, test_step_budget w);
      ("input sensitivity", `Quick, test_input_sensitivity w);
      ("determinism", `Quick, test_determinism w);
      ("profiles populated", `Quick, test_profile_nonempty w);
    ] )

let () =
  Alcotest.run "workloads"
    (List.map per_workload Workloads.all
    @ [
        ( "registry",
          [
            ("line counts", `Quick, test_loc_counts);
            ("lookup", `Quick, test_registry);
          ] );
      ])
