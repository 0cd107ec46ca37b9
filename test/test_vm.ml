(* Tests for the IR-level virtual machine: execution semantics, traps,
   hang detection, profiling and fault injection mechanics. *)

let build_sum_program () =
  (* main() { s = 0; for (i = 0; i < 10; i++) s += i*i; print s; } built
     directly in SSA form with phis. *)
  let prog = Ir.Prog.create () in
  let b, _ = Ir.Builder.start_function prog ~name:"main" ~params:[] ~ret_ty:Ir.Types.I64 in
  let entry = Ir.Builder.block b "entry" in
  let loop = Ir.Builder.block b "loop" in
  let exit_ = Ir.Builder.block b "exit" in
  Ir.Builder.position_at_end b entry;
  Ir.Builder.br b loop;
  Ir.Builder.position_at_end b loop;
  let i = Ir.Builder.phi b [ (Ir.Operand.i64 0, "entry") ] ~name:"i" in
  let s = Ir.Builder.phi b [ (Ir.Operand.i64 0, "entry") ] ~name:"s" in
  let sq = Ir.Builder.binop b Ir.Instr.Mul i i ~name:"sq" in
  let s' = Ir.Builder.binop b Ir.Instr.Add s sq ~name:"s2" in
  let i' = Ir.Builder.binop b Ir.Instr.Add i (Ir.Operand.i64 1) ~name:"i2" in
  let cond = Ir.Builder.icmp b Ir.Instr.Islt i' (Ir.Operand.i64 10) ~name:"c" in
  Ir.Builder.add_phi_incoming b i (i', loop);
  Ir.Builder.add_phi_incoming b s (s', loop);
  Ir.Builder.cond_br b cond loop exit_;
  Ir.Builder.position_at_end b exit_;
  Ir.Builder.intrinsic b Ir.Instr.Print_i64 [ s' ] |> ignore;
  Ir.Builder.intrinsic b Ir.Instr.Print_newline [] |> ignore;
  Ir.Builder.ret b (Some s');
  prog

let bitflip = Vm.Fault_model.sampled Vm.Fault_model.Bitflip

let test_verify_ok () =
  let prog = build_sum_program () in
  match Ir.Verify.check_prog prog with
  | [] -> ()
  | errors ->
    Alcotest.failf "verifier rejected program: %s"
      (String.concat "; " (List.map (Fmt.str "%a" Ir.Verify.pp_error) errors))

let test_run_sum () =
  let prog = build_sum_program () in
  let compiled = Vm.Ir_exec.compile prog in
  let stats = Vm.Ir_exec.run Golden compiled in
  match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Finished out -> Alcotest.(check string) "output" "285\n" out
  | other -> Alcotest.failf "unexpected outcome %a" Vm.Outcome.pp other

let test_globals_and_memory () =
  let prog = Ir.Prog.create () in
  Ir.Prog.add_global prog
    { Ir.Prog.gname = "table"; gty = Ir.Types.Arr (4, Ir.Types.I64);
      ginit = Ir.Prog.Ints [ 10; 20; 30; 40 ] };
  let b, _ = Ir.Builder.start_function prog ~name:"main" ~params:[] ~ret_ty:Ir.Types.Void in
  let entry = Ir.Builder.block b "entry" in
  Ir.Builder.position_at_end b entry;
  let base =
    Ir.Operand.Global ("table", Ir.Types.Ptr (Ir.Types.Arr (4, Ir.Types.I64)))
  in
  let p2 = Ir.Builder.gep b base [ Ir.Operand.i64 0; Ir.Operand.i64 2 ] in
  let v = Ir.Builder.load b p2 in
  Ir.Builder.intrinsic b Ir.Instr.Print_i64 [ v ] |> ignore;
  Ir.Builder.ret b None;
  Ir.Verify.check_prog_exn prog;
  let stats = Vm.Ir_exec.run Golden (Vm.Ir_exec.compile prog) in
  match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Finished out -> Alcotest.(check string) "output" "30" out
  | other -> Alcotest.failf "unexpected outcome %a" Vm.Outcome.pp other

let test_null_deref_crashes () =
  let prog = Ir.Prog.create () in
  let b, _ = Ir.Builder.start_function prog ~name:"main" ~params:[] ~ret_ty:Ir.Types.Void in
  let entry = Ir.Builder.block b "entry" in
  Ir.Builder.position_at_end b entry;
  let v = Ir.Builder.load b (Ir.Operand.Null (Ir.Types.Ptr Ir.Types.I64)) in
  Ir.Builder.intrinsic b Ir.Instr.Print_i64 [ v ] |> ignore;
  Ir.Builder.ret b None;
  let stats = Vm.Ir_exec.run Golden (Vm.Ir_exec.compile prog) in
  match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Crashed (Vm.Trap.Unmapped_read a) when a >= 0 && a < 8 -> ()
  | other -> Alcotest.failf "expected null-read crash, got %a" Vm.Outcome.pp other

let test_div_by_zero_crashes () =
  let prog = Ir.Prog.create () in
  let b, _ = Ir.Builder.start_function prog ~name:"main" ~params:[] ~ret_ty:Ir.Types.Void in
  let entry = Ir.Builder.block b "entry" in
  Ir.Builder.position_at_end b entry;
  let zero = Ir.Builder.binop b Ir.Instr.Sub (Ir.Operand.i64 5) (Ir.Operand.i64 5) in
  let v = Ir.Builder.binop b Ir.Instr.Sdiv (Ir.Operand.i64 1) zero in
  Ir.Builder.intrinsic b Ir.Instr.Print_i64 [ v ] |> ignore;
  Ir.Builder.ret b None;
  let stats = Vm.Ir_exec.run Golden (Vm.Ir_exec.compile prog) in
  match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Crashed Vm.Trap.Division_by_zero -> ()
  | other -> Alcotest.failf "expected division trap, got %a" Vm.Outcome.pp other

let test_hang_detection () =
  let prog = Ir.Prog.create () in
  let b, _ = Ir.Builder.start_function prog ~name:"main" ~params:[] ~ret_ty:Ir.Types.Void in
  let entry = Ir.Builder.block b "entry" in
  let loop = Ir.Builder.block b "loop" in
  Ir.Builder.position_at_end b entry;
  Ir.Builder.br b loop;
  Ir.Builder.position_at_end b loop;
  Ir.Builder.br b loop;
  let stats = Vm.Ir_exec.run ~max_steps:1000 Golden (Vm.Ir_exec.compile prog) in
  match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Hung -> ()
  | other -> Alcotest.failf "expected hang, got %a" Vm.Outcome.pp other

(* Classification that marks every instruction with a result as bit 0. *)
let classify_all (_ : Ir.Func.t) (i : Ir.Instr.t) =
  match i.Ir.Instr.result with Some _ -> 1 | None -> 0

let test_profile_counts () =
  let prog = build_sum_program () in
  let compiled = Vm.Ir_exec.compile ~classify:classify_all prog in
  let counts = Array.make 2 0 in
  let stats = Vm.Ir_exec.run (Profile counts) compiled in
  (match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Finished _ -> ()
  | other -> Alcotest.failf "unexpected outcome %a" Vm.Outcome.pp other);
  (* 10 iterations x (2 phis + mul + add + add + icmp) = 60 candidates. *)
  Alcotest.(check int) "candidate count" 60 counts.(1)

let test_injection_changes_output () =
  let prog = build_sum_program () in
  let compiled = Vm.Ir_exec.compile ~classify:classify_all prog in
  (* Inject into every instance in turn with a fixed bit-rng; at least one
     injection must produce a different (non-crashing) output, and every
     run must set the injected flag. *)
  let changed = ref 0 in
  for target = 0 to 59 do
    let plan =
      { Vm.Ir_exec.inj_mask = 1; target; rng = Support.Rng.of_int (1000 + target) }
    in
    let stats = Vm.Ir_exec.run (Inject (plan, bitflip)) compiled in
    if not stats.Vm.Outcome.injected then
      Alcotest.failf "target %d not injected" target;
    match stats.Vm.Outcome.outcome with
    | Vm.Outcome.Finished out -> if not (String.equal out "285\n") then incr changed
    | Vm.Outcome.Crashed _ | Vm.Outcome.Hung -> incr changed
  done;
  if !changed = 0 then Alcotest.fail "no injection had any effect"

let test_injection_out_of_range_is_noop () =
  let prog = build_sum_program () in
  let compiled = Vm.Ir_exec.compile ~classify:classify_all prog in
  let plan =
    { Vm.Ir_exec.inj_mask = 1; target = 1_000_000; rng = Support.Rng.of_int 7 }
  in
  let stats = Vm.Ir_exec.run (Inject (plan, bitflip)) compiled in
  Alcotest.(check bool) "not injected" false stats.Vm.Outcome.injected;
  match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Finished out -> Alcotest.(check string) "output" "285\n" out
  | other -> Alcotest.failf "unexpected outcome %a" Vm.Outcome.pp other

let test_deterministic_injection () =
  let prog = build_sum_program () in
  let compiled = Vm.Ir_exec.compile ~classify:classify_all prog in
  let run () =
    let plan = { Vm.Ir_exec.inj_mask = 1; target = 17; rng = Support.Rng.of_int 42 } in
    Vm.Ir_exec.run (Inject (plan, bitflip)) compiled
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same outcome"
    true
    (match (a.Vm.Outcome.outcome, b.Vm.Outcome.outcome) with
    | Vm.Outcome.Finished x, Vm.Outcome.Finished y -> String.equal x y
    | Vm.Outcome.Crashed x, Vm.Outcome.Crashed y -> x = y
    | Vm.Outcome.Hung, Vm.Outcome.Hung -> true
    | _ -> false)

let test_recursion_and_calls () =
  let prog = Ir.Prog.create () in
  (* fib(n) = n < 2 ? n : fib(n-1) + fib(n-2) *)
  let fb, fargs =
    Ir.Builder.start_function prog ~name:"fib"
      ~params:[ ("n", Ir.Types.I64) ] ~ret_ty:Ir.Types.I64
  in
  let n = List.hd fargs in
  let entry = Ir.Builder.block fb "entry" in
  let base = Ir.Builder.block fb "base" in
  let rec_ = Ir.Builder.block fb "rec" in
  Ir.Builder.position_at_end fb entry;
  let c = Ir.Builder.icmp fb Ir.Instr.Islt n (Ir.Operand.i64 2) in
  Ir.Builder.cond_br fb c base rec_;
  Ir.Builder.position_at_end fb base;
  Ir.Builder.ret fb (Some n);
  Ir.Builder.position_at_end fb rec_;
  let n1 = Ir.Builder.binop fb Ir.Instr.Sub n (Ir.Operand.i64 1) in
  let n2 = Ir.Builder.binop fb Ir.Instr.Sub n (Ir.Operand.i64 2) in
  let f1 = Ir.Builder.call fb "fib" [ n1 ] in
  let f2 = Ir.Builder.call fb "fib" [ n2 ] in
  let sum = Ir.Builder.binop fb Ir.Instr.Add f1 f2 in
  Ir.Builder.ret fb (Some sum);
  let mb, _ = Ir.Builder.start_function prog ~name:"main" ~params:[] ~ret_ty:Ir.Types.Void in
  let mentry = Ir.Builder.block mb "entry" in
  Ir.Builder.position_at_end mb mentry;
  let r = Ir.Builder.call mb "fib" [ Ir.Operand.i64 15 ] in
  Ir.Builder.intrinsic mb Ir.Instr.Print_i64 [ r ] |> ignore;
  Ir.Builder.ret mb None;
  Ir.Verify.check_prog_exn prog;
  let stats = Vm.Ir_exec.run Golden (Vm.Ir_exec.compile prog) in
  match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Finished out -> Alcotest.(check string) "fib 15" "610" out
  | other -> Alcotest.failf "unexpected outcome %a" Vm.Outcome.pp other

let test_float_pipeline () =
  let prog = Ir.Prog.create () in
  let b, _ = Ir.Builder.start_function prog ~name:"main" ~params:[] ~ret_ty:Ir.Types.Void in
  let entry = Ir.Builder.block b "entry" in
  Ir.Builder.position_at_end b entry;
  let x = Ir.Builder.cast b Ir.Instr.Sitofp (Ir.Operand.i64 9) ~to_:Ir.Types.F64 in
  let r = Ir.Builder.intrinsic b Ir.Instr.Sqrt [ x ] in
  let sum = Ir.Builder.binop b Ir.Instr.Fadd r (Ir.Operand.f64 0.5) in
  let back = Ir.Builder.cast b Ir.Instr.Fptosi sum ~to_:Ir.Types.I64 in
  Ir.Builder.intrinsic b Ir.Instr.Print_i64 [ back ] |> ignore;
  Ir.Builder.ret b None;
  Ir.Verify.check_prog_exn prog;
  let stats = Vm.Ir_exec.run Golden (Vm.Ir_exec.compile prog) in
  match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Finished out -> Alcotest.(check string) "sqrt(9)+0.5 -> 3" "3" out
  | other -> Alcotest.failf "unexpected outcome %a" Vm.Outcome.pp other

let suite =
  [
    ("verify sum program", `Quick, test_verify_ok);
    ("run sum program", `Quick, test_run_sum);
    ("globals and memory", `Quick, test_globals_and_memory);
    ("null deref crashes", `Quick, test_null_deref_crashes);
    ("division by zero crashes", `Quick, test_div_by_zero_crashes);
    ("hang detection", `Quick, test_hang_detection);
    ("profile counts", `Quick, test_profile_counts);
    ("injection changes output", `Quick, test_injection_changes_output);
    ("injection out of range is noop", `Quick, test_injection_out_of_range_is_noop);
    ("deterministic injection", `Quick, test_deterministic_injection);
    ("recursion and calls", `Quick, test_recursion_and_calls);
    ("float pipeline", `Quick, test_float_pipeline);
  ]

let () = Alcotest.run "vm" [ ("ir_exec", suite) ]
