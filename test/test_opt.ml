(* Tests for the optimization pipeline.  The core property is
   behaviour preservation: for every program, the optimized IR must
   produce byte-identical output to the unoptimized IR.  Structural
   tests then pin down what each pass is supposed to achieve. *)

let run_ir ?(inputs = [||]) prog =
  let stats = Vm.Ir_exec.run ~inputs Golden (Vm.Ir_exec.compile prog) in
  match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Finished out -> out
  | other -> Alcotest.failf "program did not finish: %a" Vm.Outcome.pp other

let check_preserves ?inputs name src =
  let plain_out = run_ir ?inputs (Minic.compile src) in
  let opt_out = run_ir ?inputs (Opt.optimize (Minic.compile src)) in
  Alcotest.(check string) (name ^ ": same output") plain_out opt_out

let count_instrs prog pred =
  List.fold_left
    (fun acc f -> Ir.Func.fold_instrs (fun acc i -> if pred i then acc + 1 else acc) acc f)
    0 prog.Ir.Prog.funcs

let is_alloca (i : Ir.Instr.t) =
  match i.Ir.Instr.kind with Ir.Instr.Alloca _ -> true | _ -> false

let is_phi (i : Ir.Instr.t) =
  match i.Ir.Instr.kind with Ir.Instr.Phi _ -> true | _ -> false

let is_load (i : Ir.Instr.t) =
  match i.Ir.Instr.kind with Ir.Instr.Load _ -> true | _ -> false

(* A program with loops, conditionals, arrays, pointers, structs,
   doubles and recursion — broad coverage for the preservation check. *)
let kitchen_sink =
  {|
  struct acc { int lo; int hi; };
  int table[16];
  int collatz(int n) {
    int steps = 0;
    while (n != 1) {
      if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
      steps = steps + 1;
    }
    return steps;
  }
  void main() {
    int i;
    struct acc a;
    a.lo = 0; a.hi = 0;
    for (i = 0; i < 16; i = i + 1) { table[i] = collatz(i + 2); }
    for (i = 0; i < 16; i = i + 1) {
      if (table[i] < 10) { a.lo = a.lo + table[i]; }
      else { a.hi = a.hi + table[i]; }
    }
    print_int(a.lo); print_char(' '); print_int(a.hi); print_newline();
    double x = 0.5;
    for (i = 0; i < 8; i = i + 1) { x = x * 1.5 + 0.25; }
    print_double(x); print_newline();
    char buf[8];
    for (i = 0; i < 8; i = i + 1) { buf[i] = (char)(65 + i); }
    char *p = buf;
    for (i = 0; i < 8; i = i + 1) { print_char(*(p + i)); }
    print_newline();
  }
  |}

let test_preserves_kitchen_sink () = check_preserves "kitchen sink" kitchen_sink

let test_preserves_short_circuit () =
  check_preserves "short circuit"
    {|
    int calls = 0;
    int effect(int v) { calls = calls + 1; return v; }
    void main() {
      int a = 0;
      if (a != 0 && effect(1) > 0) { print_char('x'); }
      if (a == 0 || effect(1) > 0) { print_char('y'); }
      print_int(calls);
    }
    |}

let test_preserves_early_return () =
  check_preserves "early return"
    {|
    int f(int n) {
      if (n < 0) { return -1; }
      if (n == 0) { return 0; }
      return 1;
    }
    void main() {
      print_int(f(-5)); print_int(f(0)); print_int(f(7));
    }
    |}

let test_preserves_infinite_loop_break () =
  check_preserves "loop with break"
    {|
    void main() {
      int i = 0;
      while (1) {
        i = i + 1;
        if (i >= 10) { break; }
      }
      print_int(i);
    }
    |}

let test_preserves_inputs () =
  check_preserves ~inputs:[| 12; 34 |] "inputs"
    {| void main() { print_int(input(0) + input(1)); } |}

let test_mem2reg_promotes_scalars () =
  let prog = Minic.compile kitchen_sink in
  let allocas_before = count_instrs prog is_alloca in
  ignore (Opt.optimize prog);
  let allocas_after = count_instrs prog is_alloca in
  let phis_after = count_instrs prog is_phi in
  Alcotest.(check bool) "allocas reduced" true (allocas_after < allocas_before);
  Alcotest.(check bool) "phis introduced" true (phis_after > 0);
  (* Arrays, structs and address-taken locals must survive. *)
  Alcotest.(check bool) "aggregate allocas remain" true (allocas_after > 0)

let test_mem2reg_keeps_address_taken () =
  let src =
    {|
    void set(int *p) { *p = 9; }
    void main() { int x = 1; set(&x); print_int(x); }
    |}
  in
  check_preserves "address-taken" src;
  let prog = Opt.optimize (Minic.compile src) in
  (* x's alloca must NOT have been promoted: its address escapes. *)
  let main = Ir.Prog.main prog in
  let allocas = Ir.Func.fold_instrs (fun acc i -> if is_alloca i then acc + 1 else acc) 0 main in
  Alcotest.(check int) "escaping alloca kept" 1 allocas

let test_mem2reg_reduces_loads () =
  let src =
    {|
    void main() {
      int s = 0;
      int i;
      for (i = 0; i < 100; i = i + 1) { s = s + i; }
      print_int(s);
    }
    |}
  in
  let plain = Minic.compile src in
  let opt = Opt.optimize (Minic.compile src) in
  let loads_before = count_instrs plain is_load in
  let loads_after = count_instrs opt is_load in
  Alcotest.(check bool) "loads eliminated" true (loads_after < loads_before);
  Alcotest.(check int) "all scalar loads gone" 0 loads_after

let test_constfold_folds () =
  let src = {| void main() { print_int(2 * 3 + 4 * 5 - 1); } |} in
  let prog = Opt.optimize (Minic.compile src) in
  let arith =
    count_instrs prog (fun i ->
        match i.Ir.Instr.kind with Ir.Instr.Binop _ -> true | _ -> false)
  in
  Alcotest.(check int) "all arithmetic folded away" 0 arith;
  Alcotest.(check string) "folded result" "25" (run_ir prog)

let test_constfold_keeps_div_by_zero () =
  (* 1/0 must still crash after optimization, not be folded into garbage. *)
  let src = {| void main() { int z = 0; print_int(1 / z); } |} in
  let prog = Opt.optimize (Minic.compile src) in
  let stats = Vm.Ir_exec.run Golden (Vm.Ir_exec.compile prog) in
  match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Crashed Vm.Trap.Division_by_zero -> ()
  | other -> Alcotest.failf "expected division trap, got %a" Vm.Outcome.pp other

let test_dce_removes_dead_code () =
  let src =
    {|
    void main() {
      int unused = 40 + 2;
      int also_unused = unused * 10;
      print_int(7);
    }
    |}
  in
  let prog = Opt.optimize (Minic.compile src) in
  let main = Ir.Prog.main prog in
  let n = Ir.Func.fold_instrs (fun acc _ -> acc + 1) 0 main in
  (* Only the print intrinsic should remain. *)
  Alcotest.(check int) "one instruction left" 1 n

let test_simplify_removes_unreachable () =
  let src =
    {|
    void main() {
      print_int(1);
      return;
      print_int(2);
    }
    |}
  in
  let prog = Opt.optimize (Minic.compile src) in
  Alcotest.(check string) "dead print gone" "1" (run_ir prog);
  let main = Ir.Prog.main prog in
  Alcotest.(check int) "single block" 1 (List.length main.Ir.Func.blocks)

(* --- CSE --- *)

let test_cse_removes_duplicates () =
  let src =
    {|
    void main() {
      int a = input(0);
      int b = input(1);
      print_int(a * b + a * b);   // a*b computed once
      print_int((a + b) * (b + a)); // commutative: one add
    }
    |}
  in
  check_preserves ~inputs:[| 6; 7 |] "cse" src;
  let prog = Opt.optimize (Minic.compile src) in
  let muls =
    count_instrs prog (fun i ->
        match i.Ir.Instr.kind with
        | Ir.Instr.Binop (Ir.Instr.Mul, _, _) -> true
        | _ -> false)
  in
  let adds =
    count_instrs prog (fun i ->
        match i.Ir.Instr.kind with
        | Ir.Instr.Binop (Ir.Instr.Add, _, _) -> true
        | _ -> false)
  in
  Alcotest.(check int) "two muls remain (a*b and the outer)" 2 muls;
  Alcotest.(check int) "one add for a+b/b+a, one for the sum" 2 adds

let test_cse_does_not_merge_loads () =
  (* Two loads of the same location with a store in between must both
     survive — our CSE refuses loads entirely. *)
  check_preserves "loads not merged"
    {|
    int g = 1;
    void main() {
      int a = g;
      g = 5;
      int b = g;
      print_int(a + b);
    }
    |}

let test_cse_keeps_distinct_divisions () =
  check_preserves ~inputs:[| 3 |] "divisions"
    {|
    void main() {
      int d = input(0);
      print_int(100 / d + 100 / d);
      print_int(101 / d);
    }
    |}

(* --- inliner --- *)

let count_calls prog =
  count_instrs prog (fun i ->
      match i.Ir.Instr.kind with Ir.Instr.Call _ -> true | _ -> false)

let test_inline_small_helpers () =
  let src =
    {|
    int add(int a, int b) { return a + b; }
    int twice(int x) { return add(x, x); }
    void main() { print_int(twice(21)); }
    |}
  in
  check_preserves "inline helpers" src;
  let prog = Opt.optimize (Minic.compile src) in
  Alcotest.(check int) "no calls remain" 0 (count_calls prog);
  Alcotest.(check string) "value" "42" (run_ir prog)

let test_inline_keeps_recursion () =
  let src =
    {|
    int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
    void main() { print_int(fib(10)); }
    |}
  in
  let prog = Opt.optimize (Minic.compile src) in
  Alcotest.(check bool) "recursive calls kept" true (count_calls prog > 0);
  Alcotest.(check string) "value" "55" (run_ir prog)

let test_inline_multiple_returns () =
  let src =
    {|
    int sign(int x) {
      if (x > 0) { return 1; }
      if (x < 0) { return -1; }
      return 0;
    }
    void main() {
      print_int(sign(9)); print_int(sign(-3)); print_int(sign(0));
    }
    |}
  in
  check_preserves "multiple returns" src;
  let prog = Opt.optimize (Minic.compile src) in
  Alcotest.(check int) "inlined" 0 (count_calls prog);
  Alcotest.(check string) "output" "1-10" (run_ir prog)

let test_inline_call_in_loop_bounded_stack () =
  (* Inlined callee allocas must be hoisted: calling in a hot loop must
     not grow the stack. *)
  let src =
    {|
    int pick(int *buf, int k) { buf[0] = k; return buf[0] * 2; }
    void main() {
      int scratch[4];
      int total = 0;
      int i;
      for (i = 0; i < 5000; i = i + 1) { total = total + pick(scratch, i % 7); }
      print_int(total);
    }
    |}
  in
  check_preserves "call in loop" src;
  let prog = Opt.optimize (Minic.compile src) in
  let stats = Vm.Ir_exec.run Golden (Vm.Ir_exec.compile prog) in
  match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Finished _ -> ()
  | other -> Alcotest.failf "inlined loop failed: %a" Vm.Outcome.pp other

let test_inline_side_effect_order () =
  check_preserves "side-effect order through inlining"
    {|
    int log_count = 0;
    int noisy(int x) { log_count = log_count + 1; print_int(x); return x; }
    void main() {
      int r = noisy(1) + noisy(2);
      print_int(r); print_int(log_count);
    }
    |}

let test_optimized_verifies () =
  let prog = Opt.optimize (Minic.compile kitchen_sink) in
  match Ir.Verify.check_prog prog with
  | [] -> ()
  | errs ->
    Alcotest.failf "optimized IR is invalid: %s"
      (String.concat "; " (List.map (Fmt.str "%a" Ir.Verify.pp_error) errs))

(* Differential fuzzing: generate small random straight-line+loop
   programs and check optimization preserves their output. *)
let test_differential_random () =
  for seed = 1 to 60 do
    let src = Test_progs.random_program seed in
    let plain_out = run_ir (Minic.compile src) in
    let opt_out = run_ir (Opt.optimize (Minic.compile src)) in
    if not (String.equal plain_out opt_out) then
      Alcotest.failf "seed %d: optimization changed output\n%s\nplain=%s opt=%s"
        seed src plain_out opt_out
  done

let () =
  Alcotest.run "opt"
    [
      ( "preservation",
        [
          ("kitchen sink", `Quick, test_preserves_kitchen_sink);
          ("short circuit", `Quick, test_preserves_short_circuit);
          ("early return", `Quick, test_preserves_early_return);
          ("loop with break", `Quick, test_preserves_infinite_loop_break);
          ("inputs", `Quick, test_preserves_inputs);
          ("differential random", `Quick, test_differential_random);
        ] );
      ( "mem2reg",
        [
          ("promotes scalars", `Quick, test_mem2reg_promotes_scalars);
          ("keeps address-taken", `Quick, test_mem2reg_keeps_address_taken);
          ("reduces loads", `Quick, test_mem2reg_reduces_loads);
        ] );
      ( "constfold",
        [
          ("folds arithmetic", `Quick, test_constfold_folds);
          ("keeps division by zero", `Quick, test_constfold_keeps_div_by_zero);
        ] );
      ( "cse",
        [
          ("removes duplicates", `Quick, test_cse_removes_duplicates);
          ("does not merge loads", `Quick, test_cse_does_not_merge_loads);
          ("keeps distinct divisions", `Quick, test_cse_keeps_distinct_divisions);
        ] );
      ( "inline",
        [
          ("small helpers", `Quick, test_inline_small_helpers);
          ("keeps recursion", `Quick, test_inline_keeps_recursion);
          ("multiple returns", `Quick, test_inline_multiple_returns);
          ("call in loop, bounded stack", `Quick, test_inline_call_in_loop_bounded_stack);
          ("side-effect order", `Quick, test_inline_side_effect_order);
        ] );
      ( "dce", [ ("removes dead code", `Quick, test_dce_removes_dead_code) ] );
      ( "simplify",
        [ ("removes unreachable", `Quick, test_simplify_removes_unreachable) ] );
      ("verify", [ ("optimized IR verifies", `Quick, test_optimized_verifies) ]);
    ]
