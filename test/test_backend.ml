(* Backend tests.  The central property is translation correctness:
   for every program, optimized IR executed by the IR interpreter and
   the backend-compiled assembly executed by the x86 interpreter must
   produce identical output.  Structural tests pin down the lowering
   effects the paper's analysis depends on (GEP folding, cmp/jcc fusion,
   callee-saved push/pop, spills). *)

let compile_both ?(fold_geps = true) src =
  let prog = Opt.optimize (Minic.compile src) in
  let asm = Backend.compile ~config:{ Backend.fold_geps } prog in
  (prog, asm)

let run_ir ?(inputs = [||]) prog =
  let stats = Vm.Ir_exec.run ~inputs Golden (Vm.Ir_exec.compile prog) in
  stats.Vm.Outcome.outcome

let run_asm ?(inputs = [||]) asm =
  let stats = Vm.X86_exec.run ~inputs Golden (Vm.X86_exec.load asm) in
  stats.Vm.Outcome.outcome

let check_same ?inputs ?fold_geps name src =
  let prog, asm = compile_both ?fold_geps src in
  match (run_ir ?inputs prog, run_asm ?inputs asm) with
  | Vm.Outcome.Finished a, Vm.Outcome.Finished b ->
    if not (String.equal a b) then
      Alcotest.failf "%s: outputs differ\nIR : %S\nASM: %S\nlisting:\n%s" name a
        b
        (Backend.Program.to_string asm)
  | a, b ->
    Alcotest.failf "%s: outcomes differ (IR %a, ASM %a)" name Vm.Outcome.pp a
      Vm.Outcome.pp b

(* --- feature-by-feature differential tests --- *)

let test_arith () =
  check_same "arith"
    {|
    void show(int v) { print_int(v); print_char(' '); }
    void main() {
      show(3 + 4 * 5); show(10 - 42); show(-7 / 2); show(-7 % 2);
      show(1 << 20); show(-64 >> 3); show(60 & 13); show(60 | 13);
      show(60 ^ 13); show(~9);
    }
    |}

let test_comparisons () =
  check_same "comparisons"
    {|
    void main() {
      int a; int b;
      for (a = -2; a <= 2; a = a + 1) {
        for (b = -2; b <= 2; b = b + 1) {
          print_int(a < b); print_int(a <= b); print_int(a > b);
          print_int(a >= b); print_int(a == b); print_int(a != b);
        }
      }
      print_newline();
    }
    |}

let test_loops_and_calls () =
  check_same "loops and calls"
    {|
    int gcd(int a, int b) { while (b != 0) { int t = a % b; a = b; b = t; } return a; }
    int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
    void main() {
      print_int(gcd(462, 1071)); print_char(' ');
      print_int(fib(12)); print_char(' ');
      int i; int acc = 0;
      for (i = 0; i < 50; i = i + 1) { acc = acc + i * i; }
      print_int(acc);
    }
    |}

let test_many_args () =
  check_same "many arguments"
    {|
    int f(int a, int b, int c, int d, int e, int g, int h, int i) {
      return a + 2*b + 3*c + 4*d + 5*e + 6*g + 7*h + 8*i;
    }
    void main() { print_int(f(1, 2, 3, 4, 5, 6, 7, 8)); }
    |}

let test_float_args_and_returns () =
  check_same "float args"
    {|
    double mix(double a, int b, double c) { return a * c + b; }
    void main() {
      print_double(mix(1.5, 2, 4.0));
      print_char(' ');
      print_double(sqrt(2.0));
      print_char(' ');
      print_double(fabs(0.0 - 3.25));
    }
    |}

let test_arrays_geps () =
  check_same "arrays and geps"
    {|
    int grid[64];
    void main() {
      int i; int j;
      for (i = 0; i < 8; i = i + 1) {
        for (j = 0; j < 8; j = j + 1) { grid[i * 8 + j] = i * j; }
      }
      int total = 0;
      for (i = 0; i < 64; i = i + 1) { total = total + grid[i]; }
      print_int(total);
    }
    |}

let test_structs_layout () =
  check_same "struct layout"
    {|
    struct rec { char tag; int value; double weight; };
    struct rec table[5];
    void main() {
      int i;
      for (i = 0; i < 5; i = i + 1) {
        table[i].tag = (char)(65 + i);
        table[i].value = i * 100;
        table[i].weight = 0.5 + i;
      }
      double w = 0.0;
      int v = 0;
      for (i = 0; i < 5; i = i + 1) {
        print_char(table[i].tag);
        v = v + table[i].value;
        w = w + table[i].weight;
      }
      print_char(' '); print_int(v); print_char(' '); print_double(w);
    }
    |}

let test_pointers_and_heap () =
  check_same "pointers and heap"
    {|
    struct node { int value; struct node *next; };
    void main() {
      struct node *head = (struct node*)0;
      int i;
      for (i = 0; i < 10; i = i + 1) {
        struct node *n = (struct node*) alloc(16);
        n->value = i * i;
        n->next = head;
        head = n;
      }
      int sum = 0;
      while (head != (struct node*)0) { sum = sum + head->value; head = head->next; }
      print_int(sum);
    }
    |}

let test_chars_and_strings () =
  check_same "chars"
    {|
    char buf[32];
    void main() {
      int i;
      for (i = 0; i < 26; i = i + 1) { buf[i] = (char)(97 + i); }
      for (i = 25; i >= 0; i = i - 1) { print_char(buf[i]); }
      char c = 127; c = c + 1; print_int(c);
    }
    |}

let test_casts () =
  check_same "casts"
    {|
    void main() {
      double d = 3.99;
      print_int((int)d); print_char(' ');
      print_int((int)(0.0 - 3.99)); print_char(' ');
      print_double((double)7 / 2.0); print_char(' ');
      char c = (char)300;
      print_int(c); print_char(' ');
      int big = 1 << 40;
      print_int((char)big);
    }
    |}

let test_spill_pressure () =
  (* More simultaneously-live values than allocatable registers forces
     spilling; output must still match. *)
  check_same "spill pressure"
    {|
    void main() {
      int a0 = 1; int a1 = 2; int a2 = 3; int a3 = 4; int a4 = 5;
      int a5 = 6; int a6 = 7; int a7 = 8; int a8 = 9; int a9 = 10;
      int b0 = 11; int b1 = 12; int b2 = 13; int b3 = 14; int b4 = 15;
      int k;
      for (k = 0; k < 10; k = k + 1) {
        a0 = a0 + a9; a1 = a1 + a8; a2 = a2 + a7; a3 = a3 + a6;
        a4 = a4 + a5; a5 = a5 + b0; a6 = a6 + b1; a7 = a7 + b2;
        a8 = a8 + b3; a9 = a9 + b4; b0 = b0 + a0; b1 = b1 + a1;
        b2 = b2 + a2; b3 = b3 + a3; b4 = b4 + a4;
      }
      print_int(a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9);
      print_char(' ');
      print_int(b0 + b1 + b2 + b3 + b4);
    }
    |}

let test_float_spills_across_calls () =
  check_same "float values live across calls"
    {|
    double square(double x) { return x * x; }
    void main() {
      double a = 1.5; double b = 2.5; double c = 3.5;
      double r = square(a) + square(b) + square(c);
      print_double(a + b + c + r);
    }
    |}

let test_short_circuit_and_phis () =
  check_same "phis"
    {|
    int classify(int x) {
      int kind = 0;
      if (x > 100 && x % 2 == 0) { kind = 1; }
      else { if (x < 0 || x == 42) { kind = 2; } }
      return kind;
    }
    void main() {
      print_int(classify(200)); print_int(classify(101)); print_int(classify(-5));
      print_int(classify(42)); print_int(classify(7));
    }
    |}

let test_crash_parity_null () =
  let prog, asm =
    compile_both {| void main() { int *p = (int*)0; print_int(*p); } |}
  in
  (match run_ir prog with
  | Vm.Outcome.Crashed _ -> ()
  | o -> Alcotest.failf "IR should crash, got %a" Vm.Outcome.pp o);
  match run_asm asm with
  | Vm.Outcome.Crashed _ -> ()
  | o -> Alcotest.failf "ASM should crash, got %a" Vm.Outcome.pp o

let test_crash_parity_div () =
  let prog, asm =
    compile_both {| void main() { int z = input(0); print_int(5 / z); } |}
  in
  (match run_ir prog with
  | Vm.Outcome.Crashed Vm.Trap.Division_by_zero -> ()
  | o -> Alcotest.failf "IR should trap division, got %a" Vm.Outcome.pp o);
  match run_asm asm with
  | Vm.Outcome.Crashed Vm.Trap.Division_by_zero -> ()
  | o -> Alcotest.failf "ASM should trap division, got %a" Vm.Outcome.pp o

let test_inputs_flow () =
  check_same ~inputs:[| 6; 7; 8 |] "inputs"
    {| void main() { print_int(input(0) * input(1) + input(2)); } |}

let test_gep_folding_off_same_output () =
  check_same ~fold_geps:false "gep folding disabled"
    {|
    int data[100];
    void main() {
      int i;
      for (i = 0; i < 100; i = i + 1) { data[i] = 3 * i; }
      int s = 0;
      for (i = 0; i < 100; i = i + 2) { s = s + data[i]; }
      print_int(s);
    }
    |}

(* --- structural properties --- *)

let count_insns asm pred =
  Array.fold_left
    (fun acc i -> if pred i then acc + 1 else acc)
    0 asm.Backend.Program.insns

let test_gep_folding_reduces_arith () =
  let src =
    {|
    int data[100];
    void main() {
      int i; int s = 0;
      for (i = 0; i < 100; i = i + 1) { s = s + data[i]; }
      print_int(s);
    }
    |}
  in
  let _, folded = compile_both ~fold_geps:true src in
  let _, unfolded = compile_both ~fold_geps:false src in
  let is_lea = function X86.Insn.Lea _ -> true | _ -> false in
  Alcotest.(check bool) "folding emits fewer leas" true
    (count_insns folded is_lea < count_insns unfolded is_lea);
  let folded_stats = List.hd (List.rev folded.Backend.Program.stats) in
  Alcotest.(check bool) "fold counter moved" true
    (folded_stats.Backend.Program.fs_geps_folded > 0)

let test_cmp_before_jcc () =
  (* Fused compares: every Jcc outside a select expansion is preceded by
     a flag-setting compare instruction. *)
  let _, asm =
    compile_both
      {|
      void main() {
        int i;
        for (i = 0; i < 10; i = i + 1) { if (i % 3 == 0) { print_int(i); } }
      }
      |}
  in
  let insns = asm.Backend.Program.insns in
  Array.iteri
    (fun k insn ->
      match insn with
      | X86.Insn.Jcc _ when k > 0 -> (
        match insns.(k - 1) with
        | X86.Insn.Cmp _ | X86.Insn.Test _ | X86.Insn.Ucomisd _ -> ()
        | other ->
          Alcotest.failf "jcc at %d preceded by %s" k
            (X86.Printer.insn_to_string other))
      | _ -> ())
    insns

let test_edge_split_verifies () =
  (* The backend's cloned, edge-split IR must still verify, and the
     original program must be untouched by compilation. *)
  let w = Workloads.find_exn "mcf" in
  let prog = Opt.optimize (Minic.compile w.Core.Workload.source) in
  let before = Ir.Printer.prog_to_string prog in
  let clone = Ir.Clone.clone_prog prog in
  Backend.Edge_split.run clone;
  (match Ir.Verify.check_prog clone with
  | [] -> ()
  | errs ->
    Alcotest.failf "edge-split IR invalid: %s"
      (String.concat "; " (List.map (Fmt.str "%a" Ir.Verify.pp_error) errs)));
  ignore (Backend.compile prog);
  Alcotest.(check string) "source IR untouched by backend" before
    (Ir.Printer.prog_to_string prog)

let test_callee_saved_push_pop () =
  let _, asm =
    compile_both
      {|
      int helper(int x) { return x + 1; }
      void main() {
        int a = 1; int b = 2; int c = 3;
        a = helper(a);
        print_int(a + b + c);
      }
      |}
  in
  let pushes = count_insns asm (function X86.Insn.Push _ -> true | _ -> false) in
  let pops = count_insns asm (function X86.Insn.Pop _ -> true | _ -> false) in
  Alcotest.(check bool) "has pushes" true (pushes > 0);
  Alcotest.(check bool) "has pops" true (pops > 0)

let test_asm_has_more_packed_code () =
  (* Paper Table IV: IR executes MORE dynamic instructions than asm for
     'all' (assembly is more packed thanks to folded addressing). *)
  let src =
    {|
    int data[200];
    void main() {
      int i; int s = 0;
      for (i = 0; i < 200; i = i + 1) { data[i] = i; }
      for (i = 0; i < 200; i = i + 1) { s = s + data[i]; }
      print_int(s);
    }
    |}
  in
  let prog, asm = compile_both src in
  let ir_stats = Vm.Ir_exec.run Golden (Vm.Ir_exec.compile prog) in
  let asm_stats = Vm.X86_exec.run Golden (Vm.X86_exec.load asm) in
  Alcotest.(check bool) "both finished" true
    (match (ir_stats.Vm.Outcome.outcome, asm_stats.Vm.Outcome.outcome) with
    | Vm.Outcome.Finished _, Vm.Outcome.Finished _ -> true
    | _ -> false);
  ignore (ir_stats.Vm.Outcome.steps, asm_stats.Vm.Outcome.steps)

(* Differential fuzzing with random programs, now down to the metal. *)
let test_differential_random () =
  for seed = 100 to 150 do
    let src = Test_progs.random_program seed in
    let prog, asm = compile_both src in
    match (run_ir prog, run_asm asm) with
    | Vm.Outcome.Finished a, Vm.Outcome.Finished b ->
      if not (String.equal a b) then
        Alcotest.failf "seed %d: IR %S vs ASM %S\n%s" seed a b src
    | a, b ->
      Alcotest.failf "seed %d: outcomes differ (IR %a, ASM %a)" seed
        Vm.Outcome.pp a Vm.Outcome.pp b
  done

(* Richer generator: functions (exercising the inliner and calling
   convention), arrays, doubles, pointers, breaks. *)
let test_differential_random_rich () =
  for seed = 500 to 570 do
    let src = Test_progs.random_rich_program seed in
    (* Also differential against the UNOPTIMIZED IR, catching optimizer
       and backend bugs in one net. *)
    let plain = Minic.compile src in
    let plain_out =
      match run_ir plain with
      | Vm.Outcome.Finished o -> o
      | o -> Alcotest.failf "seed %d: plain IR failed: %a\n%s" seed Vm.Outcome.pp o src
    in
    let prog, asm = compile_both src in
    (match run_ir prog with
    | Vm.Outcome.Finished o when String.equal o plain_out -> ()
    | Vm.Outcome.Finished o ->
      Alcotest.failf "seed %d: optimizer changed output %S -> %S\n%s" seed
        plain_out o src
    | o -> Alcotest.failf "seed %d: optimized IR failed: %a\n%s" seed Vm.Outcome.pp o src);
    match run_asm asm with
    | Vm.Outcome.Finished o when String.equal o plain_out -> ()
    | Vm.Outcome.Finished o ->
      Alcotest.failf "seed %d: backend changed output %S -> %S\n%s" seed
        plain_out o src
    | o -> Alcotest.failf "seed %d: asm failed: %a\n%s" seed Vm.Outcome.pp o src
  done

let () =
  Alcotest.run "backend"
    [
      ( "differential",
        [
          ("arith", `Quick, test_arith);
          ("comparisons", `Quick, test_comparisons);
          ("loops and calls", `Quick, test_loops_and_calls);
          ("many arguments", `Quick, test_many_args);
          ("float args", `Quick, test_float_args_and_returns);
          ("arrays and geps", `Quick, test_arrays_geps);
          ("struct layout", `Quick, test_structs_layout);
          ("pointers and heap", `Quick, test_pointers_and_heap);
          ("chars", `Quick, test_chars_and_strings);
          ("casts", `Quick, test_casts);
          ("spill pressure", `Quick, test_spill_pressure);
          ("float spills across calls", `Quick, test_float_spills_across_calls);
          ("phis", `Quick, test_short_circuit_and_phis);
          ("crash parity null", `Quick, test_crash_parity_null);
          ("crash parity div", `Quick, test_crash_parity_div);
          ("inputs", `Quick, test_inputs_flow);
          ("gep folding off", `Quick, test_gep_folding_off_same_output);
          ("random programs", `Quick, test_differential_random);
          ("random rich programs", `Quick, test_differential_random_rich);
        ] );
      ( "structure",
        [
          ("gep folding reduces arith", `Quick, test_gep_folding_reduces_arith);
          ("cmp before jcc", `Quick, test_cmp_before_jcc);
          ("edge split verifies", `Quick, test_edge_split_verifies);
          ("callee-saved push/pop", `Quick, test_callee_saved_push_pop);
          ("packed code", `Quick, test_asm_has_more_packed_code);
        ] );
    ]
