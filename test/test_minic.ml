(* End-to-end frontend tests: MiniC source -> IR -> execution output. *)

let run_src ?(inputs = [||]) src =
  let prog = Minic.compile src in
  let stats = Vm.Ir_exec.run ~inputs Golden (Vm.Ir_exec.compile prog) in
  match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Finished out -> out
  | other -> Alcotest.failf "program did not finish: %a" Vm.Outcome.pp other

let check_output ?inputs name expected src =
  Alcotest.(check string) name expected (run_src ?inputs src)

let expect_compile_error src fragment =
  match Minic.compile src with
  | _ -> Alcotest.failf "expected compile error mentioning %S" fragment
  | exception Minic.Compile_error msg ->
    let contains s sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      n = 0 || go 0
    in
    if not (contains msg fragment) then
      Alcotest.failf "error %S does not mention %S" msg fragment

let test_hello () =
  check_output "hello" "hi\n42\n"
    {| void main() { print_str("hi\n"); print_int(42); print_newline(); } |}

let test_arith () =
  check_output "arith" "17 2 8 1 -3 "
    {|
    void show(int v) { print_int(v); print_char(' '); }
    void main() {
      show(3 + 2 * 7);
      show(17 / 8);
      show(17 % 9);
      show(5 > 4);
      show(-3);
    }
    |}

let test_bitwise () =
  check_output "bitwise" "12 61 49 240 7 -8 "
    {|
    void show(int v) { print_int(v); print_char(' '); }
    void main() {
      show(60 & 13);
      show(60 | 13);
      show(60 ^ 13);
      show(15 << 4);
      show(60 >> 3);
      show(~7);
    }
    |}

let test_control_flow () =
  check_output "fizzbuzz-ish" "1 2 F 4 B F 7 8 F B "
    {|
    void main() {
      int i;
      for (i = 1; i <= 10; i = i + 1) {
        if (i % 3 == 0) { print_char('F'); }
        else { if (i % 5 == 0) { print_char('B'); } else { print_int(i); } }
        print_char(' ');
      }
    }
    |}

let test_while_break_continue () =
  check_output "break/continue" "1 2 4 5 "
    {|
    void main() {
      int i = 0;
      while (1) {
        i = i + 1;
        if (i == 3) { continue; }
        if (i > 5) { break; }
        print_int(i); print_char(' ');
      }
    }
    |}

let test_short_circuit () =
  (* Division by zero on the right of && must not run when lhs is false. *)
  check_output "short circuit" "ok1"
    {|
    int boom(int x) { return 1 / x; }
    void main() {
      int zero = 0;
      if (zero != 0 && boom(zero) > 0) { print_str("bad"); }
      else { print_str("ok"); }
      if (zero == 0 || boom(zero) > 0) { print_int(1); }
    }
    |}

let test_functions_recursion () =
  check_output "recursion" "120 55 "
    {|
    int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }
    int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
    void main() {
      print_int(fact(5)); print_char(' ');
      print_int(fib(10)); print_char(' ');
    }
    |}

let test_arrays_and_pointers () =
  check_output "arrays and pointers" "0 1 4 9 16 sum=30 first=7"
    {|
    int squares[5];
    void main() {
      int i;
      for (i = 0; i < 5; i = i + 1) { squares[i] = i * i; }
      int sum = 0;
      for (i = 0; i < 5; i = i + 1) {
        print_int(squares[i]); print_char(' ');
        sum = sum + squares[i];
      }
      print_str("sum="); print_int(sum);
      int *p = &squares[0];
      *p = 7;
      print_str(" first="); print_int(squares[0]);
    }
    |}

let test_pointer_arith () =
  check_output "pointer arithmetic" "30 3"
    {|
    void main() {
      int a[4];
      a[0] = 10; a[1] = 20; a[2] = 30; a[3] = 40;
      int *p = a;
      p = p + 2;
      print_int(*p);
      print_char(' ');
      int *q = &a[3];
      print_int(q - p + 2);
    }
    |}

let test_structs () =
  check_output "structs" "3 2.500000 hi"
    {|
    struct point { int x; double y; char tag; };
    void main() {
      struct point p;
      p.x = 3; p.y = 2.5; p.tag = 'h';
      struct point *q = &p;
      print_int(q->x); print_char(' ');
      print_double(q->y); print_char(' ');
      print_char(q->tag); print_char('i');
    }
    |}

let test_heap_alloc () =
  check_output "heap" "99 5"
    {|
    void main() {
      int *buf = (int*) alloc(10 * 8);
      buf[4] = 99;
      buf[5] = 5;
      print_int(buf[4]); print_char(' '); print_int(buf[5]);
    }
    |}

let test_doubles () =
  check_output "doubles" "3.500000 2.000000 6 1"
    {|
    void main() {
      double a = 1.25;
      double b = a + 2.25;
      print_double(b); print_char(' ');
      print_double(sqrt(4.0)); print_char(' ');
      int trunc = (int)(b + 3.0);
      print_int(trunc); print_char(' ');
      print_int(b > 3.0);
    }
    |}

let test_char_semantics () =
  check_output "char wrap" "-128 72"
    {|
    void main() {
      char c = 127;
      c = c + 1;          // wraps: chars are 8-bit signed
      print_int(c);
      print_char(' ');
      char h = 'H';
      print_int(h);
    }
    |}

let test_globals_inited () =
  check_output "global initializers" "5 -2 1.500000 30"
    {|
    int g = 5;
    int neg = -2;
    double d = 1.5;
    int table[4] = {0, 10, 20, 30};
    void main() {
      print_int(g); print_char(' ');
      print_int(neg); print_char(' ');
      print_double(d); print_char(' ');
      print_int(table[1] + table[2]);
    }
    |}

let test_inputs () =
  check_output ~inputs:[| 7; 8 |] "inputs" "56"
    {| void main() { print_int(input(0) * input(1)); } |}

let test_implicit_conversions () =
  check_output "implicit conversions" "65 5.000000"
    {|
    void main() {
      char c = 'A';
      int i = c;            // sext
      print_int(i); print_char(' ');
      double d = 5;         // sitofp
      print_double(d);
    }
    |}

let test_scoping_shadowing () =
  check_output "shadowing" "inner=2 outer=1"
    {|
    void main() {
      int x = 1;
      {
        int x = 2;
        print_str("inner="); print_int(x);
      }
      print_str(" outer="); print_int(x);
    }
    |}

(* --- lexer unit tests --- *)

let tok = Alcotest.testable (Fmt.of_to_string Minic.Lexer.token_to_string) ( = )

let tokens_of s =
  List.map (fun (l : Minic.Lexer.located) -> l.tok) (Minic.Lexer.tokenize s)

let test_lexer_operators () =
  Alcotest.(check (list tok)) "compound operators"
    [ Minic.Lexer.SHL; Minic.Lexer.SHR; Minic.Lexer.LE; Minic.Lexer.GE;
      Minic.Lexer.EQEQ; Minic.Lexer.NEQ; Minic.Lexer.ANDAND; Minic.Lexer.OROR;
      Minic.Lexer.ARROW; Minic.Lexer.EOF ]
    (tokens_of "<< >> <= >= == != && || ->")

let test_lexer_literals () =
  Alcotest.(check (list tok)) "literals"
    [ Minic.Lexer.INT_LIT 42; Minic.Lexer.FLOAT_LIT 2.5;
      Minic.Lexer.FLOAT_LIT 1e3; Minic.Lexer.CHAR_LIT 'x';
      Minic.Lexer.CHAR_LIT '\n'; Minic.Lexer.STRING_LIT "a\tb";
      Minic.Lexer.EOF ]
    (tokens_of {|42 2.5 1.0e3 'x' '\n' "a\tb"|})

let test_lexer_comments () =
  Alcotest.(check (list tok)) "comments skipped"
    [ Minic.Lexer.INT_LIT 1; Minic.Lexer.INT_LIT 2; Minic.Lexer.EOF ]
    (tokens_of "1 // line\n /* block\n spanning */ 2")

let test_lexer_positions () =
  let toks = Minic.Lexer.tokenize "a\n  b" in
  match toks with
  | [ { pos = p1; _ }; { pos = p2; _ }; _ ] ->
    Alcotest.(check int) "a line" 1 p1.Minic.Lexer.line;
    Alcotest.(check int) "b line" 2 p2.Minic.Lexer.line;
    Alcotest.(check int) "b col" 3 p2.Minic.Lexer.col
  | _ -> Alcotest.fail "unexpected token count"

let test_lexer_minus_vs_arrow () =
  Alcotest.(check (list tok)) "minus then digit stays minus"
    [ Minic.Lexer.MINUS; Minic.Lexer.INT_LIT 5; Minic.Lexer.EOF ]
    (tokens_of "- 5")

(* --- parser precedence (checked by evaluation) --- *)

let test_precedence () =
  check_output "precedence" "14 12 1 1 48 0 1 "
    {|
    void show(int v) { print_int(v); print_char(' '); }
    void main() {
      show(2 + 3 * 4);          // * over +
      show(1 + 2 << 2);         // + binds over <<: (1+2)<<2
      show(1 | 0 & 0);          // & over |
      show(1 ^ 0 & 0);          // & over ^
      show(6 << 3 & 56);        // << over &
      show(1 < 2 == 0);         // < over ==
      show(2 > 1 && 0 < 1);     // comparisons over &&
    }
    |}

let test_associativity () =
  check_output "left associativity" "1 8 "
    {|
    void show(int v) { print_int(v); print_char(' '); }
    void main() {
      show(20 - 15 - 4);        // (20-15)-4
      show(1 << 2 << 1);        // (1<<2)<<1
    }
    |}

let test_unary_chains () =
  check_output "unary chains" "5 -6 1 0"
    {|
    void main() {
      print_int(- -5); print_char(' ');
      print_int(~5); print_char(' ');
      print_int(!!7); print_char(' ');
      print_int(!7);
    }
    |}

let test_dangling_else () =
  check_output "dangling else binds to nearest if" "B"
    {|
    void main() {
      int a = 1;
      int b = 0;
      if (a) if (b) { print_char('A'); } else { print_char('B'); }
    }
    |}

(* --- error cases --- *)

let test_error_unknown_var () =
  expect_compile_error {| void main() { x = 1; } |} "unknown variable x"

let test_error_type_mismatch () =
  expect_compile_error
    {| void main() { int x = 1.5; } |}
    "implicit conversion from double"

let test_error_bad_call_arity () =
  expect_compile_error
    {| int f(int a) { return a; } void main() { f(1, 2); } |}
    "expects 1 argument(s)"

let test_error_no_main () =
  expect_compile_error {| int f() { return 0; } |} "no main function"

let test_error_break_outside_loop () =
  expect_compile_error {| void main() { break; } |} "break outside a loop"

let test_error_deref_non_pointer () =
  expect_compile_error {| void main() { int x = 1; int y = *x; } |}
    "dereference non-pointer"

let test_error_unknown_field () =
  expect_compile_error
    {| struct s { int a; }; void main() { struct s v; v.b = 1; } |}
    "no field b"

let test_error_parse () =
  expect_compile_error {| void main() { int = 5; } |} "parse error"

let test_error_lex () =
  expect_compile_error {| void main() { int x = `; } |} "lex error"

let test_error_void_variable () =
  expect_compile_error {| void main() { void x; } |} "void variable"

(* Crashing programs should report crashes, not wrong output. *)
let test_runtime_null_crash () =
  let prog =
    Minic.compile
      {| void main() { int *p = (int*)0; print_int(*p); } |}
  in
  let stats = Vm.Ir_exec.run Golden (Vm.Ir_exec.compile prog) in
  match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Crashed (Vm.Trap.Unmapped_read _) -> ()
  | other -> Alcotest.failf "expected crash, got %a" Vm.Outcome.pp other

let test_runtime_div_zero_crash () =
  let prog =
    Minic.compile {| void main() { int z = 0; print_int(10 / z); } |}
  in
  let stats = Vm.Ir_exec.run Golden (Vm.Ir_exec.compile prog) in
  match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Crashed Vm.Trap.Division_by_zero -> ()
  | other -> Alcotest.failf "expected crash, got %a" Vm.Outcome.pp other

let () =
  Alcotest.run "minic"
    [
      ( "programs",
        [
          ("hello", `Quick, test_hello);
          ("arith", `Quick, test_arith);
          ("bitwise", `Quick, test_bitwise);
          ("control flow", `Quick, test_control_flow);
          ("while/break/continue", `Quick, test_while_break_continue);
          ("short circuit", `Quick, test_short_circuit);
          ("functions and recursion", `Quick, test_functions_recursion);
          ("arrays and pointers", `Quick, test_arrays_and_pointers);
          ("pointer arithmetic", `Quick, test_pointer_arith);
          ("structs", `Quick, test_structs);
          ("heap alloc", `Quick, test_heap_alloc);
          ("doubles", `Quick, test_doubles);
          ("char semantics", `Quick, test_char_semantics);
          ("global initializers", `Quick, test_globals_inited);
          ("inputs", `Quick, test_inputs);
          ("implicit conversions", `Quick, test_implicit_conversions);
          ("scoping and shadowing", `Quick, test_scoping_shadowing);
        ] );
      ( "lexer",
        [
          ("operators", `Quick, test_lexer_operators);
          ("literals", `Quick, test_lexer_literals);
          ("comments", `Quick, test_lexer_comments);
          ("positions", `Quick, test_lexer_positions);
          ("minus vs arrow", `Quick, test_lexer_minus_vs_arrow);
        ] );
      ( "grammar",
        [
          ("precedence", `Quick, test_precedence);
          ("associativity", `Quick, test_associativity);
          ("unary chains", `Quick, test_unary_chains);
          ("dangling else", `Quick, test_dangling_else);
        ] );
      ( "errors",
        [
          ("unknown variable", `Quick, test_error_unknown_var);
          ("type mismatch", `Quick, test_error_type_mismatch);
          ("bad call arity", `Quick, test_error_bad_call_arity);
          ("no main", `Quick, test_error_no_main);
          ("break outside loop", `Quick, test_error_break_outside_loop);
          ("deref non-pointer", `Quick, test_error_deref_non_pointer);
          ("unknown field", `Quick, test_error_unknown_field);
          ("parse error", `Quick, test_error_parse);
          ("lex error", `Quick, test_error_lex);
          ("void variable", `Quick, test_error_void_variable);
        ] );
      ( "runtime",
        [
          ("null crash", `Quick, test_runtime_null_crash);
          ("div zero crash", `Quick, test_runtime_div_zero_crash);
        ] );
    ]
