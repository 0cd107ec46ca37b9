(* Tests for the x86 layer: flag semantics, condition evaluation,
   def/use bookkeeping, the interpreter's instruction semantics (via
   hand-assembled programs), and PINFI-level injection mechanics. *)

open X86

(* --- Flags --- *)

let test_flag_bits_layout () =
  Alcotest.(check int) "CF" 0 Flags.cf_bit;
  Alcotest.(check int) "PF" 2 Flags.pf_bit;
  Alcotest.(check int) "ZF" 6 Flags.zf_bit;
  Alcotest.(check int) "SF" 7 Flags.sf_bit;
  Alcotest.(check int) "OF" 11 Flags.of_bit

let flags_after_sub x y =
  Flags.of_sub Support.Word.width x y (x - y) 0

let test_signed_conditions () =
  let check name cond x y expected =
    Alcotest.(check bool) name expected (Flags.holds (flags_after_sub x y) cond)
  in
  check "3 < 5 (L)" Flags.L 3 5 true;
  check "5 < 3 (L)" Flags.L 5 3 false;
  check "-1 < 1 (L)" Flags.L (-1) 1 true;
  check "eq (E)" Flags.E 7 7 true;
  check "ne (NE)" Flags.NE 7 7 false;
  check "5 > 3 (G)" Flags.G 5 3 true;
  check "3 >= 3 (GE)" Flags.GE 3 3 true;
  check "2 <= 3 (LE)" Flags.LE 2 3 true;
  (* Signed overflow case: min_int - 1 overflows, L must still mean "<". *)
  check "min_int < 1 (L)" Flags.L min_int 1 true

let test_unsigned_conditions () =
  let check name cond x y expected =
    Alcotest.(check bool) name expected (Flags.holds (flags_after_sub x y) cond)
  in
  check "3 <u 5 (B)" Flags.B 3 5 true;
  check "-1 is huge unsigned (B)" Flags.B (-1) 1 false;
  check "1 <u -1 (B)" Flags.B 1 (-1) true;
  check "5 >u 3 (A)" Flags.A 5 3 true;
  check "3 <=u 3 (BE)" Flags.BE 3 3 true;
  check "3 >=u 3 (AE)" Flags.AE 3 3 true

let test_dependent_bits_cover_condition () =
  (* Flipping a bit outside a condition's dependent set must never change
     whether the condition holds. *)
  List.iter
    (fun cond ->
      let dependent = Flags.dependent_bits cond in
      List.iter
        (fun bit ->
          if not (List.mem bit dependent) then
            for probe = 0 to 31 do
              let flags = probe * 7919 land 0xfff in
              let flipped = flags lxor (1 lsl bit) in
              if Flags.holds flags cond <> Flags.holds flipped cond then
                Alcotest.failf "j%s depends on undeclared bit %d"
                  (Flags.cond_name cond) bit
            done)
        Flags.all_bits)
    [ Flags.E; Flags.NE; Flags.L; Flags.LE; Flags.G; Flags.GE; Flags.B;
      Flags.BE; Flags.A; Flags.AE ]

let test_dependent_bits_matter =
  QCheck.Test.make ~name:"each dependent bit can change the outcome" ~count:1
    QCheck.unit
    (fun () ->
      List.for_all
        (fun cond ->
          List.for_all
            (fun bit ->
              (* There exists a flag state where flipping [bit] flips the
                 condition (not required for every bit in compound
                 conditions, but each bit must matter somewhere). *)
              let exists = ref false in
              for flags = 0 to 4095 do
                let flipped = flags lxor (1 lsl bit) in
                if Flags.holds flags cond <> Flags.holds flipped cond then
                  exists := true
              done;
              !exists)
            (Flags.dependent_bits cond))
        [ Flags.E; Flags.NE; Flags.L; Flags.B; Flags.A ])

(* The deep property behind cmp/jcc correctness: for arbitrary operands
   the flag state computed by of_sub must make every condition agree
   with the direct comparison — including signed-overflow cases. *)
let test_flags_match_comparisons =
  QCheck.Test.make ~name:"cmp flags encode all ten comparisons" ~count:2000
    QCheck.(pair int int)
    (fun (x, y) ->
      let flags = flags_after_sub x y in
      Flags.holds flags Flags.E = (x = y)
      && Flags.holds flags Flags.NE = (x <> y)
      && Flags.holds flags Flags.L = (x < y)
      && Flags.holds flags Flags.LE = (x <= y)
      && Flags.holds flags Flags.G = (x > y)
      && Flags.holds flags Flags.GE = (x >= y)
      && Flags.holds flags Flags.B = (Support.Word.ucompare x y < 0)
      && Flags.holds flags Flags.BE = (Support.Word.ucompare x y <= 0)
      && Flags.holds flags Flags.A = (Support.Word.ucompare x y > 0)
      && Flags.holds flags Flags.AE = (Support.Word.ucompare x y >= 0))

let test_add_flags_zero_sign =
  QCheck.Test.make ~name:"add flags: ZF and SF reflect the result" ~count:2000
    QCheck.(pair int int)
    (fun (x, y) ->
      let r = x + y in
      let flags = Flags.of_add Support.Word.width x y r 0 in
      Flags.test flags Flags.zf_bit = (r = 0)
      && Flags.test flags Flags.sf_bit = (r < 0))

let test_ucomisd_flags () =
  let flags x y = Flags.of_ucomisd x y 0 in
  Alcotest.(check bool) "2<3 sets CF" true (Flags.test (flags 2.0 3.0) Flags.cf_bit);
  Alcotest.(check bool) "3>2 clears CF/ZF" false
    (Flags.test (flags 3.0 2.0) Flags.cf_bit
    || Flags.test (flags 3.0 2.0) Flags.zf_bit);
  Alcotest.(check bool) "eq sets ZF" true (Flags.test (flags 2.0 2.0) Flags.zf_bit);
  let unordered = flags Float.nan 1.0 in
  Alcotest.(check bool) "NaN sets ZF, PF, CF" true
    (Flags.test unordered Flags.zf_bit
    && Flags.test unordered Flags.pf_bit
    && Flags.test unordered Flags.cf_bit)

let test_negate_cond () =
  List.iter
    (fun cond ->
      for flags = 0 to 4095 do
        if Flags.holds flags cond = Flags.holds flags (Flags.negate cond) then
          Alcotest.failf "negate j%s is not a complement" (Flags.cond_name cond)
      done)
    [ Flags.E; Flags.L; Flags.LE; Flags.B; Flags.BE ]

(* --- def/use --- *)

let test_def_use_roundtrip () =
  let insn = Insn.Alu (Insn.Add, 20, Insn.Mem (Insn.mem_base 21 ~disp:8)) in
  let gd, gu, xd, xu = Insn.def_use insn in
  Alcotest.(check (list int)) "gp defs" [ 20 ] gd;
  Alcotest.(check bool) "uses dest and base" true
    (List.mem 20 gu && List.mem 21 gu);
  Alcotest.(check (list int)) "no xmm" [] (xd @ xu)

let test_map_regs_applies_everywhere () =
  let insn =
    Insn.Store (Insn.W64, { Insn.base = Some 30; index = Some (31, 8); disp = 4 }, 32)
  in
  let mapped = Insn.map_regs ~gp:(fun r -> r + 100) ~xmm:(fun r -> r) insn in
  match mapped with
  | Insn.Store (_, { Insn.base = Some 130; index = Some (131, 8); disp = 4 }, 132) -> ()
  | other -> Alcotest.failf "unexpected mapping: %s" (Printer.insn_to_string other)

(* --- interpreter semantics via compiled programs --- *)

let run_asm src =
  let prog = Opt.optimize (Minic.compile src) in
  let asm = Backend.compile prog in
  let stats = Vm.X86_exec.run Golden (Vm.X86_exec.load asm) in
  match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Finished out -> out
  | other -> Alcotest.failf "asm run failed: %a" Vm.Outcome.pp other

let test_division_semantics () =
  Alcotest.(check string) "signed division truncates toward zero" "-3 -3 3 1 -1"
    (run_asm
       {|
       void main() {
         print_int(-7 / 2); print_char(' ');
         print_int(7 / -2); print_char(' ');
         print_int(-7 / -2); print_char(' ');
         print_int(7 % 2); print_char(' ');
         print_int(-7 % 2);
       }
       |})

let test_shift_masking () =
  (* Shift amounts mask to 6 bits at the machine level. *)
  Alcotest.(check string) "shift by 65 == shift by 1" "20 20"
    (run_asm
       {|
       void main() {
         int x = 10;
         int a = 65;   // variable amount goes through the cl register
         print_int(x << 1); print_char(' '); print_int(x << a);
       }
       |})

let test_stack_discipline () =
  (* Deep call chains exercise push/pop/ret symmetry. *)
  Alcotest.(check string) "recursive sum via stack frames" "500500"
    (run_asm
       {|
       int sum(int n) { if (n == 0) { return 0; } return n + sum(n - 1); }
       void main() { print_int(sum(1000)); }
       |})

let test_stack_overflow_traps () =
  let prog =
    Opt.optimize
      (Minic.compile
         {| int inf(int n) { return inf(n + 1); } void main() { print_int(inf(0)); } |})
  in
  let asm = Backend.compile prog in
  let stats = Vm.X86_exec.run Golden (Vm.X86_exec.load asm) in
  match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Crashed _ -> ()
  | other -> Alcotest.failf "expected stack exhaustion crash, got %a" Vm.Outcome.pp other

(* --- assembly-level injection mechanics --- *)

let loaded_mcf =
  lazy
    (let w = Workloads.find_exn "mcf" in
     let prog = Opt.optimize (Minic.compile w.Core.Workload.source) in
     (w, Vm.X86_exec.load ~classify:Core.Pinfi.classify (Backend.compile prog)))

let test_asm_injection_deterministic () =
  let w, loaded = Lazy.force loaded_mcf in
  let run () =
    let plan =
      { Vm.X86_exec.inj_mask = Core.Category.mask Core.Category.All;
        target = 1234; rng = Support.Rng.of_int 5;
        policy = Vm.X86_exec.paper_policy }
    in
    Vm.X86_exec.run ~inputs:w.Core.Workload.inputs
      (Inject (plan, Vm.Fault_model.sampled Vm.Fault_model.Bitflip))
      loaded
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same outcome" true
    (Vm.Outcome.equal_kind a.Vm.Outcome.outcome b.Vm.Outcome.outcome);
  Alcotest.(check string) "same fault" a.Vm.Outcome.fault_note b.Vm.Outcome.fault_note

let test_asm_injection_out_of_range () =
  let w, loaded = Lazy.force loaded_mcf in
  let plan =
    { Vm.X86_exec.inj_mask = Core.Category.mask Core.Category.All;
      target = max_int / 2; rng = Support.Rng.of_int 5;
      policy = Vm.X86_exec.paper_policy }
  in
  let stats = Vm.X86_exec.run ~inputs:w.Core.Workload.inputs
      (Inject (plan, Vm.Fault_model.sampled Vm.Fault_model.Bitflip))
      loaded in
  Alcotest.(check bool) "not injected" false stats.Vm.Outcome.injected;
  match stats.Vm.Outcome.outcome with
  | Vm.Outcome.Finished _ -> ()
  | other -> Alcotest.failf "clean run expected, got %a" Vm.Outcome.pp other

let test_flag_injection_hits_dependent_bits () =
  let w, loaded = Lazy.force loaded_mcf in
  (* Inject into many cmp instances; every fault note must name a flag bit
     from the architected set. *)
  let rng = Support.Rng.of_int 77 in
  for k = 0 to 40 do
    let plan =
      { Vm.X86_exec.inj_mask = Core.Category.mask Core.Category.Cmp;
        target = k * 13; rng = Support.Rng.split rng;
        policy = Vm.X86_exec.paper_policy }
    in
    let stats = Vm.X86_exec.run ~inputs:w.Core.Workload.inputs
      (Inject (plan, Vm.Fault_model.sampled Vm.Fault_model.Bitflip))
      loaded in
    if stats.Vm.Outcome.injected then begin
      match
        Scanf.sscanf_opt stats.Vm.Outcome.fault_note "flag bit %d" (fun b -> b)
      with
      | Some bit ->
        if not (List.mem bit Flags.all_bits) then
          Alcotest.failf "injected non-architected flag bit %d" bit
      | None ->
        Alcotest.failf "cmp injection corrupted %S instead of flags"
          stats.Vm.Outcome.fault_note
    end
  done

let () =
  Alcotest.run "x86"
    [
      ( "flags",
        [
          ("bit layout", `Quick, test_flag_bits_layout);
          ("signed conditions", `Quick, test_signed_conditions);
          ("unsigned conditions", `Quick, test_unsigned_conditions);
          ("dependent bits are sound", `Quick, test_dependent_bits_cover_condition);
          ("ucomisd", `Quick, test_ucomisd_flags);
          ("negate", `Quick, test_negate_cond);
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ test_dependent_bits_matter; test_flags_match_comparisons;
              test_add_flags_zero_sign ] );
      ( "insn",
        [
          ("def/use", `Quick, test_def_use_roundtrip);
          ("map_regs", `Quick, test_map_regs_applies_everywhere);
        ] );
      ( "interp",
        [
          ("division semantics", `Quick, test_division_semantics);
          ("shift masking", `Quick, test_shift_masking);
          ("stack discipline", `Quick, test_stack_discipline);
          ("stack overflow traps", `Quick, test_stack_overflow_traps);
        ] );
      ( "injection",
        [
          ("deterministic", `Quick, test_asm_injection_deterministic);
          ("out of range is noop", `Quick, test_asm_injection_out_of_range);
          ("flag bits architected", `Quick, test_flag_injection_hits_dependent_bits);
        ] );
    ]
