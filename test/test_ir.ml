(* Tests for the IR library: types, layout, builder, CFG analyses and
   the verifier's rejection of malformed programs. *)

let ty = Alcotest.testable Ir.Types.pp Ir.Types.equal

(* --- Types and layout --- *)

let make_prog_with_struct () =
  let prog = Ir.Prog.create () in
  (* struct node { i32 key; i8 tag; i64* next; f64 weight } *)
  Ir.Prog.define_struct prog "node"
    [ Ir.Types.I32; Ir.Types.I8; Ir.Types.Ptr Ir.Types.I64; Ir.Types.F64 ];
  prog

let test_scalar_sizes () =
  let prog = Ir.Prog.create () in
  Alcotest.(check int) "i8" 1 (Ir.Layout.size_of prog Ir.Types.I8);
  Alcotest.(check int) "i16" 2 (Ir.Layout.size_of prog Ir.Types.I16);
  Alcotest.(check int) "i32" 4 (Ir.Layout.size_of prog Ir.Types.I32);
  Alcotest.(check int) "i64" 8 (Ir.Layout.size_of prog Ir.Types.I64);
  Alcotest.(check int) "f64" 8 (Ir.Layout.size_of prog Ir.Types.F64);
  Alcotest.(check int) "ptr" 8 (Ir.Layout.size_of prog (Ir.Types.Ptr Ir.Types.I8));
  Alcotest.(check int) "array" 24
    (Ir.Layout.size_of prog (Ir.Types.Arr (3, Ir.Types.I64)))

let test_struct_layout () =
  let prog = make_prog_with_struct () in
  let node = Ir.Types.Struct "node" in
  (* i32 at 0, i8 at 4, pad to 8 for ptr, f64 at 16 -> size 24 align 8. *)
  Alcotest.(check int) "field 0 offset" 0 (Ir.Layout.field_offset prog "node" 0);
  Alcotest.(check int) "field 1 offset" 4 (Ir.Layout.field_offset prog "node" 1);
  Alcotest.(check int) "field 2 offset" 8 (Ir.Layout.field_offset prog "node" 2);
  Alcotest.(check int) "field 3 offset" 16 (Ir.Layout.field_offset prog "node" 3);
  Alcotest.(check int) "size" 24 (Ir.Layout.size_of prog node);
  Alcotest.(check int) "align" 8 (Ir.Layout.align_of prog node);
  Alcotest.check ty "field type" (Ir.Types.Ptr Ir.Types.I64)
    (Ir.Layout.field_type prog "node" 2)

let test_struct_array_layout () =
  let prog = make_prog_with_struct () in
  Alcotest.(check int) "array of structs" 240
    (Ir.Layout.size_of prog (Ir.Types.Arr (10, Ir.Types.Struct "node")))

let test_type_predicates () =
  Alcotest.(check bool) "i32 integer" true (Ir.Types.is_integer Ir.Types.I32);
  Alcotest.(check bool) "f64 not integer" false (Ir.Types.is_integer Ir.Types.F64);
  Alcotest.(check bool) "ptr pointer" true
    (Ir.Types.is_pointer (Ir.Types.Ptr Ir.Types.I8));
  Alcotest.(check bool) "array not first class" false
    (Ir.Types.is_first_class (Ir.Types.Arr (2, Ir.Types.I8)));
  Alcotest.check ty "pointee" Ir.Types.I8 (Ir.Types.pointee (Ir.Types.Ptr Ir.Types.I8))

(* --- Builder --- *)

let test_builder_unique_labels () =
  let prog = Ir.Prog.create () in
  let b, _ = Ir.Builder.start_function prog ~name:"f" ~params:[] ~ret_ty:Ir.Types.Void in
  let b1 = Ir.Builder.block b "loop" in
  let b2 = Ir.Builder.block b "loop" in
  Alcotest.(check bool) "distinct labels" false
    (String.equal b1.Ir.Block.label b2.Ir.Block.label)

let test_builder_gep_types () =
  let prog = make_prog_with_struct () in
  let b, args =
    Ir.Builder.start_function prog ~name:"f"
      ~params:[ ("p", Ir.Types.Ptr (Ir.Types.Struct "node")) ]
      ~ret_ty:Ir.Types.Void
  in
  let entry = Ir.Builder.block b "entry" in
  Ir.Builder.position_at_end b entry;
  let p = List.hd args in
  let field = Ir.Builder.gep b p [ Ir.Operand.i64 0; Ir.Operand.Int (Ir.Types.I32, 2) ] in
  Alcotest.check ty "gep into struct field"
    (Ir.Types.Ptr (Ir.Types.Ptr Ir.Types.I64))
    (Ir.Operand.type_of field);
  Ir.Builder.ret b None

let test_builder_call_unknown_function () =
  let prog = Ir.Prog.create () in
  let b, _ = Ir.Builder.start_function prog ~name:"f" ~params:[] ~ret_ty:Ir.Types.Void in
  let entry = Ir.Builder.block b "entry" in
  Ir.Builder.position_at_end b entry;
  Alcotest.check_raises "unknown callee"
    (Invalid_argument "Builder.call: unknown function nope") (fun () ->
      ignore (Ir.Builder.call b "nope" []))

(* --- CFG / dominators --- *)

(* A diamond: entry -> (left | right) -> join. *)
let build_diamond () =
  let prog = Ir.Prog.create () in
  let b, _ = Ir.Builder.start_function prog ~name:"f" ~params:[ ("c", Ir.Types.I1) ] ~ret_ty:Ir.Types.Void in
  let entry = Ir.Builder.block b "entry" in
  let left = Ir.Builder.block b "left" in
  let right = Ir.Builder.block b "right" in
  let join = Ir.Builder.block b "join" in
  let c = Ir.Operand.Var (List.hd (Ir.Builder.func b).Ir.Func.params) in
  Ir.Builder.position_at_end b entry;
  Ir.Builder.cond_br b c left right;
  Ir.Builder.position_at_end b left;
  Ir.Builder.br b join;
  Ir.Builder.position_at_end b right;
  Ir.Builder.br b join;
  Ir.Builder.position_at_end b join;
  Ir.Builder.ret b None;
  (prog, Ir.Builder.func b)

let test_cfg_diamond () =
  let _, f = build_diamond () in
  let cfg = Ir.Cfg.of_func f in
  Alcotest.(check (list int)) "entry succs" [ 1; 2 ] (Ir.Cfg.successors_of cfg 0);
  Alcotest.(check (list int)) "join preds" [ 1; 2 ]
    (List.sort compare (Ir.Cfg.predecessors_of cfg 3));
  Alcotest.(check bool) "entry dominates join" true (Ir.Cfg.dominates cfg 0 3);
  Alcotest.(check bool) "left does not dominate join" false (Ir.Cfg.dominates cfg 1 3);
  Alcotest.(check bool) "every block dominates itself" true (Ir.Cfg.dominates cfg 2 2)

let test_dominance_frontiers () =
  let _, f = build_diamond () in
  let cfg = Ir.Cfg.of_func f in
  let df = Ir.Cfg.dominance_frontiers cfg in
  Alcotest.(check (list int)) "left's frontier is join" [ 3 ] df.(1);
  Alcotest.(check (list int)) "right's frontier is join" [ 3 ] df.(2);
  Alcotest.(check (list int)) "entry's frontier empty" [] df.(0)

let test_unreachable_block () =
  let prog = Ir.Prog.create () in
  let b, _ = Ir.Builder.start_function prog ~name:"f" ~params:[] ~ret_ty:Ir.Types.Void in
  let entry = Ir.Builder.block b "entry" in
  let dead = Ir.Builder.block b "dead" in
  Ir.Builder.position_at_end b entry;
  Ir.Builder.ret b None;
  Ir.Builder.position_at_end b dead;
  Ir.Builder.ret b None;
  let cfg = Ir.Cfg.of_func (Ir.Builder.func b) in
  Alcotest.(check bool) "entry reachable" true (Ir.Cfg.reachable cfg 0);
  Alcotest.(check bool) "dead unreachable" false (Ir.Cfg.reachable cfg 1)

(* --- Verifier --- *)

let expect_verify_errors prog expected_fragment =
  match Ir.Verify.check_prog prog with
  | [] -> Alcotest.fail "verifier accepted malformed program"
  | errors ->
    let rendered =
      String.concat "\n" (List.map (Fmt.str "%a" Ir.Verify.pp_error) errors)
    in
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      n = 0 || go 0
    in
    if not (contains rendered expected_fragment) then
      Alcotest.failf "expected error mentioning %S, got: %s" expected_fragment
        rendered

let test_verify_type_mismatch () =
  let prog = Ir.Prog.create () in
  let b, _ = Ir.Builder.start_function prog ~name:"f" ~params:[] ~ret_ty:Ir.Types.Void in
  let entry = Ir.Builder.block b "entry" in
  Ir.Builder.position_at_end b entry;
  (* add i64 5, i32 1 — mismatched operand types. *)
  ignore
    (Ir.Builder.binop b Ir.Instr.Add (Ir.Operand.i64 5)
       (Ir.Operand.Int (Ir.Types.I32, 1)));
  Ir.Builder.ret b None;
  expect_verify_errors prog "binop operand types differ"

let test_verify_bad_branch_condition () =
  let prog = Ir.Prog.create () in
  let b, _ = Ir.Builder.start_function prog ~name:"f" ~params:[] ~ret_ty:Ir.Types.Void in
  let entry = Ir.Builder.block b "entry" in
  let t = Ir.Builder.block b "t" in
  Ir.Builder.position_at_end b entry;
  Ir.Builder.cond_br b (Ir.Operand.i64 1) t t;
  Ir.Builder.position_at_end b t;
  Ir.Builder.ret b None;
  expect_verify_errors prog "non-i1"

let test_verify_dominance_violation () =
  let prog = Ir.Prog.create () in
  let b, _ = Ir.Builder.start_function prog ~name:"f" ~params:[ ("c", Ir.Types.I1) ] ~ret_ty:Ir.Types.I64 in
  let entry = Ir.Builder.block b "entry" in
  let left = Ir.Builder.block b "left" in
  let join = Ir.Builder.block b "join" in
  let c = Ir.Operand.Var (List.hd (Ir.Builder.func b).Ir.Func.params) in
  Ir.Builder.position_at_end b entry;
  Ir.Builder.cond_br b c left join;
  Ir.Builder.position_at_end b left;
  let v = Ir.Builder.binop b Ir.Instr.Add (Ir.Operand.i64 1) (Ir.Operand.i64 2) in
  Ir.Builder.br b join;
  Ir.Builder.position_at_end b join;
  (* v defined only on the left path — does not dominate join. *)
  Ir.Builder.ret b (Some v);
  expect_verify_errors prog "dominance"

let test_verify_ret_type_mismatch () =
  let prog = Ir.Prog.create () in
  let b, _ = Ir.Builder.start_function prog ~name:"f" ~params:[] ~ret_ty:Ir.Types.I64 in
  let entry = Ir.Builder.block b "entry" in
  Ir.Builder.position_at_end b entry;
  Ir.Builder.ret b None;
  expect_verify_errors prog "ret void in non-void function"

let test_verify_phi_missing_pred () =
  let prog = Ir.Prog.create () in
  let b, _ = Ir.Builder.start_function prog ~name:"f" ~params:[ ("c", Ir.Types.I1) ] ~ret_ty:Ir.Types.I64 in
  let entry = Ir.Builder.block b "entry" in
  let left = Ir.Builder.block b "left" in
  let join = Ir.Builder.block b "join" in
  let c = Ir.Operand.Var (List.hd (Ir.Builder.func b).Ir.Func.params) in
  Ir.Builder.position_at_end b entry;
  Ir.Builder.cond_br b c left join;
  Ir.Builder.position_at_end b left;
  Ir.Builder.br b join;
  Ir.Builder.position_at_end b join;
  (* Phi only covers the left edge, not entry -> join. *)
  let v = Ir.Builder.phi b [ (Ir.Operand.i64 1, "left") ] in
  Ir.Builder.ret b (Some v);
  expect_verify_errors prog "missing incoming"

let test_verify_invalid_cast () =
  let prog = Ir.Prog.create () in
  let b, _ = Ir.Builder.start_function prog ~name:"f" ~params:[] ~ret_ty:Ir.Types.Void in
  let entry = Ir.Builder.block b "entry" in
  Ir.Builder.position_at_end b entry;
  (* trunc i8 -> i64 is a widening, invalid. *)
  ignore (Ir.Builder.cast b Ir.Instr.Trunc (Ir.Operand.i8 1) ~to_:Ir.Types.I64);
  Ir.Builder.ret b None;
  expect_verify_errors prog "source must be wider"

let test_verify_unknown_label () =
  let prog = Ir.Prog.create () in
  let b, _ = Ir.Builder.start_function prog ~name:"f" ~params:[] ~ret_ty:Ir.Types.Void in
  let entry = Ir.Builder.block b "entry" in
  Ir.Builder.position_at_end b entry;
  Ir.Builder.set_term b (Ir.Instr.Br "nowhere");
  expect_verify_errors prog "unknown label"

let test_verify_use_counts () =
  let _, f = build_diamond () in
  let counts = Ir.Func.use_counts f in
  (* The only value is the parameter, used once by the branch. *)
  Alcotest.(check int) "param used once" 1 counts.(0)

(* --- Printer --- *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_printer_roundtrip_smoke () =
  let prog = make_prog_with_struct () in
  let b, args =
    Ir.Builder.start_function prog ~name:"f"
      ~params:[ ("p", Ir.Types.Ptr (Ir.Types.Struct "node")) ]
      ~ret_ty:Ir.Types.I32
  in
  let entry = Ir.Builder.block b "entry" in
  Ir.Builder.position_at_end b entry;
  let field = Ir.Builder.gep b (List.hd args) [ Ir.Operand.i64 0; Ir.Operand.Int (Ir.Types.I32, 0) ] in
  let v = Ir.Builder.load b field in
  Ir.Builder.ret b (Some v);
  let text = Ir.Printer.prog_to_string prog in
  List.iter
    (fun fragment ->
      if not (contains text fragment) then
        Alcotest.failf "printer output missing %S in:\n%s" fragment text)
    [ "define i32 @f"; "getelementptr"; "load"; "ret" ]

(* --- textual round-trip: print -> parse -> print --- *)

let roundtrip_prog prog =
  let text = Ir.Printer.prog_to_string prog in
  let reparsed =
    try Ir.Parse.prog text
    with Ir.Parse.Error msg -> Alcotest.failf "parse error: %s" msg
  in
  (match Ir.Verify.check_prog reparsed with
  | [] -> ()
  | errs ->
    Alcotest.failf "reparsed IR invalid: %s"
      (String.concat "; " (List.map (Fmt.str "%a" Ir.Verify.pp_error) errs)));
  let text2 = Ir.Printer.prog_to_string reparsed in
  Alcotest.(check string) "print/parse/print fixpoint" text text2;
  reparsed

let test_roundtrip_workloads () =
  List.iter
    (fun (w : Core.Workload.t) ->
      let prog = Opt.optimize (Minic.compile w.Core.Workload.source) in
      let reparsed = roundtrip_prog prog in
      (* The reparsed program must behave identically. *)
      let run p =
        match
          (Vm.Ir_exec.run ~inputs:w.Core.Workload.inputs Golden (Vm.Ir_exec.compile p))
            .Vm.Outcome.outcome
        with
        | Vm.Outcome.Finished out -> out
        | o -> Alcotest.failf "%s: run failed %a" w.Core.Workload.name Vm.Outcome.pp o
      in
      Alcotest.(check string)
        (w.Core.Workload.name ^ " behaves identically")
        (run prog) (run reparsed))
    Workloads.all

let test_roundtrip_unoptimized () =
  (* Unoptimized IR exercises allocas, loads/stores and implicit casts. *)
  let w = Workloads.find_exn "raytrace" in
  ignore (roundtrip_prog (Minic.compile w.Core.Workload.source))

let test_parse_errors () =
  let expect_error text fragment =
    match Ir.Parse.prog text with
    | _ -> Alcotest.failf "expected parse error mentioning %S" fragment
    | exception Ir.Parse.Error msg ->
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        n = 0 || go 0
      in
      if not (contains msg fragment) then
        Alcotest.failf "error %S does not mention %S" msg fragment
  in
  expect_error "bogus line" "unexpected top-level line";
  expect_error "define i64 @f(i64 %n.0) {\nentry:\n  %1 = frobnicate i64 %n.0\n  ret i64 %n.0\n}"
    "unknown instruction";
  expect_error "define void @f() {" "unterminated function";
  expect_error "@g = global i64 what" "bad initializer"

let () =
  Alcotest.run "ir"
    [
      ( "types+layout",
        [
          ("scalar sizes", `Quick, test_scalar_sizes);
          ("struct layout", `Quick, test_struct_layout);
          ("struct array layout", `Quick, test_struct_array_layout);
          ("type predicates", `Quick, test_type_predicates);
        ] );
      ( "builder",
        [
          ("unique labels", `Quick, test_builder_unique_labels);
          ("gep types", `Quick, test_builder_gep_types);
          ("call unknown function", `Quick, test_builder_call_unknown_function);
        ] );
      ( "cfg",
        [
          ("diamond", `Quick, test_cfg_diamond);
          ("dominance frontiers", `Quick, test_dominance_frontiers);
          ("unreachable block", `Quick, test_unreachable_block);
          ("use counts", `Quick, test_verify_use_counts);
        ] );
      ( "verify",
        [
          ("type mismatch", `Quick, test_verify_type_mismatch);
          ("bad branch condition", `Quick, test_verify_bad_branch_condition);
          ("dominance violation", `Quick, test_verify_dominance_violation);
          ("ret type mismatch", `Quick, test_verify_ret_type_mismatch);
          ("phi missing pred", `Quick, test_verify_phi_missing_pred);
          ("invalid cast", `Quick, test_verify_invalid_cast);
          ("unknown label", `Quick, test_verify_unknown_label);
        ] );
      ("printer", [ ("smoke", `Quick, test_printer_roundtrip_smoke) ]);
      ( "parse",
        [
          ("round-trip all workloads", `Quick, test_roundtrip_workloads);
          ("round-trip unoptimized", `Quick, test_roundtrip_unoptimized);
          ("parse errors", `Quick, test_parse_errors);
        ] );
    ]
