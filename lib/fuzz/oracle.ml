type subject = Minic_src of string | Ir_src of string

type divergence = { d_stage : string; d_expected : string; d_got : string }

type result = Agree of int | Diverged of divergence list | Invalid of string

(* Fresh IR per stage: passes mutate their input in place, so each
   stage must start from its own lowering. *)
let lower = function
  | Minic_src src -> Minic.compile src
  | Ir_src text ->
    let p = Ir.Parse.prog text in
    (match Ir.Verify.check_prog p with
    | [] -> p
    | errs ->
      invalid_arg
        (String.concat "; "
           (List.map (fun e -> Fmt.str "%a" Ir.Verify.pp_error e) errs)))

let render (st : Vm.Outcome.stats) =
  match st.Vm.Outcome.outcome with
  | Vm.Outcome.Finished out -> "output:" ^ out
  | Vm.Outcome.Crashed t -> "crash:" ^ Vm.Trap.tag t
  | Vm.Outcome.Hung -> "hang"

let verify_or_fail stage prog =
  match Ir.Verify.check_prog prog with
  | [] -> ()
  | errs ->
    invalid_arg
      (Fmt.str "invalid IR after %s: %a" stage Ir.Verify.pp_error
         (List.hd errs))

let passes =
  [
    ("simplify", Opt.Simplify.run);
    ("mem2reg", Opt.Mem2reg.run);
    ("constfold", Opt.Constfold.run);
    ("cse", Opt.Cse.run);
    ("dce", Opt.Dce.run);
    ("inline", fun p -> Opt.Inline.run p);
  ]

let stage_names = List.map fst passes @ [ "opt"; "asm" ]

(* The reference runs on a generous fixed budget (generated programs
   terminate by construction, real hangs mean a broken subject);
   stages get 10x the reference's dynamic length, the assembly stage
   40x (one IR instruction lowers to several x86 ones). *)
let ref_budget = 20_000_000

let ir_behaviour ~budget prog =
  render (Vm.Ir_exec.run ~max_steps:budget Golden (Vm.Ir_exec.compile prog))

let guard stage f =
  match f () with
  | behaviour -> behaviour
  | exception Invalid_argument msg -> Printf.sprintf "error in %s: %s" stage msg
  | exception Minic.Compile_error msg ->
    Printf.sprintf "error in %s: %s" stage msg

(* Telemetry (lib/obs): one program / one comparison per stage, so the
   counters are exact even when a stage errors out. *)
let m_programs = Obs.Metrics.counter "fuzz.programs"
let m_stage_comparisons = Obs.Metrics.counter "fuzz.stage_comparisons"
let m_divergences = Obs.Metrics.counter "fuzz.divergences"

let staged stage f =
  Obs.Metrics.incr m_stage_comparisons;
  if Obs.Trace.on () then
    Obs.Trace.span "stage" ~args:[ ("stage", stage) ] f
  else f ()

let run ?mutate subject =
  Obs.Metrics.incr m_programs;
  match lower subject with
  | exception Minic.Compile_error msg -> Invalid msg
  | exception Ir.Parse.Error msg -> Invalid msg
  | exception Invalid_argument msg -> Invalid msg
  | ref_prog -> (
    match
      Vm.Ir_exec.run ~max_steps:ref_budget Golden (Vm.Ir_exec.compile ref_prog)
    with
    | exception Invalid_argument msg -> Invalid msg
    | { Vm.Outcome.outcome = Vm.Outcome.Hung; _ } ->
      Invalid "reference run exceeded its step budget"
    | ref_stats ->
      let expected = render ref_stats in
      let budget = (ref_stats.Vm.Outcome.steps * 10) + 10_000 in
      let asm_budget = (ref_stats.Vm.Outcome.steps * 40) + 100_000 in
      let stage_behaviours =
        List.map
          (fun (stage, pass) ->
            ( stage,
              staged stage (fun () ->
                  guard stage (fun () ->
                      let p = lower subject in
                      pass p;
                      verify_or_fail stage p;
                      ir_behaviour ~budget p)) ))
          passes
        @ [
            ( "opt",
              staged "opt" (fun () ->
                  guard "opt" (fun () ->
                      let p = Opt.optimize (lower subject) in
                      (match mutate with
                      | Some m ->
                        ignore (Mutate.apply m p);
                        verify_or_fail "mutation" p
                      | None -> ());
                      ir_behaviour ~budget p)) );
            ( "asm",
              staged "asm" (fun () ->
                  guard "asm" (fun () ->
                      let p = Opt.optimize (lower subject) in
                      let asm = Backend.compile p in
                      render
                        (Vm.X86_exec.run ~max_steps:asm_budget Golden
                           (Vm.X86_exec.load asm)))) );
          ]
      in
      let diffs =
        List.filter_map
          (fun (stage, got) ->
            if String.equal got expected then None
            else Some { d_stage = stage; d_expected = expected; d_got = got })
          stage_behaviours
      in
      if diffs <> [] then Obs.Metrics.incr m_divergences;
      if diffs = [] then Agree (List.length stage_behaviours)
      else Diverged diffs)

let diverges ?mutate subject =
  match run ?mutate subject with Diverged _ -> true | _ -> false

let truncate_for_pp s =
  if String.length s <= 80 then s else String.sub s 0 77 ^ "..."

let pp_result ppf = function
  | Agree n -> Format.fprintf ppf "agree (%d stages)" n
  | Invalid msg -> Format.fprintf ppf "invalid subject: %s" msg
  | Diverged ds ->
    Format.fprintf ppf "DIVERGED:";
    List.iter
      (fun d ->
        Format.fprintf ppf "@\n  stage %-10s expected %S@\n  %-16s got %S"
          d.d_stage (truncate_for_pp d.d_expected) "" (truncate_for_pp d.d_got))
      ds
