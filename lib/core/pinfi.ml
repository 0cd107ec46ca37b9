(** PINFI: the assembly-level fault injector (paper §IV).

    Classification happens at load time (PIN instruments when the
    program is loaded); injection corrupts the destination register of a
    uniformly chosen dynamic instance.  The activation heuristics of
    Figure 2 — dependent flag bits before conditional jumps, and the
    low-64-bit restriction for XMM destinations — live in the policy
    record and can be disabled for the ablation benchmarks.

    [Syscall] pseudo-instructions (the C library) are never injection
    candidates: PIN tools instrument the program image, not libc. *)

type config = { policy : Vm.X86_exec.policy }

let default_config = { policy = Vm.X86_exec.paper_policy }

let is_arithmetic (insn : X86.Insn.t) =
  match insn with
  | X86.Insn.Alu _ | X86.Insn.Imul _ | X86.Insn.Imul3 _ | X86.Insn.Neg _
  | X86.Insn.Not _ | X86.Insn.Idiv _ | X86.Insn.Div _ | X86.Insn.Shift _
  | X86.Insn.Lea _ | X86.Insn.Sse _ | X86.Insn.Sqrtsd _
  | X86.Insn.Andpd_abs _ | X86.Insn.Cqo ->
    true
  | _ -> false

let is_convert (insn : X86.Insn.t) =
  match insn with
  | X86.Insn.Cvtsi2sd _ | X86.Insn.Cvttsd2si _ -> true
  | _ -> false

let is_mem_load (insn : X86.Insn.t) =
  match insn with
  | X86.Insn.Mov (_, X86.Insn.Mem _)
  | X86.Insn.Movzx (_, _, X86.Insn.Mem _)
  | X86.Insn.Movsx (_, _, X86.Insn.Mem _)
  | X86.Insn.Movsd (_, X86.Insn.Xmem _) ->
    true
  | _ -> false

let classify (program : Backend.Program.t) index (insn : X86.Insn.t) =
  match insn with
  | X86.Insn.Syscall _ | X86.Insn.Label _ -> 0
  | _ ->
    let next_is_jcc =
      index + 1 < Array.length program.insns
      &&
      match program.insns.(index + 1) with
      | X86.Insn.Jcc _ -> true
      | _ -> false
    in
    let is_cmp = X86.Insn.writes_flags insn && next_is_jcc in
    (* Candidates must have an explicit destination register operand, as
       in PINFI; push/call/ret only update rsp implicitly and are not
       instrumented. *)
    let writes_register =
      match insn with
      | X86.Insn.Push _ | X86.Insn.Call _ | X86.Insn.Ret -> false
      | _ -> (
        match Vm.X86_exec.primary_dest insn with
        | Vm.X86_exec.Dgp _ | Vm.X86_exec.Dxmm _ -> true
        | Vm.X86_exec.Dflags | Vm.X86_exec.Dnone -> false)
    in
    if (not writes_register) && not is_cmp then 0
    else begin
      let m = ref (Category.mask Category.All) in
      if is_arithmetic insn then m := !m lor Category.mask Category.Arithmetic;
      if is_convert insn then m := !m lor Category.mask Category.Cast;
      if is_cmp then m := !m lor Category.mask Category.Cmp;
      if is_mem_load insn then m := !m lor Category.mask Category.Load;
      !m
    end

type t = {
  config : config;
  loaded : Vm.X86_exec.loaded;
  golden_output : string;
  golden_steps : int;
  max_steps : int;
  dynamic_counts : (Category.t * int) list;
  inputs : int array;
}

let hang_factor = 10

let prepare ?(config = default_config) ?(compile = true) ~inputs
    (program : Backend.Program.t) =
  let loaded = Vm.X86_exec.load ~classify program in
  let loaded = if compile then loaded else Vm.X86_exec.reference loaded in
  let counts = Array.make (1 lsl Category.count) 0 in
  let golden = Vm.X86_exec.run ~inputs (Profile counts) loaded in
  let golden_output =
    match golden.Vm.Outcome.outcome with
    | Vm.Outcome.Finished out -> out
    | other ->
      invalid_arg
        (Fmt.str "Pinfi.prepare: golden run did not finish: %a" Vm.Outcome.pp
           other)
  in
  {
    config;
    loaded;
    golden_output;
    golden_steps = golden.Vm.Outcome.steps;
    max_steps = (golden.Vm.Outcome.steps * hang_factor) + 10_000;
    dynamic_counts = Category.totals_of_mask_counts counts;
    inputs;
  }

let dynamic_count t category = List.assoc category t.dynamic_counts

(* As in [Llfi]: the target draw must stay the first thing a trial
   takes from its rng — draw #[Campaign.target_draw] — for the
   plan-then-execute-sorted path and the fuzz coverage report. *)
let draw_target t category rng =
  let population = dynamic_count t category in
  if population = 0 then invalid_arg "Pinfi.inject: empty category";
  Support.Rng.int rng population

let inject ?(track_use = false) ?(model = Fault_model.Bitflip) t category
    (rng : Support.Rng.t) =
  let target = draw_target t category rng in
  let plan =
    {
      Vm.X86_exec.inj_mask = Category.mask category;
      target;
      rng;
      policy = t.config.policy;
    }
  in
  Vm.X86_exec.run ~inputs:t.inputs ~max_steps:t.max_steps
    (Inject (plan, { model; forced_bit = None; track_use }))
    t.loaded

let plan_target = draw_target

type runner = { r_t : t; r_ff : Vm.X86_exec.ff }

(* One reconvergence journal serves every category's runners; [None]
   when the golden run outgrows the journal's entry cap. *)
let record_rejoin t =
  Vm.X86_exec.record_journal t.loaded ~inputs:t.inputs

let runner ?rejoin t category =
  {
    r_t = t;
    r_ff =
      Vm.X86_exec.ff_create t.loaded ~policy:t.config.policy ?rejoin
        ~inputs:t.inputs ~inj_mask:(Category.mask category) ();
  }

let inject_at ?(track_use = false) ?(model = Fault_model.Bitflip) r ~target rng
    =
  Vm.X86_exec.ff_trial r.r_ff
    ~fault:{ model; forced_bit = None; track_use }
    ~target ~max_steps:r.r_t.max_steps ~rng

(* --- exhaustive campaigns (lib/exhaust) --- *)

let enumerate t category =
  Vm.X86_exec.enumerate ~policy:t.config.policy ~inputs:t.inputs
    ~inj_mask:(Category.mask category) ~max_steps:t.max_steps t.loaded

let inject_bit ?(track_use = false) ~model r ~target ~bit =
  (* As [Llfi.inject_bit]: forced-bit trials draw nothing from the rng,
     so a constant dummy stream keeps results a pure function of
     (target, bit, model).  For a flags destination [bit] indexes the
     candidate bit list, matching the enumerated instance width. *)
  Vm.X86_exec.ff_trial r.r_ff
    ~fault:{ model; forced_bit = Some bit; track_use }
    ~target ~max_steps:r.r_t.max_steps ~rng:(Support.Rng.create 0L)
