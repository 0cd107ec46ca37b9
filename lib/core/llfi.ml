(** LLFI: the IR-level fault injector (paper §III).

    The three steps of Figure 1 map onto this module directly:

    1. {e instruction/operand selection} — [classify] marks each IR
       instruction with the categories it may be injected under, pruning
       instructions with unused results (def-use based activation
       guarantee) and, per the paper's mitigation, restricting the cast
       category to integer/floating-point conversions;
    2. {e instrumentation} — [prepare] compiles the program once with the
       selector baked in (the analogue of instrumenting the IR with
       fault-injection function calls and reusing one executable);
    3. {e runtime injection} — [inject] runs the instrumented program,
       flipping one bit of the destination of a uniformly chosen dynamic
       instance of the target category. *)

type config = {
  conversion_casts_only : bool;
      (* restrict the cast category to trunc/zext/sext/fptosi/sitofp *)
  include_pointer_instrs : bool;
      (* let 'all' include gep/alloca results (it does in LLFI) *)
  custom_selector : (Ir.Func.t -> Ir.Instr.t -> bool) option;
      (* LLFI's custom instruction selectors (paper Figure 1, step 1):
         when set, only instructions the predicate accepts are
         candidates, in every category *)
}

let default_config =
  {
    conversion_casts_only = true;
    include_pointer_instrs = true;
    custom_selector = None;
  }

let in_functions names =
  Some
    (fun (f : Ir.Func.t) (_ : Ir.Instr.t) -> List.mem f.Ir.Func.fname names)

let classify config (f : Ir.Func.t) =
  let uses = Ir.Func.use_counts f in
  let selected =
    match config.custom_selector with
    | Some select -> select f
    | None -> fun _ -> true
  in
  fun (i : Ir.Instr.t) ->
    if not (selected i) then 0
    else
    match i.Ir.Instr.result with
    | None -> 0
    | Some r ->
      if uses.(r.Ir.Value.id) = 0 then 0 (* dead destination: never activated *)
      else begin
        let m = ref (Category.mask Category.All) in
        (match i.Ir.Instr.kind with
        | Ir.Instr.Binop _ -> m := !m lor Category.mask Category.Arithmetic
        | Ir.Instr.Icmp _ | Ir.Instr.Fcmp _ ->
          m := !m lor Category.mask Category.Cmp
        | Ir.Instr.Cast (c, _, _) ->
          if Ir.Instr.cast_is_conversion c || not config.conversion_casts_only
          then m := !m lor Category.mask Category.Cast
        | Ir.Instr.Load _ -> m := !m lor Category.mask Category.Load
        | Ir.Instr.Gep _ | Ir.Instr.Alloca _ ->
          if not config.include_pointer_instrs then m := 0
        | Ir.Instr.Phi _ | Ir.Instr.Select _ | Ir.Instr.Call _
        | Ir.Instr.Intrinsic _ | Ir.Instr.Store _ ->
          ());
        !m
      end

type t = {
  config : config;
  compiled : Vm.Ir_exec.compiled;
  golden_output : string;
  golden_steps : int;
  max_steps : int;
  dynamic_counts : (Category.t * int) list;
  inputs : int array;
}

let hang_factor = 10

(** Instrument and profile a program: one fault-free profiling run
    counts dynamic instances per category and yields the golden output
    and step count. *)
let prepare ?(config = default_config) ?(compile = true) ~inputs
    (prog : Ir.Prog.t) =
  let compiled = Vm.Ir_exec.compile ~classify:(classify config) prog in
  let compiled = if compile then compiled else Vm.Ir_exec.reference compiled in
  let counts = Array.make (1 lsl Category.count) 0 in
  let golden = Vm.Ir_exec.run ~inputs (Profile counts) compiled in
  let golden_output =
    match golden.Vm.Outcome.outcome with
    | Vm.Outcome.Finished out -> out
    | other ->
      invalid_arg
        (Fmt.str "Llfi.prepare: golden run did not finish: %a" Vm.Outcome.pp
           other)
  in
  {
    config;
    compiled;
    golden_output;
    golden_steps = golden.Vm.Outcome.steps;
    max_steps = (golden.Vm.Outcome.steps * hang_factor) + 10_000;
    dynamic_counts = Category.totals_of_mask_counts counts;
    inputs;
  }

let dynamic_count t category = List.assoc category t.dynamic_counts

(* The target draw is the first thing a trial takes from its rng; both
   [inject] and the planning path below must keep it that way so that
   planning all of a cell's targets up front leaves every stream
   positioned exactly as the direct path would.  The authoritative
   statement of this contract is [Campaign.target_draw] (= 0), which
   the snapshot planner and the fuzz coverage report both rely on. *)
let draw_target t category rng =
  let population = dynamic_count t category in
  if population = 0 then invalid_arg "Llfi.inject: empty category";
  Support.Rng.int rng population

(** One fault-injection run: pick a dynamic instance uniformly from the
    category's population, corrupt its destination under [model]. *)
let inject ?(track_use = false) ?(model = Fault_model.Bitflip) t category
    (rng : Support.Rng.t) =
  let target = draw_target t category rng in
  let plan =
    { Vm.Ir_exec.inj_mask = Category.mask category; target; rng }
  in
  Vm.Ir_exec.run ~inputs:t.inputs ~max_steps:t.max_steps
    (Inject (plan, { model; forced_bit = None; track_use }))
    t.compiled

let plan_target = draw_target

type runner = { r_t : t; r_ff : Vm.Ir_exec.ff }

(* One reconvergence journal serves every category's runners; [None]
   when the golden run outgrows the journal's entry cap. *)
let record_rejoin t =
  Vm.Ir_exec.record_journal t.compiled ~inputs:t.inputs

let runner ?rejoin t category =
  {
    r_t = t;
    r_ff =
      Vm.Ir_exec.ff_create t.compiled ?rejoin ~inputs:t.inputs
        ~inj_mask:(Category.mask category) ();
  }

let inject_at ?(track_use = false) ?(model = Fault_model.Bitflip) r ~target rng
    =
  Vm.Ir_exec.ff_trial r.r_ff
    ~fault:{ model; forced_bit = None; track_use }
    ~target ~max_steps:r.r_t.max_steps ~rng

(* --- exhaustive campaigns (lib/exhaust) --- *)

let enumerate t category =
  Vm.Ir_exec.enumerate t.compiled ~inputs:t.inputs
    ~inj_mask:(Category.mask category) ~max_steps:t.max_steps

let inject_bit ?(track_use = false) ~model r ~target ~bit =
  (* With [forced_bit] set, the trial draws nothing from its rng: the
     target is supplied and the bit is pinned, so a constant dummy
     stream keeps the result a pure function of (target, bit, model). *)
  Vm.Ir_exec.ff_trial r.r_ff
    ~fault:{ model; forced_bit = Some bit; track_use }
    ~target ~max_steps:r.r_t.max_steps ~rng:(Support.Rng.create 0L)
