(** IR-level interpreter with fault-injection hooks.

    A program is compiled once into a dispatch-friendly form (operands
    resolved to SSA slots or constants, GEPs lowered to base + scaled
    indices + displacement, globals laid out at fixed addresses) and can
    then be executed many times cheaply — once per fault-injection trial.

    Three run modes:
    - plain: golden runs;
    - profile: count dynamic instances per category bitmask (paper step 1);
    - inject: flip one bit of the destination of the [target]-th dynamic
      instance of an instruction matching the category mask (paper step 3).

    Category semantics are supplied by the caller as a [classify] function
    so that the injector policy (Core.Llfi) stays outside the VM. *)

open Support

(* --- compiled form --- *)

type cop = S of int | C of int  (* integer-class operand: slot or constant *)
type fop = FS of int | FC of float

type arg = AI of cop | AF of fop

type dest =
  | DNone
  | DInt of int * int  (* slot, bit width *)
  | DFloat of int

type op_kind =
  | Ibin of Ir.Instr.binop * cop * cop * int  (* width *)
  | Fbin of Ir.Instr.binop * fop * fop
  | Icmp_op of Ir.Instr.icmp * cop * cop * int  (* operand width *)
  | Fcmp_op of Ir.Instr.fcmp * fop * fop
  | Canon of cop * int  (* trunc to width *)
  | Unsign of cop * int  (* zext from width *)
  | Sext_i1 of cop
  | Move_int of cop  (* sext (non-i1), bitcast, ptrtoint, inttoptr *)
  | Fp_to_si of fop * int  (* to width *)
  | Si_to_fp of cop
  | Alloca_op of int * int  (* size, alignment *)
  | Load_int of cop * int  (* address, width *)
  | Load_f64 of cop
  | Store_int of cop * cop * int  (* value, address, width *)
  | Store_f64 of fop * cop
  | Gep_op of cop * int * (cop * int) array  (* base, disp, scaled indices *)
  | Select_int of cop * cop * cop
  | Select_f64 of cop * fop * fop
  | Call_op of int * arg array  (* function index *)
  | Intr_op of Ir.Instr.intrinsic * arg array

type cinstr = {
  mask : int;  (* category bitmask; 0 = not an injection candidate *)
  dest : dest;
  op : op_kind;
  meta : Ir.Instr.t;
  gid : int;  (* program-wide instruction id, for propagation traces *)
  mutable clive : int array;
      (* calls only: encoded slots still readable after the callee
         returns and the destination is overwritten — the suspended
         caller frame's rejoin digest set (filled by the liveness
         pass; [||] for non-calls) *)
}

type cphi = {
  pdest : dest;
  pmask : int;
  psrcs_i : cop array;  (* indexed by predecessor ordinal; empty if float *)
  psrcs_f : fop array;
  pmeta : Ir.Instr.t;
  pgid : int;
}

type cterm =
  | Tret of arg option
  | Tbr of int * int  (* target block, predecessor ordinal in target *)
  | Tcond of cop * (int * int) * (int * int)

type cblock = {
  phis : cphi array;
  body : cinstr array;
  term : cterm;
  mutable bend_live : int array;
      (* encoded slots that may still be read when the terminator is
         next — the rejoin digest boundary's live set (liveness pass) *)
  landmark : bool;
      (* the block-end boundary is a rejoin landmark: the function's
         entry block or the target of a back edge (target index <=
         source index).  Every CFG cycle contains a back edge and every
         recursion enters an entry block, so every dynamic cycle
         passes one. *)
}

type cfunc = {
  cname : string;
  cindex : int;  (* position in [compiled.cfuncs]; a stable function id *)
  nslots : int;
  params : (int * bool) array;  (* slot, is_float *)
  cblocks : cblock array;
}

(* A propagation trace: the fingerprint of every value-producing
   instruction's result, in execution order.  Comparing a golden trace
   with a faulty run's trace shows how far a fault spread (LLFI's
   error-propagation analysis, paper SIII "Customizability and
   Analysis"). *)
type trace = {
  mutable t_gids : int array;
  mutable t_vals : int array;
  mutable t_len : int;
}

(* First-use watch for the corrupted destination.  The frame's slot
   array is captured by identity so slot numbers in other frames (every
   call allocates fresh envs) can never match by accident. *)
type fu_watch =
  | FU_off
  | FU_int of int array * int  (* frame env, slot *)
  | FU_float of float array * int

(* One activation record of the explicit call stack.  Keeping frames as
   data (instead of OCaml recursion) is what makes the machine
   snapshotable mid-run: the fast-forward executor copies the frame list
   and resumes it against a copy-on-write view of memory.
   [pos] = -1 means the current block's phi prefix has not run yet;
   [pos] = length of the block body means the terminator is next. *)
type frame = {
  func : cfunc;
  ienv : int array;
  fenv : float array;
  mutable fblock : int;  (* current block index *)
  mutable pred : int;  (* predecessor ordinal, selects phi sources *)
  mutable pos : int;
  saved_sp : int;
  ret_instr : cinstr option;  (* the call awaiting this frame's result *)
  e_env : Fault_space.builder option array;
      (* Enumerate mode: live fault-space builder per slot; [||] otherwise *)
  mutable rj_dig : int;
      (* rejoin digest of this frame while suspended at a call (its
         envs are immutable until the callee returns).  Marked
         [rj_dirty] at the call and computed lazily at the first probe
         that needs it, so machines that never probe (the rolling
         golden prefix) pay nothing per call *)
}

(* Rejoin digest context (see {!Rejoin} and the x86 twin in
   {!X86_exec}).  Memory writes feed an incremental XOR accumulator of
   before/after cell fingerprints — which telescopes to a pure function
   of current memory contents — while the live frame stack is hashed
   from scratch only at boundaries that need a digest: every landmark
   block-end on the recording golden run, a landmark at most once per
   [Rejoin.probe_gap] steps on a trial. *)
type rej = {
  mutable rj_acc : int;  (* XOR of store-touched cell fingerprints *)
  mutable rj_next : int;  (* trial side: step count of the next probe *)
  rj_journal : Rejoin.t option;  (* trial side: probe for reconvergence *)
  rj_rec : Rejoin.builder option;  (* record side: journal builder *)
  rj_seen : Rejoin.seen;  (* trial side: loop detector *)
}

type state = {
  mem : Memory.t;
  out : Buffer.t;
  inputs : int array;
  max_steps : int;
  mutable steps : int;
  mutable sp : int;
  mutable depth : int;
  phase : Fault_space.builder list ref Phase.t;
      (* what the run is for, with its own state; [Enumerate] collects
         the fault-space records, newest first *)
  inj_mask : int;
  mutable injected : bool;
  mutable injected_step : int;
  mutable fault_note : string;
  mutable fault_bit : int;  (* first drawn bit, -1 if none *)
  trace : trace option;
  track_use : bool;  (* classify the corrupted value's first consumer *)
  mutable fu_watch : fu_watch;
  mutable first_use : First_use.t;
  mutable fault_site : int;  (* gid of the injected instruction *)
  mutable stack : frame list;  (* top frame first *)
  skip_capture : bool;
      (* Inject mode under [Skip]: capture the destination before each
         candidate write so the injection can suppress it.  False in
         every other run, so the hot path pays one boolean load. *)
  mutable rej : rej option;  (* rejoin digest context, or None *)
  mutable post_fault : bool;
      (* latched by [post_fault]: block bodies run on the post-fault
         loop *)
}

(* A body instruction's executor (see the dispatch table below). *)
type opfn = state -> int array -> float array -> unit

type compiled = {
  source : Ir.Prog.t;
  cfuncs : cfunc array;
  main_index : int;
  global_addr : (string, int) Hashtbl.t;
  global_image : (int * Ir.Types.t * Ir.Prog.init) list;
  globals_len : int;
  ops : opfn array;  (* per gid; calls are [exec_frames]'s own *)
}

(* --- rejoin liveness ---

   Per-function backward liveness over SSA slots, computed once at
   compile time for the rejoin digest (see {!Rejoin} and the digest
   helpers further down): [bend_live] holds the slots that may still
   be read once a block's terminator is next — the digest boundary —
   and [clive] the slots still readable after a call returns and
   overwrites its destination — the suspended caller frame's digest
   set.  Digesting only live slots is what makes the scan affordable
   (a frame can have hundreds of slots, a handful live).
   Over-approximating is safe (extra slots can only miss a rejoin,
   never fake one); missing a genuinely readable slot would be
   unsound, so the use scans below mirror every read [exec_op] makes.
   Slots are encoded as [(slot lsl 1) lor is_float]. *)
let compute_rejoin_liveness (cf : cfunc) =
  let ns = 2 * cf.nslots in
  let nb = Array.length cf.cblocks in
  let use_cop (set : bool array) = function
    | S s -> set.(s lsl 1) <- true
    | C _ -> ()
  in
  let use_fop (set : bool array) = function
    | FS s -> set.((s lsl 1) lor 1) <- true
    | FC _ -> ()
  in
  let use_arg set = function AI op -> use_cop set op | AF op -> use_fop set op in
  let uses_op set = function
    | Ibin (_, a, b, _) | Icmp_op (_, a, b, _) ->
      use_cop set a;
      use_cop set b
    | Fbin (_, a, b) | Fcmp_op (_, a, b) ->
      use_fop set a;
      use_fop set b
    | Canon (a, _)
    | Unsign (a, _)
    | Sext_i1 a
    | Move_int a
    | Si_to_fp a
    | Load_int (a, _)
    | Load_f64 a ->
      use_cop set a
    | Fp_to_si (a, _) -> use_fop set a
    | Alloca_op _ -> ()
    | Store_int (v, p, _) ->
      use_cop set v;
      use_cop set p
    | Store_f64 (v, p) ->
      use_fop set v;
      use_cop set p
    | Gep_op (base, _, scaled) ->
      use_cop set base;
      Array.iter (fun (i, _) -> use_cop set i) scaled
    | Select_int (c, a, b) ->
      use_cop set c;
      use_cop set a;
      use_cop set b
    | Select_f64 (c, a, b) ->
      use_cop set c;
      use_fop set a;
      use_fop set b
    | Call_op (_, args) | Intr_op (_, args) -> Array.iter (use_arg set) args
  in
  let def_dest (set : bool array) = function
    | DInt (s, _) -> set.(s lsl 1) <- false
    | DFloat s -> set.((s lsl 1) lor 1) <- false
    | DNone -> ()
  in
  let uses_term set = function
    | Tcond (c, _, _) -> use_cop set c
    | Tret (Some a) -> use_arg set a
    | Tret None | Tbr _ -> ()
  in
  let succs = function
    | Tret _ -> [||]
    | Tbr (t, _) -> [| t |]
    | Tcond (_, (t, _), (f, _)) -> [| t; f |]
  in
  let encode (set : bool array) =
    let n = ref 0 in
    Array.iter (fun b -> if b then incr n) set;
    let out = Array.make !n 0 in
    let j = ref 0 in
    Array.iteri
      (fun i b ->
        if b then begin
          out.(!j) <- i;
          incr j
        end)
      set;
    out
  in
  (* live at block entry, before the phi prefix: phi dests killed, phi
     sources attributed to the incoming edge (conservatively to every
     predecessor, for every ordinal) *)
  let live_in = Array.init nb (fun _ -> Array.make ns false) in
  let phi_srcs =
    Array.init nb (fun bi ->
        let set = Array.make ns false in
        Array.iter
          (fun p ->
            Array.iter (use_cop set) p.psrcs_i;
            Array.iter (use_fop set) p.psrcs_f)
          cf.cblocks.(bi).phis;
        set)
  in
  let scratch = Array.make ns false in
  let backward_block bi ~record =
    let b = cf.cblocks.(bi) in
    let set = scratch in
    Array.fill set 0 ns false;
    Array.iter
      (fun t ->
        let li = live_in.(t) and ps = phi_srcs.(t) in
        for j = 0 to ns - 1 do
          if li.(j) || ps.(j) then set.(j) <- true
        done)
      (succs b.term);
    uses_term set b.term;
    if record then b.bend_live <- encode set;
    for k = Array.length b.body - 1 downto 0 do
      let ci = b.body.(k) in
      def_dest set ci.dest;
      (if record then
         match ci.op with Call_op _ -> ci.clive <- encode set | _ -> ());
      uses_op set ci.op
    done;
    Array.iter (fun p -> def_dest set p.pdest) b.phis;
    let li = live_in.(bi) in
    let changed = ref false in
    for j = 0 to ns - 1 do
      if set.(j) && not li.(j) then begin
        li.(j) <- true;
        changed := true
      end
    done;
    !changed
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for bi = nb - 1 downto 0 do
      if backward_block bi ~record:false then changed := true
    done
  done;
  for bi = 0 to nb - 1 do
    ignore (backward_block bi ~record:true)
  done

(* --- compilation --- *)

(* The compiled program without its dispatch table ([ops] empty);
   [compile] fills the table once the closures below exist. *)
let lower ?(classify = fun _ _ -> 0) (prog : Ir.Prog.t) =
  let global_addr, global_image, globals_len =
    Ir.Layout.layout_globals prog ~base:Memory.globals_base
  in
  (* Program-wide instruction ids, used to align propagation traces. *)
  let gid_counter = ref 0 in
  let next_gid () =
    let g = !gid_counter in
    incr gid_counter;
    g
  in
  let funcs = Array.of_list prog.Ir.Prog.funcs in
  let func_index = Hashtbl.create 16 in
  Array.iteri
    (fun i (f : Ir.Func.t) -> Hashtbl.replace func_index f.fname i)
    funcs;
  let compile_func fidx (f : Ir.Func.t) =
    let classify_instr = classify f in
    let cfg = Ir.Cfg.of_func f in
    let iop (op : Ir.Operand.t) =
      match op with
      | Ir.Operand.Var v -> S v.id
      | Ir.Operand.Int (_, c) -> C c
      | Ir.Operand.Null _ -> C 0
      | Ir.Operand.Global (name, _) -> C (Hashtbl.find global_addr name)
      | Ir.Operand.Float _ -> invalid_arg "Ir_exec: float operand in int position"
    in
    let fop (op : Ir.Operand.t) =
      match op with
      | Ir.Operand.Var v -> FS v.id
      | Ir.Operand.Float f -> FC f
      | Ir.Operand.Int _ | Ir.Operand.Null _ | Ir.Operand.Global _ ->
        invalid_arg "Ir_exec: int operand in float position"
    in
    let arg_of op =
      if Ir.Types.is_float (Ir.Operand.type_of op) then AF (fop op) else AI (iop op)
    in
    let width_of ty =
      if Ir.Types.is_pointer ty then Word.width else Ir.Types.bit_width ty
    in
    let dest_of (i : Ir.Instr.t) =
      match i.result with
      | None -> DNone
      | Some v ->
        if Ir.Types.is_float v.ty then DFloat v.id
        else DInt (v.id, width_of v.ty)
    in
    let compile_gep base indices =
      let base_ty = Ir.Operand.type_of base in
      let pointee = Ir.Types.pointee base_ty in
      let disp = ref 0 in
      let scaled = ref [] in
      let add_index idx scale =
        match idx with
        | Ir.Operand.Int (_, c) -> disp := !disp + (c * scale)
        | _ -> scaled := (iop idx, scale) :: !scaled
      in
      (match indices with
      | [] -> invalid_arg "Ir_exec: gep without indices"
      | first :: rest ->
        add_index first (Ir.Layout.size_of prog pointee);
        let rec walk ty = function
          | [] -> ()
          | idx :: rest -> (
            match ty with
            | Ir.Types.Arr (_, elt) ->
              add_index idx (Ir.Layout.size_of prog elt);
              walk elt rest
            | Ir.Types.Struct sname -> (
              match idx with
              | Ir.Operand.Int (_, field) ->
                disp := !disp + Ir.Layout.field_offset prog sname field;
                walk (Ir.Layout.field_type prog sname field) rest
              | _ -> invalid_arg "Ir_exec: dynamic struct field index")
            | _ -> invalid_arg "Ir_exec: gep walks into scalar")
        in
        walk pointee rest);
      Gep_op (iop base, !disp, Array.of_list (List.rev !scaled))
    in
    let compile_instr (i : Ir.Instr.t) =
      let open Ir.Instr in
      let op =
        match i.kind with
        | Binop (op, a, b) ->
          if binop_is_float op then Fbin (op, fop a, fop b)
          else Ibin (op, iop a, iop b, width_of (Ir.Operand.type_of a))
        | Icmp (p, a, b) ->
          Icmp_op (p, iop a, iop b, width_of (Ir.Operand.type_of a))
        | Fcmp (p, a, b) -> Fcmp_op (p, fop a, fop b)
        | Cast (c, v, to_) -> (
          let from = Ir.Operand.type_of v in
          match c with
          | Trunc -> Canon (iop v, Ir.Types.bit_width to_)
          | Zext ->
            if Ir.Types.bit_width from = 1 then Move_int (iop v)
            else Unsign (iop v, Ir.Types.bit_width from)
          | Sext ->
            if Ir.Types.bit_width from = 1 then Sext_i1 (iop v)
            else Move_int (iop v)
          | Fptosi -> Fp_to_si (fop v, Ir.Types.bit_width to_)
          | Sitofp -> Si_to_fp (iop v)
          | Bitcast | Ptrtoint | Inttoptr -> Move_int (iop v))
        | Alloca ty ->
          Alloca_op (Ir.Layout.size_of prog ty, Ir.Layout.align_of prog ty)
        | Load p -> (
          let pointee = Ir.Types.pointee (Ir.Operand.type_of p) in
          match pointee with
          | Ir.Types.F64 -> Load_f64 (iop p)
          | ty -> Load_int (iop p, width_of ty))
        | Store (v, p) -> (
          let pointee = Ir.Types.pointee (Ir.Operand.type_of p) in
          match pointee with
          | Ir.Types.F64 -> Store_f64 (fop v, iop p)
          | ty -> Store_int (iop v, iop p, width_of ty))
        | Gep (base, indices) -> compile_gep base indices
        | Phi _ -> invalid_arg "Ir_exec: phi outside block prefix"
        | Select (c, a, b) ->
          if Ir.Types.is_float (Ir.Operand.type_of a) then
            Select_f64 (iop c, fop a, fop b)
          else Select_int (iop c, iop a, iop b)
        | Call (callee, args) ->
          let idx =
            match Hashtbl.find_opt func_index callee with
            | Some i -> i
            | None -> invalid_arg ("Ir_exec: call to unknown function " ^ callee)
          in
          Call_op (idx, Array.of_list (List.map arg_of args))
        | Intrinsic (intr, args) ->
          Intr_op (intr, Array.of_list (List.map arg_of args))
      in
      {
        mask = classify_instr i;
        dest = dest_of i;
        op;
        meta = i;
        gid = next_gid ();
        clive = [||];
      }
    in
    let pred_ordinal target pred =
      let preds = Ir.Cfg.predecessors_of cfg target in
      let rec find k = function
        | [] -> invalid_arg "Ir_exec: branch edge missing from CFG"
        | p :: rest -> if p = pred then k else find (k + 1) rest
      in
      find 0 preds
    in
    let compile_block bi (b : Ir.Block.t) =
      let phis =
        List.map
          (fun (i : Ir.Instr.t) ->
            match i.kind with
            | Ir.Instr.Phi incoming ->
              let preds = Ir.Cfg.predecessors_of cfg bi in
              let by_pred =
                List.map
                  (fun p ->
                    let label = cfg.Ir.Cfg.blocks.(p).Ir.Block.label in
                    match
                      List.find_opt (fun (_, l) -> String.equal l label) incoming
                    with
                    | Some (v, _) -> v
                    | None -> invalid_arg "Ir_exec: phi missing incoming value")
                  preds
              in
              let is_float =
                match i.result with
                | Some v -> Ir.Types.is_float v.ty
                | None -> false
              in
              {
                pdest = dest_of i;
                pmask = classify_instr i;
                psrcs_i =
                  (if is_float then [||] else Array.of_list (List.map iop by_pred));
                psrcs_f =
                  (if is_float then Array.of_list (List.map fop by_pred) else [||]);
                pmeta = i;
                pgid = next_gid ();
              }
            | _ -> invalid_arg "Ir_exec: non-phi in phi prefix")
          (Ir.Block.phis b)
      in
      let body = List.map compile_instr (Ir.Block.non_phis b) in
      let term =
        match b.term with
        | Ir.Instr.Ret None -> Tret None
        | Ir.Instr.Ret (Some v) -> Tret (Some (arg_of v))
        | Ir.Instr.Br l ->
          let target = Ir.Cfg.block_index cfg l in
          Tbr (target, pred_ordinal target bi)
        | Ir.Instr.Cond_br (c, lt, lf) ->
          let t = Ir.Cfg.block_index cfg lt and f = Ir.Cfg.block_index cfg lf in
          Tcond (iop c, (t, pred_ordinal t bi), (f, pred_ordinal f bi))
      in
      {
        phis = Array.of_list phis;
        body = Array.of_list body;
        term;
        bend_live = [||];
        landmark =
          bi = 0
          || List.exists (fun p -> p >= bi) (Ir.Cfg.predecessors_of cfg bi);
      }
    in
    {
      cname = f.fname;
      cindex = fidx;
      nslots = f.next_value;
      params =
        Array.of_list
          (List.map
             (fun (p : Ir.Value.t) -> (p.id, Ir.Types.is_float p.ty))
             f.params);
      cblocks = Array.of_list (List.mapi compile_block f.blocks);
    }
  in
  let cfuncs = Array.mapi compile_func funcs in
  Array.iter compute_rejoin_liveness cfuncs;
  let main_index =
    match Hashtbl.find_opt func_index "main" with
    | Some i -> i
    | None -> invalid_arg "Ir_exec.compile: program has no main"
  in
  { source = prog; cfuncs; main_index; global_addr; global_image; globals_len;
    ops = [||] }

(* --- static injection-site enumeration (coverage tooling) --- *)

type site = {
  site_gid : int;
  site_mask : int;
  site_func : string;
  site_instr : Ir.Instr.t;
  site_width : int;
}

let iter_compiled c f =
  Array.iter
    (fun cf ->
      Array.iter
        (fun b ->
          Array.iter
            (fun p -> f cf.cname p.pgid p.pmask p.pmeta p.pdest)
            b.phis;
          Array.iter
            (fun ci -> f cf.cname ci.gid ci.mask ci.meta ci.dest)
            b.body)
        cf.cblocks)
    c.cfuncs

(* The bits of the lane a fault into [dest] is drawn from. *)
let dest_width = function
  | DInt (_, w) -> Lane.width (Lane.int w)
  | DFloat _ -> Lane.width Lane.f64
  | DNone -> 0

let sites c =
  let acc = ref [] in
  iter_compiled c (fun cname gid mask meta dest ->
      if mask <> 0 then
        acc :=
          {
            site_gid = gid;
            site_mask = mask;
            site_func = cname;
            site_instr = meta;
            site_width = dest_width dest;
          }
          :: !acc);
  let arr = Array.of_list !acc in
  Array.sort (fun a b -> compare a.site_gid b.site_gid) arr;
  arr

let gid_limit c =
  let m = ref 0 in
  iter_compiled c (fun _ gid _ _ _ -> if gid >= !m then m := gid + 1);
  !m

let is_landmark c ~func ~block = c.cfuncs.(func).cblocks.(block).landmark

(* --- execution --- *)

type plan = {
  inj_mask : int;  (* category bit to match *)
  target : int;  (* which dynamic instance to corrupt *)
  rng : Rng.t;  (* chooses the bit to flip *)
}

type mode =
  | Golden
  | Profile of int array  (* dynamic count per mask value *)
  | Profile_sites of int array  (* per-gid counts of candidates and phis *)
  | Inject of plan * Fault_model.fault

let create_trace () =
  { t_gids = Array.make 4096 0; t_vals = Array.make 4096 0; t_len = 0 }

let trace_push tr gid v =
  if tr.t_len = Array.length tr.t_gids then begin
    let n = 2 * tr.t_len in
    let gids = Array.make n 0 and vals = Array.make n 0 in
    Array.blit tr.t_gids 0 gids 0 tr.t_len;
    Array.blit tr.t_vals 0 vals 0 tr.t_len;
    tr.t_gids <- gids;
    tr.t_vals <- vals
  end;
  tr.t_gids.(tr.t_len) <- gid;
  tr.t_vals.(tr.t_len) <- v;
  tr.t_len <- tr.t_len + 1

let float_fingerprint f = Int64.to_int (Int64.bits_of_float f)

type ret = RVoid | RI of int | RF of float

let max_call_depth = 20_000

let emit st s = Outcome.emit st.out s

(* Record the applied fault in the run's stats fields. *)
let injected st gid (f : _ Lane.fault) =
  st.injected <- true;
  st.injected_step <- st.steps;
  st.fault_note <- f.note;
  st.fault_bit <- f.bit;
  st.fault_site <- gid

let icmp_eval (p : Ir.Instr.icmp) w x y =
  match p with
  | Ir.Instr.Ieq -> x = y
  | Ir.Instr.Ine -> x <> y
  | Ir.Instr.Islt -> x < y
  | Ir.Instr.Isle -> x <= y
  | Ir.Instr.Isgt -> x > y
  | Ir.Instr.Isge -> x >= y
  | Ir.Instr.Iult | Ir.Instr.Iule | Ir.Instr.Iugt | Ir.Instr.Iuge ->
    let cmp =
      if w >= Word.width then Word.ucompare x y
      else compare (Word.to_unsigned w x) (Word.to_unsigned w y)
    in
    (match p with
    | Ir.Instr.Iult -> cmp < 0
    | Ir.Instr.Iule -> cmp <= 0
    | Ir.Instr.Iugt -> cmp > 0
    | _ -> cmp >= 0)

let fcmp_eval (p : Ir.Instr.fcmp) x y =
  match p with
  | Ir.Instr.Feq -> x = y
  | Ir.Instr.Fne -> x < y || x > y
  | Ir.Instr.Flt -> x < y
  | Ir.Instr.Fle -> x <= y
  | Ir.Instr.Fgt -> x > y
  | Ir.Instr.Fge -> x >= y

(* Pre-write capture for the [Skip] model: [post_exec] runs after the
   destination write, so the injection site needs the prior value to
   suppress it.  Guarded by [st.skip_capture] at each call site; the
   mask/countdown test mirrors the Inject branch of [post_exec] for the
   same instruction, so exactly the targeted instance is captured. *)
let capture_dest st mask dest (ienv : int array) (fenv : float array) =
  match st.phase with
  | Phase.Injecting inj when inj.countdown = 0 && mask land st.inj_mask <> 0
    -> (
    match dest with
    | DInt (slot, _) -> inj.cap_i <- ienv.(slot)
    | DFloat slot -> inj.cap_f <- fenv.(slot)
    | DNone -> ())
  | _ -> ()

(* Called after the destination slot has been written.  The Forward
   branch counts exactly the instances the Inject countdown would see,
   so a machine paused at [matched = m] resumes a trial on instance
   [target] with [countdown = target - m]. *)
let post_exec st mask gid dest ienv fenv e_env =
  match st.phase with
  | Phase.Plain -> ()
  | Phase.Counting counts -> counts.(mask) <- counts.(mask) + 1
  | Phase.Counting_sites sites -> sites.(gid) <- sites.(gid) + 1
  | Phase.Forward f ->
    if mask land st.inj_mask <> 0 then f.matched <- f.matched + 1
  | Phase.Enumerate rev ->
    (* Start tracking this instance's destination; instances accumulate
       in exactly the order the Inject countdown meets them, so index k
       of the finished array is the fault [target = k] corrupts.
       [dest] has just been written, so the env holds the golden
       value. *)
    if mask land st.inj_mask <> 0 then begin
      let b =
        match dest with
        | DInt (slot, w) ->
          let b = Lane.instance (Lane.int w) ienv.(slot) in
          e_env.(slot) <- Some b;
          b
        | DFloat slot ->
          let b = Lane.instance Lane.f64 fenv.(slot) in
          e_env.(slot) <- Some b;
          b
        | DNone -> Fault_space.create ~gold:0L ~width:1
      in
      rev := b :: !rev
    end
  | Phase.Injecting inj ->
    if mask land st.inj_mask <> 0 then begin
      if inj.countdown = 0 then begin
        match dest with
        | DInt (slot, w) ->
          let f =
            Lane.corrupt (Lane.int w) inj
              ~what:(Printf.sprintf "%d-bit result" w)
              ~prior:inj.cap_i ienv.(slot)
          in
          ienv.(slot) <- f.value;
          injected st gid f;
          if st.track_use then st.fu_watch <- FU_int (ienv, slot)
        | DFloat slot ->
          let f =
            Lane.corrupt Lane.f64 inj ~what:"f64 result" ~prior:inj.cap_f
              fenv.(slot)
          in
          fenv.(slot) <- f.value;
          injected st gid f;
          if st.track_use then st.fu_watch <- FU_float (fenv, slot)
        | DNone -> ()
      end;
      inj.countdown <- inj.countdown - 1
    end

(* Record the value an instruction just wrote, when tracing. *)
let[@inline] trace_dest st gid dest (ienv : int array) (fenv : float array) =
  match st.trace with
  | None -> ()
  | Some tr -> (
    match dest with
    | DInt (slot, _) -> trace_push tr gid ienv.(slot)
    | DFloat slot -> trace_push tr gid (float_fingerprint fenv.(slot))
    | DNone -> ())

(* --- first-use classification (diagnosis hooks) ---

   Only consulted between the injection and the corrupted slot's first
   consumer, and only when [track_use] is on: the per-instruction cost
   when disabled is a single tag check on [fu_watch]. *)

(* Role of the first instruction reading the watched integer slot. *)
let fu_classify_int slot (op : op_kind) =
  let r = function S s -> s = slot | C _ -> false in
  match op with
  | Ibin (_, a, b, _) ->
    if r a || r b then Some First_use.Udata else None
  | Icmp_op (_, a, b, _) ->
    if r a || r b then Some First_use.Ucontrol else None
  | Canon (a, _) | Unsign (a, _) | Sext_i1 a | Move_int a | Si_to_fp a ->
    if r a then Some First_use.Udata else None
  | Load_int (p, _) | Load_f64 p ->
    if r p then Some First_use.Uaddr else None
  | Store_int (v, p, _) ->
    if r p then Some First_use.Uaddr
    else if r v then Some First_use.Udata
    else None
  | Store_f64 (_, p) -> if r p then Some First_use.Uaddr else None
  | Gep_op (base, _, scaled) ->
    if r base || Array.exists (fun (idx, _) -> r idx) scaled then
      Some First_use.Uaddr
    else None
  | Select_int (c, a, b) ->
    if r c then Some First_use.Ucontrol
    else if r a || r b then Some First_use.Udata
    else None
  | Select_f64 (c, _, _) -> if r c then Some First_use.Ucontrol else None
  | Call_op (_, args) | Intr_op (_, args) ->
    if Array.exists (function AI op -> r op | AF _ -> false) args then
      Some First_use.Udata
    else None
  | Fbin _ | Fcmp_op _ | Fp_to_si _ | Alloca_op _ -> None

let fu_classify_float slot (op : op_kind) =
  let r = function FS s -> s = slot | FC _ -> false in
  match op with
  | Fbin (_, a, b) -> if r a || r b then Some First_use.Udata else None
  | Fcmp_op (_, a, b) -> if r a || r b then Some First_use.Ucontrol else None
  | Fp_to_si (a, _) -> if r a then Some First_use.Udata else None
  | Store_f64 (v, _) -> if r v then Some First_use.Udata else None
  | Select_f64 (_, a, b) ->
    if r a || r b then Some First_use.Udata else None
  | Call_op (_, args) | Intr_op (_, args) ->
    if Array.exists (function AF op -> r op | AI _ -> false) args then
      Some First_use.Udata
    else None
  | Ibin _ | Icmp_op _ | Canon _ | Unsign _ | Sext_i1 _ | Move_int _
  | Si_to_fp _ | Alloca_op _ | Load_int _ | Load_f64 _ | Store_int _
  | Gep_op _ | Select_int _ ->
    None

(* Scan one body instruction: a read settles the classification; an
   overwrite without a read kills the watch (the fault vanished). *)
let fu_scan_instr st (ci : cinstr) ienv fenv =
  match st.fu_watch with
  | FU_off -> ()
  | FU_int (env, slot) ->
    if env == ienv then begin
      match fu_classify_int slot ci.op with
      | Some use ->
        st.first_use <- use;
        st.fu_watch <- FU_off
      | None -> (
        match ci.dest with
        | DInt (d, _) when d = slot -> st.fu_watch <- FU_off
        | _ -> ())
    end
  | FU_float (env, slot) ->
    if env == fenv then begin
      match fu_classify_float slot ci.op with
      | Some use ->
        st.first_use <- use;
        st.fu_watch <- FU_off
      | None -> (
        match ci.dest with
        | DFloat d when d = slot -> st.fu_watch <- FU_off
        | _ -> ())
    end

(* Scan a block's phi prefix: sources selected by [pred] are the reads
   (all before any write, matching the parallel evaluation), then phi
   destinations may overwrite the slot. *)
let fu_scan_phis st (phis : cphi array) pred ienv fenv =
  let scan reads writes =
    if Array.exists reads phis then begin
      st.first_use <- First_use.Udata;
      st.fu_watch <- FU_off
    end
    else if Array.exists writes phis then st.fu_watch <- FU_off
  in
  match st.fu_watch with
  | FU_off -> ()
  | FU_int (env, slot) ->
    if env == ienv then
      scan
        (fun p ->
          Array.length p.psrcs_i > 0
          && match p.psrcs_i.(pred) with S s -> s = slot | C _ -> false)
        (fun p -> match p.pdest with DInt (d, _) -> d = slot | _ -> false)
  | FU_float (env, slot) ->
    if env == fenv then
      scan
        (fun p ->
          Array.length p.psrcs_f > 0
          && match p.psrcs_f.(pred) with FS s -> s = slot | FC _ -> false)
        (fun p -> match p.pdest with DFloat d -> d = slot | _ -> false)

let fu_scan_term st term ienv fenv =
  match st.fu_watch with
  | FU_off -> ()
  | FU_int (env, slot) ->
    if env == ienv then begin
      let r = function S s -> s = slot | C _ -> false in
      match term with
      | Tcond (c, _, _) when r c ->
        st.first_use <- First_use.Ucontrol;
        st.fu_watch <- FU_off
      | Tret (Some (AI op)) when r op ->
        st.first_use <- First_use.Udata;
        st.fu_watch <- FU_off
      | _ -> ()
    end
  | FU_float (env, slot) ->
    if env == fenv then begin
      match term with
      | Tret (Some (AF (FS s))) when s = slot ->
        st.first_use <- First_use.Udata;
        st.fu_watch <- FU_off
      | _ -> ()
    end

let iv ienv op = match op with S i -> ienv.(i) | C c -> c
let fv fenv op = match op with FS i -> fenv.(i) | FC c -> c

(* --- fault-space enumeration scans (Enumerate mode only) ---

   Mirror of the first-use scans, but tracking EVERY live candidate
   destination at once via the frame-local [e_env], classifying each
   read (full / masked-bits / compare funnel) into the slot's
   Fault_space builder, and ending a value's record when its slot is
   overwritten.  Soundness of the refinements rests on the single-fault
   induction: up to each read, all machine state except the corrupted
   slot equals the golden run, so current env values ARE the values the
   faulty trial would observe for every other operand. *)

let enum_read_i (e_env : Fault_space.builder option array) op k =
  match op with
  | S s -> ( match e_env.(s) with Some b -> k b | None -> ())
  | C _ -> ()

let enum_read_f (e_env : Fault_space.builder option array) op k =
  match op with
  | FS s -> ( match e_env.(s) with Some b -> k b | None -> ())
  | FC _ -> ()

(* A compare's funnel on each tracked operand: with two distinct live
   instances, each one's single-fault trial sees the other operand
   golden, so both funnels hold. *)
let funnels funnel ta tb =
  match (ta, tb) with
  | None, None -> ()
  | Some (s, bld), None | None, Some (s, bld) -> funnel s bld
  | Some (s1, b1), Some (s2, b2) ->
    funnel s1 b1;
    if s1 <> s2 then funnel s2 b2

let enum_scan_instr (ci : cinstr) e_env ienv fenv =
  let full op = enum_read_i e_env op Fault_space.read_full in
  let fullf op = enum_read_f e_env op Fault_space.read_full in
  (match ci.op with
  | Ibin (op, a, b, w) -> (
    (* Logic/shift with one constant consume only some result-visible
       bits; anything else reads every bit of both operands. *)
    let masked s mask =
      match e_env.(s) with
      | Some bld -> Fault_space.read_bits bld ~mask
      | None -> ()
    in
    match (op, a, b) with
    | (Ir.Instr.And | Ir.Instr.Or), S s, C c when w < Word.width ->
      let u = Word.to_unsigned w c in
      let mask =
        match op with
        | Ir.Instr.And -> u
        | _ -> ((1 lsl w) - 1) land lnot u
      in
      masked s mask
    | (Ir.Instr.And | Ir.Instr.Or), C c, S s when w < Word.width ->
      let u = Word.to_unsigned w c in
      let mask =
        match op with
        | Ir.Instr.And -> u
        | _ -> ((1 lsl w) - 1) land lnot u
      in
      masked s mask
    | (Ir.Instr.Shl | Ir.Instr.Lshr | Ir.Instr.Ashr), S s, C k
      when w < Word.width && k > 0 && k < w ->
      let mask =
        match op with
        | Ir.Instr.Shl -> (1 lsl (w - k)) - 1
        | _ -> ((1 lsl (w - k)) - 1) lsl k
      in
      masked s mask
    | _ ->
      full a;
      full b)
  | Fbin (_, a, b) ->
    fullf a;
    fullf b
  | Icmp_op (p, a, b, w) ->
    (* Compare funnel: in a trial corrupting a tracked operand, the
       other operand holds its golden (= current) value, so the flipped
       value reaches downstream execution only through the boolean
       result — key every bit by it. *)
    let lane = Lane.int w in
    let funnel s bld =
      let v = ienv.(s) in
      let sub op v' = match op with S t when t = s -> v' | _ -> iv ienv op in
      let keys =
        Array.init (Lane.width lane) (fun bit ->
            let v' = Lane.flip lane v bit in
            Bool.to_int (icmp_eval p w (sub a v') (sub b v')))
      in
      Fault_space.read_funnel bld ~keys
        ~gold_key:(Bool.to_int (icmp_eval p w (iv ienv a) (iv ienv b)))
    in
    let t = function
      | S s -> ( match e_env.(s) with Some b -> Some (s, b) | None -> None)
      | C _ -> None
    in
    funnels funnel (t a) (t b)
  | Fcmp_op (p, a, b) ->
    let funnel s bld =
      let v = fenv.(s) in
      let sub op v' = match op with FS t when t = s -> v' | _ -> fv fenv op in
      let keys =
        Array.init (Lane.width Lane.f64) (fun bit ->
            let v' = Lane.flip Lane.f64 v bit in
            Bool.to_int (fcmp_eval p (sub a v') (sub b v')))
      in
      Fault_space.read_funnel bld ~keys
        ~gold_key:(Bool.to_int (fcmp_eval p (fv fenv a) (fv fenv b)))
    in
    let t = function
      | FS s -> ( match e_env.(s) with Some b -> Some (s, b) | None -> None)
      | FC _ -> None
    in
    funnels funnel (t a) (t b)
  | Canon (a, w) | Unsign (a, w) ->
    enum_read_i e_env a (fun b -> Fault_space.read_masked b ~low:w)
  | Sext_i1 a | Move_int a | Si_to_fp a -> full a
  | Fp_to_si (a, _) -> fullf a
  | Alloca_op _ -> ()
  | Load_int (p, _) | Load_f64 p -> full p
  | Store_int (v, p, w) ->
    enum_read_i e_env v (fun b -> Fault_space.read_masked b ~low:w);
    full p
  | Store_f64 (v, p) ->
    fullf v;
    full p
  | Gep_op (base, _, scaled) ->
    full base;
    Array.iter (fun (idx, _) -> full idx) scaled
  | Select_int (c, a, b) ->
    full c;
    (* golden condition selects the operand the trial actually reads *)
    full (if iv ienv c <> 0 then a else b)
  | Select_f64 (c, a, b) ->
    full c;
    fullf (if iv ienv c <> 0 then a else b)
  | Call_op (_, args) | Intr_op (_, args) ->
    Array.iter (function AI op -> full op | AF op -> fullf op) args);
  (* an overwrite ends the tracked value's lifetime (for a call this
     fires early, but the suspended caller's slots cannot be read by
     the callee, which has its own envs) *)
  match ci.dest with
  | DInt (slot, _) | DFloat slot -> e_env.(slot) <- None
  | DNone -> ()

let enum_scan_phis (phis : cphi array) pred e_env =
  (* parallel evaluation: all reads (phi = copy, full consumption)
     happen before any destination write *)
  Array.iter
    (fun p ->
      if Array.length p.psrcs_f > 0 then
        enum_read_f e_env p.psrcs_f.(pred) Fault_space.read_full
      else if Array.length p.psrcs_i > 0 then
        enum_read_i e_env p.psrcs_i.(pred) Fault_space.read_full)
    phis;
  Array.iter
    (fun p ->
      match p.pdest with
      | DInt (slot, _) | DFloat slot -> e_env.(slot) <- None
      | DNone -> ())
    phis

let enum_scan_term term e_env =
  match term with
  | Tcond (c, _, _) -> enum_read_i e_env c Fault_space.read_full
  | Tret (Some (AI op)) -> enum_read_i e_env op Fault_space.read_full
  | Tret (Some (AF op)) -> enum_read_f e_env op Fault_space.read_full
  | Tret None | Tbr _ -> ()

let eval_arg ienv fenv = function
  | AI op -> RI (iv ienv op)
  | AF op -> RF (fv fenv op)

(* Sentinel for a suspended frame whose rejoin digest has not been
   computed yet.  A real digest colliding with it merely forces a
   recomputation. *)
let rj_dirty = min_int

let push_frame st (f : cfunc) (args : ret array) ret_instr =
  st.depth <- st.depth + 1;
  if st.depth > max_call_depth then Trap.raise_trap Trap.Stack_overflow;
  let ienv = Array.make f.nslots 0 in
  let fenv = Array.make f.nslots 0.0 in
  Array.iteri
    (fun k (slot, is_float) ->
      match args.(k) with
      | RI v -> ienv.(slot) <- v
      | RF v -> fenv.(slot) <- v
      | RVoid -> ignore is_float)
    f.params;
  let e_env =
    match st.phase with
    | Phase.Enumerate _ -> Array.make f.nslots None
    | _ -> [||]
  in
  st.stack <-
    {
      func = f;
      ienv;
      fenv;
      fblock = 0;
      pred = 0;
      pos = -1;
      saved_sp = st.sp;
      ret_instr;
      e_env;
      rj_dig = rj_dirty;
    }
    :: st.stack

(* A call instruction: the caller frame suspends at [pos], just past
   it, and the callee's frame is pushed.  The caller's envs are now
   immutable until the callee returns; its digest is computed lazily in
   [check_key], so probe-free machines never pay for it. *)
let enter_call st funcs fr ci fidx args ~pos =
  let evaluated = Array.map (eval_arg fr.ienv fr.fenv) args in
  fr.pos <- pos;
  fr.rj_dig <- rj_dirty;
  push_frame st funcs.(fidx) evaluated (Some ci)

let copy_frame fr =
  { fr with ienv = Array.copy fr.ienv; fenv = Array.copy fr.fenv }

(* Fingerprint of the (at most two) aligned 8-byte cells a [bytes]-wide
   access at [addr] touches — the memory-delta unit of the rejoin
   digest. *)
let cells_fp mem addr bytes =
  let lo = addr land lnot 7 in
  let hi = (addr + bytes - 1) land lnot 7 in
  let fp = Memory.cell_fp mem lo in
  if hi = lo then fp else fp lxor Memory.cell_fp mem hi

let store_bytes w = match w with 1 | 8 -> 1 | 16 -> 2 | 32 -> 4 | _ -> 8

(* Execute one non-call body instruction. *)
let exec_op st (ci : cinstr) ienv fenv =
  match ci.op with
  | Ibin (op, a, bb, w) ->
    let x = iv ienv a and y = iv ienv bb in
    let v =
      match op with
      | Ir.Instr.Add -> Word.canon w (x + y)
      | Ir.Instr.Sub -> Word.canon w (x - y)
      | Ir.Instr.Mul -> Word.canon w (x * y)
      | Ir.Instr.Sdiv ->
        if y = 0 || (y = -1 && x = min_int) then
          Trap.raise_trap Trap.Division_by_zero
        else Word.canon w (x / y)
      | Ir.Instr.Srem ->
        if y = 0 || (y = -1 && x = min_int) then
          Trap.raise_trap Trap.Division_by_zero
        else Word.canon w (x mod y)
      | Ir.Instr.Udiv ->
        if y = 0 then Trap.raise_trap Trap.Division_by_zero
        else if w < Word.width then
          Word.canon w (Word.to_unsigned w x / Word.to_unsigned w y)
        else
          Int64.to_int
            (Int64.unsigned_div
               (Int64.logand (Int64.of_int x) 0x7fffffffffffffffL)
               (Int64.logand (Int64.of_int y) 0x7fffffffffffffffL))
      | Ir.Instr.Urem ->
        if y = 0 then Trap.raise_trap Trap.Division_by_zero
        else if w < Word.width then
          Word.canon w (Word.to_unsigned w x mod Word.to_unsigned w y)
        else
          Int64.to_int
            (Int64.unsigned_rem
               (Int64.logand (Int64.of_int x) 0x7fffffffffffffffL)
               (Int64.logand (Int64.of_int y) 0x7fffffffffffffffL))
      | Ir.Instr.And -> x land y
      | Ir.Instr.Or -> x lor y
      | Ir.Instr.Xor -> x lxor y
      | Ir.Instr.Shl -> Word.canon w (Word.shl x y)
      | Ir.Instr.Lshr -> Word.canon w (Word.lshr w x y)
      | Ir.Instr.Ashr -> Word.ashr x y
      | Ir.Instr.Fadd | Ir.Instr.Fsub | Ir.Instr.Fmul | Ir.Instr.Fdiv ->
        assert false
    in
    (match ci.dest with DInt (slot, _) -> ienv.(slot) <- v | _ -> ())
  | Fbin (op, a, bb) ->
    let x = fv fenv a and y = fv fenv bb in
    let v =
      match op with
      | Ir.Instr.Fadd -> x +. y
      | Ir.Instr.Fsub -> x -. y
      | Ir.Instr.Fmul -> x *. y
      | Ir.Instr.Fdiv -> x /. y
      | _ -> assert false
    in
    (match ci.dest with DFloat slot -> fenv.(slot) <- v | _ -> ())
  | Icmp_op (p, a, bb, w) ->
    let v = icmp_eval p w (iv ienv a) (iv ienv bb) in
    (match ci.dest with
    | DInt (slot, _) -> ienv.(slot) <- Bool.to_int v
    | _ -> ())
  | Fcmp_op (p, a, bb) ->
    let v = fcmp_eval p (fv fenv a) (fv fenv bb) in
    (match ci.dest with
    | DInt (slot, _) -> ienv.(slot) <- Bool.to_int v
    | _ -> ())
  | Canon (a, w) ->
    (match ci.dest with
    | DInt (slot, _) -> ienv.(slot) <- Word.canon w (iv ienv a)
    | _ -> ())
  | Unsign (a, w) ->
    (match ci.dest with
    | DInt (slot, _) -> ienv.(slot) <- Word.to_unsigned w (iv ienv a)
    | _ -> ())
  | Sext_i1 a ->
    (match ci.dest with
    | DInt (slot, _) -> ienv.(slot) <- -(iv ienv a land 1)
    | _ -> ())
  | Move_int a ->
    (match ci.dest with
    | DInt (slot, _) -> ienv.(slot) <- iv ienv a
    | _ -> ())
  | Fp_to_si (a, w) ->
    let f = fv fenv a in
    let v =
      (* cvttsd2si semantics: out-of-range and NaN produce the
         "integer indefinite" value (the minimum integer). *)
      if Float.is_nan f || f >= 4.611686018427387904e18
         || f <= -4.611686018427387904e18
      then min_int
      else Word.canon w (int_of_float f)
    in
    (match ci.dest with DInt (slot, _) -> ienv.(slot) <- v | _ -> ())
  | Si_to_fp a ->
    (match ci.dest with
    | DFloat slot -> fenv.(slot) <- float_of_int (iv ienv a)
    | _ -> ())
  | Alloca_op (size, align) ->
    let addr = (st.sp - size) land lnot (align - 1) in
    if addr < Memory.stack_top - Memory.default_stack_bytes then
      Trap.raise_trap Trap.Stack_overflow;
    st.sp <- addr;
    (match ci.dest with DInt (slot, _) -> ienv.(slot) <- addr | _ -> ())
  | Load_int (p, w) ->
    let addr = iv ienv p in
    let v =
      match w with
      | 1 -> Memory.read_u8 st.mem addr land 1
      | 8 -> Word.canon 8 (Memory.read_u8 st.mem addr)
      | 16 -> Word.canon 16 (Memory.read_u16 st.mem addr)
      | 32 -> Word.canon 32 (Memory.read_u32 st.mem addr)
      | _ -> Memory.read_word st.mem addr
    in
    (match ci.dest with DInt (slot, _) -> ienv.(slot) <- v | _ -> ())
  | Load_f64 p ->
    let v = Memory.read_f64 st.mem (iv ienv p) in
    (match ci.dest with DFloat slot -> fenv.(slot) <- v | _ -> ())
  | Store_int (v, p, w) ->
    let addr = iv ienv p and x = iv ienv v in
    let pre =
      match st.rej with
      | None -> 0
      | Some _ -> cells_fp st.mem addr (store_bytes w)
    in
    (match w with
    | 1 | 8 -> Memory.write_u8 st.mem addr (x land 0xff)
    | 16 -> Memory.write_u16 st.mem addr (x land 0xffff)
    | 32 -> Memory.write_u32 st.mem addr (x land 0xffffffff)
    | _ -> Memory.write_word st.mem addr x);
    (match st.rej with
    | None -> ()
    | Some rj ->
      rj.rj_acc <- rj.rj_acc lxor pre lxor cells_fp st.mem addr (store_bytes w))
  | Store_f64 (v, p) ->
    let addr = iv ienv p in
    let pre =
      match st.rej with None -> 0 | Some _ -> cells_fp st.mem addr 8
    in
    Memory.write_f64 st.mem addr (fv fenv v);
    (match st.rej with
    | None -> ()
    | Some rj -> rj.rj_acc <- rj.rj_acc lxor pre lxor cells_fp st.mem addr 8)
  | Gep_op (base, disp, scaled) ->
    let addr = ref (iv ienv base + disp) in
    for s = 0 to Array.length scaled - 1 do
      let idx, scale = scaled.(s) in
      addr := !addr + (iv ienv idx * scale)
    done;
    (match ci.dest with DInt (slot, _) -> ienv.(slot) <- !addr | _ -> ())
  | Select_int (cond, a, bb) ->
    (match ci.dest with
    | DInt (slot, _) ->
      ienv.(slot) <- (if iv ienv cond <> 0 then iv ienv a else iv ienv bb)
    | _ -> ())
  | Select_f64 (cond, a, bb) ->
    (match ci.dest with
    | DFloat slot ->
      fenv.(slot) <- (if iv ienv cond <> 0 then fv fenv a else fv fenv bb)
    | _ -> ())
  | Call_op _ -> assert false (* handled by the dispatch loop *)
  | Intr_op (intr, args) -> (
    let int_arg k =
      match args.(k) with AI op -> iv ienv op | AF op -> int_of_float (fv fenv op)
    in
    let float_arg k =
      match args.(k) with AF op -> fv fenv op | AI op -> float_of_int (iv ienv op)
    in
    match intr with
    | Ir.Instr.Print_i64 -> emit st (string_of_int (int_arg 0))
    | Ir.Instr.Print_f64 -> emit st (Printf.sprintf "%.6f" (float_arg 0))
    | Ir.Instr.Print_char ->
      emit st (String.make 1 (Char.chr (int_arg 0 land 0xff)))
    | Ir.Instr.Print_newline -> emit st "\n"
    | Ir.Instr.Heap_alloc ->
      let n = int_arg 0 in
      let n =
        if n < 0 || n > 1 lsl 30 then
          Trap.raise_trap (Trap.Unmapped_write (-1))
        else n
      in
      let addr = Memory.heap_alloc st.mem n in
      (match ci.dest with DInt (slot, _) -> ienv.(slot) <- addr | _ -> ())
    | Ir.Instr.Input_i64 ->
      let k = int_arg 0 in
      let v =
        if k >= 0 && k < Array.length st.inputs then st.inputs.(k) else 0
      in
      (match ci.dest with DInt (slot, _) -> ienv.(slot) <- v | _ -> ())
    | Ir.Instr.Sqrt ->
      (match ci.dest with
      | DFloat slot -> fenv.(slot) <- sqrt (float_arg 0)
      | _ -> ())
    | Ir.Instr.Fabs ->
      (match ci.dest with
      | DFloat slot -> fenv.(slot) <- abs_float (float_arg 0)
      | _ -> ()))

(* --- the dispatch table ---

   [compile] translates each body instruction, once per program, into
   a closure ([opfn]) with operand shapes, widths and destination
   slots resolved at compile time.  The closures are exact drop-in
   replacements for [exec_op] — same results, traps, rejoin-digest
   dance and output, byte for byte (the compile differential tests
   prove it) — and every execution mode dispatches through the table.
   [reference] swaps every entry for a closure over [exec_op]: the
   tree-walker the differential tests hold the table against. *)

(* Placeholder for positions the table never dispatches (calls,
   handled by [exec_frames] itself) and gids outside any block
   body. *)
let op_unreachable : opfn = fun _ _ _ -> assert false

let gi = function
  | S s -> fun (ienv : int array) -> Array.unsafe_get ienv s
  | C c -> fun _ -> c

let gf = function
  | FS s -> fun (fenv : float array) -> Array.unsafe_get fenv s
  | FC c -> fun _ -> c

(* [Word.canon w] with the width resolved at compile time. *)
let canon_cl w =
  if w >= Word.width then fun v -> v
  else if w = 1 then fun v -> v land 1
  else
    let sh = Sys.int_size - w in
    fun v -> (v lsl sh) asr sh

(* [Ibin] closures: Add/Sub/Mul and the logic ops get operand-shape
   specializations (the hot arms); division and shifts keep the
   interpreter's code verbatim behind generic getters. *)
let ibin_cl op a b w d : opfn =
  let gx = gi a and gy = gi b in
  let cn = canon_cl w in
  match (op : Ir.Instr.binop) with
  | Ir.Instr.Add ->
    if w >= Word.width then (
      match (a, b) with
      | S x, S y ->
        fun _ i _ ->
          Array.unsafe_set i d (Array.unsafe_get i x + Array.unsafe_get i y)
      | S x, C c | C c, S x ->
        fun _ i _ -> Array.unsafe_set i d (Array.unsafe_get i x + c)
      | C c1, C c2 ->
        let v = c1 + c2 in
        fun _ i _ -> Array.unsafe_set i d v)
    else fun _ i _ -> Array.unsafe_set i d (cn (gx i + gy i))
  | Ir.Instr.Sub ->
    if w >= Word.width then (
      match (a, b) with
      | S x, S y ->
        fun _ i _ ->
          Array.unsafe_set i d (Array.unsafe_get i x - Array.unsafe_get i y)
      | S x, C c ->
        fun _ i _ -> Array.unsafe_set i d (Array.unsafe_get i x - c)
      | C c, S y ->
        fun _ i _ -> Array.unsafe_set i d (c - Array.unsafe_get i y)
      | C c1, C c2 ->
        let v = c1 - c2 in
        fun _ i _ -> Array.unsafe_set i d v)
    else fun _ i _ -> Array.unsafe_set i d (cn (gx i - gy i))
  | Ir.Instr.Mul ->
    if w >= Word.width then (
      match (a, b) with
      | S x, S y ->
        fun _ i _ ->
          Array.unsafe_set i d (Array.unsafe_get i x * Array.unsafe_get i y)
      | S x, C c | C c, S x ->
        fun _ i _ -> Array.unsafe_set i d (Array.unsafe_get i x * c)
      | C c1, C c2 ->
        let v = c1 * c2 in
        fun _ i _ -> Array.unsafe_set i d v)
    else fun _ i _ -> Array.unsafe_set i d (cn (gx i * gy i))
  | Ir.Instr.And -> (
    match (a, b) with
    | S x, S y ->
      fun _ i _ ->
        Array.unsafe_set i d (Array.unsafe_get i x land Array.unsafe_get i y)
    | S x, C c | C c, S x ->
      fun _ i _ -> Array.unsafe_set i d (Array.unsafe_get i x land c)
    | C c1, C c2 ->
      let v = c1 land c2 in
      fun _ i _ -> Array.unsafe_set i d v)
  | Ir.Instr.Or -> (
    match (a, b) with
    | S x, S y ->
      fun _ i _ ->
        Array.unsafe_set i d (Array.unsafe_get i x lor Array.unsafe_get i y)
    | S x, C c | C c, S x ->
      fun _ i _ -> Array.unsafe_set i d (Array.unsafe_get i x lor c)
    | C c1, C c2 ->
      let v = c1 lor c2 in
      fun _ i _ -> Array.unsafe_set i d v)
  | Ir.Instr.Xor -> (
    match (a, b) with
    | S x, S y ->
      fun _ i _ ->
        Array.unsafe_set i d (Array.unsafe_get i x lxor Array.unsafe_get i y)
    | S x, C c | C c, S x ->
      fun _ i _ -> Array.unsafe_set i d (Array.unsafe_get i x lxor c)
    | C c1, C c2 ->
      let v = c1 lxor c2 in
      fun _ i _ -> Array.unsafe_set i d v)
  | Ir.Instr.Sdiv ->
    fun _ i _ ->
      let x = gx i and y = gy i in
      if y = 0 || (y = -1 && x = min_int) then
        Trap.raise_trap Trap.Division_by_zero
      else Array.unsafe_set i d (cn (x / y))
  | Ir.Instr.Srem ->
    fun _ i _ ->
      let x = gx i and y = gy i in
      if y = 0 || (y = -1 && x = min_int) then
        Trap.raise_trap Trap.Division_by_zero
      else Array.unsafe_set i d (cn (x mod y))
  | Ir.Instr.Udiv ->
    if w < Word.width then
      fun _ i _ ->
        let x = gx i and y = gy i in
        if y = 0 then Trap.raise_trap Trap.Division_by_zero
        else
          Array.unsafe_set i d
            (Word.canon w (Word.to_unsigned w x / Word.to_unsigned w y))
    else
      fun _ i _ ->
        let x = gx i and y = gy i in
        if y = 0 then Trap.raise_trap Trap.Division_by_zero
        else
          Array.unsafe_set i d
            (Int64.to_int
               (Int64.unsigned_div
                  (Int64.logand (Int64.of_int x) 0x7fffffffffffffffL)
                  (Int64.logand (Int64.of_int y) 0x7fffffffffffffffL)))
  | Ir.Instr.Urem ->
    if w < Word.width then
      fun _ i _ ->
        let x = gx i and y = gy i in
        if y = 0 then Trap.raise_trap Trap.Division_by_zero
        else
          Array.unsafe_set i d
            (Word.canon w (Word.to_unsigned w x mod Word.to_unsigned w y))
    else
      fun _ i _ ->
        let x = gx i and y = gy i in
        if y = 0 then Trap.raise_trap Trap.Division_by_zero
        else
          Array.unsafe_set i d
            (Int64.to_int
               (Int64.unsigned_rem
                  (Int64.logand (Int64.of_int x) 0x7fffffffffffffffL)
                  (Int64.logand (Int64.of_int y) 0x7fffffffffffffffL)))
  | Ir.Instr.Shl -> fun _ i _ -> Array.unsafe_set i d (cn (Word.shl (gx i) (gy i)))
  | Ir.Instr.Lshr ->
    fun _ i _ -> Array.unsafe_set i d (cn (Word.lshr w (gx i) (gy i)))
  | Ir.Instr.Ashr -> fun _ i _ -> Array.unsafe_set i d (Word.ashr (gx i) (gy i))
  | Ir.Instr.Fadd | Ir.Instr.Fsub | Ir.Instr.Fmul | Ir.Instr.Fdiv ->
    op_unreachable (* compile_op routes float Ibins to the fallback *)

let icmp_cl p a b w d : opfn =
  let gx = gi a and gy = gi b in
  let set (i : int array) c = Array.unsafe_set i d (if c then 1 else 0) in
  match (p : Ir.Instr.icmp) with
  | Ir.Instr.Ieq -> (
    match (a, b) with
    | S x, S y ->
      fun _ i _ -> set i (Array.unsafe_get i x = Array.unsafe_get i y)
    | S x, C c | C c, S x -> fun _ i _ -> set i (Array.unsafe_get i x = c)
    | _ -> fun _ i _ -> set i (gx i = gy i))
  | Ir.Instr.Ine -> (
    match (a, b) with
    | S x, S y ->
      fun _ i _ -> set i (Array.unsafe_get i x <> Array.unsafe_get i y)
    | S x, C c | C c, S x -> fun _ i _ -> set i (Array.unsafe_get i x <> c)
    | _ -> fun _ i _ -> set i (gx i <> gy i))
  | Ir.Instr.Islt -> (
    match (a, b) with
    | S x, S y ->
      fun _ i _ -> set i (Array.unsafe_get i x < Array.unsafe_get i y)
    | S x, C c -> fun _ i _ -> set i (Array.unsafe_get i x < c)
    | C c, S y -> fun _ i _ -> set i (c < Array.unsafe_get i y)
    | _ -> fun _ i _ -> set i (gx i < gy i))
  | Ir.Instr.Isle -> (
    match (a, b) with
    | S x, S y ->
      fun _ i _ -> set i (Array.unsafe_get i x <= Array.unsafe_get i y)
    | S x, C c -> fun _ i _ -> set i (Array.unsafe_get i x <= c)
    | C c, S y -> fun _ i _ -> set i (c <= Array.unsafe_get i y)
    | _ -> fun _ i _ -> set i (gx i <= gy i))
  | Ir.Instr.Isgt -> (
    match (a, b) with
    | S x, S y ->
      fun _ i _ -> set i (Array.unsafe_get i x > Array.unsafe_get i y)
    | S x, C c -> fun _ i _ -> set i (Array.unsafe_get i x > c)
    | C c, S y -> fun _ i _ -> set i (c > Array.unsafe_get i y)
    | _ -> fun _ i _ -> set i (gx i > gy i))
  | Ir.Instr.Isge -> (
    match (a, b) with
    | S x, S y ->
      fun _ i _ -> set i (Array.unsafe_get i x >= Array.unsafe_get i y)
    | S x, C c -> fun _ i _ -> set i (Array.unsafe_get i x >= c)
    | C c, S y -> fun _ i _ -> set i (c >= Array.unsafe_get i y)
    | _ -> fun _ i _ -> set i (gx i >= gy i))
  | Ir.Instr.Iult ->
    if w >= Word.width then
      fun _ i _ -> set i (gx i lxor min_int < gy i lxor min_int)
    else
      let m = (1 lsl w) - 1 in
      fun _ i _ -> set i (gx i land m < gy i land m)
  | Ir.Instr.Iule ->
    if w >= Word.width then
      fun _ i _ -> set i (gx i lxor min_int <= gy i lxor min_int)
    else
      let m = (1 lsl w) - 1 in
      fun _ i _ -> set i (gx i land m <= gy i land m)
  | Ir.Instr.Iugt ->
    if w >= Word.width then
      fun _ i _ -> set i (gx i lxor min_int > gy i lxor min_int)
    else
      let m = (1 lsl w) - 1 in
      fun _ i _ -> set i (gx i land m > gy i land m)
  | Ir.Instr.Iuge ->
    if w >= Word.width then
      fun _ i _ -> set i (gx i lxor min_int >= gy i lxor min_int)
    else
      let m = (1 lsl w) - 1 in
      fun _ i _ -> set i (gx i land m >= gy i land m)

(* Fully shape-specialized so the float arithmetic stays unboxed
   inside a single closure body (a closure returning [float] would box
   its result on every call without flambda). *)
let fbin_cl op a b d : opfn =
  match ((op : Ir.Instr.binop), a, b) with
  | Ir.Instr.Fadd, FS x, FS y ->
    fun _ _ f ->
      Array.unsafe_set f d (Array.unsafe_get f x +. Array.unsafe_get f y)
  | Ir.Instr.Fadd, FS x, FC c ->
    fun _ _ f -> Array.unsafe_set f d (Array.unsafe_get f x +. c)
  | Ir.Instr.Fadd, FC c, FS y ->
    fun _ _ f -> Array.unsafe_set f d (c +. Array.unsafe_get f y)
  | Ir.Instr.Fadd, FC c1, FC c2 ->
    let v = c1 +. c2 in
    fun _ _ f -> Array.unsafe_set f d v
  | Ir.Instr.Fsub, FS x, FS y ->
    fun _ _ f ->
      Array.unsafe_set f d (Array.unsafe_get f x -. Array.unsafe_get f y)
  | Ir.Instr.Fsub, FS x, FC c ->
    fun _ _ f -> Array.unsafe_set f d (Array.unsafe_get f x -. c)
  | Ir.Instr.Fsub, FC c, FS y ->
    fun _ _ f -> Array.unsafe_set f d (c -. Array.unsafe_get f y)
  | Ir.Instr.Fsub, FC c1, FC c2 ->
    let v = c1 -. c2 in
    fun _ _ f -> Array.unsafe_set f d v
  | Ir.Instr.Fmul, FS x, FS y ->
    fun _ _ f ->
      Array.unsafe_set f d (Array.unsafe_get f x *. Array.unsafe_get f y)
  | Ir.Instr.Fmul, FS x, FC c ->
    fun _ _ f -> Array.unsafe_set f d (Array.unsafe_get f x *. c)
  | Ir.Instr.Fmul, FC c, FS y ->
    fun _ _ f -> Array.unsafe_set f d (c *. Array.unsafe_get f y)
  | Ir.Instr.Fmul, FC c1, FC c2 ->
    let v = c1 *. c2 in
    fun _ _ f -> Array.unsafe_set f d v
  | Ir.Instr.Fdiv, FS x, FS y ->
    fun _ _ f ->
      Array.unsafe_set f d (Array.unsafe_get f x /. Array.unsafe_get f y)
  | Ir.Instr.Fdiv, FS x, FC c ->
    fun _ _ f -> Array.unsafe_set f d (Array.unsafe_get f x /. c)
  | Ir.Instr.Fdiv, FC c, FS y ->
    fun _ _ f -> Array.unsafe_set f d (c /. Array.unsafe_get f y)
  | Ir.Instr.Fdiv, FC c1, FC c2 ->
    let v = c1 /. c2 in
    fun _ _ f -> Array.unsafe_set f d v
  | _ -> op_unreachable (* integer binop in Fbin: impossible by construction *)

let fcmp_cl p a b d : opfn =
  let gx = gf a and gy = gf b in
  let set (i : int array) c = Array.unsafe_set i d (if c then 1 else 0) in
  match (p : Ir.Instr.fcmp) with
  | Ir.Instr.Feq -> fun _ i f -> set i (gx f = gy f)
  | Ir.Instr.Fne ->
    fun _ i f ->
      let x = gx f and y = gy f in
      set i (x < y || x > y)
  | Ir.Instr.Flt -> fun _ i f -> set i (gx f < gy f)
  | Ir.Instr.Fle -> fun _ i f -> set i (gx f <= gy f)
  | Ir.Instr.Fgt -> fun _ i f -> set i (gx f > gy f)
  | Ir.Instr.Fge -> fun _ i f -> set i (gx f >= gy f)

(* Loads go through the width-specialized single-page-lookup memory
   accessors; the byte-composed interpreter path and these are
   byte-for-byte equivalent (same traps, same straddle handling). *)
let load_cl p w d : opfn =
  let ga = gi p in
  match w with
  | 1 -> (
    match p with
    | S s ->
      fun st i _ ->
        Array.unsafe_set i d
          (Memory.read_u8_fast st.mem (Array.unsafe_get i s) land 1)
    | C _ ->
      fun st i _ -> Array.unsafe_set i d (Memory.read_u8_fast st.mem (ga i) land 1))
  | 8 ->
    let sh = Sys.int_size - 8 in
    (match p with
    | S s ->
      fun st i _ ->
        Array.unsafe_set i d
          ((Memory.read_u8_fast st.mem (Array.unsafe_get i s) lsl sh) asr sh)
    | C _ ->
      fun st i _ ->
        Array.unsafe_set i d ((Memory.read_u8_fast st.mem (ga i) lsl sh) asr sh))
  | 16 ->
    let sh = Sys.int_size - 16 in
    (match p with
    | S s ->
      fun st i _ ->
        Array.unsafe_set i d
          ((Memory.read_u16_fast st.mem (Array.unsafe_get i s) lsl sh) asr sh)
    | C _ ->
      fun st i _ ->
        Array.unsafe_set i d ((Memory.read_u16_fast st.mem (ga i) lsl sh) asr sh))
  | 32 ->
    let sh = Sys.int_size - 32 in
    (match p with
    | S s ->
      fun st i _ ->
        Array.unsafe_set i d
          ((Memory.read_u32_fast st.mem (Array.unsafe_get i s) lsl sh) asr sh)
    | C _ ->
      fun st i _ ->
        Array.unsafe_set i d ((Memory.read_u32_fast st.mem (ga i) lsl sh) asr sh))
  | _ -> (
    match p with
    | S s ->
      fun st i _ ->
        Array.unsafe_set i d
          (Memory.read_word_fast st.mem (Array.unsafe_get i s))
    | C _ ->
      fun st i _ -> Array.unsafe_set i d (Memory.read_word_fast st.mem (ga i)))

let loadf_cl p d : opfn =
  match p with
  | S s ->
    fun st i f ->
      Array.unsafe_set f d (Memory.read_f64_fast st.mem (Array.unsafe_get i s))
  | C addr -> fun st _ f -> Array.unsafe_set f d (Memory.read_f64_fast st.mem addr)

(* Stores keep the interpreter's rejoin-digest dance verbatim: the
   before/after cell fingerprints bracket the write whenever a digest
   context is live. *)
let store_cl v p w : opfn =
  let gv = gi v and ga = gi p in
  let nb = store_bytes w in
  let wr : state -> int -> int -> unit =
    match w with
    | 1 | 8 -> fun st addr x -> Memory.write_u8_fast st.mem addr (x land 0xff)
    | 16 -> fun st addr x -> Memory.write_u16_fast st.mem addr (x land 0xffff)
    | 32 -> fun st addr x -> Memory.write_u32_fast st.mem addr (x land 0xffffffff)
    | _ -> fun st addr x -> Memory.write_word_fast st.mem addr x
  in
  fun st i _ ->
    let addr = ga i and x = gv i in
    match st.rej with
    | None -> wr st addr x
    | Some rj ->
      let pre = cells_fp st.mem addr nb in
      wr st addr x;
      rj.rj_acc <- rj.rj_acc lxor pre lxor cells_fp st.mem addr nb

let storef_cl v p : opfn =
  let ga = gi p in
  let gv = gf v in
  fun st i f ->
    let addr = ga i in
    match st.rej with
    | None -> Memory.write_f64_fast st.mem addr (gv f)
    | Some rj ->
      let pre = cells_fp st.mem addr 8 in
      Memory.write_f64_fast st.mem addr (gv f);
      rj.rj_acc <- rj.rj_acc lxor pre lxor cells_fp st.mem addr 8

let gep_cl base disp scaled d : opfn =
  match Array.length scaled with
  | 0 -> (
    match base with
    | C b ->
      let v = b + disp in
      fun _ i _ -> Array.unsafe_set i d v
    | S s ->
      if disp = 0 then
        fun _ i _ -> Array.unsafe_set i d (Array.unsafe_get i s)
      else fun _ i _ -> Array.unsafe_set i d (Array.unsafe_get i s + disp))
  | 1 -> (
    let idx, sc = scaled.(0) in
    match (base, idx) with
    | S sb, S si ->
      fun _ i _ ->
        Array.unsafe_set i d
          (Array.unsafe_get i sb + disp + (Array.unsafe_get i si * sc))
    | _ ->
      let gb = gi base and g0 = gi idx in
      fun _ i _ -> Array.unsafe_set i d (gb i + disp + (g0 i * sc)))
  | 2 ->
    let i0, s0 = scaled.(0) and i1, s1 = scaled.(1) in
    let gb = gi base and g0 = gi i0 and g1 = gi i1 in
    fun _ i _ ->
      Array.unsafe_set i d (gb i + disp + (g0 i * s0) + (g1 i * s1))
  | _ ->
    let gb = gi base in
    let parts = Array.map (fun (idx, sc) -> (gi idx, sc)) scaled in
    fun _ i _ ->
      let addr = ref (gb i + disp) in
      Array.iter (fun (g, sc) -> addr := !addr + (g i * sc)) parts;
      Array.unsafe_set i d !addr

let cast_canon_cl a w d : opfn =
  let cn = canon_cl w in
  match a with
  | S s -> fun _ i _ -> Array.unsafe_set i d (cn (Array.unsafe_get i s))
  | C c ->
    let v = Word.canon w c in
    fun _ i _ -> Array.unsafe_set i d v

let unsign_cl a w d : opfn =
  if w < Word.width then (
    let m = (1 lsl w) - 1 in
    match a with
    | S s -> fun _ i _ -> Array.unsafe_set i d (Array.unsafe_get i s land m)
    | C c ->
      let v = c land m in
      fun _ i _ -> Array.unsafe_set i d v)
  else
    (* invalid width: preserve [Word.to_unsigned]'s Invalid_argument *)
    let g = gi a in
    fun _ i _ -> Array.unsafe_set i d (Word.to_unsigned w (g i))

let sext_i1_cl a d : opfn =
  match a with
  | S s -> fun _ i _ -> Array.unsafe_set i d (-(Array.unsafe_get i s land 1))
  | C c ->
    let v = -(c land 1) in
    fun _ i _ -> Array.unsafe_set i d v

let move_int_cl a d : opfn =
  match a with
  | S s -> fun _ i _ -> Array.unsafe_set i d (Array.unsafe_get i s)
  | C c -> fun _ i _ -> Array.unsafe_set i d c

let fp_to_si_cl a w d : opfn =
  let g = gf a in
  let cn = canon_cl w in
  fun _ i f ->
    let x = g f in
    Array.unsafe_set i d
      (if
         Float.is_nan x || x >= 4.611686018427387904e18
         || x <= -4.611686018427387904e18
       then min_int
       else cn (int_of_float x))

let si_to_fp_cl a d : opfn =
  match a with
  | S s ->
    fun _ i f -> Array.unsafe_set f d (float_of_int (Array.unsafe_get i s))
  | C c ->
    let v = float_of_int c in
    fun _ _ f -> Array.unsafe_set f d v

let alloca_cl size align d : opfn =
  let am = lnot (align - 1) in
  let limit = Memory.stack_top - Memory.default_stack_bytes in
  fun st i _ ->
    let addr = (st.sp - size) land am in
    if addr < limit then Trap.raise_trap Trap.Stack_overflow;
    st.sp <- addr;
    Array.unsafe_set i d addr

let select_int_cl cond a b d : opfn =
  let gc = gi cond and ga = gi a and gb = gi b in
  fun _ i _ -> Array.unsafe_set i d (if gc i <> 0 then ga i else gb i)

let select_f64_cl cond a b d : opfn =
  let gc = gi cond and ga = gf a and gb = gf b in
  fun _ i f -> Array.unsafe_set f d (if gc i <> 0 then ga f else gb f)

(* Only the math intrinsics are worth a closure (raytrace's inner
   loop); everything with output or allocator side effects stays on
   the interpreter arm. *)
let intr_cl (ci : cinstr) intr args (fb : opfn) : opfn =
  match ((intr : Ir.Instr.intrinsic), ci.dest) with
  | Ir.Instr.Sqrt, DFloat d -> (
    match args with
    | [| AF (FS s) |] ->
      fun _ _ f -> Array.unsafe_set f d (sqrt (Array.unsafe_get f s))
    | _ -> fb)
  | Ir.Instr.Fabs, DFloat d -> (
    match args with
    | [| AF (FS s) |] ->
      fun _ _ f -> Array.unsafe_set f d (abs_float (Array.unsafe_get f s))
    | _ -> fb)
  | _ -> fb

(* One body instruction through the tree-walker: the fallback entry. *)
let walk_op (ci : cinstr) : opfn = fun st i f -> exec_op st ci i f

(* Compile one body instruction to a closure.  Any shape without a
   specialized arm — float [Ibin]s, intrinsics with side effects,
   mismatched destinations (where the interpreter computes, traps, and
   drops the result) — falls back to [walk_op], so the table can never
   diverge from the interpreter. *)
let compile_op (ci : cinstr) : opfn =
  let fb = walk_op ci in
  match (ci.op, ci.dest) with
  | ( Ibin
        ((Ir.Instr.Fadd | Ir.Instr.Fsub | Ir.Instr.Fmul | Ir.Instr.Fdiv), _, _, _),
      _ ) ->
    fb
  | Ibin (op, a, b, w), DInt (d, _) -> ibin_cl op a b w d
  | Fbin (op, a, b), DFloat d -> fbin_cl op a b d
  | Icmp_op (p, a, b, w), DInt (d, _) -> icmp_cl p a b w d
  | Fcmp_op (p, a, b), DInt (d, _) -> fcmp_cl p a b d
  | Canon (a, w), DInt (d, _) -> cast_canon_cl a w d
  | Unsign (a, w), DInt (d, _) -> unsign_cl a w d
  | Sext_i1 a, DInt (d, _) -> sext_i1_cl a d
  | Move_int a, DInt (d, _) -> move_int_cl a d
  | Fp_to_si (a, w), DInt (d, _) -> fp_to_si_cl a w d
  | Si_to_fp a, DFloat d -> si_to_fp_cl a d
  | Alloca_op (size, align), DInt (d, _) -> alloca_cl size align d
  | Load_int (p, w), DInt (d, _) -> load_cl p w d
  | Load_f64 p, DFloat d -> loadf_cl p d
  | Store_int (v, p, w), _ -> store_cl v p w
  | Store_f64 (v, p), _ -> storef_cl v p
  | Gep_op (base, disp, scaled), DInt (d, _) -> gep_cl base disp scaled d
  | Select_int (cond, a, b), DInt (d, _) -> select_int_cl cond a b d
  | Select_f64 (cond, a, b), DFloat d -> select_f64_cl cond a b d
  | Intr_op (intr, args), _ -> intr_cl ci intr args fb
  | Call_op _, _ -> fb (* [exec_frames] handles calls; never invoked *)
  | _, _ -> fb

(* [c] with every body instruction's table entry built by [op]. *)
let with_ops op (c : compiled) =
  let ops = Array.make (gid_limit c) op_unreachable in
  Array.iter
    (fun cf ->
      Array.iter
        (fun b -> Array.iter (fun ci -> ops.(ci.gid) <- op ci) b.body)
        cf.cblocks)
    c.cfuncs;
  { c with ops }

let compile ?classify prog = with_ops compile_op (lower ?classify prog)
let reference c = with_ops walk_op c

(* Digest of one frame's live state: function id, control position,
   stack watermark, and the slots in [live] (an encoded set from the
   liveness pass).  [pred] is excluded everywhere: boundaries sit just
   before a terminator, which always rewrites [pred] before the next
   phi prefix reads it, and suspended frames resume mid-body — so it
   is provably dead at every digested position. *)
let frame_digest fr pos (live : int array) =
  let h =
    ref (Rejoin.h3 (Rejoin.h2 fr.func.cindex fr.fblock) pos fr.saved_sp)
  in
  let ienv = fr.ienv and fenv = fr.fenv in
  for i = 0 to Array.length live - 1 do
    let e = Array.unsafe_get live i in
    h :=
      Rejoin.h2 !h
        (if e land 1 = 0 then Array.unsafe_get ienv (e lsr 1)
         else Rejoin.float_key (Array.unsafe_get fenv (e lsr 1)))
  done;
  !h

(* Digest of the full machine at a block-end boundary of the top frame
   [fr]: memory accumulator, stack shape, the top frame scanned over
   the block's [bend_live] set, every suspended frame's cached digest,
   and the allocator frontier (equal contents + equal frontier trap
   identically forever after). *)
let check_key (st : state) rj fr (b : cblock) =
  let h = ref (Rejoin.h3 rj.rj_acc st.sp st.depth) in
  h := Rejoin.h2 !h (frame_digest fr (Array.length b.body) b.bend_live);
  (match st.stack with
  | [] | [ _ ] -> ()
  | _ :: rest ->
    List.iter
      (fun fr' ->
        if fr'.rj_dig = rj_dirty then begin
          (* Suspended at the call just before [pos]; digest over the
             slots still readable after it returns.  Cached until the
             frame resumes and suspends again. *)
          let cb = fr'.func.cblocks.(fr'.fblock) in
          let ci = cb.body.(fr'.pos - 1) in
          fr'.rj_dig <- frame_digest fr' fr'.pos ci.clive
        end;
        h := Rejoin.h2 !h fr'.rj_dig)
      rest);
  Rejoin.h3 !h (Memory.heap_brk st.mem) (Memory.heap_mapped st.mem)

exception Rejoined

(* One landmark block-end boundary (all body instructions done,
   terminator next; every traversal of a landmark block passes exactly
   one such point, so a loop cannot dodge the probes).  Recording
   golden runs journal every landmark boundary; injected trials probe
   ({!Rejoin.probe}) at the first one [Rejoin.probe_gap] steps past
   their previous probe. *)
let rejoin_boundary (st : state) rj fr b =
  match rj.rj_rec with
  | Some bld ->
    Rejoin.add bld ~digest:(check_key st rj fr b) ~steps:st.steps
      ~outlen:(Buffer.length st.out)
  | None -> (
    match rj.rj_journal with
    | Some j
      when st.injected && st.steps >= rj.rj_next
           && (match st.fu_watch with FU_off -> true | _ -> false) ->
      rj.rj_next <- st.steps + Rejoin.probe_gap;
      let steps =
        Rejoin.probe j rj.rj_seen ~key:(check_key st rj fr b) ~steps:st.steps
          ~max_steps:st.max_steps st.out
      in
      if steps >= 0 then begin
        st.steps <- steps;
        if steps > st.max_steps then raise Outcome.Hang_limit;
        raise Rejoined
      end
    | _ -> ())

(* Whether the next block body may run on [exec_frames]' post-fault
   loop: the fault is in, no first-use watch is open and no
   propagation trace is recorded.  From then on [post_exec] would only
   decrement a spent countdown, [capture_dest] never matches again and
   no enumerate scan runs (an injected machine is not enumerating), so
   the body's only duties are counting steps and dispatching.  Nothing
   reopens a watch after the injection, so the answer is latched. *)
let post_fault st =
  st.post_fault
  || st.injected
     && (match st.fu_watch with FU_off -> true | _ -> false)
     && (match st.trace with None -> true | Some _ -> false)
     && begin
       st.post_fault <- true;
       true
     end

(* The dispatch loop over the explicit frame stack.  Instruction order,
   step counting, hang checks, [post_exec] and trace points are
   identical to the recursive interpreter this replaces; a call
   instruction's own instance (post_exec/trace on its destination)
   fires when its frame pops, i.e. after the callee returned — exactly
   where the recursive version ran it.

   An injected trial hands off at the first block-body entry where
   [post_fault] holds: from there each body runs on a second inner
   loop that only bumps [steps] and dispatches (calls still push their
   frame).  Phi prefixes, terminators, hang checks and
   [rejoin_boundary] keep one code path and run once per block.

   Returns [true] when the program ran to completion (stack empty) and
   [false] when a Forward-mode machine paused: paused just before the
   execution unit (phi prefix, body instruction, or returning call)
   that contains the first matching instance that would make [matched]
   exceed [ff_stop].  A paused machine can be resumed by calling again
   with a larger [ff_stop]. *)
let exec_frames (c : compiled) st =
  let funcs = c.cfuncs and ops = c.ops in
  (* The phase facts the loop tests, matched once; [fw] is only read
     when [forward] holds. *)
  let forward, fw =
    match st.phase with
    | Phase.Forward f -> (true, f)
    | _ -> (false, Phase.forward ())
  in
  let enum = match st.phase with Phase.Enumerate _ -> true | _ -> false in
  let finished = ref false in
  let running = ref true in
  while !running do
    match st.stack with
    | [] ->
      finished := true;
      running := false
    | fr :: rest ->
      let b = fr.func.cblocks.(fr.fblock) in
      let ienv = fr.ienv and fenv = fr.fenv in
      if fr.pos < 0 then begin
        (* Phi prefix: evaluated in parallel (all reads before any
           write), hence treated as one atomic unit — Forward pauses
           before the whole prefix when the target instance is inside. *)
        let nphis = Array.length b.phis in
        let nmatch =
          if forward && nphis > 0 then begin
            let n = ref 0 in
            for k = 0 to nphis - 1 do
              if b.phis.(k).pmask land st.inj_mask <> 0 then incr n
            done;
            !n
          end
          else 0
        in
        if nmatch > 0 && fw.matched + nmatch > fw.ff_stop then
          running := false
        else begin
          if nphis > 0 then begin
            fu_scan_phis st b.phis fr.pred ienv fenv;
            if enum then enum_scan_phis b.phis fr.pred fr.e_env;
            let tmp_i = Array.make nphis 0 in
            let tmp_f = Array.make nphis 0.0 in
            for k = 0 to nphis - 1 do
              let p = b.phis.(k) in
              if Array.length p.psrcs_f > 0 then
                tmp_f.(k) <- fv fenv p.psrcs_f.(fr.pred)
              else tmp_i.(k) <- iv ienv p.psrcs_i.(fr.pred)
            done;
            for k = 0 to nphis - 1 do
              let p = b.phis.(k) in
              if st.skip_capture then capture_dest st p.pmask p.pdest ienv fenv;
              (match p.pdest with
              | DInt (slot, _) -> ienv.(slot) <- tmp_i.(k)
              | DFloat slot -> fenv.(slot) <- tmp_f.(k)
              | DNone -> ());
              st.steps <- st.steps + 1;
              post_exec st p.pmask p.pgid p.pdest ienv fenv fr.e_env;
              trace_dest st p.pgid p.pdest ienv fenv
            done
          end;
          if st.steps > st.max_steps then raise Outcome.Hang_limit;
          fr.pos <- 0
        end
      end
      else begin
        let body = b.body in
        let n = Array.length body in
        let k = ref fr.pos in
        let dispatch = ref true in
        if post_fault st then
          (* The post-fault body loop: count and dispatch, nothing
             else (see [post_fault]). *)
          while !dispatch && !k < n do
            let ci = Array.unsafe_get body !k in
            st.steps <- st.steps + 1;
            match ci.op with
            | Call_op (fidx', args) ->
              dispatch := false;
              enter_call st funcs fr ci fidx' args ~pos:(!k + 1)
            | _ ->
              (Array.unsafe_get ops ci.gid) st ienv fenv;
              incr k
          done
        else
          while !dispatch && !k < n do
            let ci = body.(!k) in
            let is_call = match ci.op with Call_op _ -> true | _ -> false in
            if
              forward && (not is_call)
              && ci.mask land st.inj_mask <> 0
              && fw.matched >= fw.ff_stop
            then begin
              (* Pause before the instance that would overrun the stop. *)
              fr.pos <- !k;
              dispatch := false;
              running := false
            end
            else begin
              st.steps <- st.steps + 1;
              fu_scan_instr st ci ienv fenv;
              if enum then enum_scan_instr ci fr.e_env ienv fenv;
              match ci.op with
              | Call_op (fidx', args) ->
                dispatch := false;
                enter_call st funcs fr ci fidx' args ~pos:(!k + 1)
              | _ ->
                if st.skip_capture then
                  capture_dest st ci.mask ci.dest ienv fenv;
                (Array.unsafe_get ops ci.gid) st ienv fenv;
                if ci.mask <> 0 then
                  post_exec st ci.mask ci.gid ci.dest ienv fenv fr.e_env;
                trace_dest st ci.gid ci.dest ienv fenv;
                incr k
            end
          done;
        if !dispatch then begin
          fr.pos <- n;
          (match st.rej with
          | Some rj when b.landmark -> rejoin_boundary st rj fr b
          | _ -> ());
          (* A returning call is itself an instance (of its mask): in
             Forward mode pause before the terminator of a frame whose
             ret pops into a matching call instruction. *)
          let term_pause =
            forward
            && (match (b.term, fr.ret_instr) with
               | Tret _, Some ci ->
                 ci.mask land st.inj_mask <> 0 && fw.matched >= fw.ff_stop
               | _ -> false)
          in
          if term_pause then running := false
          else begin
            if st.steps > st.max_steps then raise Outcome.Hang_limit;
            st.steps <- st.steps + 1;
            fu_scan_term st b.term ienv fenv;
            if enum then enum_scan_term b.term fr.e_env;
            match b.term with
            | Tret arg ->
              let result =
                match arg with None -> RVoid | Some a -> eval_arg ienv fenv a
              in
              st.sp <- fr.saved_sp;
              st.depth <- st.depth - 1;
              st.stack <- rest;
              (match (rest, fr.ret_instr) with
              | parent :: _, Some ci ->
                if st.skip_capture then
                  capture_dest st ci.mask ci.dest parent.ienv parent.fenv;
                (match result with
                | RI v -> (
                  match ci.dest with
                  | DInt (slot, _) -> parent.ienv.(slot) <- v
                  | _ -> ())
                | RF v -> (
                  match ci.dest with
                  | DFloat slot -> parent.fenv.(slot) <- v
                  | _ -> ())
                | RVoid -> ());
                if ci.mask <> 0 then
                  post_exec st ci.mask ci.gid ci.dest parent.ienv parent.fenv
                    parent.e_env;
                trace_dest st ci.gid ci.dest parent.ienv parent.fenv
              | _ -> ())
            | Tbr (target, ord) ->
              fr.fblock <- target;
              fr.pred <- ord;
              fr.pos <- -1
            | Tcond (cnd, (t, tord), (f_, ford)) ->
              (if iv ienv cnd <> 0 then begin
                 fr.fblock <- t;
                 fr.pred <- tord
               end
               else begin
                 fr.fblock <- f_;
                 fr.pred <- ford
               end);
              fr.pos <- -1
          end
        end
      end
  done;
  !finished

let init_memory (c : compiled) =
  let mem = Memory.create () in
  if c.globals_len > 0 then
    Memory.map_region mem ~addr:Memory.globals_base ~len:c.globals_len;
  Memory.write_globals mem (Ir.Layout.size_of c.source) c.global_image;
  mem

(* Telemetry (lib/obs): a boolean load per completed run / ff trial
   when disabled — nothing per interpreted instruction. *)
let m_run_steps = Obs.Metrics.histogram "vm.ir.run_steps"
let m_ff_trials = Obs.Metrics.counter "vm.ir.ff_trials"
let m_ff_rebuilds = Obs.Metrics.counter "vm.ir.ff_rebuilds"
let m_checkpoint_depth = Obs.Metrics.histogram "vm.ir.checkpoint_depth"
let m_suffix_trials = Obs.Metrics.counter "vm.ir.suffix_trials"

let exec_to_stats (c : compiled) st =
  let outcome =
    match exec_frames c st with
    | _ -> Outcome.Finished (Buffer.contents st.out)
    | exception Rejoined ->
      (* The golden suffix is already spliced into [st.out] and
         [st.steps]; every other stats field was final at the match. *)
      Outcome.Finished (Buffer.contents st.out)
    | exception Trap.Trap t -> Outcome.Crashed t
    | exception Outcome.Hang_limit -> Outcome.Hung
    | exception Stack_overflow -> Outcome.Crashed Trap.Stack_overflow
  in
  Obs.Metrics.observe m_run_steps st.steps;
  if st.post_fault then Obs.Metrics.incr m_suffix_trials;
  {
    Outcome.outcome;
    steps = st.steps;
    injected = st.injected;
    activated = st.injected;
    fault_note = st.fault_note;
    fault_bit = st.fault_bit;
    injected_step = st.injected_step;
    fault_site = st.fault_site;
    first_use = st.first_use;
  }

let new_rej ?journal ?recorder ?(acc = 0) () =
  { rj_acc = acc; rj_next = 0; rj_journal = journal; rj_rec = recorder;
    rj_seen = Rejoin.seen () }

(* A fresh machine about to enter [main]. *)
let fresh_state ?(inj_mask = 0) ?(track_use = false) ?trace ?rej
    (c : compiled) ~inputs ~max_steps phase =
  let st =
    {
      mem = init_memory c;
      out = Buffer.create 4096;
      inputs;
      max_steps;
      steps = 0;
      sp = Memory.stack_top;
      depth = 0;
      phase;
      inj_mask;
      injected = false;
      injected_step = -1;
      fault_note = "";
      fault_bit = -1;
      trace;
      track_use;
      fu_watch = FU_off;
      first_use = First_use.Unone;
      fault_site = -1;
      stack = [];
      skip_capture = Phase.skip_capture phase;
      rej;
      post_fault = false;
    }
  in
  push_frame st c.cfuncs.(c.main_index) [||] None;
  st

let run ?(inputs = [||]) ?(max_steps = 100_000_000) ?trace mode
    (c : compiled) =
  let st =
    match mode with
    | Golden -> fresh_state ?trace c ~inputs ~max_steps Phase.Plain
    | Profile counts ->
      fresh_state ?trace c ~inputs ~max_steps (Phase.Counting counts)
    | Profile_sites sites ->
      fresh_state ?trace c ~inputs ~max_steps (Phase.Counting_sites sites)
    | Inject (p, f) ->
      fresh_state ~inj_mask:p.inj_mask ~track_use:f.track_use ?trace c ~inputs
        ~max_steps
        (Phase.injecting ~countdown:p.target ~rng:p.rng f)
  in
  exec_to_stats c st

(* A whole-program golden run in a bookkeeping phase; [what] names the
   caller in the error raised if the run does not complete. *)
let run_golden (c : compiled) st ~what =
  match exec_frames c st with
  | _ -> ()
  | exception Trap.Trap _ | (exception Outcome.Hang_limit)
  | (exception Stack_overflow) ->
    invalid_arg (what ^ ": golden run did not complete")

(* Fault-space pre-pass: one golden Enumerate-phase run over the cell. *)
let enumerate (c : compiled) ~inputs ~inj_mask ~max_steps =
  let rev = ref [] in
  let st = fresh_state ~inj_mask c ~inputs ~max_steps (Phase.Enumerate rev) in
  run_golden c st ~what:"Ir_exec.enumerate";
  Fault_space.finish !rev

(* One digest-maintaining golden run; the resulting journal serves
   every trial of the same (program, inputs), whatever the category. *)
let record_journal (c : compiled) ~inputs =
  Rejoin.record (fun b ->
      let st =
        fresh_state ~rej:(new_rej ~recorder:b ()) c ~inputs ~max_steps:max_int
          Phase.Plain
      in
      run_golden c st ~what:"Ir_exec.record_journal";
      (st.steps, Buffer.contents st.out))

(* --- snapshot / fast-forward executor ---

   One rolling Forward-phase machine per (program, category) pair.  For
   trial [target], the rolling machine advances fault-free until it
   pauses just before the target's execution unit; its machine state
   (frames, counters, output) is copied and its memory frozen into a
   copy-on-write view, and the copy runs the faulty remainder in Inject
   mode with [countdown = target - matched].  Sorted targets make the
   whole cell cost about one golden run of forward progress instead of
   one golden-run prefix per trial. *)

type ff = {
  ff_c : compiled;
  ff_rejoin : Rejoin.t option;
  mutable ff_st : state;
  mutable ff_fwd : Phase.fwd;  (* [ff_st]'s Forward payload *)
}

(* The rolling machine at step 0.  It maintains the memory accumulator
   (but never probes: it is fault-free) so each trial can fork with a
   live digest. *)
let roll_state (c : compiled) rejoin ~inputs ~inj_mask =
  let fwd = Phase.forward () in
  let st =
    fresh_state ~inj_mask
      ?rej:(Option.map (fun _ -> new_rej ()) rejoin)
      c ~inputs ~max_steps:max_int (Phase.Forward fwd)
  in
  (st, fwd)

let ff_create (c : compiled) ?rejoin ~inputs ~inj_mask () =
  let st, fwd = roll_state c rejoin ~inputs ~inj_mask in
  { ff_c = c; ff_rejoin = rejoin; ff_st = st; ff_fwd = fwd }

let ff_trial ff ~fault ~target ~max_steps ~rng =
  if target < 0 then invalid_arg "Ir_exec.ff_trial: negative target";
  Obs.Metrics.incr m_ff_trials;
  (* Monotonic fast path; a smaller target restarts the rolling run. *)
  if target < ff.ff_fwd.matched then begin
    Obs.Metrics.incr m_ff_rebuilds;
    let old = ff.ff_st in
    let st, fwd =
      roll_state ff.ff_c ff.ff_rejoin ~inputs:old.inputs ~inj_mask:old.inj_mask
    in
    ff.ff_st <- st;
    ff.ff_fwd <- fwd
  end;
  let roll = ff.ff_st in
  ff.ff_fwd.ff_stop <- target;
  let advance () =
    if exec_frames ff.ff_c roll then
      invalid_arg "Ir_exec.ff_trial: target beyond the category's population"
  in
  Phase.traced "ff-advance" ~target advance;
  let snap = Memory.freeze roll.mem in
  Obs.Metrics.observe m_checkpoint_depth (Memory.snapshot_depth snap);
  let out = Buffer.create (Buffer.length roll.out + 1024) in
  Buffer.add_buffer out roll.out;
  let countdown = target - ff.ff_fwd.matched in
  let phase = Phase.injecting ~countdown ~rng fault in
  (* The fork: the paused rolling machine with private frames, a
     copy-on-write memory view and the Inject phase.  Its injection
     bookkeeping is still pristine — the roll never injects. *)
  let st =
    {
      roll with
      mem = Memory.resume snap;
      out;
      max_steps;
      phase;
      track_use = fault.track_use;
      stack = List.map copy_frame roll.stack;
      skip_capture = Phase.skip_capture phase;
      rej =
        (match (ff.ff_rejoin, roll.rej) with
        | Some j, Some r -> Some (new_rej ~journal:j ~acc:r.rj_acc ())
        | _ -> None);
    }
  in
  Phase.traced "trial-run" ~target (fun () ->
      exec_to_stats ff.ff_c st)
