(** x86-level interpreter with PIN-style fault-injection hooks.

    Mirrors [Ir_exec] one level down: a program assembled by the backend
    is "loaded" (each instruction classified into injection categories,
    as PIN tools do at instrumentation time) and can then be executed
    many times.  Injection corrupts the destination register of a chosen
    dynamic instance; the two PINFI activation heuristics of the paper's
    Figure 2 are policy switches:

    - [flag_dependent_bits]: faults into compare instructions hit only
      the flag bit(s) the following conditional jump reads;
    - [xmm_low64_only]: faults into XMM destinations are restricted to
      the low 64 bits used by scalar double arithmetic (flips of the
      unused upper half are recorded as non-activated).

    Activation is tracked architecturally: the corrupted register must be
    read before being overwritten for the fault to count as activated. *)

open Support
open X86

(* Rejoin landmarks (see Rejoin): every function's entry (so every
   [Call] target) and the target of every backward [Jmp]/[Jcc].  Calls
   return just past their call site, so every dynamic cycle either
   jumps backwards or recurses through a call, and passes one.  (A
   cycle through a corrupted return address may not; such a trial only
   loses the hang detector's shortcut and runs to its step limit.) *)
let landmarks (p : Backend.Program.t) =
  let l = Array.make (Array.length p.insns + 1) false in
  List.iter
    (fun (f : Ir.Func.t) ->
      match Hashtbl.find_opt p.labels (Backend.Vfunc.func_label f.fname) with
      | Some i -> l.(i) <- true
      | None -> ())
    p.source.funcs;
  Array.iteri
    (fun i (insn : Insn.t) ->
      match insn with
      | (Insn.Jmp _ | Insn.Jcc _) when p.resolved.(i) <= i ->
        l.(p.resolved.(i)) <- true
      | _ -> ())
    p.insns;
  l

type policy = { flag_dependent_bits : bool; xmm_low64_only : bool }

let paper_policy = { flag_dependent_bits = true; xmm_low64_only = true }

type plan = { inj_mask : int; target : int; rng : Rng.t; policy : policy }

type mode =
  | Golden
  | Profile of int array  (* dynamic count per category bitmask *)
  | Profile_index of int array  (* dynamic count per instruction index *)
  | Inject of plan * Fault_model.fault

(* Fault-space pre-pass state (the [Enumerate] phase payload): the
   live instance per register and the records, newest first. *)
type enum = {
  e_gp : Fault_space.builder option array;
  e_xmm : Fault_space.builder option array;
  mutable e_flags : (Fault_space.builder * int Lane.t) option;
      (* live flags instance + its lane, fixed at the compare *)
  mutable enum_rev : Fault_space.builder list;
}

type watch = No_watch | Watch_gp of Reg.t | Watch_xmm of Reg.t | Watch_flags

(* Rejoin digest context (see Rejoin): a Zobrist-style fingerprint of
   the full machine state.  Memory writes are tracked incrementally in
   [rj_acc]; the register file is hashed whole at each boundary that
   needs a digest.  A recording golden run stores its digest at every
   landmark boundary; a trial probes the journal at landmarks, at most
   once per [Rejoin.probe_gap] steps, and splices the golden suffix on
   a match. *)
type rej = {
  rj_store : int array;
      (* per-instruction memory-write kind: -1 none, 1/2/4/8 store
         width, 9 push-like *)
  mutable rj_acc : int;  (* incremental memory digest *)
  rj_journal : Rejoin.t option;  (* trial side: probe + splice *)
  rj_rec : Rejoin.builder option;  (* golden side: record boundaries *)
  mutable rj_waddr : int;  (* pending memory-write address; -1 = none *)
  mutable rj_wbytes : int;
  rj_seen : Rejoin.seen;  (* trial self-loop detector *)
  mutable rj_next : int;  (* trial side: step count of the next probe *)
}

type machine = {
  mem : Memory.t;
  gp : int array;
  xmm : float array;
  mutable flags : int;
  mutable rip : int;
  out : Buffer.t;
  inputs : int array;
  max_steps : int;
  mutable steps : int;
  phase : enum Phase.t;  (* what the run is for, with its own state *)
  inj_mask : int;
  policy : policy;
  mutable injected : bool;
  mutable injected_step : int;
  mutable activated : bool;
  mutable watch : watch;
  mutable fault_note : string;
  mutable fault_bit : int;  (* first drawn bit, -1 if none *)
  track_use : bool;  (* classify the corrupted value's first consumer *)
  mutable first_use : First_use.t;
  mutable fault_site : int;  (* instruction index of the injection *)
  skip_capture : bool;
      (* Inject mode under [Skip]: capture the destination before the
         targeted instruction so [inject] can suppress its write *)
  mutable rej : rej option;  (* rejoin digest context, if enabled *)
}

type loaded = {
  program : Backend.Program.t;
  masks : int array;  (* per-instruction category bitmask *)
  landmarks : bool array;  (* per-instruction index, plus one past the end *)
  exec : (machine -> unit) array;  (* per instruction index *)
}

let emit m s = Outcome.emit m.out s

(* The destination register PINFI would corrupt: the primary written
   register, or the flags for compare-class instructions. *)
type dest = Dgp of Reg.t | Dxmm of Reg.t | Dflags | Dnone

let primary_dest (insn : Insn.t) =
  match insn with
  | Insn.Mov (d, _) | Insn.Movzx (d, _, _) | Insn.Movsx (d, _, _)
  | Insn.Lea (d, _)
  | Insn.Alu (_, d, _)
  | Insn.Imul (d, _)
  | Insn.Neg d | Insn.Not d
  | Insn.Setcc (_, d)
  | Insn.Pop d
  | Insn.Cvttsd2si (d, _) ->
    Dgp d
  | Insn.Shift (_, d, _) -> Dgp d
  | Insn.Cqo -> Dgp Reg.rdx
  | Insn.Idiv _ | Insn.Div _ -> Dgp Reg.rax
  | Insn.Imul3 (d, _, _) -> Dgp d
  | Insn.Push _ | Insn.Call _ | Insn.Ret -> Dgp Reg.rsp
  | Insn.Movsd (d, _) | Insn.Sse (_, d, _) | Insn.Sqrtsd (d, _)
  | Insn.Andpd_abs d
  | Insn.Cvtsi2sd (d, _) ->
    Dxmm d
  | Insn.Cmp _ | Insn.Test _ | Insn.Ucomisd _ -> Dflags
  | Insn.Store _ | Insn.Store_imm _ | Insn.Store_sd _ | Insn.Jmp _
  | Insn.Jcc _ | Insn.Syscall _ | Insn.Label _ ->
    Dnone

exception Halt

let effective_addr m (mem : Insn.mem) =
  let base = match mem.base with Some r -> m.gp.(r) | None -> 0 in
  let index = match mem.index with Some (r, s) -> m.gp.(r) * s | None -> 0 in
  base + index + mem.disp

let src_value m = function
  | Insn.Reg r -> m.gp.(r)
  | Insn.Imm c -> c
  | Insn.Mem mem -> Memory.read_word m.mem (effective_addr m mem)

let xsrc_value m = function
  | Insn.Xreg r -> m.xmm.(r)
  | Insn.Xmem mem -> Memory.read_f64 m.mem (effective_addr m mem)

let narrow_read m w (s : Insn.src) ~signed =
  match s with
  | Insn.Reg r ->
    let v = m.gp.(r) in
    let bits = Insn.width_bits w in
    if signed then Word.canon bits v else Word.to_unsigned bits v
  | Insn.Imm c ->
    let bits = Insn.width_bits w in
    if signed then Word.canon bits c else Word.to_unsigned bits c
  | Insn.Mem mem -> (
    let addr = effective_addr m mem in
    match w with
    | Insn.W8 ->
      let v = Memory.read_u8 m.mem addr in
      if signed then Word.canon 8 v else v
    | Insn.W16 ->
      let v = Memory.read_u16 m.mem addr in
      if signed then Word.canon 16 v else v
    | Insn.W32 ->
      let v = Memory.read_u32 m.mem addr in
      if signed then Word.canon 32 v else v
    | Insn.W64 -> Memory.read_word m.mem addr)

let store_width m w mem v =
  let addr = effective_addr m mem in
  match w with
  | Insn.W8 -> Memory.write_u8 m.mem addr (v land 0xff)
  | Insn.W16 -> Memory.write_u16 m.mem addr (v land 0xffff)
  | Insn.W32 -> Memory.write_u32 m.mem addr (v land 0xffffffff)
  | Insn.W64 -> Memory.write_word m.mem addr v

let fptosi_truncate f =
  if Float.is_nan f || f >= 4.611686018427387904e18 || f <= -4.611686018427387904e18
  then min_int
  else int_of_float f

(* --- fault insertion --- *)

(* The lanes (see {!Lane}) a destination's faults are drawn from: the
   word for a GP register, the double or the whole register for XMM
   (per policy), and for flags one lane per candidate list — every
   modelled flag bit, or the bits a following conditional jump reads. *)
let gp_lane = Lane.int Word.width

let xmm_lane policy = if policy.xmm_low64_only then Lane.f64 else Lane.xmm128

let all_flags_lane = Lane.flags Flags.all_bits

let jcc_flags_lanes =
  List.map
    (fun c -> (c, Lane.flags (Flags.dependent_bits c)))
    Flags.[ E; NE; L; LE; G; GE; B; BE; A; AE ]

(* A compare never jumps, so the instruction after it is the one that
   reads its flags. *)
let flags_lane policy (program : Backend.Program.t) idx =
  if policy.flag_dependent_bits && idx + 1 < Array.length program.insns then
    match program.insns.(idx + 1) with
    | Insn.Jcc (c, _) -> List.assoc c jcc_flags_lanes
    | _ -> all_flags_lane
  else all_flags_lane

let site_width policy (program : Backend.Program.t) idx =
  match primary_dest program.insns.(idx) with
  | Dgp _ -> Lane.width gp_lane
  | Dxmm _ -> Lane.width (xmm_lane policy)
  | Dflags -> Lane.width (flags_lane policy program idx)
  | Dnone -> 0

(* Pre-capture the targeted instruction's destination so a [Skip]
   injection can restore it after the write executed. *)
let capture_dest m (inj : Phase.inj) insn =
  match primary_dest insn with
  | Dgp r -> inj.cap_i <- m.gp.(r)
  | Dxmm r -> inj.cap_f <- m.xmm.(r)
  | Dflags -> inj.cap_i <- m.flags
  | Dnone -> ()

(* Corrupt the destination of instruction [idx], just executed. *)
let inject m (inj : Phase.inj) (loaded : loaded) idx insn =
  m.injected <- true;
  m.injected_step <- m.steps;
  let hit (f : _ Lane.fault) =
    m.fault_note <- f.note;
    m.fault_bit <- f.bit;
    f.value
  in
  match primary_dest insn with
  | Dgp r ->
    m.gp.(r) <-
      hit
        (Lane.corrupt gp_lane inj ~what:Reg.gp_names.(r) ~prior:inj.cap_i
           m.gp.(r));
    m.watch <- Watch_gp r
  | Dxmm r ->
    let f =
      Lane.corrupt (xmm_lane m.policy) inj ~what:(Printf.sprintf "xmm%d" r)
        ~prior:inj.cap_f m.xmm.(r)
    in
    m.xmm.(r) <- hit f;
    (* a fault confined to the inert upper half is never activated *)
    m.watch <- (if f.touched then Watch_xmm r else No_watch)
  | Dflags ->
    m.flags <-
      hit
        (Lane.corrupt
           (flags_lane m.policy loaded.program idx)
           inj ~what:"flags" ~prior:inj.cap_i m.flags);
    m.watch <- Watch_flags
  | Dnone -> m.watch <- No_watch

(* --- first-use classification (the paper's Section V cause classes) ---

   When [track_use] is on, the activating read below is additionally
   classified by the role the corrupted value plays in its first
   consumer: memory address, control flow, stack-frame traffic
   (spill / push-pop / rsp-rbp-relative slot), or plain data.  The
   classification looks only at the one consuming instruction — no
   transitive tracking — and costs nothing when activation tracking
   already decided the watch is dead. *)

let is_frame_reg r = r = Reg.rsp || r = Reg.rbp

(* The (at most one) memory operand of an instruction.  Lea counts: its
   address arithmetic is the assembly face of an IR gep. *)
let insn_mem (insn : Insn.t) =
  match insn with
  | Insn.Mov (_, Insn.Mem m)
  | Insn.Movzx (_, _, Insn.Mem m)
  | Insn.Movsx (_, _, Insn.Mem m)
  | Insn.Alu (_, _, Insn.Mem m)
  | Insn.Imul (_, Insn.Mem m)
  | Insn.Imul3 (_, Insn.Mem m, _)
  | Insn.Idiv (Insn.Mem m)
  | Insn.Div (Insn.Mem m)
  | Insn.Cmp (_, Insn.Mem m)
  | Insn.Cvtsi2sd (_, Insn.Mem m)
  | Insn.Store (_, m, _)
  | Insn.Store_imm (_, m, _)
  | Insn.Lea (_, m)
  | Insn.Store_sd (m, _)
  | Insn.Movsd (_, Insn.Xmem m)
  | Insn.Sse (_, _, Insn.Xmem m)
  | Insn.Sqrtsd (_, Insn.Xmem m)
  | Insn.Ucomisd (_, Insn.Xmem m)
  | Insn.Cvttsd2si (_, Insn.Xmem m) ->
    Some m
  | _ -> None

(* Role of GP register [r] in the instruction that first reads it.
   Priority: address use > control > stack-value > data. *)
let classify_gp_use r (insn : Insn.t) =
  let used_as_address =
    match insn_mem insn with
    | Some m -> List.mem r (Insn.mem_uses m)
    | None -> false
  in
  if used_as_address then
    if is_frame_reg r then First_use.Ustack else First_use.Uaddr
  else
    match insn with
    | Insn.Cmp (a, s) ->
      if a = r || s = Insn.Reg r then First_use.Ucontrol else First_use.Udata
    | Insn.Test (a, b) ->
      if a = r || b = r then First_use.Ucontrol else First_use.Udata
    | Insn.Push x when x = r -> First_use.Ustack
    | Insn.Push _ | Insn.Pop _ | Insn.Call _ | Insn.Ret ->
      (* outside their memory operand these only read rsp *)
      if r = Reg.rsp then First_use.Ustack else First_use.Udata
    | Insn.Store (_, m, src) when src = r -> (
      match m.Insn.base with
      | Some b when is_frame_reg b -> First_use.Ustack (* spill *)
      | _ -> First_use.Udata)
    | _ -> First_use.Udata

let classify_xmm_use r (insn : Insn.t) =
  match insn with
  | Insn.Ucomisd (a, s) ->
    if a = r || s = Insn.Xreg r then First_use.Ucontrol else First_use.Udata
  | Insn.Store_sd (m, x) when x = r -> (
    match m.Insn.base with
    | Some b when is_frame_reg b -> First_use.Ustack
    | _ -> First_use.Udata)
  | _ -> First_use.Udata

(* Activation: the corrupted register is read before being rewritten. *)
let update_watch m insn =
  match m.watch with
  | No_watch -> ()
  | Watch_flags ->
    if Insn.reads_flags insn then begin
      m.activated <- true;
      if m.track_use then m.first_use <- First_use.Ucontrol;
      m.watch <- No_watch
    end
    else if Insn.writes_flags insn then m.watch <- No_watch
  | Watch_gp r ->
    let gd, gu, _, _ = Insn.def_use insn in
    if List.mem r gu then begin
      m.activated <- true;
      if m.track_use then m.first_use <- classify_gp_use r insn;
      m.watch <- No_watch
    end
    else if List.mem r gd then m.watch <- No_watch
  | Watch_xmm r ->
    let _, _, xd, xu = Insn.def_use insn in
    if List.mem r xu then begin
      m.activated <- true;
      if m.track_use then m.first_use <- classify_xmm_use r insn;
      m.watch <- No_watch
    end
    else if List.mem r xd then m.watch <- No_watch

(* --- fault-space enumeration scans (Enumerate mode only) ---

   Register-file analogue of Ir_exec's enumeration: every live tracked
   destination (GP / XMM / flags) accumulates its reads before being
   overwritten.  Runs pre-exec like [update_watch], so register, memory
   and flag values are the golden pre-instruction state — exactly what
   a single-fault trial targeting a tracked instance would observe for
   every operand other than the corrupted one. *)

let enum_scan m en (insn : Insn.t) =
  let rd_gp r k = match en.e_gp.(r) with Some b -> k b | None -> () in
  let rd_xmm r k = match en.e_xmm.(r) with Some b -> k b | None -> () in
  let full_gp r = rd_gp r Fault_space.read_full in
  let full_xmm r = rd_xmm r Fault_space.read_full in
  (* Cmp/Test funnel: the flipped register reaches downstream machine
     state only through the resulting flag word — key every bit by it. *)
  let gp_funnel r keyf =
    rd_gp r (fun b ->
        let v = m.gp.(r) in
        let keys =
          Array.init (Lane.width gp_lane) (fun bit ->
              keyf (Lane.flip gp_lane v bit))
        in
        Fault_space.read_funnel b ~keys ~gold_key:(keyf v))
  in
  let xmm_funnel r keyf =
    rd_xmm r (fun b ->
        let v = m.xmm.(r) in
        (* keys for the live bits only: a lane with an inert upper half
           degrades to a full read inside [read_funnel] *)
        let lane = xmm_lane m.policy in
        let keys =
          Array.init (Lane.live lane) (fun bit -> keyf (Lane.flip lane v bit))
        in
        Fault_space.read_funnel b ~keys ~gold_key:(keyf v))
  in
  (* flags reads: a lone Jcc/Setcc funnels through the condition *)
  (if Insn.reads_flags insn then
     match en.e_flags with
     | Some (b, lane) -> (
       match insn with
       | Insn.Jcc (c, _) | Insn.Setcc (c, _) ->
         let keys =
           Array.init (Lane.width lane) (fun i ->
               Bool.to_int (Flags.holds (Lane.flip lane m.flags i) c))
         in
         Fault_space.read_funnel b ~keys
           ~gold_key:(Bool.to_int (Flags.holds m.flags c))
       | _ -> Fault_space.read_full b)
     | None -> ());
  (* register reads, with consumed-bit / funnel refinements *)
  (match insn with
  | Insn.Movzx (_, w, Insn.Reg s) | Insn.Movsx (_, w, Insn.Reg s) ->
    rd_gp s (fun b -> Fault_space.read_masked b ~low:(Insn.width_bits w))
  | Insn.Store (w, mem, r) ->
    let addr_regs = Insn.mem_uses mem in
    List.iter full_gp addr_regs;
    if List.mem r addr_regs then full_gp r
    else rd_gp r (fun b -> Fault_space.read_masked b ~low:(Insn.width_bits w))
  | Insn.Cmp (a, src) -> (
    let mem_regs =
      match src with Insn.Mem mm -> Insn.mem_uses mm | _ -> []
    in
    List.iter full_gp mem_regs;
    if List.mem a mem_regs then full_gp a
    else
      match src with
      | Insn.Reg b when b = a ->
        gp_funnel a (fun v' -> Flags.of_sub Word.width v' v' 0 m.flags)
      | Insn.Reg b ->
        let x = m.gp.(a) and y = m.gp.(b) in
        gp_funnel a (fun v' -> Flags.of_sub Word.width v' y (v' - y) m.flags);
        gp_funnel b (fun v' -> Flags.of_sub Word.width x v' (x - v') m.flags)
      | Insn.Imm _ | Insn.Mem _ ->
        let y = src_value m src in
        gp_funnel a (fun v' -> Flags.of_sub Word.width v' y (v' - y) m.flags))
  | Insn.Test (a, b) ->
    if a = b then
      gp_funnel a (fun v' -> Flags.of_logic Word.width (v' land v') m.flags)
    else begin
      let x = m.gp.(a) and y = m.gp.(b) in
      gp_funnel a (fun v' -> Flags.of_logic Word.width (v' land y) m.flags);
      gp_funnel b (fun v' -> Flags.of_logic Word.width (x land v') m.flags)
    end
  | Insn.Ucomisd (a, s) -> (
    List.iter full_gp (Insn.xsrc_gp_uses s);
    match s with
    | Insn.Xreg b when b = a ->
      xmm_funnel a (fun v' -> Flags.of_ucomisd v' v' m.flags)
    | Insn.Xreg b ->
      let x = m.xmm.(a) and y = m.xmm.(b) in
      xmm_funnel a (fun v' -> Flags.of_ucomisd v' y m.flags);
      xmm_funnel b (fun v' -> Flags.of_ucomisd x v' m.flags)
    | Insn.Xmem _ ->
      let y = xsrc_value m s in
      xmm_funnel a (fun v' -> Flags.of_ucomisd v' y m.flags))
  | _ ->
    let _, gu, _, xu = Insn.def_use insn in
    List.iter full_gp gu;
    List.iter full_xmm xu);
  (* overwrites end tracked lifetimes *)
  let gd, _, xd, _ = Insn.def_use insn in
  List.iter (fun r -> en.e_gp.(r) <- None) gd;
  List.iter (fun r -> en.e_xmm.(r) <- None) xd;
  if Insn.writes_flags insn then en.e_flags <- None

(* Post-exec instance start, drawing from the lane [inject] would
   corrupt. *)
let enum_start m en (loaded : loaded) idx insn =
  let start lane v =
    let b = Lane.instance lane v in
    en.enum_rev <- b :: en.enum_rev;
    b
  in
  match primary_dest insn with
  | Dgp r -> en.e_gp.(r) <- Some (start gp_lane m.gp.(r))
  | Dxmm r -> en.e_xmm.(r) <- Some (start (xmm_lane m.policy) m.xmm.(r))
  | Dflags ->
    let lane = flags_lane m.policy loaded.program idx in
    en.e_flags <- Some (start lane m.flags, lane)
  | Dnone ->
    (* occupies a countdown index; zero reads = never activated *)
    en.enum_rev <- Fault_space.create ~gold:0L ~width:1 :: en.enum_rev

(* --- rejoin digest maintenance (see Rejoin) ---

   Split by access cost: register state is tiny and O(1) to read, so
   the full register file is hashed from scratch at each boundary that
   needs a digest (every landmark on the recording side, a landmark at
   most once per [Rejoin.probe_gap] steps on the probing side).  Memory is
   unbounded, so it is tracked incrementally: the accumulator XORs the
   before/after fingerprints of every written cell, which telescopes to
   a pure function of current memory contents (per cell, all
   intermediate values cancel pairwise).  The hot path for the ~80% of
   instructions that do not write memory is one table load and a
   branch. *)

(* Memory-write kind per instruction: -1 = none, 1/2/4/8 = store width
   (address from the mem operand), 9 = push-like (8 bytes through the
   pre-decrement rsp).  [exec_insn]'s only memory writers are the five
   forms below. *)
let store_kind (insn : Insn.t) =
  match insn with
  | Insn.Store (w, _, _) | Insn.Store_imm (w, _, _) -> (
    match w with Insn.W8 -> 1 | Insn.W16 -> 2 | Insn.W32 -> 4 | Insn.W64 -> 8)
  | Insn.Store_sd _ -> 8
  | Insn.Push _ | Insn.Call _ -> 9
  | _ -> -1

let store_table (loaded : loaded) =
  Array.map store_kind loaded.program.insns

(* XOR of fingerprints of the aligned 8-byte cells a [bytes]-wide write
   at [addr] touches (at most two). *)
let cells_fp m addr bytes =
  let first = addr land lnot 7 and last = (addr + bytes - 1) land lnot 7 in
  if first = last then Memory.cell_fp m.mem first
  else begin
    let acc = ref 0 in
    let c = ref first in
    while !c <= last do
      acc := !acc lxor Memory.cell_fp m.mem !c;
      c := !c + 8
    done;
    !acc
  end

(* The boundary digest: the whole register file, control position,
   heap-allocator frontier and the memory accumulator.  Two machines
   with equal check keys (modulo hash collisions) are in the same full
   state and evolve identically — including where future accesses
   trap. *)
let check_key m rj =
  let h = ref rj.rj_acc in
  for r = 0 to 15 do
    h := Rejoin.h2 !h m.gp.(r)
  done;
  for r = 0 to 15 do
    h := Rejoin.h2 !h (Rejoin.float_key m.xmm.(r))
  done;
  h := Rejoin.h3 !h m.flags m.rip;
  Rejoin.h3 !h (Memory.heap_brk m.mem) (Memory.heap_mapped m.mem)

(* --- main loop --- *)

let exec_insn m (p : Backend.Program.t) insn resolved_target =
  match insn with
  | Insn.Mov (d, s) -> m.gp.(d) <- src_value m s
  | Insn.Movzx (d, w, s) -> m.gp.(d) <- narrow_read m w s ~signed:false
  | Insn.Movsx (d, w, s) -> m.gp.(d) <- narrow_read m w s ~signed:true
  | Insn.Store (w, mem, r) -> store_width m w mem m.gp.(r)
  | Insn.Store_imm (w, mem, v) -> store_width m w mem v
  | Insn.Lea (d, mem) -> m.gp.(d) <- effective_addr m mem
  | Insn.Alu (op, d, s) -> (
    let x = m.gp.(d) and y = src_value m s in
    match op with
    | Insn.Add ->
      let r = x + y in
      m.flags <- Flags.of_add Word.width x y r m.flags;
      m.gp.(d) <- r
    | Insn.Sub ->
      let r = x - y in
      m.flags <- Flags.of_sub Word.width x y r m.flags;
      m.gp.(d) <- r
    | Insn.And ->
      let r = x land y in
      m.flags <- Flags.of_logic Word.width r m.flags;
      m.gp.(d) <- r
    | Insn.Or ->
      let r = x lor y in
      m.flags <- Flags.of_logic Word.width r m.flags;
      m.gp.(d) <- r
    | Insn.Xor ->
      let r = x lxor y in
      m.flags <- Flags.of_logic Word.width r m.flags;
      m.gp.(d) <- r)
  | Insn.Imul (d, s) ->
    let r = m.gp.(d) * src_value m s in
    m.flags <- Flags.of_logic Word.width r m.flags;
    m.gp.(d) <- r
  | Insn.Imul3 (d, s, imm) ->
    let r = src_value m s * imm in
    m.flags <- Flags.of_logic Word.width r m.flags;
    m.gp.(d) <- r
  | Insn.Neg d ->
    let x = m.gp.(d) in
    let r = -x in
    m.flags <- Flags.of_sub Word.width 0 x r m.flags;
    m.gp.(d) <- r
  | Insn.Not d -> m.gp.(d) <- lnot m.gp.(d)
  | Insn.Cqo -> m.gp.(Reg.rdx) <- (if m.gp.(Reg.rax) < 0 then -1 else 0)
  | Insn.Idiv s ->
    let divisor = src_value m s in
    let dividend = m.gp.(Reg.rax) in
    if divisor = 0 || (divisor = -1 && dividend = min_int) then
      Trap.raise_trap Trap.Division_by_zero;
    m.gp.(Reg.rax) <- dividend / divisor;
    m.gp.(Reg.rdx) <- dividend mod divisor
  | Insn.Div s ->
    (* Unsigned division of the 63-bit word. *)
    let divisor = src_value m s in
    if divisor = 0 then Trap.raise_trap Trap.Division_by_zero;
    let mask = 0x7fffffffffffffffL in
    let wide v = Int64.logand (Int64.of_int v) mask in
    let dividend = m.gp.(Reg.rax) in
    m.gp.(Reg.rax) <- Int64.to_int (Int64.unsigned_div (wide dividend) (wide divisor));
    m.gp.(Reg.rdx) <- Int64.to_int (Int64.unsigned_rem (wide dividend) (wide divisor))
  | Insn.Shift (op, d, amount) -> (
    let a = match amount with Insn.ShImm n -> n | Insn.ShCl -> m.gp.(Reg.rcx) in
    let x = m.gp.(d) in
    let r =
      match op with
      | Insn.Shl -> Word.shl x a
      | Insn.Shr -> Word.lshr Word.width x a
      | Insn.Sar -> Word.ashr x a
    in
    m.flags <- Flags.of_logic Word.width r m.flags;
    m.gp.(d) <- r)
  | Insn.Cmp (a, s) ->
    let x = m.gp.(a) and y = src_value m s in
    m.flags <- Flags.of_sub Word.width x y (x - y) m.flags
  | Insn.Test (a, b) ->
    m.flags <- Flags.of_logic Word.width (m.gp.(a) land m.gp.(b)) m.flags
  | Insn.Setcc (c, d) -> m.gp.(d) <- Bool.to_int (Flags.holds m.flags c)
  | Insn.Jmp _ -> m.rip <- resolved_target
  | Insn.Jcc (c, _) -> if Flags.holds m.flags c then m.rip <- resolved_target
  | Insn.Call _ ->
    let ret_addr = Backend.Program.addr_of_index p m.rip in
    m.gp.(Reg.rsp) <- m.gp.(Reg.rsp) - 8;
    Memory.write_word m.mem m.gp.(Reg.rsp) ret_addr;
    m.rip <- resolved_target
  | Insn.Ret -> (
    let addr = Memory.read_word m.mem m.gp.(Reg.rsp) in
    m.gp.(Reg.rsp) <- m.gp.(Reg.rsp) + 8;
    if addr = Backend.Program.halt_addr p then raise Halt
    else
      match Backend.Program.index_of_addr p addr with
      | Some idx -> m.rip <- idx
      | None -> Trap.raise_trap (Trap.Invalid_jump addr))
  | Insn.Push r ->
    let v = m.gp.(r) in
    m.gp.(Reg.rsp) <- m.gp.(Reg.rsp) - 8;
    Memory.write_word m.mem m.gp.(Reg.rsp) v
  | Insn.Pop r ->
    let v = Memory.read_word m.mem m.gp.(Reg.rsp) in
    m.gp.(Reg.rsp) <- m.gp.(Reg.rsp) + 8;
    m.gp.(r) <- v
  | Insn.Movsd (d, s) -> m.xmm.(d) <- xsrc_value m s
  | Insn.Store_sd (mem, x) -> Memory.write_f64 m.mem (effective_addr m mem) m.xmm.(x)
  | Insn.Sse (op, d, s) -> (
    let x = m.xmm.(d) and y = xsrc_value m s in
    m.xmm.(d) <-
      (match op with
      | Insn.Addsd -> x +. y
      | Insn.Subsd -> x -. y
      | Insn.Mulsd -> x *. y
      | Insn.Divsd -> x /. y))
  | Insn.Sqrtsd (d, s) -> m.xmm.(d) <- sqrt (xsrc_value m s)
  | Insn.Andpd_abs d -> m.xmm.(d) <- abs_float m.xmm.(d)
  | Insn.Ucomisd (a, s) ->
    m.flags <- Flags.of_ucomisd m.xmm.(a) (xsrc_value m s) m.flags
  | Insn.Cvtsi2sd (d, s) -> m.xmm.(d) <- float_of_int (src_value m s)
  | Insn.Cvttsd2si (d, s) -> m.gp.(d) <- fptosi_truncate (xsrc_value m s)
  | Insn.Syscall intr -> (
    match intr with
    | Ir.Instr.Print_i64 -> emit m (string_of_int m.gp.(Reg.rdi))
    | Ir.Instr.Print_f64 -> emit m (Printf.sprintf "%.6f" m.xmm.(0))
    | Ir.Instr.Print_char ->
      emit m (String.make 1 (Char.chr (m.gp.(Reg.rdi) land 0xff)))
    | Ir.Instr.Print_newline -> emit m "\n"
    | Ir.Instr.Heap_alloc ->
      let n = m.gp.(Reg.rdi) in
      if n < 0 || n > 1 lsl 30 then Trap.raise_trap (Trap.Unmapped_write (-1));
      m.gp.(Reg.rax) <- Memory.heap_alloc m.mem n
    | Ir.Instr.Input_i64 ->
      let k = m.gp.(Reg.rdi) in
      m.gp.(Reg.rax) <-
        (if k >= 0 && k < Array.length m.inputs then m.inputs.(k) else 0)
    | Ir.Instr.Sqrt -> m.xmm.(0) <- sqrt m.xmm.(0)
    | Ir.Instr.Fabs -> m.xmm.(0) <- abs_float m.xmm.(0))
  | Insn.Label _ -> ()

let init_memory (p : Backend.Program.t) =
  let mem = Memory.create () in
  let span = p.globals_len + p.consts_len + 16 in
  if span > 0 then Memory.map_region mem ~addr:Memory.globals_base ~len:span;
  Memory.write_globals mem (Ir.Layout.size_of p.source) p.global_image;
  List.iter (fun (addr, f) -> Memory.write_f64 mem addr f) p.const_image;
  mem

(* ===== the dispatch table =====

   [load] translates a program once into per-instruction closures
   with operand shapes, branch targets, addressing modes and flag
   computation resolved at load time.  They replicate [exec_insn] bit
   for bit — every shape without a hand-specialized translation falls
   back to a closure over [exec_insn] itself — so [run_machine]
   dispatches through them in every mode, keeping injection,
   activation tracking, fast-forward, enumeration and rejoin digests
   untouched.  [reference] swaps every entry for that fallback: the
   tree-walker the differential tests hold the table against. *)

(* Branch-free full-width flag computation.  Bit-for-bit equal to
   [Flags.of_add]/[of_sub]/[of_logic] at [w = Word.width] (the only
   width [exec_insn] uses): canon is the identity there, the sign is
   bit 62, carry/borrow compare through the [Word.ucompare] bias.  The
   equivalence is exercised exhaustively by the compile tests. *)

let flags_keep =
  lnot
    ((1 lsl Flags.cf_bit) lor (1 lsl Flags.pf_bit) lor (1 lsl Flags.zf_bit)
   lor (1 lsl Flags.sf_bit) lor (1 lsl Flags.of_bit))

let[@inline] pf_even r =
  let b = r land 0xff in
  let b = b lxor (b lsr 4) in
  let b = b lxor (b lsr 2) in
  let b = b lxor (b lsr 1) in
  1 - (b land 1)

let[@inline] flags_pack flags ~cf ~pf ~zf ~sf ~ov =
  (flags land flags_keep)
  lor (cf lsl Flags.cf_bit) lor (pf lsl Flags.pf_bit)
  lor (zf lsl Flags.zf_bit) lor (sf lsl Flags.sf_bit)
  lor (ov lsl Flags.of_bit)

let[@inline] of_add_fx x y r flags =
  let zf = Bool.to_int (r = 0) in
  let sf = r lsr 62 in
  let pf = pf_even r in
  let cf = Bool.to_int (r lxor min_int < x lxor min_int && y <> 0) in
  let sx = x lsr 62 and sy = y lsr 62 in
  let ov = lnot (sx lxor sy) land (sx lxor sf) land 1 in
  flags_pack flags ~cf ~pf ~zf ~sf ~ov

let[@inline] of_sub_fx x y r flags =
  let zf = Bool.to_int (r = 0) in
  let sf = r lsr 62 in
  let pf = pf_even r in
  let cf = Bool.to_int (x lxor min_int < y lxor min_int) in
  let sx = x lsr 62 and sy = y lsr 62 in
  let ov = (sx lxor sy) land (sx lxor sf) land 1 in
  flags_pack flags ~cf ~pf ~zf ~sf ~ov

let[@inline] of_logic_fx r flags =
  let zf = Bool.to_int (r = 0) in
  let sf = r lsr 62 in
  let pf = pf_even r in
  flags_pack flags ~cf:0 ~pf ~zf ~sf ~ov:0

(* [Flags.holds c] with the condition's bit algebra resolved at compile
   time. *)
let cond_fn (c : Flags.cond) =
  let zb = Flags.zf_bit and sb = Flags.sf_bit and ob = Flags.of_bit in
  let cb = Flags.cf_bit in
  match c with
  | Flags.E -> fun f -> (f lsr zb) land 1 = 1
  | Flags.NE -> fun f -> (f lsr zb) land 1 = 0
  | Flags.L -> fun f -> ((f lsr sb) lxor (f lsr ob)) land 1 = 1
  | Flags.GE -> fun f -> ((f lsr sb) lxor (f lsr ob)) land 1 = 0
  | Flags.LE -> fun f -> ((f lsr zb) lor ((f lsr sb) lxor (f lsr ob))) land 1 = 1
  | Flags.G -> fun f -> ((f lsr zb) lor ((f lsr sb) lxor (f lsr ob))) land 1 = 0
  | Flags.B -> fun f -> (f lsr cb) land 1 = 1
  | Flags.AE -> fun f -> (f lsr cb) land 1 = 0
  | Flags.BE -> fun f -> ((f lsr cb) lor (f lsr zb)) land 1 = 1
  | Flags.A -> fun f -> ((f lsr cb) lor (f lsr zb)) land 1 = 0

let addr_fn (mem : Insn.mem) =
  let d = mem.Insn.disp in
  match (mem.Insn.base, mem.Insn.index) with
  | Some b, Some (i, s) -> fun m -> m.gp.(b) + (m.gp.(i) * s) + d
  | Some b, None -> if d = 0 then fun m -> m.gp.(b) else fun m -> m.gp.(b) + d
  | None, Some (i, s) -> fun m -> (m.gp.(i) * s) + d
  | None, None -> fun _ -> d

(* Instruction [idx] through the tree-walker: the fallback entry. *)
let walk_exec (p : Backend.Program.t) idx insn =
  let r = p.resolved.(idx) in
  fun m -> exec_insn m p insn r

(* One instruction compiled to a closure.  Must mirror [exec_insn]'s
   semantics exactly, including evaluation order around traps (Push
   updates rsp before the write; Pop reads before bumping rsp). *)
let compile_exec (p : Backend.Program.t) idx (insn : Insn.t) =
  let r = p.resolved.(idx) in
  let fallback () = walk_exec p idx insn in
  match insn with
  | Insn.Mov (d, Insn.Reg s) -> fun m -> m.gp.(d) <- m.gp.(s)
  | Insn.Mov (d, Insn.Imm c) -> fun m -> m.gp.(d) <- c
  | Insn.Mov (d, Insn.Mem mem) ->
    let a = addr_fn mem in
    fun m -> m.gp.(d) <- Memory.read_word_fast m.mem (a m)
  | Insn.Movzx (d, ((Insn.W8 | Insn.W16 | Insn.W32) as w), Insn.Reg s) ->
    let bits = Insn.width_bits w in
    fun m -> m.gp.(d) <- Word.to_unsigned bits m.gp.(s)
  | Insn.Movsx (d, w, Insn.Reg s) ->
    let bits = Insn.width_bits w in
    fun m -> m.gp.(d) <- Word.canon bits m.gp.(s)
  | Insn.Movzx (d, w, Insn.Mem mem) -> (
    let a = addr_fn mem in
    match w with
    | Insn.W8 -> fun m -> m.gp.(d) <- Memory.read_u8_fast m.mem (a m)
    | Insn.W16 -> fun m -> m.gp.(d) <- Memory.read_u16_fast m.mem (a m)
    | Insn.W32 -> fun m -> m.gp.(d) <- Memory.read_u32_fast m.mem (a m)
    | Insn.W64 -> fun m -> m.gp.(d) <- Memory.read_word_fast m.mem (a m))
  | Insn.Movsx (d, w, Insn.Mem mem) -> (
    let a = addr_fn mem in
    match w with
    | Insn.W8 -> fun m -> m.gp.(d) <- Word.canon 8 (Memory.read_u8_fast m.mem (a m))
    | Insn.W16 ->
      fun m -> m.gp.(d) <- Word.canon 16 (Memory.read_u16_fast m.mem (a m))
    | Insn.W32 ->
      fun m -> m.gp.(d) <- Word.canon 32 (Memory.read_u32_fast m.mem (a m))
    | Insn.W64 -> fun m -> m.gp.(d) <- Memory.read_word_fast m.mem (a m))
  | Insn.Store (w, mem, s) -> (
    let a = addr_fn mem in
    match w with
    | Insn.W8 -> fun m -> Memory.write_u8_fast m.mem (a m) (m.gp.(s) land 0xff)
    | Insn.W16 ->
      fun m -> Memory.write_u16_fast m.mem (a m) (m.gp.(s) land 0xffff)
    | Insn.W32 ->
      fun m -> Memory.write_u32_fast m.mem (a m) (m.gp.(s) land 0xffffffff)
    | Insn.W64 -> fun m -> Memory.write_word_fast m.mem (a m) m.gp.(s))
  | Insn.Store_imm (w, mem, v) -> (
    let a = addr_fn mem in
    match w with
    | Insn.W8 ->
      let v = v land 0xff in
      fun m -> Memory.write_u8_fast m.mem (a m) v
    | Insn.W16 ->
      let v = v land 0xffff in
      fun m -> Memory.write_u16_fast m.mem (a m) v
    | Insn.W32 ->
      let v = v land 0xffffffff in
      fun m -> Memory.write_u32_fast m.mem (a m) v
    | Insn.W64 -> fun m -> Memory.write_word_fast m.mem (a m) v)
  | Insn.Lea (d, { Insn.base = Some b; index = None; disp }) ->
    fun m -> m.gp.(d) <- m.gp.(b) + disp
  | Insn.Lea (d, mem) ->
    let a = addr_fn mem in
    fun m -> m.gp.(d) <- a m
  | Insn.Alu (op, d, Insn.Reg s) -> (
    match op with
    | Insn.Add ->
      fun m ->
        let x = m.gp.(d) and y = m.gp.(s) in
        let rr = x + y in
        m.flags <- of_add_fx x y rr m.flags;
        m.gp.(d) <- rr
    | Insn.Sub ->
      fun m ->
        let x = m.gp.(d) and y = m.gp.(s) in
        let rr = x - y in
        m.flags <- of_sub_fx x y rr m.flags;
        m.gp.(d) <- rr
    | Insn.And ->
      fun m ->
        let rr = m.gp.(d) land m.gp.(s) in
        m.flags <- of_logic_fx rr m.flags;
        m.gp.(d) <- rr
    | Insn.Or ->
      fun m ->
        let rr = m.gp.(d) lor m.gp.(s) in
        m.flags <- of_logic_fx rr m.flags;
        m.gp.(d) <- rr
    | Insn.Xor ->
      fun m ->
        let rr = m.gp.(d) lxor m.gp.(s) in
        m.flags <- of_logic_fx rr m.flags;
        m.gp.(d) <- rr)
  | Insn.Alu (op, d, Insn.Imm c) -> (
    match op with
    | Insn.Add ->
      fun m ->
        let x = m.gp.(d) in
        let rr = x + c in
        m.flags <- of_add_fx x c rr m.flags;
        m.gp.(d) <- rr
    | Insn.Sub ->
      fun m ->
        let x = m.gp.(d) in
        let rr = x - c in
        m.flags <- of_sub_fx x c rr m.flags;
        m.gp.(d) <- rr
    | Insn.And ->
      fun m ->
        let rr = m.gp.(d) land c in
        m.flags <- of_logic_fx rr m.flags;
        m.gp.(d) <- rr
    | Insn.Or ->
      fun m ->
        let rr = m.gp.(d) lor c in
        m.flags <- of_logic_fx rr m.flags;
        m.gp.(d) <- rr
    | Insn.Xor ->
      fun m ->
        let rr = m.gp.(d) lxor c in
        m.flags <- of_logic_fx rr m.flags;
        m.gp.(d) <- rr)
  | Insn.Alu (op, d, Insn.Mem mem) -> (
    let a = addr_fn mem in
    match op with
    | Insn.Add ->
      fun m ->
        let x = m.gp.(d) and y = Memory.read_word_fast m.mem (a m) in
        let rr = x + y in
        m.flags <- of_add_fx x y rr m.flags;
        m.gp.(d) <- rr
    | Insn.Sub ->
      fun m ->
        let x = m.gp.(d) and y = Memory.read_word_fast m.mem (a m) in
        let rr = x - y in
        m.flags <- of_sub_fx x y rr m.flags;
        m.gp.(d) <- rr
    | Insn.And ->
      fun m ->
        let rr = m.gp.(d) land Memory.read_word_fast m.mem (a m) in
        m.flags <- of_logic_fx rr m.flags;
        m.gp.(d) <- rr
    | Insn.Or ->
      fun m ->
        let rr = m.gp.(d) lor Memory.read_word_fast m.mem (a m) in
        m.flags <- of_logic_fx rr m.flags;
        m.gp.(d) <- rr
    | Insn.Xor ->
      fun m ->
        let rr = m.gp.(d) lxor Memory.read_word_fast m.mem (a m) in
        m.flags <- of_logic_fx rr m.flags;
        m.gp.(d) <- rr)
  | Insn.Imul (d, Insn.Reg s) ->
    fun m ->
      let rr = m.gp.(d) * m.gp.(s) in
      m.flags <- of_logic_fx rr m.flags;
      m.gp.(d) <- rr
  | Insn.Imul (d, Insn.Imm c) ->
    fun m ->
      let rr = m.gp.(d) * c in
      m.flags <- of_logic_fx rr m.flags;
      m.gp.(d) <- rr
  | Insn.Imul (d, Insn.Mem mem) ->
    let a = addr_fn mem in
    fun m ->
      let rr = m.gp.(d) * Memory.read_word_fast m.mem (a m) in
      m.flags <- of_logic_fx rr m.flags;
      m.gp.(d) <- rr
  | Insn.Imul3 (d, Insn.Reg s, imm) ->
    fun m ->
      let rr = m.gp.(s) * imm in
      m.flags <- of_logic_fx rr m.flags;
      m.gp.(d) <- rr
  | Insn.Imul3 (d, Insn.Imm c, imm) ->
    let rr = c * imm in
    fun m ->
      m.flags <- of_logic_fx rr m.flags;
      m.gp.(d) <- rr
  | Insn.Imul3 (d, Insn.Mem mem, imm) ->
    let a = addr_fn mem in
    fun m ->
      let rr = Memory.read_word_fast m.mem (a m) * imm in
      m.flags <- of_logic_fx rr m.flags;
      m.gp.(d) <- rr
  | Insn.Neg d ->
    fun m ->
      let x = m.gp.(d) in
      let rr = -x in
      m.flags <- of_sub_fx 0 x rr m.flags;
      m.gp.(d) <- rr
  | Insn.Not d -> fun m -> m.gp.(d) <- lnot m.gp.(d)
  | Insn.Cqo ->
    fun m -> m.gp.(Reg.rdx) <- (if m.gp.(Reg.rax) < 0 then -1 else 0)
  | Insn.Shift (op, d, amount) -> (
    match (op, amount) with
    | Insn.Shl, Insn.ShImm a ->
      fun m ->
        let rr = Word.shl m.gp.(d) a in
        m.flags <- of_logic_fx rr m.flags;
        m.gp.(d) <- rr
    | Insn.Shr, Insn.ShImm a ->
      fun m ->
        let rr = Word.lshr Word.width m.gp.(d) a in
        m.flags <- of_logic_fx rr m.flags;
        m.gp.(d) <- rr
    | Insn.Sar, Insn.ShImm a ->
      fun m ->
        let rr = Word.ashr m.gp.(d) a in
        m.flags <- of_logic_fx rr m.flags;
        m.gp.(d) <- rr
    | Insn.Shl, Insn.ShCl ->
      fun m ->
        let rr = Word.shl m.gp.(d) m.gp.(Reg.rcx) in
        m.flags <- of_logic_fx rr m.flags;
        m.gp.(d) <- rr
    | Insn.Shr, Insn.ShCl ->
      fun m ->
        let rr = Word.lshr Word.width m.gp.(d) m.gp.(Reg.rcx) in
        m.flags <- of_logic_fx rr m.flags;
        m.gp.(d) <- rr
    | Insn.Sar, Insn.ShCl ->
      fun m ->
        let rr = Word.ashr m.gp.(d) m.gp.(Reg.rcx) in
        m.flags <- of_logic_fx rr m.flags;
        m.gp.(d) <- rr)
  | Insn.Cmp (a, Insn.Reg b) ->
    fun m ->
      let x = m.gp.(a) and y = m.gp.(b) in
      m.flags <- of_sub_fx x y (x - y) m.flags
  | Insn.Cmp (a, Insn.Imm c) ->
    fun m ->
      let x = m.gp.(a) in
      m.flags <- of_sub_fx x c (x - c) m.flags
  | Insn.Cmp (a, Insn.Mem mem) ->
    let f = addr_fn mem in
    fun m ->
      let x = m.gp.(a) and y = Memory.read_word_fast m.mem (f m) in
      m.flags <- of_sub_fx x y (x - y) m.flags
  | Insn.Test (a, b) ->
    if a = b then fun m ->
      m.flags <- of_logic_fx m.gp.(a) m.flags
    else fun m -> m.flags <- of_logic_fx (m.gp.(a) land m.gp.(b)) m.flags
  | Insn.Setcc (c, d) ->
    let h = cond_fn c in
    fun m -> m.gp.(d) <- Bool.to_int (h m.flags)
  | Insn.Jmp _ -> fun m -> m.rip <- r
  | Insn.Jcc (c, _) ->
    let h = cond_fn c in
    fun m -> if h m.flags then m.rip <- r
  | Insn.Call _ ->
    let ra = Backend.Program.addr_of_index p (idx + 1) in
    fun m ->
      let sp = m.gp.(Reg.rsp) - 8 in
      m.gp.(Reg.rsp) <- sp;
      Memory.write_word_fast m.mem sp ra;
      m.rip <- r
  | Insn.Ret ->
    let halt = Backend.Program.halt_addr p in
    fun m ->
      let sp = m.gp.(Reg.rsp) in
      let addr = Memory.read_word_fast m.mem sp in
      m.gp.(Reg.rsp) <- sp + 8;
      if addr = halt then raise Halt
      else (
        match Backend.Program.index_of_addr p addr with
        | Some i -> m.rip <- i
        | None -> Trap.raise_trap (Trap.Invalid_jump addr))
  | Insn.Push s ->
    fun m ->
      let v = m.gp.(s) in
      let sp = m.gp.(Reg.rsp) - 8 in
      m.gp.(Reg.rsp) <- sp;
      Memory.write_word_fast m.mem sp v
  | Insn.Pop d ->
    fun m ->
      let sp = m.gp.(Reg.rsp) in
      let v = Memory.read_word_fast m.mem sp in
      m.gp.(Reg.rsp) <- sp + 8;
      m.gp.(d) <- v
  | Insn.Movsd (d, Insn.Xreg s) -> fun m -> m.xmm.(d) <- m.xmm.(s)
  | Insn.Movsd (d, Insn.Xmem mem) ->
    let a = addr_fn mem in
    fun m -> m.xmm.(d) <- Memory.read_f64_fast m.mem (a m)
  | Insn.Store_sd (mem, x) ->
    let a = addr_fn mem in
    fun m -> Memory.write_f64_fast m.mem (a m) m.xmm.(x)
  | Insn.Sse (op, d, Insn.Xreg s) -> (
    match op with
    | Insn.Addsd -> fun m -> m.xmm.(d) <- m.xmm.(d) +. m.xmm.(s)
    | Insn.Subsd -> fun m -> m.xmm.(d) <- m.xmm.(d) -. m.xmm.(s)
    | Insn.Mulsd -> fun m -> m.xmm.(d) <- m.xmm.(d) *. m.xmm.(s)
    | Insn.Divsd -> fun m -> m.xmm.(d) <- m.xmm.(d) /. m.xmm.(s))
  | Insn.Sse (op, d, Insn.Xmem mem) -> (
    let a = addr_fn mem in
    match op with
    | Insn.Addsd ->
      fun m -> m.xmm.(d) <- m.xmm.(d) +. Memory.read_f64_fast m.mem (a m)
    | Insn.Subsd ->
      fun m -> m.xmm.(d) <- m.xmm.(d) -. Memory.read_f64_fast m.mem (a m)
    | Insn.Mulsd ->
      fun m -> m.xmm.(d) <- m.xmm.(d) *. Memory.read_f64_fast m.mem (a m)
    | Insn.Divsd ->
      fun m -> m.xmm.(d) <- m.xmm.(d) /. Memory.read_f64_fast m.mem (a m))
  | Insn.Sqrtsd (d, Insn.Xreg s) -> fun m -> m.xmm.(d) <- sqrt m.xmm.(s)
  | Insn.Sqrtsd (d, Insn.Xmem mem) ->
    let a = addr_fn mem in
    fun m -> m.xmm.(d) <- sqrt (Memory.read_f64_fast m.mem (a m))
  | Insn.Andpd_abs d -> fun m -> m.xmm.(d) <- abs_float m.xmm.(d)
  | Insn.Ucomisd (a, Insn.Xreg b) ->
    fun m -> m.flags <- Flags.of_ucomisd m.xmm.(a) m.xmm.(b) m.flags
  | Insn.Ucomisd (a, Insn.Xmem mem) ->
    let f = addr_fn mem in
    fun m ->
      m.flags <-
        Flags.of_ucomisd m.xmm.(a) (Memory.read_f64_fast m.mem (f m)) m.flags
  | Insn.Cvtsi2sd (d, Insn.Reg s) ->
    fun m -> m.xmm.(d) <- float_of_int m.gp.(s)
  | Insn.Cvtsi2sd (d, Insn.Imm c) ->
    let v = float_of_int c in
    fun m -> m.xmm.(d) <- v
  | Insn.Cvtsi2sd (d, Insn.Mem mem) ->
    let a = addr_fn mem in
    fun m -> m.xmm.(d) <- float_of_int (Memory.read_word_fast m.mem (a m))
  | Insn.Cvttsd2si (d, Insn.Xreg s) ->
    fun m -> m.gp.(d) <- fptosi_truncate m.xmm.(s)
  | Insn.Cvttsd2si (d, Insn.Xmem mem) ->
    let a = addr_fn mem in
    fun m -> m.gp.(d) <- fptosi_truncate (Memory.read_f64_fast m.mem (a m))
  | Insn.Label _ -> fun _ -> ()
  | Insn.Movzx _ | Insn.Movsx _ | Insn.Idiv _ | Insn.Div _ | Insn.Syscall _ ->
    fallback ()

let load ?(classify = fun _ _ _ -> 0) (program : Backend.Program.t) =
  {
    program;
    masks = Array.mapi (classify program) program.insns;
    landmarks = landmarks program;
    exec = Array.mapi (compile_exec program) program.insns;
  }

let reference (l : loaded) =
  { l with exec = Array.mapi (walk_exec l.program) l.program.insns }

(* Pre-exec half of the memory delta: stash the write site and hash its
   cells' current contents.  The address must come from the pre-exec
   state — Push/Call write through the about-to-change rsp. *)
let rejoin_pre m insn rj idx =
  let k = Array.unsafe_get rj.rj_store idx in
  if k < 0 then begin
    rj.rj_waddr <- -1;
    0
  end
  else begin
    (if k = 9 then begin
       rj.rj_waddr <- m.gp.(Reg.rsp) - 8;
       rj.rj_wbytes <- 8
     end
     else begin
       (match insn with
       | Insn.Store (_, mem, _)
       | Insn.Store_imm (_, mem, _)
       | Insn.Store_sd (mem, _) ->
         rj.rj_waddr <- effective_addr m mem
       | _ -> assert false);
       rj.rj_wbytes <- k
     end);
    cells_fp m rj.rj_waddr rj.rj_wbytes
  end

(* Post-exec half: rehash the written cells, fold the delta into the
   accumulator, then, on a recording golden run, record the digest if
   the next instruction is a landmark.  Runs after the mode dispatch;
   the injected register flip needs no tracking because registers are
   hashed whole at each boundary.  Trials probe only in [run_suffix]:
   a trial probes once its fault is in and its watch has settled,
   which is exactly when it is handed off. *)
let rejoin_post m landmarks rj pre =
  if rj.rj_waddr >= 0 then
    rj.rj_acc <-
      rj.rj_acc lxor pre lxor cells_fp m rj.rj_waddr rj.rj_wbytes;
  match rj.rj_rec with
  | Some b when landmarks.(m.rip) ->
    Rejoin.add b ~digest:(check_key m rj) ~steps:m.steps
      ~outlen:(Buffer.length m.out)
  | _ -> ()

(* A trial's landmark probe: splice the golden suffix and end the run
   on a match, else schedule the next probe. *)
let rejoin_probe m rj j =
  rj.rj_next <- m.steps + Rejoin.probe_gap;
  let steps =
    Rejoin.probe j rj.rj_seen ~key:(check_key m rj) ~steps:m.steps
      ~max_steps:m.max_steps m.out
  in
  if steps >= 0 then begin
    m.steps <- steps;
    if steps > m.max_steps then raise Outcome.Hang_limit;
    raise Halt
  end

(* The post-fault loop of an injected trial whose fault is in and whose
   activation watch has settled.  Per step it keeps only the [rip]
   bounds check, step counting, the hang limit and the closure
   dispatch, plus, when the trial carries a journal, the rejoin
   accumulator and the landmark probe (at most once per
   [Rejoin.probe_gap] steps, before the instruction at [rip]).  Never
   returns normally: the exits are [Halt], [Trap.Trap] and
   [Outcome.Hang_limit]. *)
let run_suffix (loaded : loaded) m =
  let p = loaded.program in
  let insns = p.insns in
  let exec = loaded.exec in
  let landmarks = loaded.landmarks in
  let n = Array.length insns in
  while true do
    let idx = m.rip in
    (match m.rej with
    | Some ({ rj_journal = Some j; _ } as rj)
      when m.steps >= rj.rj_next && landmarks.(idx) ->
      rejoin_probe m rj j
    | _ -> ());
    if idx < 0 || idx >= n then
      Trap.raise_trap (Trap.Invalid_jump (Backend.Program.addr_of_index p idx));
    m.steps <- m.steps + 1;
    if m.steps > m.max_steps then raise Outcome.Hang_limit;
    match m.rej with
    | None ->
      m.rip <- idx + 1;
      (Array.unsafe_get exec idx) m
    | Some rj ->
      let pre = rejoin_pre m (Array.unsafe_get insns idx) rj idx in
      m.rip <- idx + 1;
      (Array.unsafe_get exec idx) m;
      rejoin_post m landmarks rj pre
  done

(* The fetch-execute loop.  Returns normally in two cases:
   - a Forward-phase machine pauses just before the matching
     instruction that would make [matched] exceed [ff_stop] ([rip]
     still points at it, nothing about the pending instruction has
     executed);
   - an Inject-phase machine is ready for [run_suffix]: the fault is in
     and its activation watch has settled, so the forward pause,
     enumerate, capture, phase and countdown work is over.
     [finish_machine] makes that hand-off.
   All other exits are exceptions: [Halt], [Trap.Trap],
   [Outcome.Hang_limit]. *)
let run_machine (loaded : loaded) m =
  let p = loaded.program in
  let insns = p.insns in
  let exec = loaded.exec in
  let masks = loaded.masks in
  let landmarks = loaded.landmarks in
  let n = Array.length insns in
  (* The phase payloads the pre-exec checks read, matched once. *)
  let fw = match m.phase with Phase.Forward f -> Some f | _ -> None in
  let en = match m.phase with Phase.Enumerate e -> Some e | _ -> None in
  let running = ref true in
  while !running do
    let idx = m.rip in
    if idx < 0 || idx >= n then
      Trap.raise_trap (Trap.Invalid_jump (Backend.Program.addr_of_index p idx));
    if
      match fw with
      | Some f -> masks.(idx) land m.inj_mask <> 0 && f.matched >= f.ff_stop
      | None -> false
    then running := false
    else begin
      let insn = insns.(idx) in
      m.steps <- m.steps + 1;
      if m.steps > m.max_steps then raise Outcome.Hang_limit;
      if m.watch <> No_watch then update_watch m insn;
      (match en with Some e -> enum_scan m e insn | None -> ());
      let pre =
        match m.rej with None -> 0 | Some rj -> rejoin_pre m insn rj idx
      in
      (if m.skip_capture then
         match m.phase with
         | Phase.Injecting inj
           when inj.countdown = 0 && masks.(idx) land m.inj_mask <> 0 ->
           capture_dest m inj insn
         | _ -> ());
      m.rip <- idx + 1;
      (Array.unsafe_get exec idx) m;
      (match m.phase with
      | Phase.Plain -> ()
      | Phase.Enumerate e ->
        if masks.(idx) land m.inj_mask <> 0 then enum_start m e loaded idx insn
      | Phase.Forward f ->
        if masks.(idx) land m.inj_mask <> 0 then f.matched <- f.matched + 1
      | Phase.Counting counts ->
        let mask = masks.(idx) in
        counts.(mask) <- counts.(mask) + 1
      | Phase.Counting_sites counts -> counts.(idx) <- counts.(idx) + 1
      | Phase.Injecting inj ->
        let mask = masks.(idx) in
        if mask land m.inj_mask <> 0 then begin
          if inj.countdown = 0 then begin
            m.fault_site <- idx;
            inject m inj loaded idx insn
          end;
          inj.countdown <- inj.countdown - 1
        end;
        if m.injected && m.watch = No_watch then running := false);
      match m.rej with
      | None -> ()
      | Some rj -> rejoin_post m landmarks rj pre
    end
  done

(* Run [m] to completion and package the result. *)
(* Telemetry (lib/obs): boundary-only, like Ir_exec — one boolean load
   per completed run when disabled, never per instruction. *)
let m_run_steps = Obs.Metrics.histogram "vm.x86.run_steps"
let m_ff_trials = Obs.Metrics.counter "vm.x86.ff_trials"
let m_ff_rebuilds = Obs.Metrics.counter "vm.x86.ff_rebuilds"
let m_checkpoint_depth = Obs.Metrics.histogram "vm.x86.checkpoint_depth"
let m_suffix_trials = Obs.Metrics.counter "vm.x86.suffix_trials"

let finish_machine (loaded : loaded) m =
  let outcome =
    try
      (* Only an Inject-phase machine returns here: hand it off. *)
      run_machine loaded m;
      Obs.Metrics.incr m_suffix_trials;
      run_suffix loaded m;
      assert false
    with
    | Halt -> Outcome.Finished (Buffer.contents m.out)
    | Trap.Trap t -> Outcome.Crashed t
    | Outcome.Hang_limit -> Outcome.Hung
  in
  Obs.Metrics.observe m_run_steps m.steps;
  {
    Outcome.outcome;
    steps = m.steps;
    injected = m.injected;
    activated = m.activated;
    fault_note = m.fault_note;
    fault_bit = m.fault_bit;
    injected_step = m.injected_step;
    fault_site = m.fault_site;
    first_use = m.first_use;
  }

let new_rej ?journal ?recorder ?(acc = 0) store =
  {
    rj_store = store;
    rj_acc = acc;
    rj_journal = journal;
    rj_rec = recorder;
    rj_waddr = -1;
    rj_wbytes = 0;
    rj_seen = Rejoin.seen ();
    rj_next = 0;
  }

(* A fresh machine at the program entry. *)
let make_machine ?(inj_mask = 0) ?(policy = paper_policy) ?(track_use = false)
    ?rej (loaded : loaded) ~inputs ~max_steps phase =
  let p = loaded.program in
  let m =
    {
      mem = init_memory p;
      gp = Array.make 16 0;
      xmm = Array.make 16 0.0;
      flags = 0;
      rip = p.entry;
      out = Buffer.create 4096;
      inputs;
      max_steps;
      steps = 0;
      phase;
      inj_mask;
      policy;
      injected = false;
      injected_step = -1;
      activated = false;
      watch = No_watch;
      fault_note = "";
      fault_bit = -1;
      track_use;
      first_use = First_use.Unone;
      fault_site = -1;
      skip_capture = Phase.skip_capture phase;
      rej;
    }
  in
  (* Startup: rsp points at the pushed "halt" return address. *)
  m.gp.(Reg.rsp) <- Memory.stack_top - 32;
  Memory.write_word m.mem m.gp.(Reg.rsp) (Backend.Program.halt_addr p);
  m

let run ?(inputs = [||]) ?(max_steps = 100_000_000) mode (loaded : loaded) =
  let m =
    match mode with
    | Golden -> make_machine loaded ~inputs ~max_steps Phase.Plain
    | Profile counts ->
      make_machine loaded ~inputs ~max_steps (Phase.Counting counts)
    | Profile_index counts ->
      make_machine loaded ~inputs ~max_steps (Phase.Counting_sites counts)
    | Inject (pl, f) ->
      make_machine ~inj_mask:pl.inj_mask ~policy:pl.policy
        ~track_use:f.track_use loaded ~inputs ~max_steps
        (Phase.injecting ~countdown:pl.target ~rng:pl.rng f)
  in
  finish_machine loaded m

(* A whole-program golden run in a bookkeeping phase; [what] names the
   caller in the error raised if the run does not complete. *)
let run_golden (loaded : loaded) m ~what =
  match run_machine loaded m with
  | () -> invalid_arg (what ^ ": machine paused unexpectedly")
  | exception Halt -> ()
  | exception Trap.Trap _ | (exception Outcome.Hang_limit) ->
    invalid_arg (what ^ ": golden run did not complete")

(* Record a rejoin journal from one digest-maintaining golden run. *)
let record_journal (loaded : loaded) ~inputs =
  Rejoin.record (fun b ->
      let m =
        make_machine
          ~rej:(new_rej ~recorder:b (store_table loaded))
          loaded ~inputs ~max_steps:max_int Phase.Plain
      in
      run_golden loaded m ~what:"X86_exec.record_journal";
      (m.steps, Buffer.contents m.out))

(* Fault-space pre-pass: one golden Enumerate-phase run over the cell. *)
let enumerate ?(policy = paper_policy) ~inputs ~inj_mask ~max_steps
    (loaded : loaded) =
  let regs () = Array.make 16 None in
  let en = { e_gp = regs (); e_xmm = regs (); e_flags = None; enum_rev = [] } in
  let m =
    make_machine ~inj_mask ~policy loaded ~inputs ~max_steps
      (Phase.Enumerate en)
  in
  run_golden loaded m ~what:"X86_exec.enumerate";
  Fault_space.finish en.enum_rev

(* --- snapshot / fast-forward executor ---

   One rolling Forward-phase machine per (program, category) pair: for
   trial [target] it advances fault-free until it pauses just before
   the target's dynamic instance, then a copy of the register file and
   a copy-on-write view of its memory run the faulty remainder in
   Inject mode.  Sorted targets make a whole cell cost about one golden
   run of forward progress instead of one golden-run prefix per
   trial. *)

type ff = {
  ff_loaded : loaded;
  ff_rejoin : (Rejoin.t * int array) option;
      (* journal + def table; the rolling machine maintains the digest
         so trials can fork with a live accumulator *)
  mutable ff_m : machine;
  mutable ff_fwd : Phase.fwd;  (* [ff_m]'s Forward payload *)
}

(* The rolling machine at step 0; it maintains the memory accumulator
   (but never probes: it is fault-free) so each trial can fork with a
   live digest. *)
let roll_machine ff_loaded ff_rejoin ~policy ~inputs ~inj_mask =
  let fwd = Phase.forward () in
  let m =
    make_machine ~inj_mask ~policy
      ?rej:(Option.map (fun (_, st) -> new_rej st) ff_rejoin)
      ff_loaded ~inputs ~max_steps:max_int (Phase.Forward fwd)
  in
  (m, fwd)

let ff_create (loaded : loaded) ?(policy = paper_policy) ?rejoin ~inputs
    ~inj_mask () =
  let ff_rejoin = Option.map (fun j -> (j, store_table loaded)) rejoin in
  let m, fwd = roll_machine loaded ff_rejoin ~policy ~inputs ~inj_mask in
  { ff_loaded = loaded; ff_rejoin; ff_m = m; ff_fwd = fwd }

let ff_trial ff ~fault ~target ~max_steps ~rng =
  if target < 0 then invalid_arg "X86_exec.ff_trial: negative target";
  Obs.Metrics.incr m_ff_trials;
  (* Monotonic fast path; a smaller target restarts the rolling run. *)
  if target < ff.ff_fwd.matched then begin
    Obs.Metrics.incr m_ff_rebuilds;
    let old = ff.ff_m in
    let m, fwd =
      roll_machine ff.ff_loaded ff.ff_rejoin ~policy:old.policy
        ~inputs:old.inputs ~inj_mask:old.inj_mask
    in
    ff.ff_m <- m;
    ff.ff_fwd <- fwd
  end;
  let roll = ff.ff_m in
  ff.ff_fwd.ff_stop <- target;
  let advance () =
    match run_machine ff.ff_loaded roll with
    | () -> ()
    | exception Halt ->
      invalid_arg "X86_exec.ff_trial: target beyond the category's population"
  in
  Phase.traced "ff-advance" ~target advance;
  let snap = Memory.freeze roll.mem in
  Obs.Metrics.observe m_checkpoint_depth (Memory.snapshot_depth snap);
  let out = Buffer.create (Buffer.length roll.out + 1024) in
  Buffer.add_buffer out roll.out;
  let countdown = target - ff.ff_fwd.matched in
  let phase = Phase.injecting ~countdown ~rng fault in
  (* The fork: the paused rolling machine with private registers, a
     copy-on-write memory view and the Inject phase.  Its injection
     bookkeeping is still pristine — the roll never injects. *)
  let m =
    {
      roll with
      mem = Memory.resume snap;
      gp = Array.copy roll.gp;
      xmm = Array.copy roll.xmm;
      out;
      max_steps;
      phase;
      track_use = fault.track_use;
      skip_capture = Phase.skip_capture phase;
      (* The trial starts on the golden track with the roll's digest
         and probes the journal once the fault is in. *)
      rej =
        (match (ff.ff_rejoin, roll.rej) with
        | Some (j, st), Some r -> Some (new_rej ~journal:j ~acc:r.rj_acc st)
        | _ -> None);
    }
  in
  Phase.traced "trial-run" ~target (fun () ->
      finish_machine ff.ff_loaded m)
