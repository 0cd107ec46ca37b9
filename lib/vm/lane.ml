(* Destination fault spaces shared by both VMs; see the .mli. *)

open Support

type 'v t = {
  width : int;
  live : int;  (* bits from [live] up are inert *)
  gold : 'v -> int64;  (* the value's bits in lane order *)
  flip : 'v -> int -> 'v;
  random : Rng.t -> 'v -> 'v;
  flag_bits : int array;  (* flags: lane bit i is flag bit flag_bits.(i) *)
}

let width lane = lane.width
let live lane = lane.live
let flip lane = lane.flip

(* Forcing a bit is flipping it when it differs. *)
let set lane v bit b =
  if bit >= lane.live || Bits.test_int64 (lane.gold v) bit = b then v
  else lane.flip v bit

let make_int w =
  {
    width = w;
    live = w;
    gold =
      (fun v ->
        if w >= Word.width then Int64.of_int v
        else Int64.of_int (Word.to_unsigned w v));
    flip =
      (fun v bit ->
        if w >= Word.width then Word.flip_bit v bit
        else if w = 1 then v lxor 1
        else Word.canon w (Word.to_unsigned w v lxor (1 lsl bit)));
    (* a uniform canonical [w]-bit value from exactly one 64-bit draw *)
    random =
      (fun rng _ ->
        let x = Rng.next_int64 rng in
        if w >= Word.width then Int64.to_int (Int64.shift_right_logical x 1)
        else Word.canon w (Int64.to_int (Int64.logand x (Bits.mask_width w))));
    flag_bits = [||];
  }

(* IR integer widths run 1..64: one lane each, built once. *)
let int_lanes = Array.init 65 make_int
let int w = int_lanes.(w)

(* A double in a [width]-bit register: bits from 64 up are inert. *)
let make_float width =
  {
    width;
    live = 64;
    gold = Int64.bits_of_float;
    flip = (fun v bit -> if bit < 64 then Bits.flip_float v bit else v);
    random = (fun rng _ -> Int64.float_of_bits (Rng.next_int64 rng));
    flag_bits = [||];
  }

let f64 = make_float 64
let xmm128 = make_float 128

let flags candidates =
  let fb = Array.of_list candidates in
  let n = Array.length fb in
  {
    width = n;
    live = n;
    gold =
      (fun v ->
        let g = ref 0 in
        Array.iteri
          (fun i bit -> if X86.Flags.test v bit then g := !g lor (1 lsl i))
          fb;
        Int64.of_int !g);
    flip = (fun v i -> v lxor (1 lsl fb.(i)));
    random =
      (fun rng v ->
        let x = Rng.int rng (1 lsl n) in
        let v = ref v in
        Array.iteri
          (fun i bit -> v := X86.Flags.set !v bit ((x lsr i) land 1 = 1))
          fb;
        !v);
    flag_bits = fb;
  }

let instance lane v = Fault_space.create ~gold:(lane.gold v) ~width:lane.width

type 'v fault = { value : 'v; bit : int; touched : bool; note : string }

let corrupt lane (inj : Phase.inj) ~what ~prior v =
  let is_flags = Array.length lane.flag_bits > 0 in
  let at bit =
    if is_flags then Printf.sprintf "flag bit %d" lane.flag_bits.(bit)
    else if bit >= lane.live then
      Printf.sprintf "bit %d of %s (upper half)" bit what
    else Printf.sprintf "bit %d of %s" bit what
  in
  let drawn bit value note =
    let named = if is_flags then lane.flag_bits.(bit) else bit in
    { value; bit = named; touched = bit < lane.live; note }
  in
  let whole value note = { value; bit = -1; touched = true; note } in
  match inj.model with
  | Fault_model.Bitflip ->
    let bit = Phase.draw_bit inj lane.width in
    drawn bit (lane.flip v bit) (at bit)
  | Fault_model.Multi_bit n ->
    let bit = Phase.draw_bit inj lane.width in
    let value = ref (lane.flip v bit) and touched = ref (bit < lane.live) in
    for _ = 2 to n do
      let b = Rng.int inj.rng lane.width in
      value := lane.flip !value b;
      touched := !touched || b < lane.live
    done;
    let more = Printf.sprintf "%s (+%d more)" (at bit) (n - 1) in
    { (drawn bit !value more) with touched = !touched }
  | Fault_model.Stuck_at_0 | Fault_model.Stuck_at_1 ->
    let b = inj.model = Fault_model.Stuck_at_1 in
    let bit = Phase.draw_bit inj lane.width in
    drawn bit (set lane v bit b)
      (Printf.sprintf "%s stuck at %d" (at bit) (Bool.to_int b))
  | Fault_model.Skip ->
    whole prior
      (if is_flags then "flags write skipped"
       else Printf.sprintf "write of %s skipped" what)
  | Fault_model.Load_value ->
    let value = lane.random inj.rng v in
    whole value
      (if is_flags then
         Printf.sprintf "flag value %Ld of %d candidates" (lane.gold value)
           lane.width
       else Printf.sprintf "value of %s randomized" what)
