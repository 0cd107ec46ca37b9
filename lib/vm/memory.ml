(** Sparse paged byte-addressable memory with trapping semantics.

    The address space mirrors a Linux process closely enough for the
    crash-rate experiments to be meaningful: a guard region at address 0,
    a text segment (jump targets only), a globals segment, a heap that
    grows up from a high base, and a stack that grows down from near the
    top of a 2^40-byte space.  Accesses to unmapped pages trap — this is
    what turns a bit-flipped pointer into the paper's "crash" outcome,
    with flips in low address bits tending to stay inside a mapped page
    and flips in high bits tending to escape it.

    The page store is layered to support the snapshot/fast-forward
    executor: {!freeze} captures the current pages as a shared base
    layer, and {!resume} builds a copy-on-write view over it — reads
    fall through to the base, the first write to a page clones it into
    the view's private top layer.  A freshly {!create}d memory has a
    single private layer and pays no COW cost. *)

let page_bits = Support.Segments.page_bits
let page_size = Support.Segments.page_size

(* Segment layout (byte addresses). *)
let text_base = Support.Segments.text_base
let globals_base = Support.Segments.globals_base
let heap_base = Support.Segments.heap_base
let stack_top = Support.Segments.stack_top (* first address *above* the stack *)
let default_stack_bytes = Support.Segments.default_stack_bytes

type layer = (int, Bytes.t) Hashtbl.t

type t = {
  pages : layer;  (* private, writable top layer *)
  below : layer list;  (* shared, read-only base layers (outermost first) *)
  mutable last_index : int;  (* one-entry page cache *)
  mutable last_page : Bytes.t;
  mutable last_writable : bool;  (* cached page is in [pages] *)
  mutable heap_brk : int;  (* bump-allocator frontier *)
  mutable heap_mapped : int;  (* end of the mapped heap arena *)
}

type snapshot = { snap_layers : layer list; snap_brk : int; snap_mapped : int }

let unmapped = Bytes.create 0

let create () =
  {
    pages = Hashtbl.create 256;
    below = [];
    last_index = -1;
    last_page = unmapped;
    last_writable = false;
    heap_brk = heap_base;
    heap_mapped = heap_base;
  }

let freeze t =
  {
    snap_layers = t.pages :: t.below;
    snap_brk = t.heap_brk;
    snap_mapped = t.heap_mapped;
  }

let snapshot_depth s = List.length s.snap_layers

let resume s =
  {
    pages = Hashtbl.create 64;
    below = s.snap_layers;
    last_index = -1;
    last_page = unmapped;
    last_writable = false;
    heap_brk = s.snap_brk;
    heap_mapped = s.snap_mapped;
  }

let heap_brk t = t.heap_brk
let heap_mapped t = t.heap_mapped

let page_of_addr addr = addr lsr page_bits

let rec find_below index = function
  | [] -> None
  | (l : layer) :: ls -> (
    match Hashtbl.find_opt l index with
    | Some page -> Some page
    | None -> find_below index ls)

let any_layer_has t index =
  Hashtbl.mem t.pages index || find_below index t.below <> None

let map_page t index =
  if not (any_layer_has t index) then
    Hashtbl.replace t.pages index (Bytes.make page_size '\000')

(* Map every page overlapping [addr, addr+len). *)
let map_region t ~addr ~len =
  if len > 0 then
    for index = page_of_addr addr to page_of_addr (addr + len - 1) do
      map_page t index
    done

(* Stack pages are demand-mapped, like an OS growing the stack on first
   touch; everything else must have been mapped explicitly. *)
let stack_auto_base = stack_top - default_stack_bytes

let demand_map t addr index =
  if addr >= stack_auto_base && addr < stack_top then begin
    let page = Bytes.make page_size '\000' in
    Hashtbl.replace t.pages index page;
    Some page
  end
  else None

let cache_page t index page ~writable =
  t.last_index <- index;
  t.last_page <- page;
  t.last_writable <- writable

let find_page_read t addr =
  let index = page_of_addr addr in
  if index = t.last_index then t.last_page
  else
    match Hashtbl.find_opt t.pages index with
    | Some page ->
      cache_page t index page ~writable:true;
      page
    | None -> (
      match find_below index t.below with
      | Some page ->
        cache_page t index page ~writable:false;
        page
      | None -> (
        match demand_map t addr index with
        | Some page ->
          cache_page t index page ~writable:true;
          page
        | None -> Trap.raise_trap (Trap.Unmapped_read addr)))

let find_page_write t addr =
  let index = page_of_addr addr in
  if index = t.last_index && t.last_writable then t.last_page
  else
    match Hashtbl.find_opt t.pages index with
    | Some page ->
      cache_page t index page ~writable:true;
      page
    | None -> (
      match find_below index t.below with
      | Some page ->
        (* Copy-on-write: clone the shared page into the top layer. *)
        let copy = Bytes.copy page in
        Hashtbl.replace t.pages index copy;
        cache_page t index copy ~writable:true;
        copy
      | None -> (
        match demand_map t addr index with
        | Some page ->
          cache_page t index page ~writable:true;
          page
        | None -> Trap.raise_trap (Trap.Unmapped_write addr)))

let read_u8 t addr =
  if addr < 0 then Trap.raise_trap (Trap.Unmapped_read addr);
  let page = find_page_read t addr in
  Char.code (Bytes.unsafe_get page (addr land (page_size - 1)))

let write_u8 t addr v =
  if addr < 0 then Trap.raise_trap (Trap.Unmapped_write addr);
  let page = find_page_write t addr in
  Bytes.unsafe_set page (addr land (page_size - 1)) (Char.unsafe_chr (v land 0xff))

(* Multi-byte little-endian accessors.  The common case — the whole value
   inside one page — uses direct byte loads; page-straddling accesses fall
   back to byte-at-a-time. *)

let read_bytes_le t addr n =
  let v = ref 0 in
  for k = n - 1 downto 0 do
    v := (!v lsl 8) lor read_u8 t (addr + k)
  done;
  !v

let write_bytes_le t addr n v =
  for k = 0 to n - 1 do
    write_u8 t (addr + k) ((v lsr (8 * k)) land 0xff)
  done

let read_u16 t addr = read_bytes_le t addr 2
let write_u16 t addr v = write_bytes_le t addr 2 v
let read_u32 t addr = read_bytes_le t addr 4
let write_u32 t addr v = write_bytes_le t addr 4 v

(* 64-bit slots hold the VM's 63-bit words; the top bit of byte 7 stores
   the sign so that signed round-trips are exact. *)
let read_word t addr =
  let lo = read_bytes_le t addr 7 in
  let hi = read_u8 t (addr + 7) in
  (* Reassemble 63 bits: 56 from lo, 7 from hi; sign bit is hi's bit 7. *)
  let v = lo lor ((hi land 0x7f) lsl 56) in
  if hi land 0x80 <> 0 then v lor min_int else v

let write_word t addr v =
  write_bytes_le t addr 7 v;
  let hi = (v lsr 56) land 0x7f in
  let hi = if v < 0 then hi lor 0x80 else hi in
  write_u8 t (addr + 7) hi

let read_f64 t addr =
  let lo32 = read_u32 t addr in
  let hi32 = read_u32 t (addr + 4) in
  Int64.float_of_bits
    (Int64.logor
       (Int64.shift_left (Int64.of_int hi32) 32)
       (Int64.of_int lo32))

let write_f64 t addr v =
  let bits = Int64.bits_of_float v in
  write_u32 t addr (Int64.to_int (Int64.logand bits 0xffff_ffffL));
  write_u32 t (addr + 4) (Int64.to_int (Int64.shift_right_logical bits 32))

(* --- width-specialized accessors for the closure tables ---

   The byte-composed accessors above pay one (cached) page lookup per
   byte; a compiled-closure step cannot afford eight.  These do one page
   lookup and one multi-byte load/store when the access stays inside a
   page, and delegate to the byte-composed path otherwise (negative or
   page-straddling addresses), so traps, demand mapping and
   copy-on-write behave identically byte for byte.  The word sign
   encoding round-trips exactly: byte 7's low 7 bits are value bits
   56-62 and its top bit is the sign — precisely the layout of
   [Int64.of_int v] for a 63-bit [v], whose bit 63 is the sign
   extension.  The compile differential tests exercise fast-vs-slow on
   both engines. *)

(* The one-entry page cache check is written out inline in each fast
   accessor (rather than through [find_page_read]/[find_page_write])
   because these are the closures' inner-loop memory operations
   and the OCaml compiler does not inline across the call.

   Trap payloads must also match byte for byte: [read_bytes_le] walks
   bytes high-to-low, so on an unmapped page the byte-composed reads
   trap with [addr + n - 1] ([read_word] with [addr + 6], [read_f64]
   with [addr + 3] via its low [read_u32]) while the writes walk
   low-to-high and trap with [addr].  Each fast read therefore probes
   the page with the first address its slow twin would touch — the
   same page (the in-page guard holds) and the same demand-map
   decision (the stack window is page-aligned), differing only in the
   trap payload. *)

let read_u8_fast t addr =
  if addr >= 0 then begin
    let page =
      if addr lsr page_bits = t.last_index then t.last_page
      else find_page_read t addr
    in
    Char.code (Bytes.unsafe_get page (addr land (page_size - 1)))
  end
  else read_u8 t addr

let write_u8_fast t addr v =
  if addr >= 0 then begin
    let page =
      if addr lsr page_bits = t.last_index && t.last_writable then t.last_page
      else find_page_write t addr
    in
    Bytes.unsafe_set page
      (addr land (page_size - 1))
      (Char.unsafe_chr (v land 0xff))
  end
  else write_u8 t addr v

let read_u16_fast t addr =
  let off = addr land (page_size - 1) in
  if addr >= 0 && off <= page_size - 2 then begin
    let page =
      if addr lsr page_bits = t.last_index then t.last_page
      else find_page_read t (addr + 1)
    in
    Bytes.get_uint16_le page off
  end
  else read_u16 t addr

let write_u16_fast t addr v =
  let off = addr land (page_size - 1) in
  if addr >= 0 && off <= page_size - 2 then begin
    let page =
      if addr lsr page_bits = t.last_index && t.last_writable then t.last_page
      else find_page_write t addr
    in
    Bytes.set_uint16_le page off (v land 0xffff)
  end
  else write_u16 t addr v

let read_u32_fast t addr =
  let off = addr land (page_size - 1) in
  if addr >= 0 && off <= page_size - 4 then begin
    let page =
      if addr lsr page_bits = t.last_index then t.last_page
      else find_page_read t (addr + 3)
    in
    Int32.to_int (Bytes.get_int32_le page off) land 0xffffffff
  end
  else read_u32 t addr

let write_u32_fast t addr v =
  let off = addr land (page_size - 1) in
  if addr >= 0 && off <= page_size - 4 then begin
    let page =
      if addr lsr page_bits = t.last_index && t.last_writable then t.last_page
      else find_page_write t addr
    in
    Bytes.set_int32_le page off (Int32.of_int v)
  end
  else write_u32 t addr v

let read_word_fast t addr =
  let off = addr land (page_size - 1) in
  if addr >= 0 && off <= page_size - 8 then begin
    let page =
      if addr lsr page_bits = t.last_index then t.last_page
      else find_page_read t (addr + 6)
    in
    let raw = Bytes.get_int64_le page off in
    (* Low 63 bits as the value, bit 63 as the stored sign flag; ORing
       [min_int] sets bit 62, exactly as the byte-composed decode.  The
       sign test shifts rather than compares to keep [raw] unboxed. *)
    let v = Int64.to_int raw in
    if Int64.to_int (Int64.shift_right_logical raw 63) <> 0 then
      v lor min_int
    else v
  end
  else read_word t addr

let write_word_fast t addr v =
  let off = addr land (page_size - 1) in
  if addr >= 0 && off <= page_size - 8 then begin
    let page =
      if addr lsr page_bits = t.last_index && t.last_writable then t.last_page
      else find_page_write t addr
    in
    Bytes.set_int64_le page off (Int64.of_int v)
  end
  else write_word t addr v

let read_f64_fast t addr =
  let off = addr land (page_size - 1) in
  if addr >= 0 && off <= page_size - 8 then begin
    let page =
      if addr lsr page_bits = t.last_index then t.last_page
      else find_page_read t (addr + 3)
    in
    Int64.float_of_bits (Bytes.get_int64_le page off)
  end
  else read_f64 t addr

let write_f64_fast t addr v =
  let off = addr land (page_size - 1) in
  if addr >= 0 && off <= page_size - 8 then begin
    let page =
      if addr lsr page_bits = t.last_index && t.last_writable then t.last_page
      else find_page_write t addr
    in
    Bytes.set_int64_le page off (Int64.bits_of_float v)
  end
  else write_f64 t addr v

let blit_string t ~addr s =
  String.iteri (fun k c -> write_u8 t (addr + k) (Char.code c)) s

(* Bump allocation, 16-byte aligned.  The arena is mapped in 64 KiB
   chunks, like an sbrk-grown malloc arena: there is always mapped slack
   beyond the last allocation, so an off-by-a-few overrun reads garbage
   (a silent corruption) rather than faulting — faults happen when an
   access escapes the arena, as on a real heap. *)
let arena_chunk = 1 lsl 16

let heap_alloc t n =
  if n < 0 then invalid_arg "Memory.heap_alloc: negative size";
  let addr = t.heap_brk in
  let len = max n 1 in
  let mapped_end = (addr + len + arena_chunk - 1) / arena_chunk * arena_chunk in
  map_region t ~addr ~len:(mapped_end - addr);
  t.heap_brk <- (addr + len + 15) land lnot 15;
  if mapped_end > t.heap_mapped then t.heap_mapped <- mapped_end;
  addr

(* --- raw-byte cell fingerprints (the rejoin digest, see Rejoin) --- *)

(* Non-trapping, non-mapping page lookup: reads through the layer stack
   and the one-entry cache but never demand-maps a stack page and never
   raises. *)
let find_page_opt t addr =
  let index = page_of_addr addr in
  if index = t.last_index then Some t.last_page
  else
    match Hashtbl.find_opt t.pages index with
    | Some page ->
      cache_page t index page ~writable:true;
      Some page
    | None -> (
      match find_below index t.below with
      | Some page ->
        cache_page t index page ~writable:false;
        Some page
      | None -> None)

(* Fingerprint of the aligned 8-byte cell at [addr] ([addr land 7 = 0],
   so the cell never straddles a page).  Computed from raw bytes, not
   {!read_word}: the word sign encoding is not injective, and aliasing
   two distinct byte states would unsound the rejoin digest.  An
   unmapped cell fingerprints as zeros — a demand-zeroed stack page and
   an untouched one are the same machine state, as are a zeroed heap
   page inside the arena and one past it (the arena extent itself is
   digested separately via {!heap_mapped}). *)
let cell_fp t addr =
  match find_page_opt t addr with
  | None -> Rejoin.h3 addr 0 0
  | Some page ->
    let off = addr land (page_size - 1) in
    let b k = Char.code (Bytes.unsafe_get page (off + k)) in
    let lo = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
    let hi = b 4 lor (b 5 lsl 8) lor (b 6 lsl 16) lor (b 7 lsl 24) in
    Rejoin.h3 addr lo hi

let write_globals t size_of image =
  let scalar_write addr (ty : Ir.Types.t) v =
    match ty with
    | Ir.Types.I1 | Ir.Types.I8 -> write_u8 t addr (v land 0xff)
    | Ir.Types.I16 -> write_u16 t addr (v land 0xffff)
    | Ir.Types.I32 -> write_u32 t addr (v land 0xffffffff)
    | Ir.Types.I64 | Ir.Types.Ptr _ -> write_word t addr v
    | Ir.Types.F64 | Ir.Types.Arr _ | Ir.Types.Struct _ | Ir.Types.Void ->
      invalid_arg "Memory: non-integer scalar initializer"
  in
  let single = function
    | [ v ] -> v
    | _ -> invalid_arg "Memory: scalar global with several initializers"
  in
  List.iter
    (fun (addr, ty, (init : Ir.Prog.init)) ->
      match (init, ty) with
      | Ir.Prog.Zero, _ -> ()
      | Ir.Prog.Str s, _ -> blit_string t ~addr s
      | Ir.Prog.Ints vs, Ir.Types.Arr (_, elt) ->
        let esize = size_of elt in
        List.iteri (fun k v -> scalar_write (addr + (k * esize)) elt v) vs
      | Ir.Prog.Ints vs, scalar -> scalar_write addr scalar (single vs)
      | Ir.Prog.Floats vs, Ir.Types.Arr (_, Ir.Types.F64) ->
        List.iteri (fun k v -> write_f64 t (addr + (k * 8)) v) vs
      | Ir.Prog.Floats vs, Ir.Types.F64 -> write_f64 t addr (single vs)
      | Ir.Prog.Floats _, _ ->
        invalid_arg "Memory: float initializer on non-float global")
    image
