let frame_size = Int64.to_int Addr.page_size
let frame_shift = 12

(* One buffer per 4 KiB frame, allocated on the first store to it;
   [untouched] (length 0) stands for a frame that reads as zeros. *)
let untouched = Bytes.empty

type t = {
  frames : Bytes.t array;
  size : int;
  mutable loads : int;
  mutable stores : int;
}

exception Bad_address of Addr.paddr

let create ~size =
  if size <= 0 || size mod frame_size <> 0 then
    invalid_arg "Phys_mem.create: size must be a positive multiple of 4096";
  { frames = Array.make (size / frame_size) untouched; size; loads = 0; stores = 0 }

let size t = t.size

let check t pa width =
  (* Compare in Int64: converting first would let pa >= 2^62 wrap to a
     negative index and surface as [Invalid_argument] instead of
     [Bad_address]. *)
  if pa < 0L || Int64.compare pa (Int64.of_int (t.size - width)) > 0 then
    raise (Bad_address pa);
  Int64.to_int pa

(* The backing buffer of frame [f], allocated if needed. *)
let frame_for_store t f =
  let b = t.frames.(f) in
  if b != untouched then b
  else begin
    let b = Bytes.make frame_size '\000' in
    t.frames.(f) <- b;
    b
  end

let read_u64 t pa =
  if Int64.rem pa 8L <> 0L then raise (Bad_address pa);
  let i = check t pa 8 in
  t.loads <- t.loads + 1;
  let b = t.frames.(i lsr frame_shift) in
  if b == untouched then 0L else Bytes.get_int64_le b (i land (frame_size - 1))

let write_u64 t pa v =
  if Int64.rem pa 8L <> 0L then raise (Bad_address pa);
  let i = check t pa 8 in
  t.stores <- t.stores + 1;
  Bytes.set_int64_le (frame_for_store t (i lsr frame_shift)) (i land (frame_size - 1)) v

let read_u8 t pa =
  let i = check t pa 1 in
  t.loads <- t.loads + 1;
  let b = t.frames.(i lsr frame_shift) in
  if b == untouched then 0 else Char.code (Bytes.get b (i land (frame_size - 1)))

let write_u8 t pa v =
  let i = check t pa 1 in
  t.stores <- t.stores + 1;
  Bytes.set (frame_for_store t (i lsr frame_shift)) (i land (frame_size - 1)) (Char.chr (v land 0xFF))

(* Apply [f pos frame_index frame_offset n] to each frame-bounded piece
   of the region [[i, i + len)], where [pos] is the piece's offset in
   the region. *)
let iter_pieces i len f =
  let rec go pos =
    if pos < len then begin
      let a = i + pos in
      let off = a land (frame_size - 1) in
      let n = min (frame_size - off) (len - pos) in
      f pos (a lsr frame_shift) off n;
      go (pos + n)
    end
  in
  go 0

let read_bytes t pa len =
  let i = check t pa len in
  if len < 0 then invalid_arg "Phys_mem.read_bytes: negative length";
  t.loads <- t.loads + ((len + 7) / 8);
  let out = Bytes.make len '\000' in
  iter_pieces i len (fun pos f off n ->
      let b = t.frames.(f) in
      if b != untouched then Bytes.blit b off out pos n);
  out

let write_bytes t pa src =
  let len = Bytes.length src in
  let i = check t pa len in
  t.stores <- t.stores + ((len + 7) / 8);
  iter_pieces i len (fun pos f off n ->
      Bytes.blit src pos (frame_for_store t f) off n)

(* Dropping the buffer is the zeroing: the frame reads as zeros again
   until its next store. *)
let release_frame t pa =
  if not (Addr.is_aligned pa Addr.page_size) then raise (Bad_address pa);
  let i = check t pa frame_size in
  t.frames.(i lsr frame_shift) <- untouched

let zero_frame t pa =
  release_frame t pa;
  t.stores <- t.stores + (frame_size / 8)

let loads t = t.loads
let stores t = t.stores

let reset_counters t =
  t.loads <- 0;
  t.stores <- 0
