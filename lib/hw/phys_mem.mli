(** Physical memory.

    Bounds-checked memory addressed by physical address, backed lazily:
    one 4 KiB buffer per frame, allocated on the first store to that
    frame.  A frame never stored to reads as zeros, and {!zero_frame}
    drops a frame's buffer, so installing a large memory costs nothing
    until it is used.  Accesses that span frames are split at frame
    boundaries; to callers the memory is one flat, zero-initialised byte
    range.  This is the bottom of the hardware spec: page tables are
    stored in it as actual 64-bit little-endian words, and the MMU walker
    reads them back bit-for-bit — preserving the paper's "map from a
    multi-level tree structure encoded as bits to a flat abstract data
    type" proof obligation. *)

type t

exception Bad_address of Addr.paddr
(** Access outside the installed memory. *)

val create : size:int -> t
(** [create ~size] installs [size] bytes of zeroed physical memory (no
    frame is backed yet).  [size] must be a positive multiple of the
    4 KiB page size. *)

val size : t -> int
(** Installed bytes. *)

val read_u64 : t -> Addr.paddr -> int64
(** Little-endian 64-bit load; the address must be 8-byte aligned. *)

val write_u64 : t -> Addr.paddr -> int64 -> unit
(** Little-endian 64-bit store; the address must be 8-byte aligned. *)

val read_u8 : t -> Addr.paddr -> int
val write_u8 : t -> Addr.paddr -> int -> unit

val read_bytes : t -> Addr.paddr -> int -> bytes
(** Copy a region out; counts [ceil (len / 8)] loads. *)

val write_bytes : t -> Addr.paddr -> bytes -> unit
(** Copy a region in; counts [ceil (len / 8)] stores. *)

val zero_frame : t -> Addr.paddr -> unit
(** Zero the 4 KiB frame starting at the given (page-aligned) address;
    counts 512 stores whether or not the frame was backed. *)

val release_frame : t -> Addr.paddr -> unit
(** Drop the backing of the (page-aligned) frame, so it reads as zeros,
    without counting any access: the frame allocator's bookkeeping on
    {!Frame_alloc.free}, not a store the program performed. *)

val loads : t -> int
(** Cumulative count of word loads (feeds the cycle cost model). *)

val stores : t -> int
(** Cumulative count of word stores. *)

val reset_counters : t -> unit
