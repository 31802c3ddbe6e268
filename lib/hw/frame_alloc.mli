(** Physical frame allocator.

    A bitmap allocator over 4 KiB frames in a physical range.  The kernel's
    memory-management service (one of the paper's Section 1 components) and
    the page-table implementation both draw frames from here. *)

type t

exception Out_of_frames

val create : mem:Phys_mem.t -> base:Addr.paddr -> frames:int -> t
(** Manage [frames] 4 KiB frames starting at page-aligned [base] inside
    [mem].  The range must lie within the installed memory. *)

val alloc : t -> Addr.paddr
(** Allocate a frame; raises {!Out_of_frames} when exhausted. *)

val alloc_zeroed : t -> Addr.paddr
(** Allocate and zero a frame. *)

val alloc_contiguous : t -> int -> Addr.paddr
(** Allocate [n] physically contiguous frames, returning the first;
    raises {!Out_of_frames} if no run exists. *)

val free : t -> Addr.paddr -> unit
(** Return a frame.  Raises [Invalid_argument] on a double free or a frame
    outside the managed range.  A freed frame reads as zeros: its
    {!Phys_mem} backing is released (no access is counted), so a freed
    frame holds no heap and leaks no data to its next owner. *)

val is_allocated : t -> Addr.paddr -> bool
val free_count : t -> int
val total : t -> int
val base : t -> Addr.paddr
