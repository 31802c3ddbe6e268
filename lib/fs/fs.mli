(** The filesystem: a crash-safe, on-disk inode filesystem.

    One of the services the paper says a verified OS must provide
    (Section 1, Table 2 "Filesystem").  On-disk layout, all in 512-byte
    blocks:

    {v
    block 0        superblock
    blocks 1..31   write-ahead log (Wal)
    block 32       inode bitmap
    block 33       data-block bitmap
    blocks 34..65  inode table (256 inodes, 64 bytes each)
    blocks 66..    data blocks
    v}

    Files use 10 direct block pointers plus one single-indirect block
    (max file size 70,656 bytes).  Directories are files holding 32-byte
    entries (u32 inode number + 27-byte name).  Every metadata mutation is
    one {!Wal} transaction, so any crash leaves the filesystem in a state
    that {!mount}'s recovery makes consistent — the property the crash VCs
    in the test suite enumerate write-by-write.

    {b Name cache.}  A handle keeps an exact table from path to inode
    number, filled by every successful {!resolve} (and so by {!stat})
    and consulted before the directories are scanned; failed lookups
    are not kept.  Only {!create}, {!mkdir}, {!unlink}, {!rmdir} and
    {!rename} can change what a path resolves to — directories cannot be
    renamed and [rmdir] requires an empty directory — so each of them
    clears the whole table before it runs.  {!mkfs} and {!mount} start
    with an empty table.  The cache only removes block reads: the
    device sees the same writes and flushes, in the same order, as
    without it.

    {b One live handle per device.}  The table is private to a handle,
    so namespace changes must go through the one live handle of a
    device: a second handle on the same device would keep serving
    names the first one has since removed.  Mount again only after the
    old handle is no longer used (after a crash, for instance). *)

type t

type error =
  | Not_found
  | Exists
  | Not_dir
  | Is_dir
  | Not_empty  (** rmdir of a non-empty directory. *)
  | No_space
  | Too_large  (** Write past the maximum file size. *)
  | Invalid_path

type kind = File | Dir

type stat = { kind : kind; size : int; ino : int }

val pp_error : Format.formatter -> error -> unit

val max_file_size : int

val mkfs : ?mutant_stale_rename:bool -> Block_dev.t -> t
(** Format the device and return a mounted filesystem with an empty
    root directory.  [mutant_stale_rename] (default [false]) is a
    mutation-self-check knob: the handle's {!rename} skips clearing the
    name cache, the bug the [fs/names] cache-parity VC must catch. *)

val mount : Block_dev.t -> t
(** Attach to a formatted device, running log recovery.  Raises
    [Invalid_argument] if the superblock is unrecognisable. *)

val create : t -> string -> (unit, error) result
(** Create an empty file.  Fails with [Exists], [Not_found] (parent),
    [Not_dir] (parent not a directory) or [Invalid_path]. *)

val mkdir : t -> string -> (unit, error) result

val unlink : t -> string -> (unit, error) result
(** Remove a file, freeing its blocks.  [Is_dir] on directories. *)

val rmdir : t -> string -> (unit, error) result
(** Remove an empty directory. *)

val rename : t -> src:string -> dst:string -> (unit, error) result
(** Atomically move a {e file} to a new path (one WAL transaction).
    Fails with [Exists] if [dst] exists, [Is_dir] on directories (cycle
    safety is the caller's problem we chose not to have). *)

val readdir : t -> string -> (string list, error) result
(** Entry names, sorted. *)

val stat : t -> string -> (stat, error) result
(** {!resolve} then {!stat_ino}. *)

val resolve : t -> string -> (int, error) result
(** Path to inode number (the filesystem's "open"), served from the
    name cache when the path was resolved since the last namespace
    change. *)

val stat_ino : t -> int -> (stat, error) result

val read_ino : t -> ino:int -> off:int -> len:int -> (bytes, error) result
(** Read up to [len] bytes at [off]; short reads at end of file; reading
    at or past the size returns empty. *)

val write_ino : t -> ino:int -> off:int -> bytes -> (unit, error) result
(** Write, extending the file as needed (gap blocks zero-filled). *)

val truncate_ino : t -> ino:int -> int -> (unit, error) result
(** Set the file size, freeing blocks beyond it. *)

val fsync : t -> unit
(** Durability barrier (mutations are already transactional; this flushes
    the device for read-path metadata too). *)

val free_data_blocks : t -> int
(** Unallocated data blocks (for no-space tests). *)
