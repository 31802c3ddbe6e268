(** The node's file layer: its durable layout, written once over a record
    of file primitives with two backends.

    {v
    /blocks/<key>       a value
    /blocks/<key>.crc   its CRC-32 as 8 hex digits (the sidecar)
    /journal            the redo journal
    /journal.new        a checkpoint snapshot being installed
    v}

    No other module knows these names.  [Node_core.fs_store] and
    [Journal.fs_sink] (crash-explored by the cr suite) are {!store} and
    {!sink} over {!of_fs}; netd's [Storage_node.usys_store] and
    [usys_journal] are the same two over {!of_usys}.  Both backends issue
    the same device writes and flushes, in the same order. *)

type stored = { value : string; crc : int32 }

type store = {
  load : string -> (stored option, Protocol.err) result;
  save : string -> stored -> (unit, Protocol.err) result;
  remove : string -> (bool, Protocol.err) result;
  keys : unit -> (string list, Protocol.err) result;
}
(** Re-exported, with its documentation, as [Node_core.store]. *)

type sink = {
  sink_read : unit -> (bytes, Protocol.err) result;
  sink_append : bytes -> (unit, Protocol.err) result;
  sink_replace : bytes -> (unit, Protocol.err) result;
}
(** Re-exported, with its documentation, as [Journal.sink]. *)

type files = {
  read : string -> (string option, Protocol.err) result;
      (** Whole file; [Ok None] when absent. *)
  write : sync:bool -> string -> string -> (unit, Protocol.err) result;
      (** Create or truncate, write, and with [~sync:true] sync. *)
  append : string -> string -> (unit, Protocol.err) result;
      (** Create if missing, write at the end, sync; [""] only syncs. *)
  unlink : string -> (bool, Protocol.err) result;  (** [Ok false] when absent. *)
  rename : src:string -> dst:string -> (unit, Protocol.err) result;
  readdir : string -> (string list, Protocol.err) result;
  exists : string -> bool;
  mkdir : string -> unit;  (** Best effort; an existing directory is fine. *)
}
(** Failures other than absence are [Io].  Tests may build their own. *)

val of_fs : Bi_fs.Fs.t -> files
(** On a directly mounted filesystem.  As {!of_usys} keeps its fd, the
    append target's inode and end offset are kept across appends. *)

val of_usys : Bi_kernel.Usys.t -> files
(** Over the syscall interface.  The append fd stays open across appends
    (seek once, then write + fsync each) until [write], [unlink] or
    [rename] names its path.  Primitives are several syscalls each, so
    concurrent callers must serialize (netd holds a data-path mutex). *)

val store : files -> store
(** Makes [/blocks] if missing.  [save] rewrites the value file, then
    the sidecar, in place.  [load] is [Ok None] for a missing value
    file, [Error No_crc] for a missing or unparsable sidecar, and
    [Error (Io _)] when either read fails otherwise.  [keys] omits the
    sidecars. *)

val sink : files -> sink
(** The journal at [/journal].  An append is one write + sync.  A
    replace writes and syncs [/journal.new], unlinks [/journal], renames
    and syncs.  An interrupted replace is settled on every read, before
    the sink's first operation, and after a failed replace — never on
    the per-append path.  Errors read [journal: ...]. *)
