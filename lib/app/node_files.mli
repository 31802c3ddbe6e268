(** The node's file layer: its durable layout, written once over a record
    of file primitives with two backends.

    {v
    /log/<n>     segment n: framed {!Journal} records
    /log/ck<n>   empty marker: the checkpoint at the head of segment n is
                 in force (a checkpoint commits by renaming it)
    v}

    The journal is the store.  A put's value lives only in its
    [Journal.Mut] record, and an in-memory index maps each live key to
    that record's segment, offset, length and CRC.  A journaled put is one
    append, and the store's apply of it only claims the record.  A get
    reads the record back through the backend and checks its frame; values
    are never cached.  A checkpoint writes the index ([Journal.Index]
    records) and the node's snapshot at the head of a fresh segment, and
    picks the sealed segments whose garbage exceeds their live bytes;
    the commits after it carry their live records out, two per write,
    and a picked segment is unlinked once nothing points into it.
    Loading reads the newest checkpoint and the records after it —
    O(live keys), not O(history).  Every segment stays within
    [Fs.max_file_size].

    Loading tells a torn tail — a frame that runs past the end of its
    segment, all a crash mid-append can leave — from a corrupt record,
    one that fits but fails its CRC or decoding.  It drops the first; the
    second may have been acknowledged, so the log is then damaged: it
    refuses every write, the sink's read fails (the node degrades), and a
    load answers [Error Integrity] for every key not written after the
    damage.  A damaged length field that makes a frame overrun its
    segment is the one corruption that reads as a torn tail.

    No other module knows these names.  {!store} and {!sink} over one
    {!log} share it; [Node_core.fs_store] is {!store} over {!of_fs}, and
    netd's [Storage_node.usys_store] and [usys_journal] are the two over
    one {!of_usys} log.  Both backends issue the same device writes and
    flushes, in the same order. *)

type stored = { value : string; crc : int32 }

type store = {
  load : string -> (stored option, Protocol.err) result;
  save : string -> stored -> (unit, Protocol.err) result;
  remove : string -> (bool, Protocol.err) result;
  keys : unit -> (string list, Protocol.err) result;
}
(** Re-exported, with its documentation, as [Node_core.store]. *)

type files = {
  read : string -> (string option, Protocol.err) result;
      (** Whole file; [Ok None] when absent. *)
  read_at : string -> off:int -> len:int -> (string, Protocol.err) result;
      (** Up to [len] bytes at [off]; short only at end of file. *)
  append : string -> string -> (unit, Protocol.err) result;
      (** Create if missing, write at the end, sync; [""] only syncs. *)
  unlink : string -> (bool, Protocol.err) result;  (** [Ok false] when absent. *)
  rename : src:string -> dst:string -> (unit, Protocol.err) result;
      (** Atomic; fails if [dst] exists. *)
  readdir : string -> (string list, Protocol.err) result;
  mkdir : string -> unit;  (** Best effort; an existing directory is fine. *)
}
(** Failures other than absence are [Io].  Tests may build their own. *)

val of_fs : Bi_fs.Fs.t -> files
(** On a directly mounted filesystem.  As {!of_usys} keeps its fd, the
    append target's path and end offset are kept across appends, and the
    path is resolved per append, as the kernel resolves an fd's path. *)

val of_usys : Bi_kernel.Usys.t -> files
(** Over the syscall interface.  The append fd stays open across appends
    (seek once, then write + fsync each), and one read fd per file across
    reads (seek + read each), until [unlink] or [rename] names the
    path.
    Primitives are several syscalls each, so concurrent callers must
    serialize (netd holds a data-path mutex). *)

type log
(** The segmented log over one set of files, with its index.  It assumes
    it is the only writer of its files; it reads them on first use. *)

val log : ?segment_bytes:int -> ?mutant_unlink_early:bool -> files -> log
(** [segment_bytes] (default [Fs.max_file_size]) bounds a segment: an
    append that would pass it rolls to a fresh segment first.
    [mutant_unlink_early] is a mutation-self-check knob (cr suite only):
    a checkpoint unlinks the segments it picks for compaction at once,
    before their live records are moved. *)

val store : log -> store
(** [save] and [remove] of a write the sink just appended only claim it;
    any other appends its own [Mut] record, with no txn.  [load] is
    [Ok None] for an absent key and [Error Integrity] when the record
    read back is damaged or is not the indexed one, or when the log is
    damaged and the key was not written after the damage.  A store with
    no sink built over its log checkpoints the log itself, without a
    snapshot, once it has appended as much as a segment or its last
    checkpoint (whichever is more); so overwrites are reclaimed, and a
    journal later recovered over the same files starts with an empty
    duplicate table. *)

val sink : log -> Journal.sink
(** The log as the node's journal.  [sink_read] rebuilds the index from
    disk and returns the newest checkpoint's snapshot and every record
    after it (not its index), or [Error Integrity] when the log is
    damaged.  An append is one write + sync.  [sink_replace] is the
    checkpoint.  A torn tail ends its segment, and appends go on in a
    fresh one.  I/O errors read [journal: ...]. *)
