(** Per-node journal: crash-durable exactly-once state.

    {!Node_core}'s commit protocol appends one {!record} per mutation
    {e before} applying the store write (append = commit point), so a
    restart can rebuild the duplicate table, shard ownership, and the
    degraded latch.  On a filesystem the journal is also the store:
    {!Node_files} keeps these records in a segmented log, a put's [Mut]
    record is where its value lives, and a checkpoint's {!Index} records
    say where every live value lies.  The [cr] verify suite drives
    {!Bi_fault.Crash_explore} through every write/flush boundary of the
    commit, the checkpoint and its compaction, and recovery.

    Framing is [varint length | u32 CRC-32 | body] per record; stream
    decoding ({!load}) is total and stops at the first damaged record
    (torn tail — only ever the unacknowledged record being appended),
    while single-record decoding is strict (truncations and trailing
    bytes rejected). *)

type loc = { seg : int; off : int; len : int; crc : int32 }
(** Where a live value's [Mut] record lies: segment, frame offset and
    frame length, and the value's CRC-32. *)

type snapshot = {
  s_dups : (int * (int * int * bool) list) list;
      (** [(client, [(seq, shard, done)])], clients ascending, entries
          newest-first. *)
  s_sharding : (int * int * int list * int list) option;
      (** [(nshards, map_version, owned, frozen)]. *)
  s_degraded : bool;
}

type record =
  | Mut of {
      txn : Protocol.txn option;
      shard : int;
      key : string;
      put : (string * int32) option;
          (** [Some (value, crc)] for a put; [None] for a delete. *)
      done_ : bool;  (** decided response: [true] = [Done], [false] = [Missing] *)
    }
  | Cancel of { degraded : bool }
      (** The preceding [Mut]'s store apply failed: its effects are void. *)
  | Snapshot of snapshot
      (** Checkpoint — replay restarts here; the store is authoritative
          for everything before it. *)
  | Index of { segs : (int * int) list; entries : (string * loc) list }
      (** Part of a {!Node_files} checkpoint, before its [Snapshot]: the
          sealed segments with their sizes (first part only) and live
          keys with their locations.  Replay ignores it. *)
  | Enable of { nshards : int; version : int; owned : int list }
  | Adopt of int
  | Release of int
  | Freeze of int
  | Unfreeze of int
  | Map_version of int
  | Import of { shard : int; entries : (Protocol.txn * bool) list }

(** {2 Record serde} *)

val encode_record : record -> bytes
(** Unframed: tag byte + Serde body. *)

val decode_record : bytes -> record option
(** Strict inverse of {!encode_record}: total, and [None] on any
    truncation, trailing bytes, or unknown tag. *)

val frame_record : record -> bytes
(** [encode_record] wrapped in the length + CRC stream framing. *)

val decode_frames : bytes -> (int * int * record) list * int
(** Total: each record of the longest decodable prefix with its frame's
    offset and length, and the prefix's length — short of the input's
    exactly when a torn or corrupt tail follows. *)

val torn_at : bytes -> int -> bool
(** [torn_at buf off]: the frame at [off] runs past the end of [buf], as
    a torn append leaves it — not a whole frame whose CRC or body is bad.
    A damaged length field that makes a frame overrun reads as torn. *)

val decode_stream : bytes -> record list * bool
(** The records of {!decode_frames}, plus [true] when a torn or corrupt
    tail was discarded. *)

val decode_frame : bytes -> record option
(** Strict: exactly one whole, intact frame. *)

(** {2 Sinks} *)

type sink = {
  sink_read : unit -> (bytes, Protocol.err) result;
      (** Whole journal; [Ok empty] when absent. *)
  sink_append : bytes -> (unit, Protocol.err) result;  (** Durable append. *)
  sink_replace : bytes -> (unit, Protocol.err) result;
      (** Crash-atomic whole-journal replacement (checkpoints). *)
}

val mem_sink : ?faults:Bi_fault.Fault_plan.t -> unit -> sink * bytes ref
(** In-memory sink for the simulated worlds; the buffer outlives any
    node built over it, which is what makes a simulated restart durable.
    With [faults], exactly one decision is consumed per sink operation
    (read/append/replace, in call order); non-[Pass] fails it with
    [Err (Io _)]. *)

(** {2 The journal handle} *)

type t

val create : sink -> t
val size : t -> int
(** Bytes in the journal as of the last load/append/replace — the
    checkpoint trigger compares this against its threshold. *)

val appends : t -> int
val replaces : t -> int

val append : t -> record -> (unit, Protocol.err) result
val load : t -> (record list * bool, Protocol.err) result
(** All records plus the torn-tail flag; also refreshes {!size}. *)

val replace_with : t -> record list -> (unit, Protocol.err) result
