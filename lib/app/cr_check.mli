(** The [cr] verify suite: crash-durable exactly-once.

    {!Node_core}'s journaled commit protocol and {!Node_core.recover}
    under systematic crash exploration ({!Bi_fault.Crash_explore}) at
    every write/flush boundary — of the commit, of a segment roll, of a
    checkpoint and the compaction it starts, and of recovery itself —
    over a journaled node whose store and journal are one
    {!Node_files} log on a crash-explored block device.  The
    obligations:

    - journal record serde: round-trips, strict-prefix rejection, decode
      totality under seeded corruption, and torn-stream prefix decoding;
    - commit atomicity: every crash point of a put (new and overwrite,
      and one that rolls to a fresh segment), a delete (present and
      journal-only absent), a size-triggered checkpoint, and a whole
      compaction (a checkpoint picks a segment, a commit moves its live
      records out, a checkpoint unlinks it) recovers to exactly the old
      or the new observation (durable kv + dup table + degraded latch),
      with a pinned crash-point census so coverage regressions are loud;
    - recovery: a fresh node over the log alone rebuilds everything, is
      idempotent at every one of its own crash points, finds a commit
      record with no apply behind it already written, skips cancelled
      commits (a live apply failure on an in-memory store, and a Cancel
      on the log), discards torn tails and appends past them, and replays
      snapshots, shard ownership, and imports equivalently to the live
      history;
    - degraded-on-recovery: a replayed shard sweep the store refuses (or
      an unreadable journal) comes up degraded read-only, serving
      recovered reads and answering restored dup hits;
    - exactly-once across restart: retries straddling a crash are
      answered from the recovered table — including re-answering [Done]
      for a delete whose key is gone and [Missing] for a key that has
      since appeared — with nothing re-applied;
    - recovery × migration: recovered and imported dup entries merge by
      highest seq, imports survive a further restart, and exports are
      canonically sorted;
    - mutation self-checks: journaling after the store apply, and a
      compaction that unlinks a segment before its live records are
      moved, are caught by the explorer; a respawn that skips recovery is
      caught by the exactly-once predicate. *)

val vcs : unit -> Bi_core.Vc.t list
