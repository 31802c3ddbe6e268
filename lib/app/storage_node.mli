(** The storage node's persistence over the syscall interface:
    {!Node_files}' store and journal — the code the cr suite
    crash-explores on a directly mounted filesystem — with every access
    crossing the marshalled syscall ABI into the verified filesystem.
    Every GET re-verifies the checksum, so filesystem corruption is
    detected rather than served — the property Amazon's S3 work checks
    with lightweight formal methods (paper Section 1).  Serving is
    [Bi_netd.Netd]'s job; request semantics stay in {!Node_core}. *)

val port : int
(** 9000 — the block-protocol port netd listens on. *)

val usys_store : Bi_kernel.Usys.t -> Node_core.store
(** {!Node_files.store} over {!Node_files.of_usys}.  A save is several
    syscalls, so concurrent callers must serialize — netd holds one
    data-path mutex across {!Node_core.handle}. *)

val usys_journal : Bi_kernel.Usys.t -> Journal.sink
(** {!Node_files.sink} over {!Node_files.of_usys}, under the same mutex;
    the append fd stays open across commits.  The journal outlives a
    SIGKILLed process, so a respawned daemon's {!Node_core.recover} sees
    every committed record. *)
