(** The storage node's persistence over the syscall interface:
    {!Node_files}' segmented log, as store and as journal — the code the
    cr suite crash-explores on a directly mounted filesystem — with every
    access crossing the marshalled syscall ABI into the verified
    filesystem.
    Every GET re-verifies the checksum, so filesystem corruption is
    detected rather than served — the property Amazon's S3 work checks
    with lightweight formal methods (paper Section 1).  Serving is
    [Bi_netd.Netd]'s job; request semantics stay in {!Node_core}. *)

val port : int
(** 9000 — the block-protocol port netd listens on. *)

val usys_store : Bi_kernel.Usys.t -> Node_core.store
(** {!Node_files.store} over the calling process's log: one
    {!Node_files.of_usys} log per process, built on first use over the
    handle that asked and kept with the process (a
    {!Bi_kernel.Kernel.local}) until it exits.  So this store and
    {!usys_journal} share one log in whatever order, and with whatever
    other processes, they are built (netd builds both at once; a test may
    keep one store and build any number of journals), and a respawned
    process starts from the files.  Operations are several syscalls, so
    concurrent callers must serialize — netd holds one data-path mutex
    across {!Node_core.handle}. *)

val usys_journal : Bi_kernel.Usys.t -> Journal.sink
(** {!Node_files.sink} over the same log, under the same mutex; the
    append fd stays open across commits, and a journaled put's store
    apply is an index update.  The files outlive a SIGKILLed process, so a
    respawned daemon's {!Node_core.recover} sees every committed
    record. *)
