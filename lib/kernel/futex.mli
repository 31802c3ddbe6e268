(** Kernel futex tables.

    The paper's example of keeping kernel APIs narrow: "we might expose
    futexes from the kernel and then verify a userspace mutex
    implementation on top" (Section 3).  A futex is a wait queue keyed by
    (process, virtual address); the value check that makes wait atomic is
    done by the kernel against the process's memory {e through the MMU},
    so sleeping and the user-space value are linked by the verified page
    table. *)

type t

val create : unit -> t

val enqueue : t -> pid:int -> va:int64 -> tid:int -> unit
(** Park a thread on the futex word. *)

val wake : t -> pid:int -> va:int64 -> count:int -> int list
(** Dequeue up to [count] waiters in FIFO order; returns their tids. *)

val waiters : t -> pid:int -> va:int64 -> int
(** Queue length (for tests). *)

val remove_thread : t -> tid:int -> unit
(** Remove a thread from any queue it is on (thread/process teardown). *)

val remove_process : t -> pid:int -> unit
(** Drop every queue of a process that has exited, so the table holds
    only live processes' futex words. *)
