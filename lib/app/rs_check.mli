(** The [rs] verify suite: the resilient store end to end.

    {!World}'s virtual-time fiber scheduler (OCaml effects) runs client
    fibers against {!Node_core} instances behind
    {!Bi_fault.Faulty_link} channels, so every schedule and every
    injected fault is a deterministic, replayable artifact.  The obligations:

    - protocol totality and round-trips for the txn / typed-error /
      health extensions;
    - exactly-once application of retried mutations (duplicate table),
      under scripted faults and under seeded drop / duplicate / reorder
      / corrupt / stall adversary families;
    - degraded read-only mode: entered on a backing-store write
      failure, refuses mutations, keeps serving reads, never mutates
      state afterwards (monotonicity), never loses an acknowledged
      write;
    - backoff determinism (same seed ⇒ same schedule) and deadline
      soundness (no call outlives its budget by more than the one
      attempt and backoff step in flight);
    - circuit-breaker state-machine conformance against an independent
      shadow automaton, plus open / half-open-single-probe / reclose
      transitions;
    - linearizability ({!Bi_core.Linearizability}) of the client-visible
      history under every adversary family, under replica crash with
      read failover, and under crash + restart with epoch detection and
      resync;
    - mutation self-checks: retries without txn ids double-apply and are
      caught; a breaker that never half-opens loses availability and is
      caught; a failover read from a stale backup breaks linearizability
      and is caught — plus a failing plan shrunk to a single decision
      and replayed. *)

val vcs : unit -> Bi_core.Vc.t list

type control = {
  plain_failed : bool;  (** One-shot client lost its request. *)
  resilient_ok : bool;  (** Resilient client completed under same plan. *)
  shrunk : Bi_fault.Fault_plan.decision list;  (** 1-minimal failing plan. *)
  replay_fails : bool;  (** The shrunk plan still kills the plain client. *)
}

val positive_control : unit -> control
(** The fault-injection positive control shared by the [rs] VCs, the
    test suite, and the bench: a scripted noisy plan under which a plain
    one-shot request is lost while the resilient client completes,
    shrunk to a single [Drop] and replayed. *)

type bench = {
  ops : int;
  attempts : int;
  retries : int;
  failovers : int;
  failover_rounds : int;  (** Simulated rounds for the post-crash read. *)
  breaker_opens : int;
  breaker_closes : int;
  dup_hits : int;
  applied : int;
  rounds : int;  (** Total virtual rounds the scenario ran. *)
}

val bench_stats : unit -> bench
(** A fixed replicated scenario (two replicas, seeded mixed faults,
    crash + restart + resync of the primary) reported for
    [bench rs]. *)
