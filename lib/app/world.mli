(** The simulated world the application suites ([rs], [sh], [wl], [nd])
    share: one virtual-time scheduler, one store specification, one
    history recorder and one request/response wire.

    Each suite keeps only its server side — how a node turns request
    frames into response frames — and states its scenarios against the
    pieces here, so every application-level history is checked against
    the single sequential specification {!Store_spec}. *)

(** {1 Virtual-time fiber scheduler} *)

module Sim : sig
  (** Client fibers perform [sleep] effects; the scheduler resumes them
      in deterministic (wake time, spawn order) order and advances the
      world one round at a time between quiescent points.  Virtual time
      is the only clock, so runs are replayable. *)

  type sched

  val make : unit -> sched
  val now : sched -> int

  val sleep : int -> unit
  (** Suspend the calling fiber for [max 1 n] rounds. *)

  val spawn : sched -> (unit -> unit) -> unit
  (** Queue a fiber to start at the current time, after every fiber
      already queued for it. *)

  val run : ?max_rounds:int -> tick:(unit -> unit) -> sched -> int
  (** Run until no fiber is left, calling [tick] once per round; returns
      the final time.  Raises [Failure "sim: round bound exceeded"] past
      [max_rounds] (default 100 000). *)
end

(** {1 Histories against the store specification} *)

module Lin : module type of Bi_core.Linearizability.Make (Store_spec)

type recorder = {
  mutable calls : Lin.call list;  (** Completed calls, newest first. *)
  mutable errors : string list;  (** Calls that returned [Error]. *)
}

val recorder : unit -> recorder

val record :
  recorder ->
  now:(unit -> int) ->
  int ->
  Store_spec.op ->
  (unit -> (Store_spec.ret, string) result) ->
  unit
(** [record rc ~now proc op run] runs one call of process [proc],
    timestamped by [now] (any monotone clock: simulated rounds or kernel
    ticks) with [res > inv] strictly, as the checker requires. *)

val linearizable : recorder -> bool
(** The recorded history linearizes against {!Store_spec} from
    {!Store_spec.empty}. *)

val acked_mutations : recorder -> int
(** Effective acknowledged mutations: every put, and every delete that
    found its key. *)

type ops = {
  put : key:string -> value:string -> (unit, string) result;
  get : key:string -> (string option, string) result;
  delete : key:string -> (bool, string) result;
}
(** A client's store operations, errors already rendered. *)

val client_ops : Resilient_client.t -> ops
(** The operations of one resilient client. *)

val lin_op :
  recorder ->
  now:(unit -> int) ->
  ops ->
  proc:int ->
  i:int ->
  deletes:bool ->
  key:string ->
  value:string ->
  unit
(** Operation [i] of process [proc] in a linearizability workload: a
    put on [(i + 2·proc) mod 4 ∈ {0, 1}], a get on 2, and on 3 a delete
    (a get when [deletes] is false), recorded into the history. *)

(** {1 Request/response wire} *)

type wire
(** Pending request slots and the request-id counter of one world.
    Frames are {!Protocol.seal}ed: request id, CRC-32 over the frame,
    body — any corruption makes a frame undecodable, so it is dropped
    and repaired by retry. *)

val wire : Sim.sched -> wire

val fresh_id : wire -> int

val endpoint :
  wire ->
  name:string ->
  Bi_fault.Faulty_link.channel ->
  attempt_timeout:int ->
  Resilient_client.endpoint
(** Each attempt sends a sealed request on the channel and waits, one
    round at a time, until its response is delivered or
    [attempt_timeout] rounds have passed. *)

val deliver : wire -> Bi_fault.Faulty_link.channel -> unit
(** Step a response channel one round and hand each decodable response
    to the attempt still waiting for its id; others are dropped. *)

val clock : wire -> Resilient_client.clock

val patient_config : int -> Resilient_client.config
(** A retry configuration for workloads that must complete: generous
    attempts, a breaker that never trips (breaker VCs exercise it
    separately), seeded by the argument. *)
