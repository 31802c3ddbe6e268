(** Per-host network stack: demultiplexes frames from the NIC into ARP,
    UDP and TCP, resolves neighbours, and exposes the socket-ish API the
    kernel's network syscalls sit on.

    Progress model: the simulated wire ({!Bi_hw.Device.Nic}) holds frames
    until [deliver]; {!poll} drains this host's receive ring; {!tick}
    drives TCP retransmission.  {!pump} runs a set of hosts to quiescence
    — tests inject loss between pumps. *)

type t

val create : nic:Bi_hw.Device.Nic.t -> ip:int32 -> t

val ip : t -> int32
val mac : t -> string

val poll : t -> unit
(** Process every frame waiting in the NIC's receive ring. *)

val tick : t -> unit
(** Advance protocol timers (TCP RTO, pending-ARP retries). *)

(** {1 UDP} *)

val udp_bind : t -> int -> unit
(** Open a port for receiving; raises [Invalid_argument] if bound. *)

val udp_unbind : t -> int -> unit

val udp_send :
  t -> dst_ip:int32 -> dst_port:int -> src_port:int -> bytes -> unit
(** Transmit a datagram (queues behind ARP resolution if needed). *)

val udp_recv : t -> int -> (int32 * int * bytes) option
(** Dequeue [(src_ip, src_port, payload)] from a bound port. *)

(** {1 TCP} *)

type conn_id = int
(** Exposed as [int] so connection handles can cross the syscall ABI. *)

val tcp_listen : t -> int -> unit

val tcp_connect : t -> dst_ip:int32 -> dst_port:int -> conn_id
(** Active open from the next ephemeral port.  Ports cycle through
    49152–65535, skipping any whose (destination, port) tuple still has
    a connection that is not [Closed]; raises [Invalid_argument] when
    every port is in use. *)

val tcp_accept : t -> int -> conn_id option
(** The oldest not-yet-accepted connection on a listening port, in the
    order the handshakes completed.  A connection that leaves
    [Established] before it is accepted (the peer closed first) is
    skipped: it is never returned. *)

val tcp_send : t -> conn_id -> bytes -> unit
val tcp_recv : t -> conn_id -> bytes
val tcp_close : t -> conn_id -> unit

val tcp_state : t -> conn_id -> Tcp.state
(** Every id ever returned stays queryable, closed connections included. *)

val tcp_find : t -> rip:int32 -> rport:int -> lport:int -> conn_id option
(** The connection a segment from [rip:rport] to local port [lport] is
    delivered to: the newest one opened on that tuple.  A pure SYN that
    finds it [Closed] opens a new connection instead. *)

val tcp_conns : t -> (conn_id * Tcp.conn) list
(** Every connection this stack has opened, by ascending id. *)

val arp_cache_size : t -> int

val pump : ?rounds:int -> t list -> unit
(** Repeatedly deliver every host's in-flight frames and poll every host,
    until no frames moved or [rounds] (default 64) passes elapsed. *)

val pump_ticks : ?rounds:int -> t list -> unit
(** Like {!pump} but also ticks each host every round (drives
    retransmission through lossy links). *)
