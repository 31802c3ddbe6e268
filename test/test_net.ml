(* Network-stack tests: the e2e VC suite plus unit tests of each protocol
   layer, including adversarial cases (corruption, out-of-order delivery,
   loss) the VCs do not enumerate. *)

module Nic = Bi_hw.Device.Nic
module Pkt = Bi_net.Pkt
module Eth = Bi_net.Eth
module Arp = Bi_net.Arp
module Ip = Bi_net.Ip
module Udp = Bi_net.Udp
module Tcp = Bi_net.Tcp
module Stack = Bi_net.Stack

let check = Alcotest.check

let qtest name count gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let ip_a = Ip.addr_of_string "10.0.0.1"
let ip_b = Ip.addr_of_string "10.0.0.2"

let vc_cases () =
  List.map
    (fun (vc : Bi_core.Vc.t) ->
      Alcotest.test_case vc.Bi_core.Vc.id `Quick (fun () ->
          match Bi_core.Vc.catch vc.Bi_core.Vc.check with
          | Bi_core.Vc.Proved -> ()
          | (Bi_core.Vc.Falsified _ | Bi_core.Vc.Timeout _ | Bi_core.Vc.Capped _) as o ->
              Alcotest.failf "%a" Bi_core.Vc.pp_outcome o))
    (Bi_net.Net_check.vcs ())

(* ------------------------------------------------------------------ *)
(* Pkt *)

let test_pkt_rw_roundtrip () =
  let w = Pkt.W.create () in
  Pkt.W.u8 w 0xAB;
  Pkt.W.u16 w 0x1234;
  Pkt.W.u32 w 0xDEADBEEFl;
  Pkt.W.string w "xyz";
  let r = Pkt.R.of_bytes (Pkt.W.contents w) in
  check Alcotest.int "u8" 0xAB (Pkt.R.u8 r);
  check Alcotest.int "u16" 0x1234 (Pkt.R.u16 r);
  check Alcotest.int32 "u32" 0xDEADBEEFl (Pkt.R.u32 r);
  check Alcotest.string "rest" "xyz" (Bytes.to_string (Pkt.R.rest r))

(* Copy accounting is domain-local: a domain copying payloads in a loop
   must not leak into the counts another domain resets and reads. *)
let test_pkt_copy_stats_domain_local () =
  let stop = Atomic.make false and started = Atomic.make false in
  let noise =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let w = Pkt.W.create () in
          Pkt.W.string w "noise";
          ignore (Pkt.W.contents w);
          Atomic.set started true
        done)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let exact = ref true in
  for _ = 1 to 200 do
    Pkt.reset_copy_stats ();
    let w = Pkt.W.create () in
    Pkt.W.u16 w 7;
    Pkt.W.string w "payload";
    let frame = Pkt.W.contents w in
    exact :=
      !exact && Pkt.copies () = 2
      && Pkt.copied_bytes () = String.length "payload" + Bytes.length frame
  done;
  Atomic.set stop true;
  Domain.join noise;
  check Alcotest.bool "counts exact under a copying neighbour" true !exact

let test_pkt_truncation () =
  let r = Pkt.R.of_bytes (Bytes.make 1 'x') in
  ignore (Pkt.R.u8 r);
  match Pkt.R.u16 r with
  | exception Pkt.R.Truncated -> ()
  | _ -> Alcotest.fail "Truncated expected"

let test_checksum_rfc1071_example () =
  (* Classic example: 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 -> checksum 0x220d *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check Alcotest.int "known vector" 0x220d (Pkt.checksum b ~off:0 ~len:8)

let test_checksum_odd_length () =
  let b = Bytes.of_string "\x01\x02\x03" in
  (* 0x0102 + 0x0300 = 0x0402; complement = 0xfbfd *)
  check Alcotest.int "odd tail padded" 0xFBFD (Pkt.checksum b ~off:0 ~len:3)

let prop_checksum_self_verifies =
  (* The inserted checksum field must be 16-bit aligned, as it is in every
     real header, so quantify over even-length payloads. *)
  qtest "appending the checksum makes the sum verify" 200
    QCheck2.Gen.(
      string_size ~gen:(char_range '\000' '\255')
        (map (fun n -> 2 * n) (int_range 1 20)))
    (fun s ->
      let b = Bytes.of_string (s ^ "\x00\x00") in
      let len = Bytes.length b in
      let c = Pkt.checksum b ~off:0 ~len in
      Bytes.set b (len - 2) (Char.chr (c lsr 8));
      Bytes.set b (len - 1) (Char.chr (c land 0xFF));
      Pkt.checksum_valid b ~off:0 ~len)

(* ------------------------------------------------------------------ *)
(* Layer units *)

let test_eth_broadcast_constant () =
  check Alcotest.int "6 bytes" 6 (String.length Eth.broadcast);
  check Alcotest.bool "all ff" true
    (String.for_all (fun c -> c = '\xff') Eth.broadcast)

let test_ip_addr_notation () =
  check Alcotest.string "roundtrip" "192.168.1.42"
    (Ip.string_of_addr (Ip.addr_of_string "192.168.1.42"));
  (match Ip.addr_of_string "300.1.1.1" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "octet range");
  match Ip.addr_of_string "1.2.3" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "component count"

let test_ip_ttl_proto_preserved () =
  let p = { Ip.src = ip_a; dst = ip_b; proto = 99; ttl = 7; payload = Bytes.of_string "q" } in
  match Ip.decode (Ip.encode p) with
  | Some d ->
      check Alcotest.int "proto" 99 d.Ip.proto;
      check Alcotest.int "ttl" 7 d.Ip.ttl
  | None -> Alcotest.fail "decode"

let test_udp_bad_checksum_dropped () =
  let u = { Udp.src_port = 1; dst_port = 2; payload = Bytes.of_string "data" } in
  let seg = Udp.encode ~src_ip:ip_a ~dst_ip:ip_b u in
  Bytes.set seg 9 (Char.chr (Char.code (Bytes.get seg 9) lxor 0x40));
  check Alcotest.bool "corrupted payload rejected" true
    (Udp.decode ~src_ip:ip_a ~dst_ip:ip_b seg = None)

let test_udp_wrong_pseudo_header () =
  (* Same bytes but claimed to be from a different source IP: checksum
     must fail (the pseudo-header binds addresses). *)
  let u = { Udp.src_port = 1; dst_port = 2; payload = Bytes.of_string "data" } in
  let seg = Udp.encode ~src_ip:ip_a ~dst_ip:ip_b u in
  check Alcotest.bool "pseudo-header mismatch rejected" true
    (Udp.decode ~src_ip:(Ip.addr_of_string "10.0.0.9") ~dst_ip:ip_b seg = None)

let test_arp_cache_eviction () =
  let c = Arp.Cache.create ~capacity:2 () in
  Arp.Cache.add c 1l "\x00\x00\x00\x00\x00\x01";
  Arp.Cache.add c 2l "\x00\x00\x00\x00\x00\x02";
  Arp.Cache.add c 3l "\x00\x00\x00\x00\x00\x03";
  check Alcotest.int "capacity" 2 (Arp.Cache.size c);
  check Alcotest.bool "oldest evicted" true (Arp.Cache.find c 1l = None);
  check Alcotest.bool "newest present" true (Arp.Cache.find c 3l <> None)

(* ------------------------------------------------------------------ *)
(* TCP state machine details *)

let establish () =
  let ca, syn =
    Tcp.initiate ~local_port:1000 ~remote_ip:ip_b ~remote_port:80 ~isn:100l
  in
  let cb, synack =
    Tcp.accept_syn ~local_port:80 ~remote_ip:ip_a ~remote_port:1000 ~isn:500l
      ~peer_seq:syn.Tcp.seq
  in
  let acks = Tcp.handle ca synack in
  List.iter (fun s -> ignore (Tcp.handle cb s)) acks;
  (ca, cb)

let test_tcp_handshake_states () =
  let ca, cb = establish () in
  check Alcotest.bool "client established" true (Tcp.state ca = Tcp.Established);
  check Alcotest.bool "server established" true (Tcp.state cb = Tcp.Established)

let test_tcp_out_of_order_dropped () =
  let ca, cb = establish () in
  let segs = Tcp.send ca (Bytes.of_string (String.make 2500 'd')) in
  (* Deliver only the second segment: receiver must dup-ack, not absorb. *)
  (match segs with
  | _ :: s2 :: _ ->
      let replies = Tcp.handle cb s2 in
      check Alcotest.bool "receiver buffered nothing" true
        (Bytes.length (Tcp.recv cb) = 0);
      check Alcotest.bool "dup-ack sent" true (replies <> [])
  | _ -> Alcotest.fail "expected multiple segments");
  (* Now deliver in order; stream completes. *)
  List.iter (fun s -> ignore (Tcp.handle cb s)) segs;
  check Alcotest.int "full stream after in-order delivery" 2500
    (Bytes.length (Tcp.recv cb))

let test_tcp_retransmit_after_silence () =
  let ca, _cb = establish () in
  ignore (Tcp.send ca (Bytes.of_string "payload"));
  check Alcotest.int "in flight" 7 (Tcp.bytes_in_flight ca);
  let rec tick_until_rtx n =
    if n = 0 then []
    else begin
      match Tcp.tick ca with [] -> tick_until_rtx (n - 1) | segs -> segs
    end
  in
  let rtx = tick_until_rtx 10 in
  check Alcotest.bool "retransmission emitted" true (rtx <> []);
  check Alcotest.bool "same payload" true
    (List.exists (fun s -> Bytes.to_string s.Tcp.payload = "payload") rtx)

let test_tcp_ack_clears_inflight () =
  let ca, cb = establish () in
  let segs = Tcp.send ca (Bytes.of_string "data!") in
  let acks = List.concat_map (Tcp.handle cb) segs in
  List.iter (fun a -> ignore (Tcp.handle ca a)) acks;
  check Alcotest.int "acked" 0 (Tcp.bytes_in_flight ca)


(* Satellite regression for the O(n^2) inflight append: a full window of
   segments must come out in seq order, sized by mss, with the flight
   accounting and retransmission order matching emission order. *)
let test_tcp_inflight_order_and_window () =
  let ca, _cb = establish () in
  let segs = Tcp.send ca (Bytes.of_string (String.make 9500 'x')) in
  check Alcotest.int "window caps emission" Tcp.window_segments
    (List.length segs);
  let expected =
    List.init Tcp.window_segments (fun i ->
        Int32.add 101l (Int32.of_int (i * Tcp.mss)))
  in
  check (Alcotest.list Alcotest.int32) "seqs ascend by mss" expected
    (List.map (fun s -> s.Tcp.seq) segs);
  check Alcotest.int "flight = full window"
    (Tcp.window_segments * Tcp.mss)
    (Tcp.bytes_in_flight ca)

let test_tcp_retransmit_preserves_order () =
  let ca, cb = establish () in
  let segs = Tcp.send ca (Bytes.of_string (String.make 3500 'y')) in
  let rec tick_until_rtx n =
    if n = 0 then []
    else match Tcp.tick ca with [] -> tick_until_rtx (n - 1) | ss -> ss
  in
  let rtx = tick_until_rtx 10 in
  check (Alcotest.list Alcotest.int32) "retransmit order = send order"
    (List.map (fun s -> s.Tcp.seq) segs)
    (List.map (fun s -> s.Tcp.seq) rtx);
  (* Ack the first two segments; the tail keeps its order and the flight
     shrinks by exactly the acked bytes. *)
  (match segs with
  | s1 :: s2 :: _ ->
      let a1 = Tcp.handle cb s1 in
      let a2 = Tcp.handle cb s2 in
      List.iter (fun a -> ignore (Tcp.handle ca a : Tcp.segment list)) (a1 @ a2)
  | _ -> Alcotest.fail "expected several segments");
  check Alcotest.int "flight after partial ack" 1500 (Tcp.bytes_in_flight ca);
  let rtx2 = tick_until_rtx 10 in
  check (Alcotest.list Alcotest.int32) "tail retransmits in order"
    (List.map (fun s -> s.Tcp.seq) (List.filteri (fun i _ -> i >= 2) segs))
    (List.map (fun s -> s.Tcp.seq) rtx2)

let test_tcp_rst_closes () =
  let ca, _ = establish () in
  let rst =
    {
      Tcp.src_port = 80;
      dst_port = 1000;
      seq = 0l;
      ack_n = 0l;
      flags = { Tcp.syn = false; ack = false; fin = false; rst = true; psh = false };
      window = 0;
      payload = Bytes.empty;
    }
  in
  ignore (Tcp.handle ca rst);
  check Alcotest.bool "closed on RST" true (Tcp.state ca = Tcp.Closed)

let test_tcp_window_limits_inflight () =
  let ca, _ = establish () in
  let big = Bytes.make (Tcp.mss * (Tcp.window_segments + 4)) 'w' in
  ignore (Tcp.send ca big);
  check Alcotest.bool "window respected" true
    (Tcp.bytes_in_flight ca <= Tcp.window_segments * Tcp.mss)

(* ------------------------------------------------------------------ *)
(* Stack-level adversarial scenarios *)

let host_pair () =
  let na = Nic.create ~mac:"\x02\x00\x00\x00\x00\x0a" () in
  let nb = Nic.create ~mac:"\x02\x00\x00\x00\x00\x0b" () in
  Nic.connect na nb;
  (Stack.create ~nic:na ~ip:ip_a, Stack.create ~nic:nb ~ip:ip_b, na, nb)

let test_stack_arp_reply_only_for_own_ip () =
  let a, b, _, _ = host_pair () in
  (* a sends to an address nobody owns: must not get an ARP reply. *)
  Stack.udp_send a ~dst_ip:(Ip.addr_of_string "10.0.0.99") ~dst_port:1
    ~src_port:2 (Bytes.of_string "x");
  Stack.pump [ a; b ];
  check Alcotest.int "no phantom neighbour" 0 (Stack.arp_cache_size a)

let test_stack_udp_queued_behind_arp () =
  let a, b, _, _ = host_pair () in
  Stack.udp_bind b 9;
  (* First datagram triggers ARP; it must still arrive after resolution. *)
  Stack.udp_send a ~dst_ip:ip_b ~dst_port:9 ~src_port:1 (Bytes.of_string "m1");
  Stack.udp_send a ~dst_ip:ip_b ~dst_port:9 ~src_port:1 (Bytes.of_string "m2");
  Stack.pump [ a; b ];
  let recv () =
    match Stack.udp_recv b 9 with
    | Some (_, _, p) -> Bytes.to_string p
    | None -> "<none>"
  in
  check Alcotest.string "first queued datagram" "m1" (recv ());
  check Alcotest.string "second datagram" "m2" (recv ())

let test_stack_syn_loss_recovers () =
  let a, b, na, _ = host_pair () in
  Stack.tcp_listen b 80;
  Nic.drop_next_tx na;
  (* the SYN is lost *)
  let ca = Stack.tcp_connect a ~dst_ip:ip_b ~dst_port:80 in
  Stack.pump_ticks ~rounds:30 [ a; b ];
  check Alcotest.bool "handshake recovered after SYN loss" true
    (Stack.tcp_state a ca = Tcp.Established)

let test_stack_duplicate_delivery_safe () =
  let a, b, _, _ = host_pair () in
  Stack.tcp_listen b 80;
  let ca = Stack.tcp_connect a ~dst_ip:ip_b ~dst_port:80 in
  Stack.pump [ a; b ];
  match Stack.tcp_accept b 80 with
  | None -> Alcotest.fail "accept"
  | Some cb ->
      (* Force retransmission of already-delivered data by withholding
         ticks on one side: send, deliver, then tick sender to re-emit. *)
      Stack.tcp_send a ca (Bytes.of_string "once");
      Stack.pump [ a; b ];
      let first = Bytes.to_string (Stack.tcp_recv b cb) in
      for _ = 1 to 6 do
        Stack.tick a
      done;
      Stack.pump [ a; b ];
      let second = Bytes.to_string (Stack.tcp_recv b cb) in
      check Alcotest.string "delivered exactly once" "once" first;
      check Alcotest.string "duplicate suppressed" "" second

(* Reliability under randomized loss schedules: whatever subset of frames
   the adversary drops, a bounded retransmission budget delivers the full
   stream intact and in order. *)
let prop_tcp_reliable_under_random_loss =
  qtest "tcp delivers under any random loss schedule" 25
    QCheck2.Gen.(
      pair (list_size (int_range 0 12) (int_range 0 8)) (int_range 500 4000))
    (fun (drop_schedule, nbytes) ->
      let a, b, na, nb = host_pair () in
      Stack.tcp_listen b 80;
      let ca = Stack.tcp_connect a ~dst_ip:ip_b ~dst_port:80 in
      Stack.pump_ticks ~rounds:20 [ a; b ];
      match Stack.tcp_accept b 80 with
      | None -> false
      | Some cb ->
          let msg = String.init nbytes (fun i -> Char.chr (33 + (i mod 90))) in
          Stack.tcp_send a ca (Bytes.of_string msg);
          (* Interleave transfer progress with adversarial drops on both
             NICs, then give the retransmission timer room to finish. *)
          List.iter
            (fun gap ->
              Nic.drop_next_tx na;
              if gap mod 2 = 0 then Nic.drop_next_tx nb;
              Stack.pump_ticks ~rounds:(1 + gap) [ a; b ])
            drop_schedule;
          Stack.pump_ticks ~rounds:150 [ a; b ];
          Bytes.to_string (Stack.tcp_recv b cb) = msg)

(* ------------------------------------------------------------------ *)
(* Connection index and accept queue *)

let conn_of stack id = List.assoc id (Stack.tcp_conns stack)

(* Connect from [a] to [b]'s [port], then accept on [b]: the client's
   conn id and the accepted one, if the handshake completed. *)
let connect_accept a b ~port =
  let ca = Stack.tcp_connect a ~dst_ip:ip_b ~dst_port:port in
  Stack.pump [ a; b ];
  (ca, Stack.tcp_accept b port)

let test_ephemeral_ports_wrap () =
  (* 16,400 sequential connect/close pairs from one client: the port
     counter passes 65535 and must wrap to 49152, skipping the port a
     connection opened first still holds. *)
  let a, b, _, _ = host_pair () in
  Stack.tcp_listen b 80;
  let held, _ = connect_accept a b ~port:80 in
  let held_port = Tcp.local_port (conn_of a held) in
  let n = 16_400 in
  let failures = ref [] in
  let last = ref held in
  for i = 1 to n do
    match connect_accept a b ~port:80 with
    | ca, Some cb when Stack.tcp_state a ca = Tcp.Established ->
        last := ca;
        Stack.tcp_close a ca;
        Stack.pump [ a; b ];
        Stack.tcp_close b cb;
        Stack.pump [ a; b ];
        (* Let TIME-WAIT expire now and then. *)
        if i mod 200 = 0 then Stack.pump_ticks ~rounds:8 [ a; b ]
    | _ -> failures := i :: !failures
  done;
  check (Alcotest.list Alcotest.int) "every connect established" []
    (List.rev !failures);
  check Alcotest.bool "held connection untouched" true
    (Stack.tcp_state a held = Tcp.Established);
  let ports =
    List.filter_map
      (fun (id, c) ->
        if id = held then None
        else Some (Tcp.local_port c))
      (Stack.tcp_conns a)
  in
  check Alcotest.bool "ports stay in 49152-65535" true
    (List.for_all (fun p -> p >= 49152 && p <= 65535) ports);
  check Alcotest.bool "wrapped past the held port" true
    (List.for_all (fun p -> p <> held_port) ports);
  check Alcotest.bool "last connection reused a low port" true
    (Tcp.local_port (conn_of a !last) < 49152 + 100)

(* The lookups the stack made before the index, as scans over every
   connection it has opened. *)
let scan_find stack ~rip ~rport ~lport =
  List.filter_map
    (fun (id, c) ->
      if Tcp.remote c = (rip, rport) && Tcp.local_port c = lport then Some id
      else None)
    (Stack.tcp_conns stack)

let scan_accept_candidates stack ~accepted port =
  List.filter_map
    (fun (id, c) ->
      if
        (not (List.mem id accepted))
        && Tcp.local_port c = port
        && Tcp.state c = Tcp.Established
      then Some id
      else None)
    (Stack.tcp_conns stack)

let test_index_parity_with_scan () =
  let a, b, _, _ = host_pair () in
  List.iter (Stack.tcp_listen b) [ 80; 81 ];
  let accepted = ref [] (* server ids, newest first *) in
  let client = ref [] (* (client id, server port), newest first *) in
  (* Every tuple either stack knows, plus some it does not, routes to
     exactly the connection the scan finds. *)
  let check_routing () =
    let probe stack (rip, rport, lport) =
      let expected =
        match scan_find stack ~rip ~rport ~lport with
        | [] -> None
        | [ id ] -> Some id
        | ids ->
            Alcotest.failf "scan: %d connections share a tuple"
              (List.length ids)
      in
      check
        Alcotest.(option int)
        (Printf.sprintf "route %d->%d" rport lport)
        expected
        (Stack.tcp_find stack ~rip ~rport ~lport)
    in
    List.iter
      (fun (stack, peer_ip) ->
        List.iter
          (fun (_, c) ->
            let rip, rport = Tcp.remote c in
            probe stack (rip, rport, Tcp.local_port c);
            probe stack (rip, rport + 1, Tcp.local_port c);
            probe stack (peer_ip, rport, Tcp.local_port c + 7))
          (Stack.tcp_conns stack))
      [ (a, ip_b); (b, ip_a) ]
  in
  let handshake_order = ref [] (* server ids, newest first *) in
  let note_established () =
    List.iter
      (fun (id, c) ->
        if Tcp.state c = Tcp.Established && not (List.mem id !handshake_order)
        then handshake_order := id :: !handshake_order)
      (Stack.tcp_conns b)
  in
  (* One at a time, so the order handshakes complete in is observable. *)
  let connect port =
    let ca = Stack.tcp_connect a ~dst_ip:ip_b ~dst_port:port in
    client := (ca, port) :: !client;
    Stack.pump [ a; b ];
    note_established ();
    check_routing ()
  in
  let accept port =
    let candidates = scan_accept_candidates b ~accepted:!accepted port in
    let got = Stack.tcp_accept b port in
    (match got with
    | None ->
        check Alcotest.(list int) "nothing pending" [] candidates
    | Some id ->
        check Alcotest.bool "a connection the scan would accept" true
          (List.mem id candidates);
        (* [handshake_order] is newest first: everything after [id] in it
           completed its handshake earlier. *)
        let rec older = function
          | [] -> []
          | x :: rest -> if x = id then rest else older rest
        in
        check Alcotest.(list int) "oldest handshake first" []
          (List.filter (fun c -> List.mem c candidates) (older !handshake_order));
        accepted := id :: !accepted);
    got
  in
  let client_close ca =
    Stack.tcp_close a ca;
    Stack.pump [ a; b ];
    check_routing ()
  in
  (* 30 connections on :80 and 10 on :81, none accepted yet. *)
  for i = 1 to 40 do
    connect (if i mod 4 = 0 then 81 else 80)
  done;
  (* Accept a few from each port. *)
  for _ = 1 to 6 do
    ignore (accept 80)
  done;
  for _ = 1 to 3 do
    ignore (accept 81)
  done;
  (* Dead connections: the client closes and the server never does
     (server close-wait, client fin-wait-2) — some accepted, some still
     pending, which must now never be accepted. *)
  let oldest_first = List.rev !client in
  List.iteri
    (fun i (ca, _) -> if i mod 3 = 0 then client_close ca)
    oldest_first;
  (* Fully closed connections: the server closes the accepted ones that
     are still open, then the client, and TIME-WAIT expires. *)
  List.iter
    (fun sid ->
      let _, client_port = Tcp.remote (conn_of b sid) in
      match
        List.find_opt
          (fun (ca, _) -> Tcp.local_port (conn_of a ca) = client_port)
          oldest_first
      with
      | Some (ca, _) when Tcp.state (conn_of a ca) = Tcp.Established ->
          Stack.tcp_close b sid;
          Stack.pump [ a; b ];
          client_close ca
      | Some _ | None -> ())
    !accepted;
  Stack.pump_ticks ~rounds:10 [ a; b ];
  check_routing ();
  (* More arrivals interleaved with accepts. *)
  for i = 1 to 12 do
    connect (if i mod 2 = 0 then 81 else 80);
    if i mod 3 = 0 then ignore (accept 80)
  done;
  (* Drain both ports. *)
  List.iter
    (fun port -> while accept port <> None do () done)
    [ 80; 81 ];
  check_routing ();
  let states stack st =
    List.length
      (List.filter (fun (_, c) -> Tcp.state c = st) (Stack.tcp_conns stack))
  in
  check Alcotest.bool "trace holds dead close-wait connections" true
    (states b Tcp.Close_wait > 0);
  check Alcotest.bool "and fin-wait-2 ones" true
    (states a Tcp.Fin_wait_2 > 0);
  check Alcotest.bool "and closed ones" true (states a Tcp.Closed > 0);
  (* Every connection the scan could ever accept was accepted, once. *)
  let sorted = List.sort compare !accepted in
  check Alcotest.(list int) "accepted once each" (List.sort_uniq compare sorted)
    sorted;
  check Alcotest.(list int) "none left for the scan" []
    (scan_accept_candidates b ~accepted:!accepted 80
    @ scan_accept_candidates b ~accepted:!accepted 81)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bi_net"
    [
      ("vc-suite", vc_cases ());
      ( "pkt",
        [
          Alcotest.test_case "rw roundtrip" `Quick test_pkt_rw_roundtrip;
          Alcotest.test_case "truncation" `Quick test_pkt_truncation;
          Alcotest.test_case "copy stats domain-local" `Quick
            test_pkt_copy_stats_domain_local;
          Alcotest.test_case "checksum vector" `Quick test_checksum_rfc1071_example;
          Alcotest.test_case "checksum odd length" `Quick test_checksum_odd_length;
          prop_checksum_self_verifies;
        ] );
      ( "layers",
        [
          Alcotest.test_case "eth broadcast" `Quick test_eth_broadcast_constant;
          Alcotest.test_case "ip notation" `Quick test_ip_addr_notation;
          Alcotest.test_case "ip ttl/proto" `Quick test_ip_ttl_proto_preserved;
          Alcotest.test_case "udp corrupted dropped" `Quick test_udp_bad_checksum_dropped;
          Alcotest.test_case "udp pseudo-header binds" `Quick test_udp_wrong_pseudo_header;
          Alcotest.test_case "arp cache eviction" `Quick test_arp_cache_eviction;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "handshake states" `Quick test_tcp_handshake_states;
          Alcotest.test_case "out-of-order dropped" `Quick test_tcp_out_of_order_dropped;
          Alcotest.test_case "retransmit after silence" `Quick test_tcp_retransmit_after_silence;
          Alcotest.test_case "ack clears inflight" `Quick test_tcp_ack_clears_inflight;
          Alcotest.test_case "rst closes" `Quick test_tcp_rst_closes;
          Alcotest.test_case "window limits inflight" `Quick test_tcp_window_limits_inflight;
          Alcotest.test_case "inflight order and window" `Quick
            test_tcp_inflight_order_and_window;
          Alcotest.test_case "retransmit preserves order" `Quick
            test_tcp_retransmit_preserves_order;
        ] );
      ( "stack",
        [
          Alcotest.test_case "arp only own ip" `Quick test_stack_arp_reply_only_for_own_ip;
          Alcotest.test_case "udp queued behind arp" `Quick test_stack_udp_queued_behind_arp;
          Alcotest.test_case "syn loss recovers" `Quick test_stack_syn_loss_recovers;
          Alcotest.test_case "duplicate delivery safe" `Quick test_stack_duplicate_delivery_safe;
          prop_tcp_reliable_under_random_loss;
          Alcotest.test_case "ephemeral ports wrap" `Quick test_ephemeral_ports_wrap;
          Alcotest.test_case "index and accept queue match the scan" `Quick
            test_index_parity_with_scan;
        ] );
    ]
