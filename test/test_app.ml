(* Block-store tests: protocol codecs, CRC vectors, end-to-end
   client/server refinement against the abstract store spec across two
   simulated machines, and end-to-end corruption detection. *)

module K = Bi_kernel.Kernel
module U = Bi_kernel.Usys
module P = Bi_app.Protocol
module Client = Bi_app.Client
module Store_spec = Bi_app.Store_spec

let check = Alcotest.check

let qtest name count gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let ip_server = Bi_net.Ip.addr_of_string "10.0.0.1"
let ip_client = Bi_net.Ip.addr_of_string "10.0.0.2"

(* Run [body] as a client program against a live storage node; returns the
   server kernel for post-mortem inspection. *)
let with_store body =
  let server = K.create ~ip:ip_server () in
  let client = K.create ~ip:ip_client () in
  K.connect server client;
  ignore (Bi_netd.Netd.install server);
  K.register_program client "cli" (fun s _ ->
      match Client.connect s ~ip:ip_server with
      | Error e -> Alcotest.failf "connect: %a" Client.pp_error e
      | Ok c ->
          body s c;
          ignore (Client.shutdown c);
          Client.close c);
  (match K.spawn server ~prog:"netd" ~arg:"" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "server spawn");
  (match K.spawn client ~prog:"cli" ~arg:"" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "client spawn");
  K.run_pair server client;
  server

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_crc32_vectors () =
  (* Known-answer vectors for IEEE 802.3 CRC-32; "123456789" is the
     standard check value every implementation must hit. *)
  check Alcotest.int32 "123456789" 0xCBF43926l (P.crc32 "123456789");
  check Alcotest.int32 "empty" 0l (P.crc32 "");
  check Alcotest.int32 "a" 0xE8B7BE43l (P.crc32 "a");
  check Alcotest.int32 "abc" 0x352441C2l (P.crc32 "abc");
  check Alcotest.int32 "quick brown fox" 0x414FA339l
    (P.crc32 "The quick brown fox jumps over the lazy dog")

let test_valid_key () =
  check Alcotest.bool "simple" true (P.valid_key "block-01_a");
  check Alcotest.bool "empty" false (P.valid_key "");
  check Alcotest.bool "upper rejected" false (P.valid_key "Block");
  check Alcotest.bool "slash rejected" false (P.valid_key "a/b");
  check Alcotest.bool "too long" false (P.valid_key (String.make 25 'a'))

let gen_key =
  QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 24))

let gen_txn =
  QCheck2.Gen.(
    opt
      (map2
         (fun client seq -> { P.client; seq })
         (int_range 0 99) (int_range 1 999)))

let gen_req =
  QCheck2.Gen.(
    oneof
      [
        map3
          (fun key value txn -> P.Put { key; value; crc = P.crc32 value; txn })
          gen_key
          (string_size ~gen:(char_range '\000' '\255') (int_range 0 200))
          gen_txn;
        map (fun k -> P.Get k) gen_key;
        map2 (fun key txn -> P.Delete { key; txn }) gen_key gen_txn;
        return P.List;
        return P.Ping;
        return P.Shutdown;
      ])

let prop_req_frame_roundtrip =
  qtest "request frames roundtrip" 300 gen_req (fun r ->
      match P.decode_req (P.encode_req r) ~off:0 with
      | Some (r', consumed) ->
          r' = r && consumed = Bytes.length (P.encode_req r)
      | None -> false)

let gen_err =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [ P.Bad_key; P.Too_large; P.Bad_crc; P.No_crc; P.Integrity;
            P.Read_only; P.Overloaded ];
        map (fun m -> P.Io m) (string_size ~gen:printable (int_range 0 30));
        map (fun v -> P.Wrong_shard v) (int_range 0 64);
      ])

let gen_resp =
  QCheck2.Gen.(
    oneof
      [
        return P.Done;
        map
          (fun value -> P.Value { value; crc = P.crc32 value })
          (string_size ~gen:(char_range '\000' '\255') (int_range 0 200));
        return P.Missing;
        map (fun ks -> P.Listing ks) (list_size (int_range 0 6) gen_key);
        map2
          (fun health epoch -> P.Pong { health; epoch })
          (oneofl [ P.Serving; P.Degraded ])
          (int_range 0 1000);
        map (fun e -> P.Err e) gen_err;
      ])

let prop_resp_frame_roundtrip =
  qtest "response frames roundtrip" 300 gen_resp (fun r ->
      match P.decode_resp (P.encode_resp r) ~off:0 with
      | Some (r', consumed) ->
          r' = r && consumed = Bytes.length (P.encode_resp r)
      | None -> false)

let test_partial_frame_incomplete () =
  let b = P.encode_req (P.Get "somekey") in
  let cut = Bytes.sub b 0 (Bytes.length b - 2) in
  check Alcotest.bool "incomplete frame yields None" true
    (P.decode_req cut ~off:0 = None)

let test_two_frames_in_buffer () =
  let b = Bytes.cat (P.encode_req P.Ping) (P.encode_req (P.Get "k")) in
  match P.decode_req b ~off:0 with
  | Some (P.Ping, next) -> (
      match P.decode_req b ~off:next with
      | Some (P.Get "k", _) -> ()
      | _ -> Alcotest.fail "second frame")
  | _ -> Alcotest.fail "first frame"

(* ------------------------------------------------------------------ *)
(* Store spec *)

let test_store_spec_basics () =
  let st, r = Store_spec.step Store_spec.empty (Store_spec.Put ("a", "1")) in
  check Alcotest.bool "put" true (r = Store_spec.Done);
  let st, r = Store_spec.step st (Store_spec.Get "a") in
  check Alcotest.bool "get" true (r = Store_spec.Value (Some "1"));
  let st, r = Store_spec.step st (Store_spec.Delete "a") in
  check Alcotest.bool "delete" true (r = Store_spec.Deleted true);
  let _, r = Store_spec.step st (Store_spec.Get "a") in
  check Alcotest.bool "gone" true (r = Store_spec.Value None)

let test_store_spec_rejects () =
  let _, r = Store_spec.step Store_spec.empty (Store_spec.Put ("BAD KEY", "x")) in
  check Alcotest.bool "invalid key rejected" true (r = Store_spec.Rejected)

(* ------------------------------------------------------------------ *)
(* The suites' virtual-time scheduler *)

module Sim = Bi_app.World.Sim

let test_sim_same_wake_spawn_order () =
  let s = Sim.make () in
  let order = ref [] in
  List.iter
    (fun id ->
      Sim.spawn s (fun () ->
          Sim.sleep 3;
          order := id :: !order))
    [ 1; 2; 3 ];
  let final = Sim.run ~tick:ignore s in
  check Alcotest.(list int) "spawn order" [ 1; 2; 3 ] (List.rev !order);
  check Alcotest.int "woke at 3" 3 final

let test_sim_sleep_zero_advances () =
  let s = Sim.make () in
  let ticks = ref 0 and times = ref [] in
  Sim.spawn s (fun () ->
      let t0 = Sim.now s in
      Sim.sleep 0;
      times := [ t0; Sim.now s ]);
  ignore (Sim.run ~tick:(fun () -> incr ticks) s);
  check Alcotest.(list int) "one round later" [ 0; 1 ] !times;
  check Alcotest.int "one tick" 1 !ticks

let test_sim_round_bound () =
  let s = Sim.make () in
  Sim.spawn s (fun () -> Sim.sleep 10);
  Alcotest.check_raises "bound" (Failure "sim: round bound exceeded")
    (fun () -> ignore (Sim.run ~max_rounds:5 ~tick:ignore s))

(* ------------------------------------------------------------------ *)
(* End-to-end behaviour *)

let test_e2e_basic_ops () =
  ignore
    (with_store (fun _s c ->
         (match Client.put c ~key:"alpha" ~value:"one" with
         | Ok () -> ()
         | Error e -> Alcotest.failf "put: %a" Client.pp_error e);
         (match Client.get c ~key:"alpha" with
         | Ok (Some "one") -> ()
         | _ -> Alcotest.fail "get");
         (match Client.get c ~key:"absent" with
         | Ok None -> ()
         | _ -> Alcotest.fail "missing get");
         (match Client.put c ~key:"alpha" ~value:"two" with
         | Ok () -> ()
         | Error e -> Alcotest.failf "overwrite: %a" Client.pp_error e);
         (match Client.get c ~key:"alpha" with
         | Ok (Some "two") -> ()
         | _ -> Alcotest.fail "overwrite read");
         (match Client.list c with
         | Ok [ "alpha" ] -> ()
         | Ok other -> Alcotest.failf "list: [%s]" (String.concat ";" other)
         | Error e -> Alcotest.failf "list: %a" Client.pp_error e);
         (match Client.delete c ~key:"alpha" with
         | Ok true -> ()
         | _ -> Alcotest.fail "delete");
         match Client.delete c ~key:"alpha" with
         | Ok false -> ()
         | _ -> Alcotest.fail "double delete"))

let test_e2e_large_value () =
  let big = String.init 30_000 (fun i -> Char.chr (32 + (i mod 90))) in
  ignore
    (with_store (fun _s c ->
         (match Client.put c ~key:"big" ~value:big with
         | Ok () -> ()
         | Error e -> Alcotest.failf "put big: %a" Client.pp_error e);
         match Client.get c ~key:"big" with
         | Ok (Some v) ->
             check Alcotest.int "length" (String.length big) (String.length v);
             check Alcotest.bool "content" true (v = big)
         | _ -> Alcotest.fail "get big"))

let test_e2e_oversized_rejected () =
  ignore
    (with_store (fun _s c ->
         match Client.put c ~key:"huge" ~value:(String.make 70_000 'x') with
         | Error (Client.Remote _) -> ()
         | _ -> Alcotest.fail "oversize must be rejected remotely"))

let test_e2e_invalid_key_rejected () =
  (* The client now rejects malformed keys locally, before any bytes hit
     the wire — no round-trip is spent on a request the node would
     definitively refuse. *)
  ignore
    (with_store (fun _s c ->
         (match Client.put c ~key:"NOT VALID" ~value:"x" with
         | Error Client.Invalid_key -> ()
         | _ -> Alcotest.fail "invalid put key must be rejected locally");
         (match Client.get c ~key:"a/b" with
         | Error Client.Invalid_key -> ()
         | _ -> Alcotest.fail "invalid get key must be rejected locally");
         match Client.delete c ~key:"" with
         | Error Client.Invalid_key -> ()
         | _ -> Alcotest.fail "invalid delete key must be rejected locally"))

(* Random op sequence replayed against the abstract store spec. *)
let test_e2e_refines_store_spec () =
  let g = Bi_core.Gen.of_string "app/refinement" in
  let keys = [ "k0"; "k1"; "k2" ] in
  let ops =
    List.init 30 (fun _ ->
        match Bi_core.Gen.int g 10 with
        | 0 | 1 | 2 | 3 ->
            Store_spec.Put
              ( Bi_core.Gen.oneof g keys,
                String.make (1 + Bi_core.Gen.int g 2000)
                  (Char.chr (97 + Bi_core.Gen.int g 26)) )
        | 4 | 5 | 6 -> Store_spec.Get (Bi_core.Gen.oneof g keys)
        | 7 | 8 -> Store_spec.Delete (Bi_core.Gen.oneof g keys)
        | _ -> Store_spec.List)
  in
  ignore
    (with_store (fun _s c ->
         let spec = ref Store_spec.empty in
         List.iter
           (fun op ->
             let spec', expected = Store_spec.step !spec op in
             spec := spec';
             let got =
               match op with
               | Store_spec.Put (key, value) -> (
                   match Client.put c ~key ~value with
                   | Ok () -> Store_spec.Done
                   | Error _ -> Store_spec.Rejected)
               | Store_spec.Get key -> (
                   match Client.get c ~key with
                   | Ok v -> Store_spec.Value v
                   | Error _ -> Store_spec.Rejected)
               | Store_spec.Delete key -> (
                   match Client.delete c ~key with
                   | Ok b -> Store_spec.Deleted b
                   | Error _ -> Store_spec.Rejected)
               | Store_spec.List -> (
                   match Client.list c with
                   | Ok ks -> Store_spec.Keys ks
                   | Error _ -> Store_spec.Rejected)
             in
             if not (Store_spec.equal_ret got expected) then
               Alcotest.failf "divergence on %a: node %a, spec %a"
                 Store_spec.pp_op op Store_spec.pp_ret got Store_spec.pp_ret
                 expected)
           ops))

let test_e2e_corruption_detected () =
  (* Flip a byte in the stored file behind the node's back: the next GET
     must report an integrity violation rather than serve bad data. *)
  let server = K.create ~ip:ip_server () in
  let client = K.create ~ip:ip_client () in
  K.connect server client;
  ignore (Bi_netd.Netd.install server);
  let outcome = ref "" in
  K.register_program client "cli" (fun s _ ->
      match Client.connect s ~ip:ip_server with
      | Error _ -> ()
      | Ok c ->
          (match Client.put c ~key:"victim" ~value:"pristine data" with
          | Ok () -> ()
          | Error _ -> outcome := "put failed");
          (* Corrupt the server's filesystem directly (simulating media
             corruption below the filesystem): the value's bytes in the
             log segment that holds its record. *)
          let fs = K.fs server in
          (match Bi_fs.Fs.resolve fs "/log/0" with
          | Ok ino -> (
              let seg = Bytes.to_string (Result.get_ok (Bi_fs.Fs.read_ino fs ~ino ~off:0 ~len:4096)) in
              let at off = String.sub seg off 8 = "pristine" in
              match List.find_opt at (List.init (String.length seg - 8) Fun.id) with
              | Some off ->
                  ignore (Bi_fs.Fs.write_ino fs ~ino ~off (Bytes.of_string "X"))
              | None -> outcome := "corruption setup failed")
          | Error _ -> outcome := "corruption setup failed");
          (match Client.get c ~key:"victim" with
          | Error (Client.Remote e) ->
              outcome := Format.asprintf "detected: %a" P.pp_err e
          | Ok (Some _) -> outcome := "served corrupt data"
          | Ok None -> outcome := "missing"
          | Error e -> outcome := Format.asprintf "%a" Client.pp_error e);
          ignore (Client.shutdown c);
          Client.close c);
  ignore (K.spawn server ~prog:"netd" ~arg:"");
  ignore (K.spawn client ~prog:"cli" ~arg:"");
  K.run_pair server client;
  check Alcotest.string "integrity violation surfaced"
    "detected: integrity violation detected" !outcome

(* Flip a byte of an acknowledged value that a later record follows in
   its log segment, then respawn netd.  Loading must not take the damaged
   record for a torn tail and silently drop it with the record after it:
   the respawned node degrades, and a get of the damaged key — or of the
   later one, or of a key never written — reports the violation instead
   of an older value or a miss. *)
let test_e2e_corruption_after_respawn () =
  let server = K.create ~ip:ip_server () in
  let client = K.create ~ip:ip_client () in
  K.connect server client;
  ignore (Bi_netd.Netd.install server);
  let corrupt () =
    let fs = K.fs server in
    let ino = Result.get_ok (Bi_fs.Fs.resolve fs "/log/0") in
    let seg = Bytes.to_string (Result.get_ok (Bi_fs.Fs.read_ino fs ~ino ~off:0 ~len:4096)) in
    let at off = String.sub seg off 8 = "pristine" in
    match List.find_opt at (List.init (String.length seg - 8) Fun.id) with
    | Some off -> ignore (Bi_fs.Fs.write_ino fs ~ino ~off (Bytes.of_string "X"))
    | None -> Alcotest.fail "value not found in /log/0"
  in
  K.register_program server "supervisor" (fun s _ ->
      let life () =
        match U.spawn s ~prog:"netd" ~arg:"" with
        | Ok pid -> ignore (U.wait s pid)
        | Error _ -> Alcotest.fail "netd spawn"
      in
      life ();
      corrupt ();
      life ());
  let got = ref [] in
  K.register_program client "cli" (fun s _ ->
      let rec connect tries =
        match Client.connect s ~ip:ip_server with
        | Ok c -> c
        | Error _ when tries > 0 ->
            U.sleep s 5;
            connect (tries - 1)
        | Error e -> Alcotest.failf "connect: %a" Client.pp_error e
      in
      let c = connect 20 in
      List.iter
        (fun (key, value) ->
          match Client.put c ~key ~value with
          | Ok () -> ()
          | Error e -> Alcotest.failf "put %s: %a" key Client.pp_error e)
        [ ("victim", "old value"); ("victim", "pristine data"); ("later", "written after") ];
      ignore (Client.shutdown c);
      Client.close c;
      U.sleep s 5;
      let c = connect 20 in
      let show = function
        | Ok (Some v) -> v
        | Ok None -> "missing"
        | Error (Client.Remote e) -> Format.asprintf "%a" P.pp_err e
        | Error e -> Format.asprintf "%a" Client.pp_error e
      in
      got := List.map (fun key -> (key, show (Client.get c ~key))) [ "victim"; "later"; "never" ];
      ignore (Client.shutdown c);
      Client.close c);
  ignore (K.spawn server ~prog:"supervisor" ~arg:"");
  ignore (K.spawn client ~prog:"cli" ~arg:"");
  K.run_pair server client;
  let integrity = "integrity violation detected" in
  check
    Alcotest.(list (pair string string))
    "gets after the respawn"
    [ ("victim", integrity); ("later", integrity); ("never", integrity) ]
    !got

let test_e2e_sequential_clients () =
  (* The node serves connections back to back; a second client sees the
     first one's data. *)
  let server = K.create ~ip:ip_server () in
  let client = K.create ~ip:ip_client () in
  K.connect server client;
  ignore (Bi_netd.Netd.install server);
  let second_saw = ref None in
  K.register_program client "cli" (fun s _ ->
      (match Client.connect s ~ip:ip_server with
      | Ok c1 ->
          ignore (Client.put c1 ~key:"shared" ~value:"across connections");
          Client.close c1
      | Error _ -> ());
      U.sleep s 5;
      match Client.connect s ~ip:ip_server with
      | Ok c2 ->
          (match Client.get c2 ~key:"shared" with
          | Ok v -> second_saw := v
          | Error _ -> ());
          ignore (Client.shutdown c2);
          Client.close c2
      | Error _ -> ());
  ignore (K.spawn server ~prog:"netd" ~arg:"");
  ignore (K.spawn client ~prog:"cli" ~arg:"");
  K.run_pair server client;
  check (Alcotest.option Alcotest.string) "data visible across connections"
    (Some "across connections") !second_saw

let test_e2e_persistence_across_mount () =
  (* Data written through the whole stack survives a filesystem remount
     (server restart). *)
  let server = with_store (fun _s c ->
      match Client.put c ~key:"durable" ~value:"survives" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "put: %a" Client.pp_error e)
  in
  let disk = (K.machine server).Bi_hw.Machine.disk in
  let fs2 = Bi_fs.Fs.mount (Bi_fs.Block_dev.of_disk disk) in
  match (Bi_app.Node_core.fs_store fs2).load "durable" with
  | Ok (Some { value; crc }) ->
      check Alcotest.string "content" "survives" value;
      check Alcotest.int32 "crc" (P.crc32 "survives") crc
  | Ok None -> Alcotest.fail "value lost"
  | Error e -> Alcotest.failf "read back: %a" P.pp_err e

(* ------------------------------------------------------------------ *)
(* Resilience layer *)

module RC = Bi_app.Resilient_client
module Rs = Bi_app.Rs_check

(* Every error constructor of every layer must render: a resilience bug
   report that crashes while formatting its own error is worse than the
   bug.  Exact strings for the enums; prefix checks where a payload is
   interpolated. *)
let test_pp_error_coverage () =
  let p fmt v = Format.asprintf "%a" fmt v in
  let prefix pre s =
    String.length s >= String.length pre
    && String.sub s 0 (String.length pre) = pre
  in
  check Alcotest.string "P.Bad_key" "invalid key" (p P.pp_err P.Bad_key);
  check Alcotest.string "P.Too_large" "value too large" (p P.pp_err P.Too_large);
  check Alcotest.string "P.Bad_crc" "checksum mismatch on write"
    (p P.pp_err P.Bad_crc);
  check Alcotest.string "P.No_crc" "missing checksum" (p P.pp_err P.No_crc);
  check Alcotest.string "P.Integrity" "integrity violation detected"
    (p P.pp_err P.Integrity);
  check Alcotest.string "P.Read_only" "node degraded: read-only"
    (p P.pp_err P.Read_only);
  check Alcotest.string "P.Io" "io: disk on fire" (p P.pp_err (P.Io "disk on fire"));
  check Alcotest.string "P.Wrong_shard" "wrong shard (map version 3)"
    (p P.pp_err (P.Wrong_shard 3));
  check Alcotest.string "P.Overloaded" "overloaded: request shed, retry later"
    (p P.pp_err P.Overloaded);
  check Alcotest.string "P.Serving" "serving" (p P.pp_health P.Serving);
  check Alcotest.string "P.Degraded" "degraded" (p P.pp_health P.Degraded);
  check Alcotest.string "P.txn" "7.42" (p P.pp_txn { P.client = 7; seq = 42 });
  check Alcotest.bool "Client.Connection" true
    (prefix "connection: " (p Client.pp_error (Client.Connection "refused")));
  check Alcotest.bool "Client.Remote" true
    (prefix "remote: " (p Client.pp_error (Client.Remote P.Integrity)));
  check Alcotest.string "Client.Corrupt" "corrupt value"
    (p Client.pp_error Client.Corrupt);
  check Alcotest.string "Client.Invalid_key" "invalid key (rejected locally)"
    (p Client.pp_error Client.Invalid_key);
  check Alcotest.string "RC.Invalid_key" "invalid key (rejected locally)"
    (p RC.pp_error RC.Invalid_key);
  check Alcotest.string "RC.Breaker_open" "breaker open"
    (p RC.pp_error RC.Breaker_open);
  check Alcotest.string "RC.Deadline" "deadline exceeded"
    (p RC.pp_error RC.Deadline);
  check Alcotest.bool "RC.Exhausted" true
    (prefix "retries exhausted: " (p RC.pp_error (RC.Exhausted "timeout")));
  check Alcotest.bool "RC.Remote" true
    (prefix "remote: " (p RC.pp_error (RC.Remote P.Read_only)));
  check Alcotest.string "Rset.Invalid_key" "invalid key (rejected locally)"
    (p Bi_app.Replica_set.pp_error Bi_app.Replica_set.Invalid_key);
  check Alcotest.string "Rset.No_synced_replica" "no synced replica"
    (p Bi_app.Replica_set.pp_error Bi_app.Replica_set.No_synced_replica);
  check Alcotest.bool "Rset.Op_failed" true
    (prefix "operation failed"
       (p Bi_app.Replica_set.pp_error
          (Bi_app.Replica_set.Op_failed [ ("n0", RC.Deadline) ])))

let test_retryable () =
  check Alcotest.bool "Bad_crc retryable" true (P.retryable P.Bad_crc);
  check Alcotest.bool "Overloaded retryable" true (P.retryable P.Overloaded);
  List.iter
    (fun e -> check Alcotest.bool "definitive" false (P.retryable e))
    [
      P.Bad_key; P.Too_large; P.No_crc; P.Integrity; P.Read_only; P.Io "x";
      P.Wrong_shard 3;
    ]

let test_backoff_determinism () =
  let cfg = { RC.default_config with seed = 42; jitter_pm = 3 } in
  let sched c = List.init 8 (fun i -> RC.backoff c ~attempt:(i + 1)) in
  (* Same seed: bit-identical schedule, run to run. *)
  check (Alcotest.list Alcotest.int) "same seed, same schedule" (sched cfg)
    (sched cfg);
  (* A different seed moves each step by at most the jitter amplitude:
     the capped-exponential shape is seed-independent. *)
  let cfg' = { cfg with seed = 43 } in
  check Alcotest.bool "seeds differ somewhere" true (sched cfg <> sched cfg');
  List.iter2
    (fun a b ->
      check Alcotest.bool "seeds perturb only jitter" true
        (abs (a - b) <= 2 * cfg.jitter_pm))
    (sched cfg) (sched cfg');
  (* With jitter off, the schedule is exactly the capped exponential. *)
  let nojit = { cfg with jitter_pm = 0 } in
  check (Alcotest.list Alcotest.int) "capped exponential"
    [ 2; 4; 8; 16; 16; 16; 16; 16 ] (sched nojit);
  List.iter
    (fun a -> check Alcotest.bool "never negative" true (RC.backoff cfg ~attempt:a >= 0))
    [ 1; 2; 3; 10; 30; 62 ]

(* ------------------------------------------------------------------ *)
(* Duplicate-table boundaries *)

module NC = Bi_app.Node_core

let put_txn_req ~client ~seq key value =
  P.Put { key; value; crc = P.crc32 value; txn = Some { P.client; seq } }

(* The per-client table keeps exactly [dup_capacity] entries (default 8):
   after seqs 1..8 every retry answers from the table; a 9th entry
   evicts only the oldest, whose retry then re-applies. *)
let test_dup_table_capacity_boundary () =
  let n = NC.create (NC.mem_store ()) in
  for seq = 1 to 8 do
    match NC.handle n (put_txn_req ~client:1 ~seq (Printf.sprintf "k%d" seq) "v") with
    | P.Done -> ()
    | _ -> Alcotest.fail "put refused"
  done;
  check Alcotest.int "eight applied" 8 (NC.applied n);
  for seq = 1 to 8 do
    ignore (NC.handle n (put_txn_req ~client:1 ~seq (Printf.sprintf "k%d" seq) "v"))
  done;
  check Alcotest.int "all eight retries hit the table" 8 (NC.dup_hits n);
  check Alcotest.int "no retry re-applied" 8 (NC.applied n);
  ignore (NC.handle n (put_txn_req ~client:1 ~seq:9 "k9" "v"));
  check Alcotest.int "ninth entry applies" 9 (NC.applied n);
  ignore (NC.handle n (put_txn_req ~client:1 ~seq:2 "k2" "v"));
  check Alcotest.int "seq 2 survived the eviction" 9 (NC.dup_hits n);
  ignore (NC.handle n (put_txn_req ~client:1 ~seq:1 "k1" "v"));
  check Alcotest.int "evicted seq 1 re-applies" 10 (NC.applied n)

(* The table tracks at most 64 distinct clients; the 65th evicts the
   least recently seen one. *)
let test_dup_table_client_lru () =
  let n = NC.create (NC.mem_store ()) in
  for client = 1 to 64 do
    ignore
      (NC.handle n (put_txn_req ~client ~seq:1 (Printf.sprintf "c%d" client) "v"))
  done;
  check Alcotest.int "sixty-four applied" 64 (NC.applied n);
  ignore (NC.handle n (put_txn_req ~client:65 ~seq:1 "c65" "v"));
  ignore (NC.handle n (put_txn_req ~client:2 ~seq:1 "c2" "v"));
  check Alcotest.int "client 2 still cached" 1 (NC.dup_hits n);
  ignore (NC.handle n (put_txn_req ~client:1 ~seq:1 "c1" "v"));
  check Alcotest.int "oldest client 1 was evicted: re-applied" 66 (NC.applied n)

(* A duplicate-table lookup refreshes the client's recency: a client
   whose retry just hit the table survives the 65th client's arrival;
   an untouched one is the eviction victim instead. *)
let test_dup_lookup_touch_ordering () =
  let n = NC.create (NC.mem_store ()) in
  for client = 1 to 64 do
    ignore
      (NC.handle n (put_txn_req ~client ~seq:1 (Printf.sprintf "c%d" client) "v"))
  done;
  ignore (NC.handle n (put_txn_req ~client:1 ~seq:1 "c1" "v"));
  check Alcotest.int "retry hits" 1 (NC.dup_hits n);
  ignore (NC.handle n (put_txn_req ~client:65 ~seq:1 "c65" "v"));
  ignore (NC.handle n (put_txn_req ~client:1 ~seq:1 "c1" "v"));
  check Alcotest.int "touched client 1 survives" 2 (NC.dup_hits n);
  ignore (NC.handle n (put_txn_req ~client:2 ~seq:1 "c2" "v"));
  check Alcotest.int "untouched client 2 was the victim: re-applied" 66
    (NC.applied n)

(* Against a dead endpoint with an oversized backoff, every sleep is
   clamped to the remaining deadline budget: on a manual clock the call
   ends at exactly [deadline] (the pre-clamp client overshot by a full
   backoff step), and the whole schedule is deterministic run to run. *)
let test_clamped_backoff_deadline () =
  let run () =
    let t_now = ref 0 in
    let clock =
      { RC.now = (fun () -> !t_now); sleep = (fun n -> t_now := !t_now + n) }
    in
    let ep = { RC.name = "down"; rpc = (fun _ -> Error "endpoint down") } in
    let cfg =
      {
        RC.default_config with
        max_attempts = 50;
        backoff_base = 100;
        backoff_cap = 400;
        jitter_pm = 7;
        breaker_threshold = 1_000;
        deadline = 250;
        seed = 11;
      }
    in
    let c = RC.create ~config:cfg ~client:3 clock ep in
    let r = RC.get c ~key:"k" in
    (r, !t_now, (RC.stats c).RC.attempts)
  in
  let r1, elapsed1, attempts1 = run () in
  (match r1 with
  | Error RC.Deadline -> ()
  | _ -> Alcotest.fail "expected Deadline");
  check Alcotest.int "clamp lands exactly on the deadline" 250 elapsed1;
  let _, elapsed2, attempts2 = run () in
  check Alcotest.int "same seed, same elapsed" elapsed1 elapsed2;
  check Alcotest.int "same seed, same attempts" attempts1 attempts2

(* Drive a resilient client on a manual clock through the full breaker
   cycle, and prove half-open admits exactly one probe: a reentrant call
   issued from inside the probe itself must fast-fail. *)
let test_breaker_half_open_single_probe () =
  let t_now = ref 0 in
  let clock =
    { RC.now = (fun () -> !t_now); sleep = (fun n -> t_now := !t_now + n) }
  in
  let cfg =
    {
      RC.default_config with
      max_attempts = 1;
      breaker_threshold = 2;
      breaker_cooldown = 10;
      deadline = 1_000_000;
    }
  in
  let failing = ref true in
  let probes = ref 0 in
  let self = ref None in
  let ep =
    {
      RC.name = "flaky";
      rpc =
        (fun _req ->
          (match !self with
          | Some c when RC.breaker_state c = RC.Half_open -> (
              incr probes;
              match RC.get c ~key:"other" with
              | Error RC.Breaker_open -> ()
              | _ -> Alcotest.fail "second call admitted during the probe")
          | _ -> ());
          if !failing then Error "endpoint down"
          else Ok (P.Value { value = "v"; crc = P.crc32 "v" }));
    }
  in
  let c = RC.create ~config:cfg ~client:9 clock ep in
  self := Some c;
  (match RC.get c ~key:"k" with
  | Error (RC.Exhausted _) -> ()
  | _ -> Alcotest.fail "first failure");
  check Alcotest.bool "still closed below threshold" true
    (RC.breaker_state c = RC.Closed);
  (match RC.get c ~key:"k" with
  | Error (RC.Exhausted _) -> ()
  | _ -> Alcotest.fail "second failure");
  (match RC.breaker_state c with
  | RC.Open_until _ -> ()
  | _ -> Alcotest.fail "breaker must open at the threshold");
  (match RC.get c ~key:"k" with
  | Error RC.Breaker_open -> ()
  | _ -> Alcotest.fail "open breaker must fast-fail");
  check Alcotest.int "fast-fail makes no attempt" 2 (RC.stats c).RC.attempts;
  (* Cooldown elapses; the endpoint recovers; the single probe recloses. *)
  t_now := !t_now + 11;
  failing := false;
  (match RC.get c ~key:"k" with
  | Ok (Some "v") -> ()
  | _ -> Alcotest.fail "probe should succeed");
  check Alcotest.int "exactly one probe ran" 1 !probes;
  check Alcotest.bool "reclosed" true (RC.breaker_state c = RC.Closed);
  let s = RC.stats c in
  check Alcotest.int "one open" 1 s.RC.breaker_opens;
  check Alcotest.int "one close" 1 s.RC.breaker_closes

(* The fault-injection positive control: under a scripted noisy plan a
   plain one-shot request is lost, the resilient client completes, and
   the plan shrinks to a single decision that still reproduces. *)
let test_fi_positive_control () =
  let c = Rs.positive_control () in
  check Alcotest.bool "plain client loses its request" true c.Rs.plain_failed;
  check Alcotest.bool "resilient client completes" true c.Rs.resilient_ok;
  check Alcotest.int "plan shrinks to one decision" 1 (List.length c.Rs.shrunk);
  check Alcotest.bool "shrunk plan still kills the plain client" true
    c.Rs.replay_fails

(* ------------------------------------------------------------------ *)
(* Per-node redo journal: record serde and recovery × migration *)

module J = Bi_app.Journal

(* One of each record constructor, with non-trivial payloads. *)
let journal_vectors =
  [
    J.Mut
      {
        txn = Some { P.client = 3; seq = 7 };
        shard = 1;
        key = "k";
        put = Some ("value", P.crc32 "value");
        done_ = true;
      };
    J.Mut { txn = None; shard = 0; key = "gone"; put = None; done_ = false };
    J.Cancel { degraded = true };
    J.Snapshot
      {
        J.s_dups = [ (1, [ (3, 0, true); (2, 0, false) ]) ];
        s_sharding = Some (4, 2, [ 0; 2 ], [ 1 ]);
        s_degraded = false;
      };
    J.Enable { nshards = 4; version = 1; owned = [ 0; 1 ] };
    J.Adopt 2;
    J.Release 3;
    J.Freeze 0;
    J.Unfreeze 0;
    J.Map_version 9;
    J.Import { shard = 2; entries = [ ({ P.client = 5; seq = 1 }, true) ] };
  ]

let test_journal_roundtrip_vectors () =
  List.iter
    (fun r ->
      check Alcotest.bool "record roundtrips" true
        (J.decode_record (J.encode_record r) = Some r))
    journal_vectors;
  let stream = Bytes.concat Bytes.empty (List.map J.frame_record journal_vectors) in
  let records, torn = J.decode_stream stream in
  check Alcotest.bool "stream roundtrips" true (records = journal_vectors);
  check Alcotest.bool "clean stream is not torn" false torn

let test_journal_strict_prefix_rejected () =
  List.iter
    (fun r ->
      let b = J.encode_record r in
      for l = 0 to Bytes.length b - 1 do
        check Alcotest.bool "strict prefix rejected" true
          (J.decode_record (Bytes.sub b 0 l) = None)
      done;
      check Alcotest.bool "trailing byte rejected" true
        (J.decode_record (Bytes.cat b (Bytes.make 1 'x')) = None))
    journal_vectors

(* Totality under the shared corruption generator: neither the strict
   single-record decoder nor the stream decoder may raise, and whatever
   the stream decoder salvages is a prefix of what was written (the
   per-record CRC rejects everything from the damage on). *)
let test_journal_corrupt_fuzz () =
  let g = Bi_core.Gen.of_string "app/journal-fuzz" in
  let fp = Bi_fault.Fault_plan.corrupt_bytes in
  let stream =
    Bytes.concat Bytes.empty (List.map J.frame_record journal_vectors)
  in
  let is_prefix l = List.filteri (fun i _ -> i < List.length l) journal_vectors = l in
  for _ = 1 to 500 do
    let r = Bi_core.Gen.oneof g journal_vectors in
    ignore (J.decode_record (fp g (J.encode_record r)));
    let records, _torn = J.decode_stream (fp g stream) in
    check Alcotest.bool "salvage is a prefix of the original" true
      (is_prefix records)
  done

(* Satellite: recovery × migration.  A node recovers its duplicate table
   from the journal, then a live migration imports carried entries for
   the same client — the merge keeps the highest seqs per client
   (per-client seqs are monotone), so with [dup_capacity:2] the imported
   seq 3 plus the recovered seq 2 survive and the recovered seq 1 is the
   eviction victim. *)
let test_recovery_migration_merge () =
  let sink, _buf = J.mem_sink () in
  let store = NC.mem_store () in
  let a = NC.create ~dup_capacity:2 ~journal:(J.create sink) store in
  (match NC.handle a (put_txn_req ~client:9 ~seq:1 "ka" "v1") with
  | P.Done -> ()
  | _ -> Alcotest.fail "put seq 1");
  (match
     NC.handle a (P.Delete { key = "ka"; txn = Some { P.client = 9; seq = 2 } })
   with
  | P.Done -> ()
  | _ -> Alcotest.fail "delete seq 2");
  (* Crash: a fresh core over the durable store and journal. *)
  let b = NC.create ~dup_capacity:2 ~journal:(J.create sink) store in
  let r = NC.recover b in
  check Alcotest.int "both entries recovered" 2 r.NC.r_dup_entries;
  (* Replay from genesis may re-toggle the put/delete pair; what matters
     is that it converges on the pre-crash store. *)
  check Alcotest.bool "replay converges on the pre-crash store" true
    (NC.mem_contents store = []);
  (* The handoff carries a fresher entry for the same client. *)
  NC.import_dups b ~shard:0 [ ({ P.client = 9; seq = 3 }, P.Done) ];
  check Alcotest.bool "merge keeps the two highest seqs" true
    (List.map fst (NC.export_dups b ~shard:0)
    = [ { P.client = 9; seq = 2 }; { P.client = 9; seq = 3 } ]);
  (* Retries of the survivors answer from the table without applying. *)
  (match
     NC.handle b (P.Delete { key = "ka"; txn = Some { P.client = 9; seq = 2 } })
   with
  | P.Done -> ()
  | _ -> Alcotest.fail "retry seq 2 must hit the merged table");
  (match NC.handle b (put_txn_req ~client:9 ~seq:3 "kb" "v3") with
  | P.Done -> ()
  | _ -> Alcotest.fail "retry seq 3 must hit the merged table");
  check Alcotest.int "survivors answered from the table" 2 (NC.dup_hits b);
  check Alcotest.int "no re-apply for table hits" 0 (NC.applied b);
  (* The evicted seq 1 is below the table's horizon: it re-applies. *)
  (match NC.handle b (put_txn_req ~client:9 ~seq:1 "ka" "v1") with
  | P.Done -> ()
  | _ -> Alcotest.fail "evicted seq 1 re-applies");
  check Alcotest.int "eviction victim re-applied" 1 (NC.applied b)

(* The node's file layer over a fresh filesystem: a journaled node whose
   store and journal share one log over [files]. *)
let fresh_fs () =
  Bi_fs.Fs.mkfs (Bi_fs.Block_dev.of_disk (Bi_hw.Device.Disk.create ~sectors:4096 ()))

module Nf = Bi_app.Node_files

let log_node ?journal_checkpoint files =
  let log = Nf.log files in
  let store = Nf.store log in
  (NC.create ?journal_checkpoint ~journal:(J.create (Nf.sink log)) store, store)

(* The longest valid key is 23 characters: a limit set when each key
   named its own files, kept so that every key a node ever stored stays
   valid.  It must round-trip on a journaled node without degrading it. *)
let test_longest_key_fits_layout () =
  check Alcotest.bool "24 chars invalid" false (P.valid_key (String.make 24 'a'));
  check Alcotest.bool "23 chars valid" true (P.valid_key (String.make 23 'a'));
  let node, _ = log_node (Nf.of_fs (fresh_fs ())) in
  ignore (NC.recover node);
  let done_ what = function
    | P.Done -> ()
    | _ -> Alcotest.failf "%s: not Done" what
  in
  (match NC.handle node (put_txn_req ~client:1 ~seq:1 (String.make 24 'a') "v") with
  | P.Err P.Bad_key -> ()
  | _ -> Alcotest.fail "24-char put not refused as Bad_key");
  let key = String.make 23 'a' in
  done_ "23-char put" (NC.handle node (put_txn_req ~client:1 ~seq:2 key "long key"));
  (match NC.handle node (P.Get key) with
  | P.Value { value; _ } -> check Alcotest.string "23-char get" "long key" value
  | _ -> Alcotest.fail "23-char get");
  check Alcotest.bool "not degraded" false (NC.degraded node);
  done_ "next put" (NC.handle node (put_txn_req ~client:1 ~seq:3 "b" "v"))

(* A checkpoint whose commit point — renaming the marker — fails leaves
   the previous checkpoint in force, with the new one's snapshot written
   after it.  A later append and a recovery from disk must still see
   every dup entry: the failed checkpoint may not lose the snapshot. *)
let test_failed_replace_keeps_snapshot () =
  let fs = fresh_fs () in
  let files = Nf.of_fs fs in
  let failures = ref 1 in
  let fake =
    {
      files with
      Nf.rename =
        (fun ~src ~dst ->
          if !failures > 0 then begin
            decr failures;
            Error (P.Io "injected rename failure")
          end
          else files.rename ~src ~dst);
    }
  in
  let a, _ = log_node fake in
  ignore (NC.recover a);
  check Alcotest.bool "first checkpoint" true (Result.is_ok (NC.checkpoint a));
  List.iter
    (fun c ->
      match NC.handle a (put_txn_req ~client:c ~seq:1 "k" "v") with
      | P.Done -> ()
      | _ -> Alcotest.failf "put from client %d" c)
    [ 1; 2; 3 ];
  let marker () =
    List.filter (fun n -> String.starts_with ~prefix:"ck" n) (Result.get_ok (files.readdir "/log"))
  in
  let before = marker () in
  check Alcotest.bool "checkpoint fails at the rename" true
    (Result.is_error (NC.checkpoint a));
  check Alcotest.(list string) "previous checkpoint in force" before (marker ());
  (match NC.handle a (put_txn_req ~client:4 ~seq:1 "k" "w") with
  | P.Done -> ()
  | _ -> Alcotest.fail "put after the failed checkpoint");
  let b, store = log_node (Nf.of_fs fs) in
  let r = NC.recover b in
  check Alcotest.bool "replay starts at the snapshot" true r.NC.r_snapshot;
  check
    Alcotest.(list (pair int int))
    "every dup entry survives"
    [ (1, 1); (2, 1); (3, 1); (4, 1) ]
    (List.map (fun ({ P.client; seq }, _) -> (client, seq)) (NC.dump_dups b));
  check Alcotest.(list (pair string string)) "value" [ ("k", "w") ] (NC.mem_contents store)

(* Capacity: the log spends a handful of inodes whatever the key count,
   so a node stores 10,000 distinct keys — far past the 256-inode fs's
   old ~126-key ceiling of two files per key.  One kernel process puts
   them through [usys_store] + [usys_journal] (auto-checkpointing); a
   second process recovers a fresh core over the same files and reads
   every key back, each value's CRC checked. *)
let test_ten_thousand_keys () =
  let n = 10_000 in
  let key i = Printf.sprintf "key%05d" i in
  let value i = Printf.sprintf "value-%d" (i * 7919) in
  let k = K.create () in
  let core s =
    NC.create
      ~journal:(J.create (Bi_app.Storage_node.usys_journal s))
      (Bi_app.Storage_node.usys_store s)
  in
  let failed = ref 0 and checkpoints = ref 0 in
  K.register_program k "fill" (fun s _ ->
      let c = core s in
      ignore (NC.recover c);
      for i = 0 to n - 1 do
        match NC.handle c (put_txn_req ~client:(1 + (i mod 16)) ~seq:(1 + (i / 16)) (key i) (value i)) with
        | P.Done -> ()
        | _ -> incr failed
      done;
      checkpoints := NC.checkpoints c);
  let read_back = ref 0 and keys = ref 0 and degraded = ref true in
  K.register_program k "check" (fun s _ ->
      let c = core s in
      ignore (NC.recover c);
      degraded := NC.degraded c;
      (match NC.handle c P.List with P.Listing ks -> keys := List.length ks | _ -> ());
      for i = 0 to n - 1 do
        match NC.handle c (P.Get (key i)) with
        | P.Value { value = v; crc } when v = value i && crc = P.crc32 v ->
            incr read_back
        | _ -> ()
      done);
  let run prog =
    match K.spawn k ~prog ~arg:"" with
    | Ok _ -> K.run k
    | Error _ -> Alcotest.failf "spawn %s" prog
  in
  run "fill";
  run "check";
  check Alcotest.int "puts refused" 0 !failed;
  check Alcotest.bool "checkpointed along the way" true (!checkpoints > 0);
  check Alcotest.bool "recovered node serving" false !degraded;
  check Alcotest.int "keys listed" n !keys;
  check Alcotest.int "values read back" n !read_back;
  let used = List.length (Result.get_ok (Bi_fs.Fs.readdir (K.fs k) "/log")) in
  check Alcotest.bool "a handful of files" true (used < 32)

(* History length: with auto-checkpointing off, the log rolls to a fresh
   segment before a record could pass [Fs.max_file_size], so 5,000
   commits all succeed (a single journal file refused every mutation
   after about the 2,678th with [journal: too-large]), and a fresh node
   recovers all of them. *)
let test_five_thousand_commits () =
  let fs = fresh_fs () in
  let node, _ = log_node ~journal_checkpoint:max_int (Nf.of_fs fs) in
  ignore (NC.recover node);
  let refused = ref 0 in
  for i = 1 to 5_000 do
    match NC.handle node (put_txn_req ~client:1 ~seq:i (Printf.sprintf "k%d" (i mod 64)) (string_of_int i)) with
    | P.Done -> ()
    | _ -> incr refused
  done;
  check Alcotest.int "refused" 0 !refused;
  check Alcotest.int "no checkpoint" 0 (NC.checkpoints node);
  let again, store = log_node (Nf.of_fs fs) in
  let r = NC.recover again in
  check Alcotest.int "records replayed" 5_000 r.NC.r_records;
  check Alcotest.bool "not degraded" false (NC.degraded again);
  check Alcotest.(list (pair string string)) "contents" (NC.mem_contents store)
    (List.sort compare
       (List.init 64 (fun k -> (Printf.sprintf "k%d" k, string_of_int (5_000 - ((5_000 - k) mod 64))))));
  check Alcotest.bool "retry answered from the table" true
    (NC.handle again (put_txn_req ~client:1 ~seq:5_000 "k8" "5000") = P.Done
    && NC.applied again = 0)

(* The log against a map: random puts, deletes, checkpoints (so rolls,
   compaction and unlinks) and reloads of a fresh node, over segments a
   few records long.  Every reload and the final contents must equal the
   map, and the node never degrades. *)
let test_log_matches_map () =
  for seed = 1 to 60 do
    let rng = Random.State.make [| seed |] in
    let segment_bytes = 64 + Random.State.int rng 400 in
    let fs =
      Bi_fs.Fs.mkfs (Bi_fs.Block_dev.of_disk (Bi_hw.Device.Disk.create ~sectors:1024 ()))
    in
    let node () =
      let log = Nf.log ~segment_bytes (Nf.of_fs fs) in
      let store = Nf.store log in
      let n = NC.create ~journal_checkpoint:300 ~journal:(J.create (Nf.sink log)) store in
      ignore (NC.recover n);
      (n, store)
    in
    let model = Hashtbl.create 16 in
    let expected () = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []) in
    let cur = ref (node ()) in
    for seq = 1 to 200 do
      let n, _ = !cur in
      let key = Printf.sprintf "k%d" (Random.State.int rng 12) in
      let txn = Some { P.client = 1; seq } in
      match Random.State.int rng 10 with
      | 0 ->
          cur := node ();
          check Alcotest.(list (pair string string)) "reloaded" (expected ())
            (NC.mem_contents (snd !cur))
      | 1 -> ignore (NC.checkpoint n)
      | 2 | 3 -> (
          match NC.handle n (P.Delete { key; txn }) with
          | P.Done | P.Missing -> Hashtbl.remove model key
          | _ -> Alcotest.failf "seed %d: delete refused" seed)
      | _ -> (
          let value = String.make (1 + Random.State.int rng 40) (Char.chr (97 + (seq mod 26))) in
          match NC.handle n (P.Put { key; value; crc = P.crc32 value; txn }) with
          | P.Done -> Hashtbl.replace model key value
          | _ -> Alcotest.failf "seed %d: put refused" seed)
    done;
    let n, store = !cur in
    check Alcotest.(list (pair string string)) "final" (expected ()) (NC.mem_contents store);
    check Alcotest.bool "not degraded" false (NC.degraded n)
  done

(* Corruption found on load.  A flipped byte in an acknowledged record
   that fits its segment — with later segments or in the last one — is
   no torn tail: the recovered node is degraded (the record may have
   held a dup entry), a key whose value predates the damage or that has
   no value reads [Integrity] (the damaged record may have been its
   latest write), a value written after the damage is served, and the
   log refuses writes.  A torn tail, by contrast, leaves the node
   serving. *)
let test_corruption_on_load () =
  let run ~victim ~tear =
    let fs = fresh_fs () in
    (* One record per segment: the damage ends only its own segment. *)
    let node () =
      let log = Nf.log ~segment_bytes:60 (Nf.of_fs fs) in
      NC.create ~journal:(J.create (Nf.sink log)) (Nf.store log)
    in
    let node = node () and again = node () in
    ignore (NC.recover node);
    List.iteri
      (fun i (key, value) ->
        match NC.handle node (put_txn_req ~client:1 ~seq:(i + 1) key value) with
        | P.Done -> ()
        | _ -> Alcotest.failf "put %s" key)
      [ ("early", "before the damage"); ("v", "old value"); ("v", "pristine one");
        ("late", "pristine two") ];
    let files = Nf.of_fs fs in
    let segs = List.sort compare (Result.get_ok (files.readdir "/log")) in
    (if tear then ignore (files.append ("/log/" ^ List.nth segs (List.length segs - 1)) "\x1f\xfftorn")
     else
       let holds name =
         let seg = Option.get (Result.get_ok (files.read ("/log/" ^ name))) in
         let at off = String.sub seg off (String.length victim) = victim in
         Option.map
           (fun off -> (name, off))
           (List.find_opt at (List.init (String.length seg - String.length victim + 1) Fun.id))
       in
       let name, off = Option.get (List.find_map holds segs) in
       let ino = Result.get_ok (Bi_fs.Fs.resolve fs ("/log/" ^ name)) in
       ignore (Bi_fs.Fs.write_ino fs ~ino ~off (Bytes.of_string "X")));
    let r = NC.recover again in
    let get key =
      match NC.handle again (P.Get key) with
      | P.Value { value; _ } -> value
      | P.Missing -> "missing"
      | P.Err e -> Format.asprintf "%a" P.pp_err e
      | _ -> "?"
    in
    ( (r.NC.r_journal_error, r.NC.r_torn_tail, NC.degraded again),
      List.map get [ "early"; "v"; "late"; "never" ],
      NC.handle again (put_txn_req ~client:2 ~seq:1 "new" "x") = P.Done )
  in
  let integrity = "integrity violation detected" in
  let flags = Alcotest.(triple bool bool bool) in
  let gets = Alcotest.(list string) in
  let mid, mid_gets, mid_put = run ~victim:"pristine one" ~tear:false in
  check flags "mid-log: journal error, degraded" (true, false, true) mid;
  check gets "mid-log gets" [ integrity; integrity; "pristine two"; integrity ] mid_gets;
  check Alcotest.bool "mid-log: put refused" false mid_put;
  let last, last_gets, _ = run ~victim:"pristine two" ~tear:false in
  check flags "last record: journal error, degraded" (true, false, true) last;
  check gets "last record gets" [ integrity; integrity; integrity; integrity ] last_gets;
  let torn, torn_gets, torn_put = run ~victim:"" ~tear:true in
  check flags "torn tail: serving" (false, true, false) torn;
  check gets "torn tail gets"
    [ "before the damage"; "pristine one"; "pristine two"; "missing" ] torn_gets;
  check Alcotest.bool "torn tail: put accepted" true torn_put

(* A store used with no journal (netd's [journal = false]) checkpoints
   its own log: 3,000 overwrites of 16 keys with 500-byte values — 1.5 MB
   of writes, more than the 2-MB disk has room for in data blocks once
   the filesystem's own overhead is paid — all succeed, the log's files
   stay within four segments, and every key reads back, also through a
   fresh store over the same files. *)
let test_store_without_journal_bounded () =
  let fs = fresh_fs () in
  let store = Nf.store (Nf.log (Nf.of_fs fs)) in
  let value i n = String.make 500 (Char.chr (97 + ((i + n) mod 26))) in
  let peak = ref 0 in
  let log_bytes () =
    List.fold_left
      (fun acc name ->
        match Bi_fs.Fs.stat fs ("/log/" ^ name) with
        | Ok { Bi_fs.Fs.size; _ } -> acc + size
        | Error _ -> acc)
      0
      (Result.get_ok (Bi_fs.Fs.readdir fs "/log"))
  in
  for n = 0 to 2_999 do
    let i = n mod 16 in
    let v = value i n in
    (match store.save (Printf.sprintf "k%02d" i) { NC.value = v; crc = P.crc32 v } with
    | Ok () -> ()
    | Error e -> Alcotest.failf "save %d: %a" n P.pp_err e);
    peak := max !peak (log_bytes ())
  done;
  check Alcotest.bool "log within four segments" true (!peak <= 4 * Bi_fs.Fs.max_file_size);
  let expected =
    List.init 16 (fun i -> (Printf.sprintf "k%02d" i, value i (2_999 - ((2_999 - i) mod 16))))
  in
  check Alcotest.(list (pair string string)) "contents" expected (NC.mem_contents store);
  check Alcotest.(list (pair string string)) "contents from the files" expected
    (NC.mem_contents (Nf.store (Nf.log (Nf.of_fs fs))))

(* [Storage_node.usys_store s] and [usys_journal s] share one log however
   other processes' stores and journals interleave with them: here a
   second process builds both between the first process's store and its
   journal.  Two logs over the same files would each append at the end
   they last saw and index the other's records wrongly. *)
let test_usys_log_per_process () =
  let k = K.create () in
  let module Sn = Bi_app.Storage_node in
  K.register_program k "other" (fun s _ ->
      ignore (Sn.usys_store s : NC.store);
      ignore (Sn.usys_journal s : J.sink));
  let got = ref [] in
  K.register_program k "main" (fun s _ ->
      let store = Sn.usys_store s in
      (match U.spawn s ~prog:"other" ~arg:"" with
      | Ok pid -> ignore (U.wait s pid)
      | Error _ -> Alcotest.fail "spawn other");
      let node = NC.create ~journal:(J.create (Sn.usys_journal s)) store in
      ignore (NC.recover node);
      let keys = List.init 6 (Printf.sprintf "k%d") in
      List.iteri
        (fun i key -> ignore (NC.handle node (put_txn_req ~client:1 ~seq:(i + 1) key key)))
        keys;
      got :=
        List.map
          (fun key ->
            match NC.handle node (P.Get key) with
            | P.Value { value; _ } -> value
            | P.Err e -> Format.asprintf "%a" P.pp_err e
            | _ -> "?")
          keys);
  (match K.spawn k ~prog:"main" ~arg:"" with
  | Ok _ -> K.run k
  | Error _ -> Alcotest.fail "spawn main");
  check Alcotest.(list string) "every put reads back" (List.init 6 (Printf.sprintf "k%d")) !got;
  let contents = NC.mem_contents (NC.fs_store (K.fs k)) in
  check Alcotest.int "durable, one record each" 6 (List.length contents)

(* ------------------------------------------------------------------ *)
(* Bounded fair admission queue *)

module Adm = Bi_app.Admission

let test_admission_capacity_boundary () =
  let q = Adm.create ~capacity:3 () in
  List.iter
    (fun c -> check Alcotest.bool "admitted" true (Adm.offer q ~client:c c))
    [ 0; 1; 2 ];
  (* Exactly at capacity: the next offer is shed, not queued. *)
  check Alcotest.bool "fourth shed" false (Adm.offer q ~client:3 3);
  check Alcotest.int "length pinned" 3 (Adm.length q);
  check Alcotest.int "one shed" 1 (Adm.shed q);
  check Alcotest.bool "invariants" true (Adm.check_invariants q);
  (* One take frees exactly one slot. *)
  check Alcotest.bool "has item" true (Adm.take q <> None);
  check Alcotest.bool "slot reopened" true (Adm.offer q ~client:3 3);
  check Alcotest.bool "full again" false (Adm.offer q ~client:4 4)

let test_admission_fifo_per_client () =
  let q = Adm.create ~capacity:8 () in
  List.iter (fun i -> ignore (Adm.offer q ~client:7 i)) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ ->
      match Adm.take q with Some (7, x) -> x | _ -> -1)
  in
  check (Alcotest.list Alcotest.int) "served in offer order" [ 1; 2; 3; 4 ]
    order

let test_admission_round_robin_64 () =
  let nclients = 64 in
  let q = Adm.create ~capacity:(2 * nclients) () in
  for round = 1 to 2 do
    for c = 0 to nclients - 1 do
      check Alcotest.bool "admitted" true
        (Adm.offer q ~client:c ((100 * c) + round))
    done
  done;
  (* Dispatch cycles all 64 clients in order before revisiting any. *)
  for round = 1 to 2 do
    for c = 0 to nclients - 1 do
      match Adm.take q with
      | Some (c', x) ->
          check Alcotest.int "client in rotation order" c c';
          check Alcotest.int "that client's next item" ((100 * c) + round) x
      | None -> Alcotest.fail "queue ran dry"
    done
  done;
  check Alcotest.bool "drained" true (Adm.is_empty q)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bi_app"
    [
      ( "protocol",
        [
          Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "valid_key" `Quick test_valid_key;
          prop_req_frame_roundtrip;
          prop_resp_frame_roundtrip;
          Alcotest.test_case "partial frame" `Quick test_partial_frame_incomplete;
          Alcotest.test_case "two frames" `Quick test_two_frames_in_buffer;
        ] );
      ( "spec",
        [
          Alcotest.test_case "basics" `Quick test_store_spec_basics;
          Alcotest.test_case "rejects" `Quick test_store_spec_rejects;
        ] );
      ( "world sim",
        [
          Alcotest.test_case "same wake time, spawn order" `Quick
            test_sim_same_wake_spawn_order;
          Alcotest.test_case "sleep 0 advances a round" `Quick
            test_sim_sleep_zero_advances;
          Alcotest.test_case "round bound" `Quick test_sim_round_bound;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "basic ops" `Quick test_e2e_basic_ops;
          Alcotest.test_case "large value" `Quick test_e2e_large_value;
          Alcotest.test_case "oversize rejected" `Quick test_e2e_oversized_rejected;
          Alcotest.test_case "invalid key rejected" `Quick test_e2e_invalid_key_rejected;
          Alcotest.test_case "refines store spec" `Quick test_e2e_refines_store_spec;
          Alcotest.test_case "corruption detected" `Quick test_e2e_corruption_detected;
          Alcotest.test_case "corruption detected after a respawn" `Quick
            test_e2e_corruption_after_respawn;
          Alcotest.test_case "sequential clients" `Quick test_e2e_sequential_clients;
          Alcotest.test_case "persistence across mount" `Quick test_e2e_persistence_across_mount;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "pp_error coverage" `Quick test_pp_error_coverage;
          Alcotest.test_case "retryable classification" `Quick test_retryable;
          Alcotest.test_case "backoff determinism" `Quick test_backoff_determinism;
          Alcotest.test_case "dup-table capacity boundary" `Quick
            test_dup_table_capacity_boundary;
          Alcotest.test_case "dup-table client LRU" `Quick
            test_dup_table_client_lru;
          Alcotest.test_case "dup-lookup touch ordering" `Quick
            test_dup_lookup_touch_ordering;
          Alcotest.test_case "clamped backoff stops at deadline" `Quick
            test_clamped_backoff_deadline;
          Alcotest.test_case "breaker half-open single probe" `Quick
            test_breaker_half_open_single_probe;
          Alcotest.test_case "fault-injection positive control" `Quick
            test_fi_positive_control;
        ] );
      ( "journal",
        [
          Alcotest.test_case "record vectors roundtrip" `Quick
            test_journal_roundtrip_vectors;
          Alcotest.test_case "strict prefixes rejected" `Quick
            test_journal_strict_prefix_rejected;
          Alcotest.test_case "decoders total under corruption" `Quick
            test_journal_corrupt_fuzz;
          Alcotest.test_case "recovery merges with migration imports" `Quick
            test_recovery_migration_merge;
          Alcotest.test_case "longest key fits the layout" `Quick
            test_longest_key_fits_layout;
          Alcotest.test_case "failed replace keeps the snapshot" `Quick
            test_failed_replace_keeps_snapshot;
          Alcotest.test_case "10,000 keys on the kernel path" `Slow
            test_ten_thousand_keys;
          Alcotest.test_case "5,000 commits without a checkpoint" `Quick
            test_five_thousand_commits;
          Alcotest.test_case "log matches a map under random operations" `Quick
            test_log_matches_map;
          Alcotest.test_case "corruption on load is not a torn tail" `Quick
            test_corruption_on_load;
          Alcotest.test_case "store without a journal stays bounded" `Quick
            test_store_without_journal_bounded;
          Alcotest.test_case "usys store and journal share a log per process" `Quick
            test_usys_log_per_process;
        ] );
      ( "admission",
        [
          Alcotest.test_case "capacity boundary" `Quick
            test_admission_capacity_boundary;
          Alcotest.test_case "FIFO per client" `Quick
            test_admission_fifo_per_client;
          Alcotest.test_case "round-robin over 64 clients" `Quick
            test_admission_round_robin_64;
        ] );
    ]
