(* Filesystem tests: the refinement/crash VC suite plus unit and property
   tests of the WAL and the on-disk structures. *)

module Disk = Bi_hw.Device.Disk
module Block_dev = Bi_fs.Block_dev
module Wal = Bi_fs.Wal
module Fs = Bi_fs.Fs
module Fs_spec = Bi_fs.Fs_spec
module Fs_refinement = Bi_fs.Fs_refinement
module Path = Bi_fs.Path

let check = Alcotest.check

let qtest name count gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let fresh_dev () = Block_dev.of_disk (Disk.create ~sectors:2048 ())
let fresh_fs () = Fs.mkfs (fresh_dev ())

let write_file fs path data =
  (match Fs.create fs path with Ok () | Error _ -> ());
  match Fs.resolve fs path with
  | Ok ino -> Fs.write_ino fs ~ino ~off:0 (Bytes.of_string data)
  | Error e -> Error e

let read_file fs path =
  match Fs.stat fs path with
  | Ok { Fs.size; ino; _ } -> (
      match Fs.read_ino fs ~ino ~off:0 ~len:size with
      | Ok b -> Some (Bytes.to_string b)
      | Error _ -> None)
  | Error _ -> None

(* ------------------------------------------------------------------ *)
(* VC suite *)

let vc_cases () =
  let vcs = Fs_refinement.vcs () in
  List.map
    (fun (vc : Bi_core.Vc.t) ->
      Alcotest.test_case vc.Bi_core.Vc.id `Quick (fun () ->
          match Bi_core.Vc.catch vc.Bi_core.Vc.check with
          | Bi_core.Vc.Proved -> ()
          | (Bi_core.Vc.Falsified _ | Bi_core.Vc.Timeout _ | Bi_core.Vc.Capped _) as o ->
              Alcotest.failf "%a" Bi_core.Vc.pp_outcome o))
    vcs

(* ------------------------------------------------------------------ *)
(* Path *)

let test_path_split () =
  check Alcotest.bool "root" true (Path.split "/" = Ok []);
  check Alcotest.bool "two components" true (Path.split "/a/b" = Ok [ "a"; "b" ]);
  check Alcotest.bool "relative rejected" true (Path.split "a/b" = Error ());
  check Alcotest.bool "empty component rejected" true (Path.split "/a//b" = Error ());
  check Alcotest.bool "dot rejected" true (Path.split "/a/./b" = Error ());
  check Alcotest.bool "too long rejected" true
    (Path.split ("/" ^ String.make 28 'x') = Error ())

let test_path_dirname_basename () =
  check Alcotest.bool "nested" true
    (Path.dirname_basename "/a/b/c" = Ok ([ "a"; "b" ], "c"));
  check Alcotest.bool "top" true (Path.dirname_basename "/a" = Ok ([], "a"));
  check Alcotest.bool "root has no basename" true
    (Path.dirname_basename "/" = Error ())

let prop_path_join_split =
  qtest "join inverts split" 200
    QCheck2.Gen.(
      list_size (int_range 0 4)
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)))
    (fun parts -> Path.split (Path.join parts) = Ok parts)

(* ------------------------------------------------------------------ *)
(* WAL *)

let test_wal_commit_applies () =
  let dev = fresh_dev () in
  let wal = Wal.create dev ~header_block:1 in
  ignore (Wal.recover wal);
  let txn = Wal.begin_txn wal in
  let b = Bytes.make Block_dev.block_size 'A' in
  Wal.txn_write txn 100 b;
  Wal.txn_write txn 101 b;
  Wal.commit txn;
  check Alcotest.bool "installed" true (Block_dev.read dev 100 = b);
  check Alcotest.bool "installed 2" true (Block_dev.read dev 101 = b)

let test_wal_txn_reads_own_writes () =
  let dev = fresh_dev () in
  let wal = Wal.create dev ~header_block:1 in
  ignore (Wal.recover wal);
  let txn = Wal.begin_txn wal in
  let b = Bytes.make Block_dev.block_size 'B' in
  Wal.txn_write txn 50 b;
  check Alcotest.bool "sees own write" true (Wal.txn_read txn 50 = b);
  Wal.abort txn;
  check Alcotest.bool "abort discards" false (Block_dev.read dev 50 = b)

let test_wal_last_write_wins () =
  let dev = fresh_dev () in
  let wal = Wal.create dev ~header_block:1 in
  ignore (Wal.recover wal);
  let txn = Wal.begin_txn wal in
  Wal.txn_write txn 60 (Bytes.make Block_dev.block_size 'x');
  Wal.txn_write txn 60 (Bytes.make Block_dev.block_size 'y');
  Wal.commit txn;
  check Alcotest.bool "second write wins" true
    (Bytes.get (Block_dev.read dev 60) 0 = 'y')

let test_wal_size_limit () =
  let dev = fresh_dev () in
  let wal = Wal.create dev ~header_block:1 in
  ignore (Wal.recover wal);
  let txn = Wal.begin_txn wal in
  match
    for i = 0 to Wal.max_records do
      Wal.txn_write txn (100 + i) (Bytes.make Block_dev.block_size 'z')
    done
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "record budget must be enforced"

(* Crash before the commit header lands: recovery discards; crash after:
   recovery installs. *)
let test_wal_crash_before_commit_point () =
  let disk = Disk.create ~sectors:2048 () in
  let dev = Block_dev.of_disk disk in
  let wal = Wal.create dev ~header_block:1 in
  ignore (Wal.recover wal);
  Block_dev.flush dev;
  let txn = Wal.begin_txn wal in
  Wal.txn_write txn 200 (Bytes.make Block_dev.block_size 'C');
  Wal.commit txn;
  (* Re-run the same scenario but cut the disk just after the record
     writes (2 writes: meta + data), before the header write. *)
  let disk2 = Disk.create ~sectors:2048 () in
  let dev2 = Block_dev.of_disk disk2 in
  let wal2 = Wal.create dev2 ~header_block:1 in
  ignore (Wal.recover wal2);
  Block_dev.flush dev2;
  let txn2 = Wal.begin_txn wal2 in
  Wal.txn_write txn2 200 (Bytes.make Block_dev.block_size 'C');
  (* Manually perform only the first phase of commit by crashing with the
     record writes applied but nothing else: commit then cut at 2. *)
  Wal.commit txn2;
  let crashed = Block_dev.crash_with dev2 ~keep_unflushed:0 in
  let wal3 = Wal.create crashed ~header_block:1 in
  let replayed = Wal.recover wal3 in
  ignore replayed;
  (* Either the txn committed fully (header flushed) or not at all. *)
  let cell = Bytes.get (Block_dev.read crashed 200) 0 in
  check Alcotest.bool "all-or-nothing" true (cell = 'C' || cell = '\000')

let test_wal_recover_idempotent () =
  let dev = fresh_dev () in
  let wal = Wal.create dev ~header_block:1 in
  ignore (Wal.recover wal);
  let txn = Wal.begin_txn wal in
  Wal.txn_write txn 70 (Bytes.make Block_dev.block_size 'R');
  Wal.commit txn;
  check Alcotest.int "nothing to replay" 0 (Wal.recover wal);
  check Alcotest.int "still nothing" 0 (Wal.recover wal)

(* ------------------------------------------------------------------ *)
(* Fs units *)

let test_fs_mkfs_mount () =
  let dev = fresh_dev () in
  let fs = Fs.mkfs dev in
  (match write_file fs "/boot" "persisted" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %a" Fs.pp_error e);
  let fs2 = Fs.mount dev in
  check (Alcotest.option Alcotest.string) "survives remount" (Some "persisted")
    (read_file fs2 "/boot")

let test_fs_mount_bad_superblock () =
  let dev = fresh_dev () in
  match Fs.mount dev with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unformatted device must be rejected"

let test_fs_max_file_size () =
  let fs = fresh_fs () in
  (match Fs.create fs "/big" with Ok () -> () | Error _ -> Alcotest.fail "create");
  match Fs.resolve fs "/big" with
  | Error _ -> Alcotest.fail "resolve"
  | Ok ino -> (
      (match Fs.write_ino fs ~ino ~off:(Fs.max_file_size - 8) (Bytes.make 8 'e') with
      | Ok () -> ()
      | Error e -> Alcotest.failf "boundary write: %a" Fs.pp_error e);
      match Fs.write_ino fs ~ino ~off:(Fs.max_file_size - 4) (Bytes.make 8 'x') with
      | Error Fs.Too_large -> ()
      | Ok () | Error _ -> Alcotest.fail "past max must fail")

let test_fs_deep_paths () =
  let fs = fresh_fs () in
  let rec mk depth path =
    if depth = 0 then ()
    else begin
      let p = path ^ "/d" in
      (match Fs.mkdir fs p with Ok () -> () | Error e -> Alcotest.failf "mkdir %s: %a" p Fs.pp_error e);
      mk (depth - 1) p
    end
  in
  mk 6 "";
  (match Fs.create fs "/d/d/d/d/d/d/leaf" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "deep create: %a" Fs.pp_error e);
  match Fs.readdir fs "/d/d/d/d/d/d" with
  | Ok names -> check (Alcotest.list Alcotest.string) "leaf listed" [ "leaf" ] names
  | Error e -> Alcotest.failf "readdir: %a" Fs.pp_error e

let test_fs_many_files_in_dir () =
  let fs = fresh_fs () in
  let names = List.init 40 (fun i -> Printf.sprintf "f%02d" i) in
  List.iter
    (fun n ->
      match Fs.create fs ("/" ^ n) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "create %s: %a" n Fs.pp_error e)
    names;
  (match Fs.readdir fs "/" with
  | Ok listed -> check (Alcotest.list Alcotest.string) "all listed" names listed
  | Error _ -> Alcotest.fail "readdir");
  (* Remove some; slots must be reusable. *)
  List.iteri
    (fun i n -> if i mod 2 = 0 then ignore (Fs.unlink fs ("/" ^ n)))
    names;
  (match Fs.create fs "/reused" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reuse slot: %a" Fs.pp_error e);
  match Fs.readdir fs "/" with
  | Ok listed -> check Alcotest.int "count after churn" 21 (List.length listed)
  | Error _ -> Alcotest.fail "readdir 2"

let test_fs_inode_reuse_no_leak () =
  let fs = fresh_fs () in
  (* Create/destroy repeatedly; inode table must not run out. *)
  for i = 0 to 300 do
    let p = Printf.sprintf "/cycle%d" (i mod 3) in
    (match Fs.create fs p with
    | Ok () -> ()
    | Error e -> Alcotest.failf "create %d: %a" i Fs.pp_error e);
    match Fs.unlink fs p with
    | Ok () -> ()
    | Error e -> Alcotest.failf "unlink %d: %a" i Fs.pp_error e
  done

let test_fs_sparse_read_zeros () =
  let fs = fresh_fs () in
  (match write_file fs "/sparse" "" with Ok () -> () | Error _ -> ());
  match Fs.resolve fs "/sparse" with
  | Error _ -> Alcotest.fail "resolve"
  | Ok ino -> (
      (match Fs.write_ino fs ~ino ~off:5000 (Bytes.of_string "tail") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "sparse write: %a" Fs.pp_error e);
      match Fs.read_ino fs ~ino ~off:1000 ~len:8 with
      | Ok b ->
          check Alcotest.string "hole reads zeros" (String.make 8 '\000')
            (Bytes.to_string b)
      | Error e -> Alcotest.failf "hole read: %a" Fs.pp_error e)

(* ------------------------------------------------------------------ *)
(* Block_dev.crash_with edge cases: keep is clamped to [0, pending] *)

let test_crash_with_edge_cases () =
  let mk () =
    let dev = fresh_dev () in
    Block_dev.write dev 10 (Bytes.make Block_dev.block_size 'a');
    Block_dev.write dev 11 (Bytes.make Block_dev.block_size 'b');
    dev
  in
  let survivors keep =
    let crashed = Block_dev.crash_with (mk ()) ~keep_unflushed:keep in
    List.filter
      (fun s ->
        Bytes.get (Block_dev.read crashed s) 0 <> '\000')
      [ 10; 11 ]
  in
  check (Alcotest.list Alcotest.int) "keep=0 loses everything" [] (survivors 0);
  check (Alcotest.list Alcotest.int) "negative keep clamps to 0" []
    (survivors (-3));
  check (Alcotest.list Alcotest.int) "keep=1 keeps the oldest" [ 10 ]
    (survivors 1);
  check (Alcotest.list Alcotest.int) "keep=pending keeps all" [ 10; 11 ]
    (survivors 2);
  check (Alcotest.list Alcotest.int) "keep>pending clamps to all" [ 10; 11 ]
    (survivors 99)

(* ------------------------------------------------------------------ *)
(* WAL recovery idempotence: crash recovery at every one of its own
   write boundaries, re-run recovery, and demand a fixed point. *)

let test_wal_recovery_idempotent_every_boundary () =
  let targets = [ 40; 41 ] in
  let base () =
    let dev = fresh_dev () in
    List.iter
      (fun s -> Block_dev.write dev s (Bytes.make Block_dev.block_size 'o'))
      targets;
    ignore (Wal.recover (Wal.create dev ~header_block:0) : int);
    Block_dev.flush dev;
    dev
  in
  (* Journal the commit's write stream so it can be cut at each boundary. *)
  let dev0 = base () in
  let journal, commit_ops = Bi_fault.Crash_explore.record dev0 in
  let w = Wal.create journal ~header_block:0 in
  let txn = Wal.begin_txn w in
  Wal.txn_write txn 40 (Bytes.make Block_dev.block_size 'n');
  Wal.txn_write txn 41 (Bytes.make Block_dev.block_size 'n');
  Wal.commit txn;
  let ops = commit_ops () in
  let replay dev l =
    List.iter
      (function
        | Bi_fault.Crash_explore.W (s, b) -> Block_dev.write dev s b
        | Bi_fault.Crash_explore.F -> Block_dev.flush dev)
      l
  in
  let prefix l n = List.filteri (fun i _ -> i < n) l in
  let view dev =
    List.map (fun s -> Bytes.to_string (Block_dev.read dev s)) targets
  in
  let boundaries = ref 0 in
  for i = 0 to List.length ops do
    (* Crash the commit at boundary [i], then journal what recovery
       itself writes from that state. *)
    let crash_state () =
      let dev = base () in
      replay dev (prefix ops i);
      Block_dev.crash_with dev ~keep_unflushed:max_int
    in
    let rj, rec_ops = Bi_fault.Crash_explore.record (crash_state ()) in
    ignore (Wal.recover (Wal.create rj ~header_block:0) : int);
    let rops = rec_ops () in
    for j = 0 to List.length rops do
      incr boundaries;
      (* Crash recovery at boundary [j]; re-run recovery to completion. *)
      let dev = crash_state () in
      replay dev (prefix rops j);
      let dev = Block_dev.crash_with dev ~keep_unflushed:max_int in
      ignore (Wal.recover (Wal.create dev ~header_block:0) : int);
      let v1 = view dev in
      (* Fixed point: another recovery changes nothing. *)
      ignore (Wal.recover (Wal.create dev ~header_block:0) : int);
      let v2 = view dev in
      if v1 <> v2 then
        Alcotest.failf "recovery not idempotent at commit %d, recovery %d" i j
    done
  done;
  check Alcotest.bool "explored interrupted-recovery boundaries" true
    (!boundaries > List.length ops)

(* ------------------------------------------------------------------ *)
(* The store's write stream *)

(* The name cache and the in-place directory match may only remove block
   reads, so the write/flush stream of a scripted store workload — 20
   fresh puts, 20 overwrites, 20 gets through [Node_core.fs_store] — is
   pinned: counts and a digest of every block written.  The WAL protocol,
   the crash census and the fs crash VCs all describe this stream.  Gets
   write nothing. *)
let test_fs_store_write_stream () =
  let module Nc = Bi_app.Node_core in
  let dev = fresh_dev () in
  ignore (Fs.mkfs dev : Fs.t);
  let rdev, ops = Bi_fault.Crash_explore.record dev in
  let store = Nc.fs_store (Fs.mount rdev) in
  let key i = Printf.sprintf "k%02d" i in
  let value i gen =
    String.init (40 + (23 * i) + gen) (fun j -> Char.chr (97 + ((i + j + gen) mod 26)))
  in
  let put i gen =
    let value = value i gen in
    match store.save (key i) { Nc.value; crc = Bi_app.Protocol.crc32 value } with
    | Ok () -> ()
    | Error e -> Alcotest.failf "put %s: %a" (key i) Bi_app.Protocol.pp_err e
  in
  for i = 0 to 19 do put i 0 done;
  for i = 0 to 19 do put i 1 done;
  let before_gets = List.length (ops ()) in
  for i = 0 to 19 do
    match store.load (key i) with
    | Ok (Some { Nc.value = v; _ }) -> check Alcotest.string (key i) (value i 1) v
    | Ok None | Error _ -> Alcotest.failf "get %s" (key i)
  done;
  let stream = ops () in
  let writes, flushes =
    List.fold_left
      (fun (w, f) -> function
        | Bi_fault.Crash_explore.W _ -> (w + 1, f) | F -> (w, f + 1))
      (0, 0) stream
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat ""
            (List.map
               (function
                 | Bi_fault.Crash_explore.W (blk, b) ->
                     Printf.sprintf "w%d:%s" blk (Bytes.to_string b)
                 | F -> "f")
               stream)))
  in
  check Alcotest.int "gets add no device ops" before_gets (List.length stream);
  check Alcotest.int "writes" 1968 writes;
  check Alcotest.int "flushes" 804 flushes;
  check Alcotest.string "stream digest" "7f119f855ccc67d7fce1de1ec486c256" digest

(* The kernel path costs the device what the direct path costs: the
   puts and overwrites above, through [Storage_node.usys_store] in a
   kernel process and through [Node_core.fs_store] on a fresh [mkfs] of a
   disk of the same size, issue the same number of device I/Os and leave
   the two disks sector-for-sector identical.  With [fs_store]'s stream
   pinned above, this pins the syscall path's stream too. *)
let test_usys_store_matches_fs_store () =
  let module Nc = Bi_app.Node_core in
  let module Disk = Bi_hw.Device.Disk in
  let module K = Bi_kernel.Kernel in
  let key i = Printf.sprintf "k%02d" i in
  let value i gen =
    String.init (40 + (23 * i) + gen) (fun j -> Char.chr (97 + ((i + j + gen) mod 26)))
  in
  let puts (store : Nc.store) disk =
    let before = Disk.io_count disk in
    for gen = 0 to 1 do
      for i = 0 to 19 do
        let value = value i gen in
        match store.save (key i) { Nc.value; crc = Bi_app.Protocol.crc32 value } with
        | Ok () -> ()
        | Error e -> Alcotest.failf "put %s: %a" (key i) Bi_app.Protocol.pp_err e
      done
    done;
    Disk.io_count disk - before
  in
  let k = K.create () in
  let kdisk = (K.machine k).Bi_hw.Machine.disk in
  let kernel_ios = ref 0 and kernel_contents = ref [] in
  K.register_program k "store" (fun s _ ->
      ignore (Bi_kernel.Usys.mkdir s "/blocks");
      let store = Bi_app.Storage_node.usys_store s in
      kernel_ios := puts store kdisk;
      kernel_contents := Nc.mem_contents store);
  (match K.spawn k ~prog:"store" ~arg:"" with
  | Ok _ -> K.run k
  | Error _ -> Alcotest.fail "spawn");
  let disk = Disk.create ~sectors:(Disk.sectors kdisk) () in
  let store = Nc.fs_store (Fs.mkfs (Block_dev.of_disk disk)) in
  check Alcotest.int "device I/Os" (puts store disk) !kernel_ios;
  let differing =
    List.filter
      (fun i -> not (Bytes.equal (Disk.read_sector disk i) (Disk.read_sector kdisk i)))
      (List.init (Disk.sectors disk) Fun.id)
  in
  check Alcotest.(list int) "identical sectors" [] differing;
  check
    Alcotest.(list (pair string string))
    "mem_contents" (Nc.mem_contents store) !kernel_contents

(* ------------------------------------------------------------------ *)
(* Random crash-recovery property over multi-op histories *)

let prop_crash_recovery_consistent =
  qtest "crash during random history recovers to a consistent tree" 25
    QCheck2.Gen.(pair (int_range 0 6) (int_range 0 10))
    (fun (cut, nops) ->
      let disk = Disk.create ~sectors:2048 () in
      let dev = Block_dev.of_disk disk in
      let fs = Fs.mkfs dev in
      for i = 0 to nops do
        let p = Printf.sprintf "/f%d" (i mod 4) in
        match i mod 3 with
        | 0 -> ignore (Fs.create fs p)
        | 1 -> ignore (write_file fs p (String.make (100 * i) 'w'))
        | _ -> ignore (Fs.unlink fs p)
      done;
      let crashed = Block_dev.crash_with dev ~keep_unflushed:cut in
      let fs2 = Fs.mount crashed in
      (* Consistency: the tree walks without errors and every file's stat
         size equals its readable length. *)
      match Fs.readdir fs2 "/" with
      | Error _ -> false
      | Ok names ->
          List.for_all
            (fun n ->
              match Fs.stat fs2 ("/" ^ n) with
              | Error _ -> false
              | Ok { Fs.size; ino; _ } -> (
                  match Fs.read_ino fs2 ~ino ~off:0 ~len:size with
                  | Ok b -> Bytes.length b = size
                  | Error _ -> false))
            names)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bi_fs"
    [
      ("vc-suite", vc_cases ());
      ( "path",
        [
          Alcotest.test_case "split" `Quick test_path_split;
          Alcotest.test_case "dirname/basename" `Quick test_path_dirname_basename;
          prop_path_join_split;
        ] );
      ( "wal",
        [
          Alcotest.test_case "commit applies" `Quick test_wal_commit_applies;
          Alcotest.test_case "txn reads own writes" `Quick test_wal_txn_reads_own_writes;
          Alcotest.test_case "last write wins" `Quick test_wal_last_write_wins;
          Alcotest.test_case "size limit" `Quick test_wal_size_limit;
          Alcotest.test_case "all-or-nothing" `Quick test_wal_crash_before_commit_point;
          Alcotest.test_case "recover idempotent" `Quick test_wal_recover_idempotent;
          Alcotest.test_case "recovery idempotent at every boundary" `Quick
            test_wal_recovery_idempotent_every_boundary;
        ] );
      ( "fs",
        [
          Alcotest.test_case "mkfs/mount" `Quick test_fs_mkfs_mount;
          Alcotest.test_case "bad superblock" `Quick test_fs_mount_bad_superblock;
          Alcotest.test_case "max file size" `Quick test_fs_max_file_size;
          Alcotest.test_case "deep paths" `Quick test_fs_deep_paths;
          Alcotest.test_case "many files + slot reuse" `Quick test_fs_many_files_in_dir;
          Alcotest.test_case "inode reuse" `Quick test_fs_inode_reuse_no_leak;
          Alcotest.test_case "sparse zeros" `Quick test_fs_sparse_read_zeros;
          Alcotest.test_case "store write stream unchanged" `Quick
            test_fs_store_write_stream;
          Alcotest.test_case "usys_store matches fs_store on the device" `Quick
            test_usys_store_matches_fs_store;
        ] );
      ( "crash",
        [
          Alcotest.test_case "crash_with clamps keep" `Quick
            test_crash_with_edge_cases;
          prop_crash_recovery_consistent;
        ] );
    ]
