(* The paper's motivating application (Section 1): "the data-storage node
   in a distributed block store like GFS or S3", running end-to-end on the
   verified stack — two simulated machines, each booting the kernel; the
   node persists blocks through the filesystem's write-ahead log; the
   client talks TCP through the network stack; every interaction crosses
   the marshalled syscall ABI.  Serving is done by the netd daemon — an
   acceptor thread, a futex-backed request queue, and a pool of worker
   threads, all real kernel threads of one process.

   Run with:  dune exec examples/storage_node.exe *)

module K = Bi_kernel.Kernel
module U = Bi_kernel.Usys
module Client = Bi_app.Client

let server_ip = Bi_net.Ip.addr_of_string "10.0.0.1"
let client_ip = Bi_net.Ip.addr_of_string "10.0.0.2"

let client_program s _arg =
  match Client.connect s ~ip:server_ip with
  | Error e -> U.log s (Format.asprintf "connect failed: %a" Client.pp_error e)
  | Ok c ->
      U.log s "connected to storage node";
      (* Store a few objects, one of them sizeable. *)
      let objects =
        [
          ("motd", "hello from the verified stack");
          ("config", "replicas=3\nchecksums=crc32\n");
          ("blob-1", String.init 20_000 (fun i -> Char.chr (33 + (i mod 94))));
        ]
      in
      List.iter
        (fun (key, value) ->
          match Client.put c ~key ~value with
          | Ok () ->
              U.log s (Printf.sprintf "PUT %-8s (%d bytes)" key (String.length value))
          | Error e ->
              U.log s (Format.asprintf "PUT %s failed: %a" key Client.pp_error e))
        objects;
      (* List and read back with client-side checksum verification. *)
      (match Client.list c with
      | Ok keys -> U.log s ("LIST -> " ^ String.concat ", " keys)
      | Error e -> U.log s (Format.asprintf "LIST failed: %a" Client.pp_error e));
      List.iter
        (fun (key, original) ->
          match Client.get c ~key with
          | Ok (Some v) when v = original ->
              U.log s (Printf.sprintf "GET %-8s ok (%d bytes, crc verified)" key (String.length v))
          | Ok (Some _) -> U.log s (Printf.sprintf "GET %s MISMATCH" key)
          | Ok None -> U.log s (Printf.sprintf "GET %s missing" key)
          | Error e -> U.log s (Format.asprintf "GET %s: %a" key Client.pp_error e))
        objects;
      (* Delete one and confirm. *)
      (match Client.delete c ~key:"motd" with
      | Ok true -> U.log s "DELETE motd ok"
      | _ -> U.log s "DELETE motd failed");
      (match Client.get c ~key:"motd" with
      | Ok None -> U.log s "GET motd -> gone"
      | _ -> U.log s "motd still present?!");
      ignore (Client.shutdown c);
      Client.close c;
      U.log s "client done"

let () =
  let server = K.create ~ip:server_ip () in
  let client = K.create ~ip:client_ip () in
  K.connect server client;
  ignore (Bi_netd.Netd.install server);
  K.register_program client "client" client_program;
  (match K.spawn server ~prog:"netd" ~arg:"" with
  | Ok pid -> Format.printf "server: booted storage node as pid %d@." pid
  | Error _ -> failwith "server spawn failed");
  (match K.spawn client ~prog:"client" ~arg:"" with
  | Ok pid -> Format.printf "client: booted as pid %d@." pid
  | Error _ -> failwith "client spawn failed");
  K.run_pair server client;
  Format.printf "@.--- server console ---@.%s" (K.serial_output server);
  Format.printf "@.--- client console ---@.%s" (K.serial_output client);
  (* The blocks are durable: remount the server's disk and inspect. *)
  let disk = (K.machine server).Bi_hw.Machine.disk in
  let fs = Bi_fs.Fs.mount (Bi_fs.Block_dev.of_disk disk) in
  match (Bi_app.Node_core.fs_store fs).keys () with
  | Ok keys ->
      Format.printf "@.after remount, the store holds: %s@."
        (String.concat ", " keys)
  | Error e -> Format.printf "remount listing failed: %a@." Bi_app.Protocol.pp_err e
