(* The node's durable layout (see the .mli), written once over file
   primitives with an [Fs] and a [Usys] backend.

   A checkpoint replaces the journal crash-atomically through a dance
   whose every step is a filesystem transaction:

     1. write + sync /journal.new     (journal = /journal)
     2. unlink /journal               (journal = /journal.new, complete)
     3. rename it to /journal, sync   (journal = /journal)

   [settle] finishes an interrupted dance: beside /journal, a
   /journal.new is garbage from before step 2 and is removed; alone, it
   passed the point of no return and the rename is completed. *)

module P = Protocol
module Fs = Bi_fs.Fs
module U = Bi_kernel.Usys

type stored = { value : string; crc : int32 }

type store = {
  load : string -> (stored option, P.err) result;
  save : string -> stored -> (unit, P.err) result;
  remove : string -> (bool, P.err) result;
  keys : unit -> (string list, P.err) result;
}

type sink = {
  sink_read : unit -> (bytes, P.err) result;
  sink_append : bytes -> (unit, P.err) result;
  sink_replace : bytes -> (unit, P.err) result;
}

type files = {
  read : string -> (string option, P.err) result;
  write : sync:bool -> string -> string -> (unit, P.err) result;
  append : string -> string -> (unit, P.err) result;
  unlink : string -> (bool, P.err) result;
  rename : src:string -> dst:string -> (unit, P.err) result;
  readdir : string -> (string list, P.err) result;
  exists : string -> bool;
  mkdir : string -> unit;
}

let ( let* ) = Result.bind

(* Both backends read whole files in the same chunks, so the same blocks;
   a read is short only at end of file. *)
let chunk = 8192

let of_fs fs =
  let io r = Result.map_error (fun e -> P.Io (Format.asprintf "%a" Fs.pp_error e)) r in
  let ensure path =
    match Fs.resolve fs path with
    | Error Fs.Not_found -> Result.bind (Fs.create fs path) (fun () -> Fs.resolve fs path)
    | r -> r
  in
  (* The append target (path, inode, end offset): this backend's
     counterpart of an open append fd. *)
  let tail = ref None in
  let touch path =
    match !tail with Some (p, _, _) when p = path -> tail := None | _ -> ()
  in
  let read path =
    match Fs.resolve fs path with
    | Error Fs.Not_found -> Ok None
    | Error e -> Error e
    | Ok ino ->
        let rec drain off acc =
          let* b = Fs.read_ino fs ~ino ~off ~len:chunk in
          if Bytes.length b = chunk then drain (off + chunk) (b :: acc)
          else
            let whole = Bytes.concat Bytes.empty (List.rev (b :: acc)) in
            Ok (Some (Bytes.unsafe_to_string whole))
        in
        drain 0 []
  in
  let write ~sync path data =
    touch path;
    let* ino = ensure path in
    let* () = Fs.truncate_ino fs ~ino 0 in
    let* () = Fs.write_ino fs ~ino ~off:0 (Bytes.unsafe_of_string data) in
    if sync then Fs.fsync fs;
    Ok ()
  in
  let append path data =
    let target = !tail in
    tail := None;
    let* ino, off =
      match target with
      | Some (p, ino, off) when p = path -> Ok (ino, off)
      | _ ->
          let* ino = ensure path in
          let* { Fs.size; _ } = Fs.stat_ino fs ino in
          Ok (ino, size)
    in
    let* () =
      if data = "" then Ok () else Fs.write_ino fs ~ino ~off (Bytes.unsafe_of_string data)
    in
    Fs.fsync fs;
    tail := Some (path, ino, off + String.length data);
    Ok ()
  in
  {
    read = (fun path -> io (read path));
    write = (fun ~sync path data -> io (write ~sync path data));
    append = (fun path data -> io (append path data));
    unlink =
      (fun path ->
        touch path;
        match Fs.unlink fs path with
        | Error Fs.Not_found -> Ok false
        | r -> io (Result.map (fun () -> true) r));
    rename =
      (fun ~src ~dst ->
        touch src;
        touch dst;
        io (Fs.rename fs ~src ~dst));
    readdir = (fun path -> io (Fs.readdir fs path));
    exists = (fun path -> Result.is_ok (Fs.resolve fs path));
    mkdir = (fun path -> ignore (Fs.mkdir fs path));
  }

let of_usys s =
  let io r =
    Result.map_error (fun e -> P.Io (Format.asprintf "%a" Bi_kernel.Sysabi.pp_err e)) r
  in
  (* The open append fd (path, fd), kept across appends. *)
  let tail = ref None in
  let drop () =
    Option.iter (fun (_, fd) -> ignore (U.close s fd)) !tail;
    tail := None
  in
  let touch path = match !tail with Some (p, _) when p = path -> drop () | _ -> () in
  let with_fd opened f =
    let* fd = opened in
    let r = f fd in
    ignore (U.close s fd);
    r
  in
  let read path =
    match U.openf s path with
    | Error Bi_kernel.Sysabi.E_noent -> Ok None
    | opened ->
        with_fd opened (fun fd ->
            let rec drain acc =
              let* data = U.read s ~fd ~len:chunk in
              if String.length data = chunk then drain (data :: acc)
              else Ok (Some (String.concat "" (List.rev (data :: acc))))
            in
            drain [])
  in
  (* The truncating open keeps the file's inode and directory entry, so
     the namespace — and the fs name cache — is left alone. *)
  let write ~sync path data =
    touch path;
    with_fd (U.openf s ~create:true ~trunc:true path) (fun fd ->
        let* _ = U.write s ~fd data in
        if sync then U.fsync s ~fd else Ok ())
  in
  let append path data =
    let r =
      let* fd =
        match !tail with
        | Some (p, fd) when p = path -> Ok fd
        | _ ->
            drop ();
            let* fd = U.openf s ~create:true path in
            tail := Some (path, fd);
            let* _, size = U.fstat s ~fd in
            Result.map (fun _ -> fd) (U.seek s ~fd ~off:size)
      in
      let* _ = if data = "" then Ok 0 else U.write s ~fd data in
      U.fsync s ~fd
    in
    if Result.is_error r then drop ();
    r
  in
  {
    read = (fun path -> io (read path));
    write = (fun ~sync path data -> io (write ~sync path data));
    append = (fun path data -> io (append path data));
    unlink =
      (fun path ->
        touch path;
        match U.unlink s path with
        | Error Bi_kernel.Sysabi.E_noent -> Ok false
        | r -> io (Result.map (fun () -> true) r));
    rename =
      (fun ~src ~dst ->
        touch src;
        touch dst;
        io (U.rename s ~src ~dst));
    readdir = (fun path -> io (U.readdir s path));
    exists = (fun path -> Result.is_ok (with_fd (U.openf s path) (fun _ -> Ok ())));
    mkdir = (fun path -> ignore (U.mkdir s path));
  }

let blocks = "/blocks"
let key_path key = blocks ^ "/" ^ key
let crc_path key = key_path key ^ ".crc"

let store f =
  f.mkdir blocks;
  {
    load =
      (fun key ->
        let* value = f.read (key_path key) in
        match value with
        | None -> Ok None
        | Some value -> (
            let* text = f.read (crc_path key) in
            let parse t = Int32.of_string_opt ("0x" ^ String.trim t) in
            match Option.bind text parse with
            | None -> Error P.No_crc
            | Some crc -> Ok (Some { value; crc })));
    save =
      (fun key { value; crc } ->
        let* () = f.write ~sync:false (key_path key) value in
        f.write ~sync:false (crc_path key) (Printf.sprintf "%08lx" crc));
    remove =
      (fun key ->
        let* removed = f.unlink (key_path key) in
        if removed then ignore (f.unlink (crc_path key));
        Ok removed);
    keys =
      (fun () ->
        let* names = f.readdir blocks in
        let sidecar n = String.length n > 4 && Filename.check_suffix n ".crc" in
        Ok (List.filter (fun n -> not (sidecar n)) names));
  }

let journal = "/journal"
let journal_new = "/journal.new"

(* Settling costs directory scans, so it runs only where a dance can be
   unfinished: on the first operation and every read (a previous life may
   have crashed mid-replace), and after a replace of this sink failed. *)
let sink f =
  let unsettled = ref true in
  let settle () =
    let r =
      if not (f.exists journal_new) then Ok ()
      else if f.exists journal then Result.map ignore (f.unlink journal_new)
      else f.rename ~src:journal_new ~dst:journal
    in
    unsettled := Result.is_error r
  in
  let tagged r =
    Result.map_error (function P.Io m -> P.Io ("journal: " ^ m) | e -> e) r
  in
  {
    sink_read =
      (fun () ->
        settle ();
        let bytes = Option.fold ~none:Bytes.empty ~some:Bytes.of_string in
        tagged (Result.map bytes (f.read journal)));
    sink_append =
      (fun b ->
        if !unsettled then settle ();
        tagged (f.append journal (Bytes.to_string b)));
    sink_replace =
      (fun b ->
        if !unsettled then settle ();
        let r =
          let* () = f.write ~sync:true journal_new (Bytes.to_string b) in
          ignore (f.unlink journal);
          let* () = f.rename ~src:journal_new ~dst:journal in
          (* An empty append is the sync that ends the dance. *)
          f.append journal ""
        in
        unsettled := Result.is_error r;
        tagged r);
  }
