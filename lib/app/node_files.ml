(* The node's durable layout (see the .mli): one segmented log of journal
   records that is both the journal and the store, over file primitives
   with an [Fs] and a [Usys] backend.

   A put's value lives only in its [Mut] record.  An in-memory index maps
   each live key to that record's location; it is rebuilt on load from the
   latest checkpoint — [Index] records at the head of its segment — plus
   every record after it.  A checkpoint:

     1. seals every segment on disk;
     2. writes the index and the caller's snapshot at the head of a fresh
        segment c;
     3. renames the marker /log/ck<old> to /log/ck<c> (commit point; the
        first checkpoint creates the empty file);
     4. unlinks the sealed segments nothing points into, and picks those
        whose garbage exceeds their live bytes for compaction.

   Each step is one or more filesystem transactions.  A crash before 3
   leaves the previous checkpoint in force, and replay from it also reads
   the unmarked snapshot (the state at that point): harmless.  Compaction
   then rides on commits: each carries up to two live records of a
   picked segment, rewritten with no txn (so replay adds no dup entries),
   in its own write, and a picked segment goes once nothing points into
   it — every move out of it is durable, and it is older than the
   checkpoint in force, so no replay reads it.  A segment that no marked
   checkpoint lists is garbage to the next one. *)

module P = Protocol
module J = Journal
module Fs = Bi_fs.Fs
module U = Bi_kernel.Usys

type stored = { value : string; crc : int32 }

type store = {
  load : string -> (stored option, P.err) result;
  save : string -> stored -> (unit, P.err) result;
  remove : string -> (bool, P.err) result;
  keys : unit -> (string list, P.err) result;
}

type files = {
  read : string -> (string option, P.err) result;
  read_at : string -> off:int -> len:int -> (string, P.err) result;
  append : string -> string -> (unit, P.err) result;
  unlink : string -> (bool, P.err) result;
  rename : src:string -> dst:string -> (unit, P.err) result;
  readdir : string -> (string list, P.err) result;
  mkdir : string -> unit;
}

let ( let* ) = Result.bind

(* Both backends read whole files in the same chunks, so the same blocks;
   a read is short only at end of file.  Three blocks: a chunk and its
   copies through the syscall ABI stay in the minor heap. *)
let chunk = 1536

let of_fs fs =
  let io r = Result.map_error (fun e -> P.Io (Format.asprintf "%a" Fs.pp_error e)) r in
  let ensure path =
    match Fs.resolve fs path with
    | Error Fs.Not_found -> Result.bind (Fs.create fs path) (fun () -> Fs.resolve fs path)
    | r -> r
  in
  (* The append target (path, end offset): this backend's counterpart of
     an open append fd, which names a path and is resolved per write. *)
  let tail = ref None in
  let touch path =
    match !tail with Some (p, _) when p = path -> tail := None | _ -> ()
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
  let read_at path ~off ~len =
    let* ino = Fs.resolve fs path in
    Result.map Bytes.unsafe_to_string (Fs.read_ino fs ~ino ~off ~len)
  in
  let append path data =
    let target = !tail in
    tail := None;
    let* ino, off =
      match target with
      | Some (p, off) when p = path -> Result.map (fun ino -> (ino, off)) (Fs.resolve fs path)
      | _ ->
          let* ino = ensure path in
          let* { Fs.size; _ } = Fs.stat_ino fs ino in
          Ok (ino, size)
    in
    let* () =
      if data = "" then Ok () else Fs.write_ino fs ~ino ~off (Bytes.unsafe_of_string data)
    in
    Fs.fsync fs;
    tail := Some (path, off + String.length data);
    Ok ()
  in
  {
    read = (fun path -> io (read path));
    read_at = (fun path ~off ~len -> io (read_at path ~off ~len));
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
    mkdir = (fun path -> ignore (Fs.mkdir fs path));
  }

let of_usys s =
  let io r =
    Result.map_error (fun e -> P.Io (Format.asprintf "%a" Bi_kernel.Sysabi.pp_err e)) r
  in
  (* The open append fd (path, fd), kept across appends, and one read fd
     per path, kept across reads. *)
  let tail = ref None in
  let readers = Hashtbl.create 8 in
  let drop () =
    Option.iter (fun (_, fd) -> ignore (U.close s fd)) !tail;
    tail := None
  in
  let touch path =
    (match !tail with Some (p, _) when p = path -> drop () | _ -> ());
    Option.iter
      (fun fd ->
        ignore (U.close s fd);
        Hashtbl.remove readers path)
      (Hashtbl.find_opt readers path)
  in
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
  let read_at path ~off ~len =
    let r =
      let* fd =
        match Hashtbl.find_opt readers path with
        | Some fd -> Ok fd
        | None ->
            let* fd = U.openf s path in
            Hashtbl.replace readers path fd;
            Ok fd
      in
      let* _ = U.seek s ~fd ~off in
      U.read s ~fd ~len
    in
    if Result.is_error r then touch path;
    r
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
    read_at = (fun path ~off ~len -> io (read_at path ~off ~len));
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
    mkdir = (fun path -> ignore (U.mkdir s path));
  }

(* ------------------------------------------------------------------ *)
(* The log                                                             *)

let dir = "/log"
let seg_path n = dir ^ "/" ^ string_of_int n
let mark_path n = dir ^ "/ck" ^ string_of_int n

type log = {
  f : files;
  seg_limit : int;
  mutant_unlink_early : bool;
  index : (string, J.loc) Hashtbl.t;
  sizes : (int, int) Hashtbl.t;  (** segment -> bytes, every segment on disk *)
  live : (int, int) Hashtbl.t;  (** segment -> bytes the index points at *)
  mutable marks : int list;  (** checkpoint markers on disk *)
  mutable active : int;  (** the segment appends go to *)
  mutable loaded : bool;
  mutable undo : (string * J.loc option) option;
      (** The last [Mut]'s key and the location it replaced, for a
          [Cancel]. *)
  mutable fresh : (string * (string * int32) option) option;
      (** The last [Mut] appended through the sink, until the store's
          apply of the same write claims it. *)
  mutable moving : (string * J.loc) list;
      (** Live records of the segments the last checkpoint chose to
          compact, still to be moved. *)
  mutable victims : int list;  (** Those segments, until they empty. *)
  mutable damaged : (int * int) option;
      (** Where loading met the first corrupt frame — one that fits its
          segment, unlike a torn tail.  The log then takes no writes, and
          only values written after that point are trusted. *)
  mutable journaled : bool;  (** A sink is built over the log. *)
  mutable since_ck : int;  (** Bytes appended since the last checkpoint. *)
  mutable ck_bytes : int;  (** Bytes the last checkpoint wrote. *)
}

let log ?(segment_bytes = Fs.max_file_size) ?(mutant_unlink_early = false) f =
  {
    f;
    seg_limit = segment_bytes;
    mutant_unlink_early;
    index = Hashtbl.create 64;
    sizes = Hashtbl.create 8;
    live = Hashtbl.create 8;
    marks = [];
    active = 0;
    loaded = false;
    undo = None;
    fresh = None;
    moving = [];
    victims = [];
    damaged = None;
    journaled = false;
    since_ck = 0;
    ck_bytes = 0;
  }

let size l n = Option.value ~default:0 (Hashtbl.find_opt l.sizes n)
let live_in l n = Option.value ~default:0 (Hashtbl.find_opt l.live n)
let roll l = if size l l.active > 0 then l.active <- l.active + 1

let drop l segs =
  List.iter
    (fun s ->
      ignore (l.f.unlink (seg_path s));
      Hashtbl.remove l.sizes s)
    segs

(* Every index change goes through these two, which keep [live]. *)
let unset l key =
  match Hashtbl.find_opt l.index key with
  | None -> ()
  | Some (old : J.loc) ->
      Hashtbl.replace l.live old.seg (live_in l old.seg - old.len);
      Hashtbl.remove l.index key

let set l key (loc : J.loc) =
  unset l key;
  Hashtbl.replace l.index key loc;
  Hashtbl.replace l.live loc.seg (live_in l loc.seg + loc.len)

let apply l (loc : J.loc) = function
  | J.Mut { key; put; done_; _ } -> (
      l.undo <- Some (key, Hashtbl.find_opt l.index key);
      match put with
      | Some (_, crc) -> set l key { loc with crc }
      | None -> if done_ then unset l key)
  | J.Cancel _ ->
      Option.iter
        (fun (key, prev) ->
          match prev with
          | Some p -> set l key p
          | None -> unset l key)
        l.undo;
      l.undo <- None
  | _ -> l.undo <- None

(* Write whole frames at the end of the active segment, rolling first if
   they would pass the segment limit: their segment and offset.  A failed
   write leaves the in-memory view unknown, so the next operation
   rebuilds it from disk.  A damaged log takes no writes: a checkpoint
   would forget the damage, and any write could overwrite what the
   damaged record held. *)
let write_out l data =
  l.fresh <- None;
  if l.damaged <> None then Error P.Integrity
  else
    let n = String.length data in
    if size l l.active + n > l.seg_limit then roll l;
    let seg = l.active in
    let off = size l seg in
    match l.f.append (seg_path seg) data with
    | Error _ as e ->
        l.loaded <- false;
        e
    | Ok () ->
        Hashtbl.replace l.sizes seg (off + n);
        l.since_ck <- l.since_ck + n;
        Ok (seg, off)

(* Write frames that change no index entry in as few appends as the
   segment limit allows. *)
let append_all l frames =
  l.undo <- None;
  let flush batch =
    if batch = [] then Ok ()
    else Result.map ignore (write_out l (String.concat "" (List.rev batch)))
  in
  let rec go batch pending = function
    | [] -> flush batch
    | fr :: rest ->
        let n = String.length fr in
        if batch = [] || size l l.active + pending + n <= l.seg_limit then
          go (fr :: batch) (pending + n) rest
        else
          let* () = flush batch in
          go [ fr ] n rest
  in
  go [] 0 frames

(* [prefix] then decimal digits: a segment ([""]) or a marker (["ck"]). *)
let number ~prefix name =
  if not (String.starts_with ~prefix name) then None
  else
    let p = String.length prefix in
    let digits = String.sub name p (String.length name - p) in
    if digits <> "" && String.for_all (fun c -> c >= '0' && c <= '9') digits then
      int_of_string_opt digits
    else None

(* Rebuild the in-memory view from disk, returning the journal as the
   node replays it: the checkpoint's snapshot and every record after it,
   without the index.  A torn tail — a frame that runs past the end of
   its segment — ends the segment; appends then go to a fresh one, and
   only the last segment's tail is returned (so replay reports it).  Any
   other damage ends its segment too, and marks the log [damaged]: the
   lost records may have been acknowledged. *)
let load l =
  l.loaded <- false;
  Hashtbl.reset l.index;
  Hashtbl.reset l.sizes;
  Hashtbl.reset l.live;
  l.undo <- None;
  l.fresh <- None;
  l.moving <- [];
  l.victims <- [];
  l.damaged <- None;
  l.f.mkdir dir;
  let* names = l.f.readdir dir in
  let segs = List.sort compare (List.filter_map (number ~prefix:"") names) in
  l.marks <- List.filter_map (number ~prefix:"ck") names;
  let base =
    match (l.marks, segs) with
    | [], [] -> 0
    | [], s :: _ -> s
    | m :: ms, _ -> List.fold_left max m ms
  in
  (* Sealed segments are sized by the checkpoint that lists them; any it
     does not list stay at 0 bytes live and go at the next checkpoint. *)
  List.iter (fun s -> if s < base then Hashtbl.replace l.sizes s 0) segs;
  l.active <- base;
  let rec replay installing parts = function
    | [] -> Ok (List.rev parts)
    | seg :: rest ->
        let* data = l.f.read (seg_path seg) in
        let data = Option.value ~default:"" data in
        let frames, good = J.decode_frames (Bytes.unsafe_of_string data) in
        if good < String.length data && l.damaged = None
           && not (J.torn_at (Bytes.unsafe_of_string data) good)
        then l.damaged <- Some (seg, good);
        let installing = ref installing and from = ref 0 in
        List.iter
          (fun (off, len, r) ->
            match r with
            | J.Index { segs; entries } when !installing ->
                List.iter (fun (s, n) -> Hashtbl.replace l.sizes s n) segs;
                List.iter (fun (k, loc) -> set l k loc) entries;
                from := off + len
            | r ->
                installing := false;
                apply l { J.seg; off; len; crc = 0l } r)
          frames;
        Hashtbl.replace l.sizes seg good;
        let upto = if rest = [] then String.length data else good in
        l.active <- (if good < String.length data then seg + 1 else seg);
        let part = if !from = 0 && upto = String.length data then data else String.sub data !from (upto - !from) in
        replay !installing (part :: parts) rest
  in
  let* parts = replay true [] (List.filter (fun s -> s >= base) segs) in
  l.loaded <- true;
  let journal = match parts with [ part ] -> part | parts -> String.concat "" parts in
  l.since_ck <- String.length journal;
  Ok journal

let ensure l = if l.loaded then Ok () else Result.map ignore (load l)

(* A damaged record may have been any key's latest write, so once the
   log is damaged only a value written after the damage is known to be
   current, and no key is known to be absent. *)
let read_value l key =
  match (Hashtbl.find_opt l.index key, l.damaged) with
  | None, None -> Ok None
  | None, Some _ -> Error P.Integrity
  | Some { J.seg; off; _ }, Some d when (seg, off) < d -> Error P.Integrity
  | Some { J.seg; off; len; crc }, _ -> (
      let* data = l.f.read_at (seg_path seg) ~off ~len in
      match J.decode_frame (Bytes.unsafe_of_string data) with
      | Some (J.Mut { key = k; put = Some (value, c); _ }) when k = key && c = crc ->
          Ok (Some { value; crc })
      | _ -> Error P.Integrity)

let index_chunk = 128

(* Up to [moves_per_append] records still live where the queue found
   them, none for [busy] (the key being written, whose record they would
   only precede): each read back and framed as a store write with no txn,
   with its old location.  A damaged one stays where it is. *)
let moves_per_append = 2

let take_moves l ~busy =
  let rec go n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | (key, (loc : J.loc)) :: rest -> (
        if key = busy || Hashtbl.find_opt l.index key <> Some loc then go n acc rest
        else
          match l.f.read_at (seg_path loc.seg) ~off:loc.off ~len:loc.len with
          | Error _ -> go n acc rest
          | Ok data -> (
              match J.decode_frame (Bytes.unsafe_of_string data) with
              | Some (J.Mut { key = k; shard; put = Some _ as put; _ }) when k = key ->
                  let copy = J.Mut { txn = None; shard; key; put; done_ = true } in
                  go (n - 1) ((key, loc, Bytes.unsafe_to_string (J.frame_record copy)) :: acc) rest
              | _ -> go n acc rest))
  in
  let moves, rest = go moves_per_append [] l.moving in
  l.moving <- rest;
  moves

let checkpoint l snapshot =
  let segs = List.sort compare (Hashtbl.fold (fun s n acc -> (s, n) :: acc) l.sizes []) in
  let dead = List.filter_map (fun (s, _) -> if live_in l s = 0 then Some s else None) segs in
  let victims =
    List.filter_map
      (fun (s, n) ->
        let lv = live_in l s in
        if lv > 0 && n - lv > lv then Some s else None)
      segs
  in
  (* Seeded bug for the cr mutation self-check: the segments to compact
     go before their live records are moved and durable elsewhere. *)
  if l.mutant_unlink_early then drop l victims;
  (* The checkpoint starts a segment numbered past every one on disk. *)
  l.active <- 1 + List.fold_left (fun m (s, _) -> max s m) l.active segs;
  let c = l.active in
  let sealed = List.filter (fun (s, _) -> Hashtbl.mem l.sizes s && not (List.mem s dead)) segs in
  let entries =
    Hashtbl.fold (fun k loc acc -> (k, loc) :: acc) l.index []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let rec chunks segs acc = function
    | [] -> List.rev acc
    | es ->
        let part = List.filteri (fun i _ -> i < index_chunk) es in
        let rest = List.filteri (fun i _ -> i >= index_chunk) es in
        let r = J.Index { segs; entries = part } in
        chunks [] (Bytes.unsafe_to_string (J.frame_record r) :: acc) rest
  in
  let index =
    match chunks sealed [] entries with
    | [] -> [ Bytes.unsafe_to_string (J.frame_record (J.Index { segs = sealed; entries = [] })) ]
    | frames -> frames
  in
  let* () = append_all l (index @ [ snapshot ]) in
  let written = List.fold_left (fun n fr -> n + String.length fr) 0 (snapshot :: index) in
  (* The commit point: one transaction moves the newest marker to [c]. *)
  let* older =
    match List.sort (fun a b -> compare b a) l.marks with
    | newest :: older ->
        Result.map (fun () -> older) (l.f.rename ~src:(mark_path newest) ~dst:(mark_path c))
    | [] -> Result.map (fun () -> []) (l.f.append (mark_path c) "")
  in
  l.marks <- [ c ];
  l.since_ck <- 0;
  l.ck_bytes <- written;
  drop l dead;
  List.iter (fun m -> ignore (l.f.unlink (mark_path m))) older;
  (* Only now are the victims out of every replay, so their records may
     start moving and they may go once empty. *)
  l.victims <- victims;
  l.moving <-
    Hashtbl.fold
      (fun key (loc : J.loc) acc -> if List.mem loc.seg victims then (key, loc) :: acc else acc)
      l.index []
    |> List.sort (fun (_, (a : J.loc)) (_, (b : J.loc)) -> compare (a.seg, a.off) (b.seg, b.off));
  Ok ()

(* Append [b], whose decoded [frames] are given, as one write.
   Compaction rides on it: moved records lead a lone [Mut] in the same
   write (so a [Cancel] still follows the [Mut] it voids). *)
let commit l b frames =
  let moves =
    match frames with
    | [ (_, _, J.Mut { key; _ }) ] when l.moving <> [] -> take_moves l ~busy:key
    | _ -> []
  in
  let lead = String.concat "" (List.map (fun (_, _, fr) -> fr) moves) in
  let* seg, off = write_out l (lead ^ b) in
  let start =
    List.fold_left
      (fun o (key, (old : J.loc), fr) ->
        let len = String.length fr in
        set l key { old with seg; off = o; len };
        o + len)
      off moves
  in
  List.iter (fun (o, len, r) -> apply l { J.seg; off = start + o; len; crc = 0l } r) frames;
  (* A segment being compacted goes as soon as nothing in the index
     points into it: every move out of it is durable, so a replay from
     the checkpoint re-points all its entries. *)
  if moves <> [] then begin
    let empty, full = List.partition (fun s -> live_in l s = 0) l.victims in
    drop l empty;
    l.victims <- full
  end;
  Ok ()

(* A store write of its own: a [Mut] with no txn, which replay leaves out
   of the duplicate table.  With no sink to checkpoint the log, the store
   checkpoints it itself (with no snapshot) once it has appended as much
   as a segment or the last checkpoint, whichever is more, so
   overwrites are reclaimed and the index is rewritten at most once per
   as many bytes of values. *)
let write_frame l key put =
  let* () =
    if l.journaled || l.since_ck < max l.seg_limit l.ck_bytes then Ok () else checkpoint l ""
  in
  let r = J.Mut { txn = None; shard = 0; key; put; done_ = true } in
  let data = Bytes.unsafe_to_string (J.frame_record r) in
  commit l data [ (0, String.length data, r) ]

let store l =
  {
    load =
      (fun key ->
        let* () = ensure l in
        read_value l key);
    save =
      (fun key { value; crc } ->
        let* () = ensure l in
        if l.fresh = Some (key, Some (value, crc)) then begin
          l.fresh <- None;
          Ok ()
        end
        else write_frame l key (Some (value, crc)));
    remove =
      (fun key ->
        let* () = ensure l in
        if l.fresh = Some (key, None) then begin
          l.fresh <- None;
          Ok true
        end
        else if l.damaged <> None then Error P.Integrity
        else if not (Hashtbl.mem l.index key) then Ok false
        else Result.map (fun () -> true) (write_frame l key None));
    keys =
      (fun () ->
        let* () = ensure l in
        if l.damaged <> None then Error P.Integrity
        else Ok (Hashtbl.fold (fun k _ acc -> k :: acc) l.index []));
  }

let sink l =
  l.journaled <- true;
  let tagged r =
    Result.map_error (function P.Io m -> P.Io ("journal: " ^ m) | e -> e) r
  in
  {
    J.sink_read =
      (fun () ->
        tagged
          (let* journal = load l in
           if l.damaged <> None then Error P.Integrity else Ok (Bytes.unsafe_of_string journal)));
    sink_append =
      (fun b ->
        tagged
          (let* () = ensure l in
           let frames, _ = J.decode_frames b in
           let* () = commit l (Bytes.to_string b) frames in
           (match List.rev frames with
           | (_, _, J.Mut { key; put; done_ = true; _ }) :: _ -> l.fresh <- Some (key, put)
           | _ -> ());
           Ok ()));
    sink_replace =
      (fun b ->
        tagged
          (let* () = ensure l in
           checkpoint l (Bytes.to_string b)));
  }
