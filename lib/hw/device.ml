module Intr = struct
  type t = { pending : bool array; masked : bool array }

  let create ~vectors =
    if vectors <= 0 then invalid_arg "Intr.create: vectors <= 0";
    { pending = Array.make vectors false; masked = Array.make vectors false }

  let check t v =
    if v < 0 || v >= Array.length t.pending then
      invalid_arg "Intr: vector out of range"

  let raise_irq t v =
    check t v;
    t.pending.(v) <- true

  let pending t =
    let n = Array.length t.pending in
    let rec scan v =
      if v >= n then None
      else if t.pending.(v) && not t.masked.(v) then Some v
      else scan (v + 1)
    in
    scan 0

  let ack t v =
    check t v;
    t.pending.(v) <- false

  let mask t v =
    check t v;
    t.masked.(v) <- true

  let unmask t v =
    check t v;
    t.masked.(v) <- false

  let is_pending t v =
    check t v;
    t.pending.(v)
end

module Timer = struct
  type t = {
    intr : Intr.t;
    vector : int;
    mutable ticks : int64;
    mutable deadline : int64 option;
    mutable interval : int64 option;
  }

  let create ~intr ~vector =
    { intr; vector; ticks = 0L; deadline = None; interval = None }

  let arm t ~deadline = t.deadline <- Some deadline

  let arm_periodic t ~interval =
    if interval <= 0L then invalid_arg "Timer.arm_periodic: interval <= 0";
    t.interval <- Some interval;
    t.deadline <- Some (Int64.add t.ticks interval)

  let tick t =
    t.ticks <- Int64.add t.ticks 1L;
    match t.deadline with
    | Some d when t.ticks >= d ->
        Intr.raise_irq t.intr t.vector;
        t.deadline <-
          (match t.interval with
          | Some i -> Some (Int64.add t.ticks i)
          | None -> None)
    | Some _ | None -> ()

  let now t = t.ticks
end

module Serial = struct
  type t = { buf : Buffer.t }

  let create () = { buf = Buffer.create 256 }
  let write_char t c = Buffer.add_char t.buf c
  let write_string t s = Buffer.add_string t.buf s
  let output t = Buffer.contents t.buf
  let clear t = Buffer.clear t.buf
end

module Disk = struct
  let sector_size = 512

  type write_record = { sector : int; data : bytes }

  type t = {
    durable : bytes array; (* state as of the last flush *)
    mutable unflushed : write_record list; (* newest first *)
    intr : (Intr.t * int) option;
    mutable io_count : int;
  }

  let create ?intr ~sectors () =
    if sectors <= 0 then invalid_arg "Disk.create: sectors <= 0";
    {
      durable = Array.init sectors (fun _ -> Bytes.make sector_size '\000');
      unflushed = [];
      intr;
      io_count = 0;
    }

  let sectors t = Array.length t.durable

  let check t s =
    if s < 0 || s >= sectors t then invalid_arg "Disk: sector out of range"

  let signal t =
    match t.intr with
    | None -> ()
    | Some (intr, vector) -> Intr.raise_irq intr vector

  let read_sector t s =
    check t s;
    t.io_count <- t.io_count + 1;
    signal t;
    (* Reads observe the newest un-flushed write to the sector, if any. *)
    let rec newest = function
      | [] -> Bytes.copy t.durable.(s)
      | { sector; data } :: _ when sector = s -> Bytes.copy data
      | _ :: rest -> newest rest
    in
    newest t.unflushed

  let write_sector t s data =
    check t s;
    if Bytes.length data <> sector_size then
      invalid_arg "Disk.write_sector: buffer must be one sector";
    t.io_count <- t.io_count + 1;
    signal t;
    t.unflushed <- { sector = s; data = Bytes.copy data } :: t.unflushed

  let flush t =
    t.io_count <- t.io_count + 1;
    (* Apply oldest-first so later writes win.  Each durable buffer is
       owned by the disk (reads and crash images copy it), so a flushed
       write is blitted into it instead of replacing it: no allocation per
       flushed sector, and no garbage left in the major heap. *)
    List.iter
      (fun { sector; data } ->
        Bytes.blit data 0 t.durable.(sector) 0 sector_size)
      (List.rev t.unflushed);
    t.unflushed <- [];
    signal t

  let copy_durable t =
    {
      durable = Array.map Bytes.copy t.durable;
      unflushed = [];
      intr = t.intr;
      io_count = 0;
    }

  let pending_writes t = List.length t.unflushed

  let crash_with t ~keep_unflushed =
    (* [keep_unflushed] is clamped to [0, pending]: negative keeps nothing,
       larger-than-pending keeps every un-flushed write. *)
    let d = copy_durable t in
    let oldest_first = List.rev t.unflushed in
    let kept = List.filteri (fun i _ -> i < keep_unflushed) oldest_first in
    List.iter (fun { sector; data } -> d.durable.(sector) <- Bytes.copy data) kept;
    d

  let crash ?seed t =
    (* Deterministic partial crash: keep each un-flushed write iff a seeded
       coin derived from its position says so.  Without [seed] the stream is
       the historical fixed one; with it, fault plans can sweep distinct
       crash subsets while staying replayable. *)
    let g =
      match seed with
      | None -> Bi_core.Gen.of_string "disk/crash"
      | Some s -> Bi_core.Gen.of_string (Printf.sprintf "disk/crash/%d" s)
    in
    let d = copy_durable t in
    let oldest_first = List.rev t.unflushed in
    List.iter
      (fun { sector; data } ->
        if Bi_core.Gen.bool g then d.durable.(sector) <- Bytes.copy data)
      oldest_first;
    d

  let io_count t = t.io_count
end

module Nic = struct
  let mtu = 1514

  type t = {
    mac : string;
    mutable peer : t option;
    wire : bytes Queue.t; (* frames in flight from this NIC *)
    rx : bytes Queue.t;
    intr : (Intr.t * int) option;
    mutable drop_next : bool;
  }

  let create ?intr ~mac () =
    if String.length mac <> 6 then invalid_arg "Nic.create: mac must be 6 bytes";
    {
      mac;
      peer = None;
      wire = Queue.create ();
      rx = Queue.create ();
      intr;
      drop_next = false;
    }

  let mac t = t.mac

  let connect a b =
    a.peer <- Some b;
    b.peer <- Some a

  let transmit t frame =
    if Bytes.length frame > mtu then invalid_arg "Nic.transmit: frame > MTU";
    if t.drop_next then t.drop_next <- false
    else Queue.push (Bytes.copy frame) t.wire

  let deliver t =
    match t.peer with
    | None ->
        Queue.clear t.wire;
        0
    | Some peer ->
        let n = Queue.length t.wire in
        Queue.iter (fun f -> Queue.push f peer.rx) t.wire;
        Queue.clear t.wire;
        if n > 0 then begin
          match peer.intr with
          | None -> ()
          | Some (intr, vector) -> Intr.raise_irq intr vector
        end;
        n

  let drop_next_tx t = t.drop_next <- true

  (* Tap points for fault-injecting links: pull a transmitted frame off the
     wire before delivery, or push a frame straight into the RX ring (with
     the RX interrupt), bypassing {!deliver}. *)
  let take_tx t = Queue.take_opt t.wire

  let inject_rx t frame =
    Queue.push (Bytes.copy frame) t.rx;
    match t.intr with
    | None -> ()
    | Some (intr, vector) -> Intr.raise_irq intr vector

  let receive t = Queue.take_opt t.rx
  let rx_pending t = Queue.length t.rx
end
