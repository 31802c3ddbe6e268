module Machine = Bi_hw.Machine
module Fs = Bi_fs.Fs
module Stack = Bi_net.Stack
module Nic = Bi_hw.Device.Nic

type sys = { s_pid : int; s_tid : int; kernel : t }

and fd_entry =
  (* The fd names a *path*, matching Sys_spec's contract: operations on an
     fd whose path has been unlinked or renamed away fail with ENOENT
     (found by the randomized contract test: storing the inode number lets
     a reused inode alias a different file). *)
  | File_fd of { path : string; mutable offset : int }
  | Pipe_rd of pipe
  | Pipe_wr of pipe

and pipe = {
  mutable pdata : string; (* buffered, not yet read *)
  mutable rd_open : bool;
  mutable wr_open : bool;
}

and pstate = Alive | Zombie of int (* reaping removes it from [processes] *)

and process = {
  pid : int;
  parent : int;
  aspace : Address_space.t;
  fds : (int, fd_entry) Hashtbl.t;
  mutable next_fd : int;
  mutable pstate : pstate;
  mutable tids : int list; (* live threads only *)
  mutable locals : local list; (* the program's own state; gone at exit *)
}

and local = ..

and blocked_on =
  | On_pipe_read of (pipe * int) (* pipe, requested length *)
  | On_futex of int64
  | On_wait of int
  | On_join of int
  | On_sleep of int
  | On_udp of int
  | On_accept of int
  | On_tcp_recv of int

and resume =
  | Start of (unit -> unit)
  | Resume of (Sysabi.response, unit) Effect.Deep.continuation * Sysabi.response

and tstate =
  | Ready of resume
  | Blocked of blocked_on * (Sysabi.response, unit) Effect.Deep.continuation
  | Finished

and thread = { tid : int; t_pid : int; mutable tstate : tstate }

and t = {
  machine : Machine.t;
  fs : Fs.t;
  stack : Stack.t;
  sched : Scheduler.t;
  futexes : Futex.t;
  processes : (int, process) Hashtbl.t; (* alive and zombie *)
  threads : (int, thread) Hashtbl.t; (* live: ready, blocked or running *)
  programs : (string, sys -> string -> unit) Hashtbl.t;
  entries : (int, sys -> unit) Hashtbl.t; (* not yet consumed *)
  mutable next_pid : int;
  mutable next_tid : int;
  mutable next_entry : int;
  mutable ticks : int;
  mutable tracing : bool;
  mutable trace_log : (int * Sysabi.request * Sysabi.response) list;
  mutable peer : t option; (* for run_pair *)
}

type _ Effect.t += Syscall : (sys * Sysabi.request) -> Sysabi.response Effect.t

exception Deadlock of string

let create ?(cores = 2) ?(mem_bytes = 32 * 1024 * 1024) ?(disk_sectors = 4096)
    ?(ip = Bi_net.Ip.addr_of_string "10.0.0.1") () =
  let machine = Machine.create ~cores ~mem_bytes ~disk_sectors () in
  let fs = Fs.mkfs (Bi_fs.Block_dev.of_disk machine.Machine.disk) in
  let stack = Stack.create ~nic:machine.Machine.nic ~ip in
  {
    machine;
    fs;
    stack;
    sched = Scheduler.create ();
    futexes = Futex.create ();
    processes = Hashtbl.create 16;
    threads = Hashtbl.create 32;
    programs = Hashtbl.create 8;
    entries = Hashtbl.create 8;
    next_pid = 1;
    next_tid = 1;
    next_entry = 1;
    ticks = 0;
    tracing = false;
    trace_log = [];
    peer = None;
  }

let machine t = t.machine
let fs t = t.fs
let stack t = t.stack
let sys_pid s = s.s_pid
let sys_tid s = s.s_tid
let sys_kernel s = s.kernel

let register_program t name f = Hashtbl.replace t.programs name f

let find_local s f =
  match Hashtbl.find_opt s.kernel.processes s.s_pid with
  | Some p -> List.find_map f p.locals
  | None -> None

let add_local s v =
  match Hashtbl.find_opt s.kernel.processes s.s_pid with
  | Some ({ pstate = Alive; _ } as p) -> p.locals <- v :: p.locals
  | _ -> ()

let register_entry t f =
  let h = t.next_entry in
  t.next_entry <- h + 1;
  Hashtbl.replace t.entries h f;
  h

let set_trace t on = t.tracing <- on
let trace t = List.rev t.trace_log
let serial_output t = Bi_hw.Device.Serial.output t.machine.Machine.serial

let process_count t = Hashtbl.length t.processes
let thread_count t = Hashtbl.length t.threads
let get_process t pid = Hashtbl.find_opt t.processes pid
let get_thread t tid = Hashtbl.find_opt t.threads tid

let enqueue_ready t tid = Scheduler.enqueue t.sched tid

(* ------------------------------------------------------------------ *)
(* Thread and process creation                                         *)

(* The effect handler every user thread runs under. *)
let rec handler t (th : thread) =
  {
    Effect.Deep.retc = (fun () -> finish_thread t th);
    exnc =
      (fun e ->
        Bi_hw.Device.Serial.write_string t.machine.Machine.serial
          (Printf.sprintf "[kernel] thread %d crashed: %s\n" th.tid
             (Printexc.to_string e));
        finish_thread t th);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Syscall (s, req) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                dispatch t th s req
                  (k : (Sysabi.response, unit) Effect.Deep.continuation))
        | _ -> None);
  }

and start_thread t ~pid entry =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let th = { tid; t_pid = pid; tstate = Finished } in
  Hashtbl.replace t.threads tid th;
  (match get_process t pid with
  | Some p -> p.tids <- tid :: p.tids
  | None -> ());
  let s = { s_pid = pid; s_tid = tid; kernel = t } in
  let body () = Effect.Deep.match_with entry s (handler t th) in
  th.tstate <- Ready (Start body);
  enqueue_ready t tid;
  tid

and spawn ?(parent = 0) t ~prog ~arg =
  match Hashtbl.find_opt t.programs prog with
  | None -> Error Sysabi.E_noent
  | Some f ->
      let pid = t.next_pid in
      t.next_pid <- pid + 1;
      let aspace =
        Address_space.create ~mem:t.machine.Machine.mem
          ~frames:t.machine.Machine.frames
      in
      let p =
        {
          pid;
          parent;
          aspace;
          fds = Hashtbl.create 8;
          next_fd = 3;
          pstate = Alive;
          tids = [];
          locals = [];
        }
      in
      Hashtbl.replace t.processes pid p;
      ignore (start_thread t ~pid (fun s -> f s arg) : int);
      Ok pid

(* A thread that finished or was killed leaves every table: the idle
   loop's [try_unblock] and [blocked_count] walk [threads] on each tick,
   so dead entries would make every tick cost more with each respawn. *)
and drop_thread t th =
  th.tstate <- Finished;
  Hashtbl.remove t.threads th.tid;
  Futex.remove_thread t.futexes ~tid:th.tid

and wake_joiners t tid =
  Hashtbl.iter
    (fun _ other ->
      match other.tstate with
      | Blocked (On_join waited, k) when waited = tid ->
          other.tstate <- Ready (Resume (k, Sysabi.R_unit));
          enqueue_ready t other.tid
      | _ -> ())
    t.threads

and finish_thread t th =
  drop_thread t th;
  wake_joiners t th.tid;
  (* Last thread of the process: the process exits with code 0 unless it
     already became a zombie via Exit. *)
  match get_process t th.t_pid with
  | None -> ()
  | Some p ->
      p.tids <- List.filter (fun tid -> tid <> th.tid) p.tids;
      if p.tids = [] && p.pstate = Alive then make_zombie t p 0

and make_zombie t p code =
  p.pstate <- Zombie code;
  Address_space.destroy p.aspace;
  Futex.remove_process t.futexes ~pid:p.pid;
  Hashtbl.iter
    (fun _ e ->
      match e with
      | Pipe_rd pipe -> pipe.rd_open <- false
      | Pipe_wr pipe -> pipe.wr_open <- false
      | File_fd _ -> ())
    p.fds;
  Hashtbl.reset p.fds;
  p.locals <- [];
  (* Wake a parent blocked in wait(pid).  Exactly one waiter collects the
     exit code — the child is reaped at that point, so the others get
     [E_child], same as a wait issued after the reap.  (Previously every
     parked waiter was handed the code: a misdelivered wakeup, found by
     the blocking-syscall audit.)  Lowest tid wins, deterministically. *)
  let waiters =
    Hashtbl.fold
      (fun _ th acc ->
        match th.tstate with
        | Blocked (On_wait waited, k) when waited = p.pid -> (th, k) :: acc
        | _ -> acc)
      t.threads []
    |> List.sort (fun (a, _) (b, _) -> compare a.tid b.tid)
  in
  match waiters with
  | [] -> ()
  | (first, k) :: rest ->
      first.tstate <- Ready (Resume (k, Sysabi.R_int code));
      Hashtbl.remove t.processes p.pid;
      enqueue_ready t first.tid;
      List.iter
        (fun (th, k) ->
          th.tstate <- Ready (Resume (k, Sysabi.R_err Sysabi.E_child));
          enqueue_ready t th.tid)
        rest

and kill_process t p code =
  (* Discard every thread of the process; parked continuations are
     abandoned (their stacks are reclaimed by the GC). *)
  let killed =
    List.filter_map
      (fun tid ->
        match get_thread t tid with
        | None -> None
        | Some th ->
            (* The running thread reads [Finished]: it is dropped but has
               no parked joiners to wake. *)
            let was_live = th.tstate <> Finished in
            drop_thread t th;
            Scheduler.remove t.sched tid;
            if was_live then Some tid else None)
      p.tids
  in
  p.tids <- [];
  (* A killed thread never reaches [finish_thread], so its joiners must
     be woken here or they stay parked forever — the lost wakeup found by
     the blocking-syscall audit (a [Kill]/[Exit] landing on a process one
     of whose threads is being joined from outside).  Same-process
     joiners were just dropped above and no longer match. *)
  List.iter (wake_joiners t) killed;
  if p.pstate = Alive then make_zombie t p code

(* ------------------------------------------------------------------ *)
(* Syscall implementation                                              *)

and fd_lookup p fd = Hashtbl.find_opt p.fds fd

and fs_err (e : Fs.error) : Sysabi.err =
  match e with
  | Fs.Not_found -> Sysabi.E_noent
  | Fs.Exists -> Sysabi.E_exists
  | Fs.Not_dir -> Sysabi.E_notdir
  | Fs.Is_dir -> Sysabi.E_isdir
  | Fs.Not_empty -> Sysabi.E_notempty
  | Fs.No_space -> Sysabi.E_nospace
  | Fs.Too_large -> Sysabi.E_toolarge
  | Fs.Invalid_path -> Sysabi.E_inval

(* Handle a request that can complete immediately.  Returns [Some resp]
   or [None] when the thread must block (the caller parks it). *)
and handle t th (_s : sys) (req : Sysabi.request) : Sysabi.response option =
  let p =
    match get_process t th.t_pid with
    | Some p -> p
    | None -> invalid_arg "kernel: thread without process"
  in
  let err e = Some (Sysabi.R_err e) in
  match req with
  | Sysabi.Getpid -> Some (Sysabi.R_int th.t_pid)
  | Sysabi.Gettid -> Some (Sysabi.R_int th.tid)
  | Sysabi.Yield -> Some Sysabi.R_unit
  | Sysabi.Now -> Some (Sysabi.R_i64 (Int64.of_int t.ticks))
  | Sysabi.Log msg ->
      Bi_hw.Device.Serial.write_string t.machine.Machine.serial (msg ^ "\n");
      Some Sysabi.R_unit
  | Sysabi.Exit _ -> None (* handled in dispatch *)
  | Sysabi.Spawn { prog; arg } -> (
      match spawn ~parent:th.t_pid t ~prog ~arg with
      | Ok pid -> Some (Sysabi.R_int pid)
      | Error e -> err e)
  | Sysabi.Wait pid -> (
      match get_process t pid with
      | None -> err Sysabi.E_child
      | Some child ->
          if child.parent <> th.t_pid then err Sysabi.E_child
          else begin
            match child.pstate with
            | Zombie code ->
                Hashtbl.remove t.processes pid;
                Some (Sysabi.R_int code)
            | Alive -> None (* block *)
          end)
  | Sysabi.Kill { pid; signal } -> (
      match get_process t pid with
      | None -> err Sysabi.E_srch
      | Some target ->
          if target.pstate <> Alive then err Sysabi.E_srch
          else if signal = 0 then Some Sysabi.R_unit
          else begin
            kill_process t target (128 + signal);
            Some Sysabi.R_unit
          end)
  (* memory *)
  | Sysabi.Mmap { bytes } -> (
      match Address_space.mmap p.aspace ~bytes with
      | Ok va -> Some (Sysabi.R_i64 va)
      | Error e -> err e)
  | Sysabi.Munmap { va } -> (
      match Address_space.munmap p.aspace ~va with
      | Ok () -> Some Sysabi.R_unit
      | Error e -> err e)
  | Sysabi.Mresolve { va } -> (
      match Address_space.resolve p.aspace ~va with
      | Ok pa -> Some (Sysabi.R_i64 pa)
      | Error e -> err e)
  (* filesystem *)
  | Sysabi.Open { path; create; trunc } -> (
      let resolved =
        match Fs.resolve t.fs path with
        | Ok ino -> Ok ino
        | Error Fs.Not_found when create -> (
            match Fs.create t.fs path with
            | Ok () -> Fs.resolve t.fs path
            | Error e -> Error e)
        | Error e -> Error e
      in
      let resolved =
        match resolved with
        | Ok ino when trunc ->
            Result.map (fun () -> ino) (Fs.truncate_ino t.fs ~ino 0)
        | r -> r
      in
      match resolved with
      | Error e -> err (fs_err e)
      | Ok (_ : int) ->
          let fd = p.next_fd in
          p.next_fd <- fd + 1;
          Hashtbl.replace p.fds fd (File_fd { path; offset = 0 });
          Some (Sysabi.R_int fd))
  | Sysabi.Close { fd } -> (
      match fd_lookup p fd with
      | None -> err Sysabi.E_badf
      | Some e ->
          (match e with
          | Pipe_rd pipe -> pipe.rd_open <- false
          | Pipe_wr pipe ->
              pipe.wr_open <- false (* blocked readers see EOF on unblock *)
          | File_fd _ -> ());
          Hashtbl.remove p.fds fd;
          Some Sysabi.R_unit)
  | Sysabi.Read { fd; len } -> (
      match fd_lookup p fd with
      | None -> err Sysabi.E_badf
      | Some (File_fd e) -> (
          match Fs.resolve t.fs e.path with
          | Error fe -> err (fs_err fe)
          | Ok ino -> (
              match Fs.read_ino t.fs ~ino ~off:e.offset ~len with
              | Ok data ->
                  e.offset <- e.offset + Bytes.length data;
                  Some (Sysabi.R_data (Bytes.to_string data))
              | Error fe -> err (fs_err fe)))
      | Some (Pipe_wr _) -> err Sysabi.E_badf
      | Some (Pipe_rd pipe) ->
          if String.length pipe.pdata > 0 then begin
            let n = min len (String.length pipe.pdata) in
            let chunk = String.sub pipe.pdata 0 n in
            pipe.pdata <-
              String.sub pipe.pdata n (String.length pipe.pdata - n);
            Some (Sysabi.R_data chunk)
          end
          else if not pipe.wr_open then Some (Sysabi.R_data "") (* EOF *)
          else None (* block until data or writer close *))
  | Sysabi.Write { fd; data } -> (
      match fd_lookup p fd with
      | None -> err Sysabi.E_badf
      | Some (File_fd e) -> (
          match Fs.resolve t.fs e.path with
          | Error fe -> err (fs_err fe)
          | Ok ino -> (
              match
                Fs.write_ino t.fs ~ino ~off:e.offset (Bytes.of_string data)
              with
              | Ok () ->
                  e.offset <- e.offset + String.length data;
                  Some (Sysabi.R_int (String.length data))
              | Error fe -> err (fs_err fe)))
      | Some (Pipe_rd _) -> err Sysabi.E_badf
      | Some (Pipe_wr pipe) ->
          if not pipe.rd_open then err Sysabi.E_conn (* EPIPE *)
          else begin
            pipe.pdata <- pipe.pdata ^ data;
            (* Parked readers are woken by the scheduler's unblock pass. *)
            Some (Sysabi.R_int (String.length data))
          end)
  | Sysabi.Seek { fd; off } -> (
      match fd_lookup p fd with
      | None -> err Sysabi.E_badf
      | Some (Pipe_rd _ | Pipe_wr _) -> err Sysabi.E_inval
      | Some (File_fd e) ->
          if off < 0 then err Sysabi.E_inval
          else begin
            e.offset <- off;
            Some (Sysabi.R_int off)
          end)
  | Sysabi.Fstat { fd } -> (
      match fd_lookup p fd with
      | None -> err Sysabi.E_badf
      | Some (Pipe_rd pipe) ->
          Some (Sysabi.R_stat { dir = false; size = String.length pipe.pdata })
      | Some (Pipe_wr pipe) ->
          Some (Sysabi.R_stat { dir = false; size = String.length pipe.pdata })
      | Some (File_fd e) -> (
          match Fs.stat t.fs e.path with
          | Ok { Fs.kind; size; _ } ->
              Some (Sysabi.R_stat { dir = kind = Fs.Dir; size })
          | Error fe -> err (fs_err fe)))
  | Sysabi.Mkdir { path } -> (
      match Fs.mkdir t.fs path with
      | Ok () -> Some Sysabi.R_unit
      | Error fe -> err (fs_err fe))
  | Sysabi.Unlink { path } -> (
      match Fs.unlink t.fs path with
      | Ok () -> Some Sysabi.R_unit
      | Error fe -> err (fs_err fe))
  | Sysabi.Rmdir { path } -> (
      match Fs.rmdir t.fs path with
      | Ok () -> Some Sysabi.R_unit
      | Error fe -> err (fs_err fe))
  | Sysabi.Readdir { path } -> (
      match Fs.readdir t.fs path with
      | Ok names -> Some (Sysabi.R_names names)
      | Error fe -> err (fs_err fe))
  | Sysabi.Fsync { fd } ->
      if Hashtbl.mem p.fds fd then begin
        Fs.fsync t.fs;
        Some Sysabi.R_unit
      end
      else err Sysabi.E_badf
  (* threads & sync *)
  | Sysabi.Thread_create { entry } -> (
      (* An entry handle starts one thread: the closure (and whatever it
         captured) is released here. *)
      match Hashtbl.find_opt t.entries entry with
      | None -> err Sysabi.E_inval
      | Some f ->
          Hashtbl.remove t.entries entry;
          let tid = start_thread t ~pid:th.t_pid f in
          Some (Sysabi.R_int tid))
  | Sysabi.Thread_join { tid } -> (
      match Hashtbl.find_opt t.threads tid with
      | None ->
          (* Issued but gone: it finished or was killed. *)
          if tid > 0 && tid < t.next_tid then Some Sysabi.R_unit
          else err Sysabi.E_srch
      | Some other -> (
          match other.tstate with
          | Finished -> Some Sysabi.R_unit
          | Ready _ | Blocked _ -> None (* block *)))
  | Sysabi.Futex_wait { va; expected } -> (
      match Address_space.load_u64 p.aspace ~va with
      | Error e -> err e
      | Ok v -> if v <> expected then err Sysabi.E_again else None (* block *))
  | Sysabi.Futex_wake { va; count } ->
      let woken = Futex.wake t.futexes ~pid:th.t_pid ~va ~count in
      List.iter
        (fun tid ->
          match get_thread t tid with
          | Some ({ tstate = Blocked (On_futex _, k); _ } as other) ->
              other.tstate <- Ready (Resume (k, Sysabi.R_unit));
              enqueue_ready t tid
          | Some _ | None -> ())
        woken;
      Some (Sysabi.R_int (List.length woken))
  (* network *)
  | Sysabi.Udp_bind { port } -> (
      match Stack.udp_bind t.stack port with
      | () -> Some Sysabi.R_unit
      | exception Invalid_argument _ -> err Sysabi.E_exists)
  | Sysabi.Udp_send { dst_ip; dst_port; src_port; data } ->
      Stack.udp_send t.stack ~dst_ip ~dst_port ~src_port
        (Bytes.of_string data);
      Some Sysabi.R_unit
  | Sysabi.Udp_recv { port; blocking } -> (
      match Stack.udp_recv t.stack port with
      | Some (ip, sport, data) ->
          Some
            (Sysabi.R_dgram { ip; port = sport; data = Bytes.to_string data })
      | None -> if blocking then None else err Sysabi.E_again)
  | Sysabi.Tcp_listen { port } ->
      Stack.tcp_listen t.stack port;
      Some Sysabi.R_unit
  | Sysabi.Tcp_connect { ip; port } -> (
      match Stack.tcp_connect t.stack ~dst_ip:ip ~dst_port:port with
      | conn -> Some (Sysabi.R_int conn)
      | exception Invalid_argument _ -> err Sysabi.E_again (* no free port *))
  | Sysabi.Tcp_accept { port; blocking } -> (
      match Stack.tcp_accept t.stack port with
      | Some conn -> Some (Sysabi.R_int conn)
      | None -> if blocking then None else err Sysabi.E_again)
  | Sysabi.Tcp_send { conn; data } -> (
      match Stack.tcp_send t.stack conn (Bytes.of_string data) with
      | () -> Some (Sysabi.R_int (String.length data))
      | exception Invalid_argument _ -> err Sysabi.E_badf)
  | Sysabi.Tcp_recv { conn; blocking } -> (
      match Stack.tcp_recv t.stack conn with
      | data when Bytes.length data > 0 ->
          Some (Sysabi.R_data (Bytes.to_string data))
      | _ -> (
          match Stack.tcp_state t.stack conn with
          | Bi_net.Tcp.Closed | Bi_net.Tcp.Close_wait | Bi_net.Tcp.Time_wait
            ->
              Some (Sysabi.R_data "")
          | _ -> if blocking then None else err Sysabi.E_again)
      | exception Invalid_argument _ -> err Sysabi.E_badf)
  | Sysabi.Tcp_close { conn } -> (
      match Stack.tcp_close t.stack conn with
      | () -> Some Sysabi.R_unit
      | exception Invalid_argument _ -> err Sysabi.E_badf)
  (* pipes *)
  | Sysabi.Pipe ->
      let pipe = { pdata = ""; rd_open = true; wr_open = true } in
      let rfd = p.next_fd in
      let wfd = rfd + 1 in
      p.next_fd <- wfd + 1;
      Hashtbl.replace p.fds rfd (Pipe_rd pipe);
      Hashtbl.replace p.fds wfd (Pipe_wr pipe);
      Some (Sysabi.R_pair (rfd, wfd))
  (* memory protection *)
  | Sysabi.Mprotect { va; writable; executable } -> (
      let perm = { Bi_hw.Pte.writable; user = true; executable } in
      match Address_space.protect p.aspace ~va ~perm with
      | Ok () ->
          (* New permissions take effect after a shootdown, as with
             unmap. *)
          Bi_hw.Machine.tlb_shootdown t.machine va ~initiator:0;
          Some Sysabi.R_unit
      | Error e -> err e)
  (* rename *)
  | Sysabi.Rename { src; dst } -> (
      match Fs.rename t.fs ~src ~dst with
      | Ok () -> Some Sysabi.R_unit
      | Error fe -> err (fs_err fe))
  (* time *)
  | Sysabi.Sleep _ -> None (* block *)

and exit_process t th req code =
  if t.tracing then
    t.trace_log <- (th.t_pid, req, Sysabi.R_unit) :: t.trace_log;
  match get_process t th.t_pid with
  | Some p -> kill_process t p code
  | None -> ()

(* Marshal the request across the boundary, handle it, marshal the
   response back; park the thread if the syscall blocks. *)
and dispatch t th (s : sys) (req : Sysabi.request)
    (k : (Sysabi.response, unit) Effect.Deep.continuation) =
  Machine.charge
    (Machine.core t.machine 0)
    t.machine.Machine.cost.Bi_hw.Cost_model.syscall_entry;
  let deliver resp =
    (* Response round-trips through the ABI codec too. *)
    let resp =
      match Sysabi.decode_response (Sysabi.encode_response resp) with
      | Some r -> r
      | None -> Sysabi.R_err Sysabi.E_inval
    in
    if t.tracing then t.trace_log <- (th.t_pid, req, resp) :: t.trace_log;
    th.tstate <- Ready (Resume (k, resp));
    enqueue_ready t th.tid
  in
  match Sysabi.decode_request (Sysabi.encode_request req) with
  | None -> deliver (Sysabi.R_err Sysabi.E_inval)
  | Some req -> (
      match req with
      (* [Exit] and a self-[Kill] end the caller's process: the calling
         thread is dropped with the rest and does not return. *)
      | Sysabi.Exit code -> exit_process t th req code
      | Sysabi.Kill { pid; signal } when pid = th.t_pid && signal <> 0 ->
          exit_process t th req (128 + signal)
      | _ -> (
          match handle t th s req with
          | Some resp -> deliver resp
          | None ->
              (* Blocking: park the continuation where the waker looks. *)
              if t.tracing then
                t.trace_log <-
                  (th.t_pid, req, Sysabi.R_err Sysabi.E_again) :: t.trace_log;
              let park b = th.tstate <- Blocked (b, k) in
              (match req with
              | Sysabi.Read { fd; len } -> (
                  match get_process t th.t_pid with
                  | Some p -> (
                      match fd_lookup p fd with
                      | Some (Pipe_rd pipe) -> park (On_pipe_read (pipe, len))
                      | _ -> park (On_sleep t.ticks))
                  | None -> park (On_sleep t.ticks))
              | Sysabi.Wait pid -> park (On_wait pid)
              | Sysabi.Thread_join { tid } -> park (On_join tid)
              | Sysabi.Futex_wait { va; _ } ->
                  Futex.enqueue t.futexes ~pid:th.t_pid ~va ~tid:th.tid;
                  park (On_futex va)
              | Sysabi.Sleep ticks -> park (On_sleep (t.ticks + ticks))
              | Sysabi.Udp_recv { port; _ } -> park (On_udp port)
              | Sysabi.Tcp_accept { port; _ } -> park (On_accept port)
              | Sysabi.Tcp_recv { conn; _ } -> park (On_tcp_recv conn)
              | _ -> park (On_sleep t.ticks))))

let syscall (s : sys) req = Effect.perform (Syscall (s, req))

let user_load (s : sys) ~va =
  match get_process s.kernel s.s_pid with
  | None -> Error Sysabi.E_srch
  | Some p -> Address_space.load_u64 p.aspace ~va

let user_store (s : sys) ~va v =
  match get_process s.kernel s.s_pid with
  | None -> Error Sysabi.E_srch
  | Some p -> Address_space.store_u64 p.aspace ~va v

(* ------------------------------------------------------------------ *)
(* Time advance and unblocking                                         *)

let advance_time t =
  t.ticks <- t.ticks + 1;
  Bi_hw.Device.Timer.tick t.machine.Machine.timer;
  (* Move frames across the wire, poll our stack, tick TCP timers. *)
  ignore (Nic.deliver t.machine.Machine.nic : int);
  (match t.peer with
  | Some peer -> ignore (Nic.deliver peer.machine.Machine.nic : int)
  | None -> ());
  Stack.poll t.stack;
  if t.ticks mod 4 = 0 then Stack.tick t.stack

let try_unblock t =
  let unblocked = ref 0 in
  Hashtbl.iter
    (fun _ th ->
      match th.tstate with
      | Blocked (b, k) ->
          let wake resp =
            th.tstate <- Ready (Resume (k, resp));
            enqueue_ready t th.tid;
            incr unblocked
          in
          (match b with
          | On_sleep deadline -> if t.ticks >= deadline then wake Sysabi.R_unit
          | On_udp port -> (
              match Stack.udp_recv t.stack port with
              | Some (ip, sport, data) ->
                  wake
                    (Sysabi.R_dgram
                       { ip; port = sport; data = Bytes.to_string data })
              | None -> ())
          | On_accept port -> (
              match Stack.tcp_accept t.stack port with
              | Some conn -> wake (Sysabi.R_int conn)
              | None -> ())
          | On_tcp_recv conn -> (
              match Stack.tcp_recv t.stack conn with
              | data when Bytes.length data > 0 ->
                  wake (Sysabi.R_data (Bytes.to_string data))
              | _ -> (
                  match Stack.tcp_state t.stack conn with
                  | Bi_net.Tcp.Closed | Bi_net.Tcp.Close_wait
                  | Bi_net.Tcp.Time_wait ->
                      wake (Sysabi.R_data "")
                  | _ -> ()))
          | On_pipe_read (pipe, len) ->
              if String.length pipe.pdata > 0 then begin
                let n = min len (String.length pipe.pdata) in
                let chunk = String.sub pipe.pdata 0 n in
                pipe.pdata <-
                  String.sub pipe.pdata n (String.length pipe.pdata - n);
                wake (Sysabi.R_data chunk)
              end
              else if not pipe.wr_open then wake (Sysabi.R_data "")
          | On_futex _ | On_wait _ | On_join _ -> ())
      | Ready _ | Finished -> ())
    t.threads;
  !unblocked

let blocked_count t =
  Hashtbl.fold
    (fun _ th acc ->
      match th.tstate with Blocked _ -> acc + 1 | Ready _ | Finished -> acc)
    t.threads 0

let run_slice t =
  (* Run one thread for one quantum (to its next syscall). *)
  match Scheduler.dequeue t.sched with
  | None -> false
  | Some tid -> (
      match get_thread t tid with
      | Some ({ tstate = Ready (Start f); _ } as th) ->
          th.tstate <- Finished;
          (* replaced when it blocks/finishes *)
          f ();
          true
      | Some ({ tstate = Ready (Resume (k, resp)); _ } as th) ->
          th.tstate <- Finished;
          Effect.Deep.continue k resp;
          true
      | Some { tstate = Blocked _ | Finished; _ } | None ->
          true (* stale queue entry; skip *))

let max_idle_ticks = 100_000

let run t =
  let idle = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    if run_slice t then idle := 0
    else if blocked_count t = 0 then continue_ := false
    else begin
      advance_time t;
      ignore (try_unblock t : int);
      incr idle;
      if !idle > max_idle_ticks then
        raise
          (Deadlock
             (Printf.sprintf "%d thread(s) blocked with no progress"
                (blocked_count t)))
    end
  done

let connect a b =
  Nic.connect a.machine.Machine.nic b.machine.Machine.nic;
  a.peer <- Some b;
  b.peer <- Some a

let run_pair ?(on_tick = fun () -> ()) a b =
  let idle = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let ran_a = run_slice a in
    let ran_b = run_slice b in
    if ran_a || ran_b then idle := 0
    else if blocked_count a = 0 && blocked_count b = 0 then continue_ := false
    else begin
      (* [on_tick] runs before [advance_time] delivers (and, for a NIC
         with no connected peer, clears) the wire queues — a fault
         adversary interposing on two unconnected NICs must harvest tx
         frames here or they are gone. *)
      on_tick ();
      advance_time a;
      advance_time b;
      ignore (try_unblock a : int);
      ignore (try_unblock b : int);
      incr idle;
      if !idle > max_idle_ticks then
        raise
          (Deadlock
             (Printf.sprintf
                "pair: %d + %d thread(s) blocked with no progress"
                (blocked_count a) (blocked_count b)))
    end
  done
