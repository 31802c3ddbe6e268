(* Host-time benchmark of the storage node: netd serving puts and gets
   over kernel TCP, with the journal and the verified filesystem under
   it.

   One world is two kernels wired NIC to NIC.  The server kernel runs
   netd (default config: 4 workers, journal on) under a supervisor
   process this benchmark registers; the client kernel runs one process
   whose threads drive [Nd_client] + [Resilient_client].  The load is a
   closed loop of [threads] client threads, each on its own TCP
   connection, all in one host process on one OCaml domain ([Pkt]'s copy
   counters are process-global).  Host time is process CPU time (the
   simulation is single-threaded and never blocks on the host), scaled
   for interference from other tenants by [Clock].

   Every layer is measured from outside, through its public functions,
   counters and record-of-functions interfaces; no library code is
   changed.  A run prints one JSON object as its last line of stdout:
   end-to-end metrics without [--trace], per-layer metrics with it.  See
   README.md for why each workload and metric is here. *)

module K = Bi_kernel.Kernel
module U = Bi_kernel.Usys
module Sysabi = Bi_kernel.Sysabi
module P = Bi_app.Protocol
module RC = Bi_app.Resilient_client
module Node_core = Bi_app.Node_core
module Journal = Bi_app.Journal
module Storage_node = Bi_app.Storage_node
module Netd = Bi_netd.Netd
module Nd_client = Bi_netd.Nd_client
module Pkt = Bi_net.Pkt
module Machine = Bi_hw.Machine

let server_ip = Bi_net.Ip.addr_of_string "10.0.0.1"
let client_ip = Bi_net.Ip.addr_of_string "10.0.0.2"

(* ------------------------------------------------------------------ *)
(* Samples and summaries                                               *)

module Fbuf = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create () = { a = Float.Array.make 4096 0.; n = 0 }

  let push t x =
    if t.n = Float.Array.length t.a then begin
      let b = Float.Array.make (2 * t.n) 0. in
      Float.Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Float.Array.set t.a t.n x;
    t.n <- t.n + 1

  let get t i = Float.Array.get t.a i
  let length t = t.n

  let sorted t =
    let s = Float.Array.sub t.a 0 t.n in
    Float.Array.sort Float.compare s;
    s
end

(* Quantile of a sorted array, interpolating linearly between ranks. *)
let quantile sorted q =
  let n = Float.Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float (n - 1) in
    let i = int_of_float pos in
    let x = Float.Array.get sorted i in
    if i + 1 >= n then x
    else x +. ((pos -. float i) *. (Float.Array.get sorted (i + 1) -. x))

let median = function
  | [] -> nan
  | l ->
      let a = Float.Array.of_list l in
      Float.Array.sort Float.compare a;
      let n = Float.Array.length a in
      if n mod 2 = 1 then Float.Array.get a (n / 2)
      else (Float.Array.get a ((n / 2) - 1) +. Float.Array.get a (n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Host time                                                           *)

(* Host time is process CPU time, scaled to a reference host speed.  The
   host is shared: other tenants slow stretches of a run down, by up to
   half, for milliseconds to seconds at a time, so raw CPU time does not
   repeat from run to run.  Every [calib_period] of CPU time the clock
   times a fixed loop of stdlib work (small allocations and scattered
   512-byte copies out of a 16 MiB buffer, like the simulation's own
   work).  The loops are left out of the clock, and after the run every
   interval is scaled by [calib_ref] / (median time of the loops run
   inside it, or of the five nearest its middle when fewer ran).  The
   loop is the benchmark's own code, so no change to the program under
   test can move it. *)
module Clock = struct
  let calib_ref = 25e-6
  let calib_period = 1e-3
  let at = Fbuf.create ()  (* clock reading at each loop *)
  let took = Fbuf.create ()  (* raw CPU time of each loop *)

  type state = {
    mutable spent : float;  (** Raw CPU time spent in loops. *)
    mutable last : float;  (** Raw CPU time when the last loop ended. *)
    mutable words : float;  (** Minor words the loops allocated. *)
  }

  let st = { spent = 0.; last = 0.; words = 0. }
  let src = Bytes.make (16 * 1024 * 1024) 'x'
  let pos = ref 0

  let calibrate () =
    let w0 = Gc.minor_words () in
    let t0 = Sys.time () in
    let acc = ref 0 in
    for _ = 1 to 100 do
      pos := (!pos + 1_048_573) land (Bytes.length src - 1);
      let b = Bytes.sub src (!pos land lnot 511) 512 in
      let l = List.init 20 (fun i -> i + Char.code (Bytes.get b (i * 25))) in
      acc := !acc + List.length l
    done;
    ignore (Sys.opaque_identity !acc);
    let t1 = Sys.time () in
    Fbuf.push at (t0 -. st.spent);
    Fbuf.push took (t1 -. t0);
    st.last <- Sys.time ();
    st.spent <- st.spent +. (st.last -. t0);
    st.words <- st.words +. (Gc.minor_words () -. w0)

  (* The loop's first runs fault in the minor heap and the buffer; it is
     only timed for real once warm. *)
  let warm_up () =
    for _ = 1 to 200 do
      calibrate ()
    done

  (* Raw process CPU time less the loops, seconds; runs a loop when one
     is due. *)
  let now () =
    if Sys.time () -. st.last >= calib_period then calibrate ();
    Sys.time () -. st.spent

  (* Minor words allocated, less the loops'. *)
  let minor_words () = Gc.minor_words () -. st.words

  (* First loop index at or after clock reading [x]. *)
  let index x =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if Fbuf.get at mid < x then go (mid + 1) hi else go lo mid
    in
    go 0 (Fbuf.length at)

  (* The interval [a, b] of [now] readings, in reference seconds. *)
  let scaled a b =
    let n = Fbuf.length at in
    let i = index a and j = index b in
    let lo, hi =
      if j - i >= 5 then (i, j)
      else
        let lo = max 0 (min (n - 5) (index ((a +. b) /. 2.) - 2)) in
        (lo, min n (lo + 5))
    in
    let loops = List.init (hi - lo) (fun k -> Fbuf.get took (lo + k)) in
    (b -. a) *. calib_ref /. median loops
end

let cpu = Clock.now

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type kind = Write | Read | Restart

type spec = {
  kind : kind;
  name : string;
  keys : int;
  rcs : int;  (** Logical resilient clients per thread, one connection. *)
  rc_config : RC.config option;
  kill_period : int option;  (** Supervisor SIGKILL period, virtual ticks. *)
}

let threads = 2

(* Calls in each fixed-count phase of a traced run: enough for dozens of
   checkpoint cycles on [write]. *)
let count_ops = 3000

(* Setups per run; [setup_s] is their median. *)
let setups = 7

(* Respawns of netd after the load is over, each recovering the same
   journal; [recovery_ms] is read from them. *)
let probes = 301

(* Puts after the next checkpoint before a world stops, on distinct
   keys, so the journal a recovery replays, and the space it takes, do
   not depend on where the timed phase happened to end. *)
let tail_puts = 30

(* A [restart] call must survive a kill and the respawn's recovery:
   the patient retry schedule of the nd crash worlds. *)
let patient =
  {
    RC.max_attempts = 12;
    backoff_base = 2;
    backoff_cap = 16;
    jitter_pm = 1;
    breaker_threshold = 10_000;
    breaker_cooldown = 50;
    deadline = 6_000;
    seed = 1;
  }

let down_ticks = 20

let spec_of_name = function
  | "write" ->
      Some
        {
          kind = Write;
          name = "write";
          keys = 64;
          rcs = 64;
          rc_config = None;
          kill_period = None;
        }
  | "read" ->
      Some
        {
          kind = Read;
          name = "read";
          keys = 120;
          rcs = 1;
          rc_config = None;
          kill_period = None;
        }
  | "restart" ->
      Some
        {
          kind = Restart;
          name = "restart";
          keys = 64;
          rcs = 1;
          rc_config = Some patient;
          kill_period = Some 1_000;
        }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)

let key_name i = Printf.sprintf "k%03d" i
let min_value = 16
let max_value = 1024

type inputs = {
  seed : int;
  nkeys : int;
  lo : int array;  (** Smallest value size of each key... *)
  hi : int array;  (** ...and largest. *)
  preload : string array;
}

(* Each key keeps its values in its own narrow size band; the bands
   tile 16..1024 B and are dealt to keys by a seeded shuffle.  Sizes
   still range over the whole interval, but the live bytes (and with
   them [space_amp]) do not swing with which key happened to be written
   last. *)
let value_for inp rng key n =
  let size = inp.lo.(key) + Random.State.int rng (inp.hi.(key) - inp.lo.(key) + 1) in
  let tag = Printf.sprintf "%s.%d." (key_name key) n in
  let pad = Char.chr (97 + ((n + key) mod 26)) in
  String.init size (fun i -> if i < String.length tag then tag.[i] else pad)

let make_inputs ~seed ~nkeys =
  let rng = Random.State.make [| seed; nkeys |] in
  let perm = Array.init nkeys Fun.id in
  for i = nkeys - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  let band p = min_value + (p * (max_value - min_value + 1) / nkeys) in
  let inp =
    {
      seed;
      nkeys;
      lo = Array.map band perm;
      hi = Array.map (fun p -> band (p + 1) - 1) perm;
      preload = [||];
    }
  in
  { inp with preload = Array.init nkeys (fun k -> value_for inp rng k 0) }

(* One thread's request stream.  Writers own the keys congruent to
   their index, so the last acked value of a key is well defined; the
   two halves together are uniform over the key space.  Readers draw
   from every key. *)
type stream = {
  inp : inputs;
  rng : Random.State.t;
  mine : int array;
  mutable issued : int;
}

let stream spec inp ~thread =
  let tag = match spec.kind with Write -> 1 | Read -> 2 | Restart -> 3 in
  let mine =
    match spec.kind with
    | Read -> Array.init inp.nkeys Fun.id
    | Write | Restart ->
        Array.of_list
          (List.filter
             (fun k -> k mod threads = thread)
             (List.init inp.nkeys Fun.id))
  in
  { inp; rng = Random.State.make [| inp.seed; tag; thread |]; mine; issued = 0 }

type op = Op_put of int * string | Op_get of int

let next_op spec st =
  let key = st.mine.(Random.State.int st.rng (Array.length st.mine)) in
  st.issued <- st.issued + 1;
  match spec.kind with
  | Read -> Op_get key
  | Write | Restart -> Op_put (key, value_for st.inp st.rng key st.issued)

(* ------------------------------------------------------------------ *)
(* Counters read from outside the layers                               *)

let sum_runs netd f =
  List.fold_left (fun acc r -> acc + f r) 0 (Netd.runs netd)

let applied_total netd = sum_runs netd (fun r -> Node_core.applied r.Netd.run_core)
let dup_hits_total netd = sum_runs netd (fun r -> Node_core.dup_hits r.Netd.run_core)

let checkpoints_total netd =
  sum_runs netd (fun r -> Node_core.checkpoints r.Netd.run_core)

type snap = {
  s_cpu : float;
  s_minor : float;
  s_major : int;
  s_io : int;
  s_copied : int;
  s_copies : int;
  s_tlb_miss : int;
  s_phys : int;
  s_ticks : int64;
  s_applied : int;
  s_checkpoints : int;
}

let tlb_misses k =
  Array.fold_left
    (fun acc (c : Machine.core) -> acc + Bi_hw.Tlb.misses c.tlb)
    0 (K.machine k).Machine.cores

let snap server netd =
  let m = K.machine server in
  {
    s_cpu = cpu ();
    s_minor = Clock.minor_words ();
    s_major = (Gc.quick_stat ()).Gc.major_collections;
    s_io = Bi_hw.Device.Disk.io_count m.Machine.disk;
    s_copied = Pkt.copied_bytes ();
    s_copies = Pkt.copies ();
    s_tlb_miss = tlb_misses server;
    s_phys = Bi_hw.Phys_mem.(loads m.Machine.mem + stores m.Machine.mem);
    s_ticks = Bi_hw.Device.Timer.now m.Machine.timer;
    s_applied = applied_total netd;
    s_checkpoints = checkpoints_total netd;
  }

(* ------------------------------------------------------------------ *)
(* Phases of client load                                               *)

type limit = Until of float | Calls of int | Pings of int

type phase = {
  limit : limit;
  traced : bool;
  good : Fbuf.t;  (** 1 if the call succeeded, else 0. *)
  start : Fbuf.t;  (** Clock reading at the call's start... *)
  fin : Fbuf.t;  (** ...and at its end, retries included. *)
  who : Fbuf.t;  (** Calling thread (spans). *)
  mutable ok : int;
  mutable failed : int;
  mutable mismatched : int;  (** Gets answering other than the model. *)
  mutable rc_stats : RC.stats list;
  mutable before : snap option;
  mutable after : snap option;
  mutable sys_server : (int * Sysabi.request * Sysabi.response) list;
  mutable sys_client : (int * Sysabi.request * Sysabi.response) list;
}

let phase ?(traced = false) limit =
  {
    limit;
    traced;
    good = Fbuf.create ();
    fin = Fbuf.create ();
    start = Fbuf.create ();
    who = Fbuf.create ();
    ok = 0;
    failed = 0;
    mismatched = 0;
    rc_stats = [];
    before = None;
    after = None;
    sys_server = [];
    sys_client = [];
  }

let calls ph = ph.ok + ph.failed

let elapsed ph =
  match (ph.before, ph.after) with
  | Some b, Some a -> Clock.scaled b.s_cpu a.s_cpu
  | _ -> nan

let succeeded ph i = Fbuf.get ph.good i > 0.

(* Each call's latency in reference seconds, in call order.  A failed
   call counts as an infinite latency: it misses every latency limit. *)
let scaled_latencies ph =
  let out = Fbuf.create () in
  for i = 0 to Fbuf.length ph.fin - 1 do
    Fbuf.push out
      (if succeeded ph i then
         Clock.scaled (Fbuf.get ph.start i) (Fbuf.get ph.fin i)
       else infinity)
  done;
  out

(* The state one world's clients share: the model of acknowledged
   values and the count of acknowledged puts, for the output checks. *)
type shared = {
  spec : spec;
  inp : inputs;
  model : string option array;
  mutable acked_puts : int;
  streams : stream array;
}

let record ph ~thread ~ok t0 t1 =
  Fbuf.push ph.good (if ok then 1. else 0.);
  Fbuf.push ph.fin t1;
  Fbuf.push ph.start t0;
  Fbuf.push ph.who (float thread)

let do_op sh rc = function
  | Op_put (key, value) -> (
      match RC.put rc ~key:(key_name key) ~value with
      | Ok () ->
          sh.model.(key) <- Some value;
          sh.acked_puts <- sh.acked_puts + 1;
          `Ok
      | Error _ -> `Failed)
  | Op_get key -> (
      match RC.get rc ~key:(key_name key) with
      | Ok v -> if v = sh.model.(key) then `Ok else `Mismatch
      | Error _ -> `Failed)


(* Client ids: unique per (phase, thread, logical client), so every
   phase's clients start fresh sequence numbers without colliding with
   an earlier phase's duplicate-table entries. *)
let client_id ~phase_no ~thread i = 1 + (phase_no * 1000) + (thread * 256) + i
let preload_client = 900_001
let tail_client = 900_002

let new_rc sh s net ~client =
  RC.create ?config:sh.spec.rc_config ~client (Nd_client.clock s)
    (Nd_client.endpoint net)

let count_result ph = function
  | `Ok -> ph.ok <- ph.ok + 1
  | `Failed -> ph.failed <- ph.failed + 1
  | `Mismatch ->
      ph.ok <- ph.ok + 1;
      ph.mismatched <- ph.mismatched + 1

let phase_thread sh ph ~phase_no ~deadline ~thread s =
  let net = Nd_client.make s ~ip:server_ip () in
  (match ph.limit with
  | Pings n ->
      let rc = new_rc sh s net ~client:(client_id ~phase_no ~thread 0) in
      for _ = 1 to n / threads do
        let t0 = cpu () in
        let r = match RC.ping rc with Ok _ -> `Ok | Error _ -> `Failed in
        record ph ~thread ~ok:(r = `Ok) t0 (cpu ());
        count_result ph r
      done
  | Until _ | Calls _ ->
      let rcs =
        Array.init sh.spec.rcs (fun i ->
            new_rc sh s net ~client:(client_id ~phase_no ~thread i))
      in
      let st = sh.streams.(thread) in
      let n = ref 0 in
      let more () =
        match ph.limit with
        | Calls c -> !n < c / threads
        | Until _ -> Sys.time () < deadline
        | Pings _ -> false
      in
      while more () do
        let rc = rcs.(!n mod Array.length rcs) in
        let op = next_op sh.spec st in
        let t0 = cpu () in
        let r = do_op sh rc op in
        record ph ~thread ~ok:(r <> `Failed) t0 (cpu ());
        count_result ph r;
        incr n
      done;
      ph.rc_stats <- Array.to_list (Array.map RC.stats rcs) @ ph.rc_stats);
  Nd_client.close net

(* ------------------------------------------------------------------ *)
(* Worlds                                                              *)

type world = {
  server : K.t;
  client : K.t;
  netd : Netd.t;
  stop : bool ref;  (** Set once the load is over: no more kills. *)
  respawns : (float * float) list ref;
      (** Clock readings at respawn and at serving, kills during the
          load. *)
  probes_at : int ref;  (** Runs that existed before the probes. *)
  probe_times : (float * float) list ref;  (** The same, for the probes. *)
  fresh_free_blocks : int;
}

(* Spawn netd and wait for its run record: netd registers it right after
   [Node_core.recover] returns, so this interval is the recovery a
   respawn costs before it can serve. *)
let respawn w s times =
  let before = List.length (Netd.runs w.netd) in
  let t0 = cpu () in
  match U.spawn s ~prog:"netd" ~arg:"" with
  | Error _ -> failwith "supervisor: spawn netd failed"
  | Ok pid ->
      let waited = ref 0 in
      while List.length (Netd.runs w.netd) = before do
        if !waited > 100_000 then failwith "supervisor: netd never came up";
        U.sleep s 1;
        incr waited
      done;
      times := (t0, cpu ()) :: !times;
      pid

(* The server-side supervisor: owns netd's lifetime.  With a kill
   period it SIGKILLs and respawns netd on that virtual-time period
   until the load is over; either way it reaps the last netd after the
   clients shut it down. *)
let supervisor w spec s _arg =
  match U.spawn s ~prog:"netd" ~arg:"" with
  | Error _ -> failwith "supervisor: spawn netd failed"
  | Ok pid0 ->
      let pid = ref pid0 in
      (match spec.kill_period with
      | None -> ()
      | Some period ->
          while not !(w.stop) do
            U.sleep s period;
            if not !(w.stop) then begin
              ignore (U.kill s ~pid:!pid ~signal:9);
              ignore (U.wait s !pid);
              U.sleep s down_ticks;
              pid := respawn w s w.respawns
            end
          done);
      ignore (U.wait s !pid)

let boot spec =
  let server = K.create ~ip:server_ip () in
  let client = K.create ~ip:client_ip () in
  K.connect server client;
  let netd = Netd.install server in
  let w =
    {
      server;
      client;
      netd;
      stop = ref false;
      respawns = ref [];
      probes_at = ref 0;
      probe_times = ref [];
      fresh_free_blocks = Bi_fs.Fs.free_data_blocks (K.fs server);
    }
  in
  K.register_program server "supervisor" (supervisor w spec);
  ignore (K.spawn server ~prog:"supervisor" ~arg:"");
  w

let run_world w body =
  K.register_program w.client "bench" (fun s _ -> body s);
  ignore (K.spawn w.client ~prog:"bench" ~arg:"");
  K.run_pair w.server w.client

let latest_epoch w =
  match Netd.latest_run w.netd with Some r -> r.Netd.run_epoch | None -> 0

(* Ping until the latest incarnation answers, then deliver [Shutdown]
   until acknowledged; both retried across a respawn in progress. *)
let shutdown w s =
  let net = Nd_client.make ~attempt_ticks:120 s ~ip:server_ip () in
  let rec ping tries =
    if tries > 0 then
      match Nd_client.rpc net P.Ping with
      | Ok (P.Pong { epoch; _ }) when epoch >= latest_epoch w -> ()
      | _ ->
          U.sleep s 10;
          ping (tries - 1)
  in
  ping 200;
  let rec send tries =
    if tries > 0 then
      match Nd_client.rpc net P.Shutdown with
      | Ok P.Done -> ()
      | _ ->
          U.sleep s 10;
          send (tries - 1)
  in
  send 200;
  Nd_client.close net

(* A sequential client for the preload and the tail; every call counts
   toward [attempted], so a refused preload is reported, not skipped. *)
type side = { mutable calls : int; mutable fails : int }

let side_put sh side rc key value =
  side.calls <- side.calls + 1;
  match RC.put rc ~key:(key_name key) ~value with
  | Ok () ->
      sh.model.(key) <- Some value;
      sh.acked_puts <- sh.acked_puts + 1
  | Error _ -> side.fails <- side.fails + 1

let preload sh side s =
  let net = Nd_client.make s ~ip:server_ip () in
  let rc = new_rc sh s net ~client:preload_client in
  Array.iteri (fun k v -> side_put sh side rc k v) sh.inp.preload;
  Nd_client.close net

(* Put (keys in turn) until the journal checkpoints once more, then
   [tail_puts] more: the journal and the space used then no longer
   depend on where the timed phase stopped.  Bounded, because a
   degraded node never checkpoints. *)
let tail w sh side s =
  let net = Nd_client.make s ~ip:server_ip () in
  let rc = new_rc sh s net ~client:tail_client in
  let rng = Random.State.make [| sh.inp.seed; 4 |] in
  let n = ref 0 in
  let put () =
    let key = !n mod sh.inp.nkeys in
    incr n;
    side_put sh side rc key (value_for sh.inp rng key (-(!n)))
  in
  let c0 = checkpoints_total w.netd in
  while checkpoints_total w.netd = c0 && !n < 500 do
    put ()
  done;
  for _ = 1 to tail_puts do
    put ()
  done;
  Nd_client.close net

let run_phase w sh s ph ~phase_no =
  if ph.traced then begin
    K.set_trace w.server true;
    K.set_trace w.client true
  end;
  let before = snap w.server w.netd in
  ph.before <- Some before;
  (* The timed phase lasts [secs] of raw CPU time. *)
  let deadline =
    match ph.limit with Until secs -> Sys.time () +. secs | _ -> infinity
  in
  let tids =
    List.init threads (fun thread ->
        U.thread_create s (fun ts ->
            phase_thread sh ph ~phase_no ~deadline ~thread ts))
  in
  List.iter (fun tid -> ignore (U.thread_join s tid)) tids;
  ph.after <- Some (snap w.server w.netd);
  if ph.traced then begin
    K.set_trace w.server false;
    K.set_trace w.client false;
    ph.sys_server <- K.trace w.server;
    ph.sys_client <- K.trace w.client
  end

(* After the clients are gone: respawn netd [probes] times, timing each
   recovery, killing each incarnation once it serves. *)
let probe_recovery w =
  Gc.compact ();
  w.probes_at := List.length (Netd.runs w.netd);
  K.register_program w.server "probe" (fun s _ ->
      for _ = 1 to probes do
        let pid = respawn w s w.probe_times in
        ignore (U.kill s ~pid ~signal:9);
        ignore (U.wait s pid)
      done);
  ignore (K.spawn w.server ~prog:"probe" ~arg:"");
  K.run w.server

type outcome = {
  o_world : world;
  o_shared : shared;
  o_phases : phase list;
  o_side : side;
  o_setup : (float * float) list;  (** Clock readings around each setup. *)
}

let new_shared spec inp =
  {
    spec;
    inp;
    model = Array.make inp.nkeys None;
    acked_puts = 0;
    streams = Array.init threads (fun thread -> stream spec inp ~thread);
  }

(* Boot, preload and (for all but the last setup) tear down [setups]
   worlds; the last one carries the load phases. *)
let execute spec inp phases =
  let setup_times = ref [] in
  let one ~last =
    let sh = new_shared spec inp in
    let side = { calls = 0; fails = 0 } in
    let t0 = cpu () in
    let w = boot spec in
    run_world w (fun s ->
        preload sh side s;
        setup_times := (t0, cpu ()) :: !setup_times;
        if last then begin
          List.iteri (fun i ph -> run_phase w sh s ph ~phase_no:i) phases;
          w.stop := true;
          tail w sh side s
        end
        else w.stop := true;
        shutdown w s);
    (w, sh, side)
  in
  for _ = 2 to setups do
    ignore (one ~last:false);
    Gc.compact ()
  done;
  let w, sh, side = one ~last:true in
  {
    o_world = w;
    o_shared = sh;
    o_phases = phases;
    o_side = side;
    o_setup = !setup_times;
  }

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)

let durable_contents w = Node_core.mem_contents (Node_core.fs_store (K.fs w.server))

let model_contents sh =
  List.sort compare
    (List.filter_map Fun.id
       (Array.to_list
          (Array.mapi
             (fun k v -> Option.map (fun v -> (key_name k, v)) v)
             sh.model)))

let checks o =
  let w = o.o_world and sh = o.o_shared in
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let failed = List.fold_left (fun a ph -> a + ph.failed) o.o_side.fails o.o_phases in
  List.iter
    (fun ph ->
      if ph.mismatched > 0 then
        fail "%d get(s) answered other than the last acked value" ph.mismatched)
    o.o_phases;
  (match Netd.latest_run w.netd with
  | Some r when r.Netd.finished -> ()
  | _ -> fail "netd did not shut down cleanly");
  let applied = applied_total w.netd in
  if applied <> sh.acked_puts then
    fail "applied %d mutations for %d acked puts" applied sh.acked_puts;
  if durable_contents w <> model_contents sh then
    fail "durable store differs from the last acked value per key";
  if sh.spec.kind = Restart then begin
    if failed > 0 then fail "%d call(s) failed across respawns" failed;
    if List.length (Netd.runs w.netd) < 2 then fail "netd was never respawned"
  end
  else if List.length (Netd.runs w.netd) <> 1 then
    fail "netd restarted during a workload without kills";
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let live_bytes sh =
  Array.fold_left
    (fun acc (k, v) -> acc + String.length k + String.length v)
    0
    (Array.of_list (model_contents sh))

let used_blocks w = w.fresh_free_blocks - Bi_fs.Fs.free_data_blocks (K.fs w.server)

let per_op ph f =
  match (ph.before, ph.after) with
  | Some b, Some a -> f b a /. float (max 1 (calls ph))
  | _ -> nan

let us x = x *. 1e6

let scaled_median intervals =
  median (List.map (fun (a, b) -> Clock.scaled a b) intervals)

(* Throughput is taken per slice of the timed phase and the median
   slice reported, so a stretch of interference the scaling misses moves
   a few slices, not the result.  In a closed loop each thread is always
   in a call, so a slice's rate is [threads] × its successful calls over
   the (scaled) time its calls took.  Latency quantiles are over every
   call. *)
let slices = 20

let timed_metrics ph =
  let start, stop =
    match (ph.before, ph.after) with
    | Some b, Some a -> (b.s_cpu, a.s_cpu)
    | _ -> (nan, nan)
  in
  let len = (stop -. start) /. float slices in
  let ok = Array.make slices 0 and busy = Array.make slices 0. in
  let lat = Fbuf.create () in
  for i = 0 to Fbuf.length ph.fin - 1 do
    let fin = Fbuf.get ph.fin i in
    let d = Clock.scaled (Fbuf.get ph.start i) fin in
    let good = succeeded ph i in
    Fbuf.push lat (if good then d else infinity);
    let w = max 0 (min (slices - 1) (int_of_float ((fin -. start) /. len))) in
    busy.(w) <- busy.(w) +. d;
    if good then ok.(w) <- ok.(w) + 1
  done;
  let rate w = float (threads * ok.(w)) /. busy.(w) in
  let sorted = Fbuf.sorted lat in
  (median (List.init slices rate), quantile sorted 0.5, quantile sorted 0.99)

let end_to_end o ~space_amp =
  let ph = List.hd o.o_phases in
  let rate, p50, p99 = timed_metrics ph in
  let attempted = o.o_side.calls + calls ph in
  let failed = o.o_side.fails + ph.failed in
  let heap_mb =
    float (Gc.quick_stat ()).Gc.top_heap_words
    *. float (Sys.word_size / 8)
    /. 1048576.
  in
  ( attempted,
    failed,
    [
      ("ops_per_cpu_s", rate, "1/s");
      ("lat_p50_us", us p50, "us");
      ("lat_p99_us", us p99, "us");
      ("ok_ratio", 1. -. (float failed /. float (max 1 attempted)), "ratio");
      ("setup_s", scaled_median o.o_setup, "s");
      ("recovery_ms", scaled_median !(o.o_world.probe_times) *. 1e3, "ms");
      ("space_amp", space_amp, "ratio");
      ("heap_peak_mb", heap_mb, "MiB");
    ] )

(* Syscall classes of [Kernel.trace].  A blocking call is logged once,
   when it parks, so one event is one syscall. *)
let syscall_class : Sysabi.request -> string = function
  | Open _ | Close _ | Read _ | Write _ | Seek _ | Fstat _ | Mkdir _ | Unlink _
  | Rmdir _ | Readdir _ | Fsync _ | Rename _ ->
      "fs"
  | Tcp_listen _ | Tcp_connect _ | Tcp_accept _ | Tcp_send _ | Tcp_recv _
  | Tcp_close _ ->
      "tcp"
  | Futex_wait _ | Futex_wake _ -> "futex"
  | Sleep _ -> "sleep"
  | _ -> "other"

(* Replay traced syscalls through the ABI codec, as the kernel's
   dispatcher does on every call; median of five passes. *)
let codec_seconds events =
  let pass () =
    let t0 = cpu () in
    List.iter
      (fun (_, req, resp) ->
        ignore (Sysabi.decode_request (Sysabi.encode_request req));
        ignore (Sysabi.decode_response (Sysabi.encode_response resp)))
      events;
    (t0, cpu ())
  in
  let passes = List.init 5 (fun _ -> pass ()) in
  median (List.map (fun (a, b) -> Clock.scaled a b) passes)

(* ---- Node_core replay: spans around the store and journal ---------- *)

type acc = { mutable t : float; mutable n : int; mutable bytes : int }

type accs = {
  load : acc;
  save : acc;
  remove : acc;
  listing : acc;
  jread : acc;
  append : acc;
  replace : acc;
}

let new_accs () =
  let a () = { t = 0.; n = 0; bytes = 0 } in
  {
    load = a ();
    save = a ();
    remove = a ();
    listing = a ();
    jread = a ();
    append = a ();
    replace = a ();
  }

let store_time a = a.load.t +. a.save.t +. a.remove.t +. a.listing.t
let journal_time a = a.jread.t +. a.append.t +. a.replace.t

(* Spans are charged to whichever accumulator set is current, so
   preload, steady-state handling and recoveries are kept apart. *)
let timed cur pick f =
  let t0 = cpu () in
  let r = f () in
  let a = pick !cur in
  a.t <- a.t +. (cpu () -. t0);
  a.n <- a.n + 1;
  r

let wrap_store cur (st : Node_core.store) : Node_core.store =
  {
    load = (fun k -> timed cur (fun a -> a.load) (fun () -> st.load k));
    save = (fun k v -> timed cur (fun a -> a.save) (fun () -> st.save k v));
    remove = (fun k -> timed cur (fun a -> a.remove) (fun () -> st.remove k));
    keys = (fun () -> timed cur (fun a -> a.listing) st.keys);
  }

let wrap_sink cur (sk : Journal.sink) : Journal.sink =
  {
    sink_read = (fun () -> timed cur (fun a -> a.jread) sk.sink_read);
    sink_append =
      (fun b ->
        (!cur).append.bytes <- (!cur).append.bytes + Bytes.length b;
        timed cur (fun a -> a.append) (fun () -> sk.sink_append b));
    sink_replace =
      (fun b -> timed cur (fun a -> a.replace) (fun () -> sk.sink_replace b));
  }

type replay = {
  r_ops : int;
  r_handle : float;  (** Clock seconds in [Node_core.handle]. *)
  r_steady : accs;
  r_recover : accs;
  r_recoveries : int;
  r_scale : float;
      (** Reference seconds per clock second over the replay: every
          replay time is multiplied by it. *)
  r_bad : int;  (** Responses other than the expected success. *)
}

(* The seeded request stream, with its preload, through [Node_core.handle]
   inside a process on a fresh kernel, over netd's own persistence
   ([Storage_node.usys_store] / [usys_journal]).  [recover_every] > 0
   drops the core every that many requests and recovers a new one from
   the journal, as a respawn does; otherwise one recovery runs at the
   end. *)
let replay spec inp ~ops ~recover_every =
  let k = K.create () in
  let pre = new_accs () and steady = new_accs () and rec_ = new_accs () in
  let cur = ref pre in
  let out = ref None in
  K.register_program k "replay" (fun s _ ->
      ignore (U.mkdir s "/blocks");
      let store = wrap_store cur (Storage_node.usys_store s) in
      let fresh () =
        Node_core.create
          ~journal:(Journal.create (wrap_sink cur (Storage_node.usys_journal s)))
          store
      in
      let recover () =
        cur := rec_;
        let c = fresh () in
        ignore (Node_core.recover c);
        cur := steady;
        c
      in
      let began = cpu () in
      let core = ref (fresh ()) in
      ignore (Node_core.recover !core);
      let seqs = Hashtbl.create 256 in
      let txn client =
        let seq = 1 + Option.value ~default:0 (Hashtbl.find_opt seqs client) in
        Hashtbl.replace seqs client seq;
        Some { P.client; seq }
      in
      let put ~client key value =
        P.Put { key = key_name key; value; crc = P.crc32 value; txn = txn client }
      in
      Array.iteri
        (fun key v -> ignore (Node_core.handle !core (put ~client:preload_client key v)))
        inp.preload;
      cur := steady;
      let streams = Array.init threads (fun thread -> stream spec inp ~thread) in
      let handle = ref 0. and bad = ref 0 in
      let recoveries = ref 0 in
      let recover_now () =
        core := recover ();
        incr recoveries
      in
      for i = 0 to ops - 1 do
        let thread = i mod threads in
        let req =
          match next_op spec streams.(thread) with
          | Op_put (key, value) ->
              let client =
                client_id ~phase_no:0 ~thread (i / threads mod spec.rcs)
              in
              put ~client key value
          | Op_get key -> P.Get (key_name key)
        in
        let t0 = cpu () in
        let resp = Node_core.handle !core req in
        handle := !handle +. (cpu () -. t0);
        (match (req, resp) with
        | P.Put _, P.Done | P.Get _, P.Value _ -> ()
        | _ -> incr bad);
        if recover_every > 0 && (i + 1) mod recover_every = 0 then
          recover_now ()
      done;
      if recover_every = 0 then recover_now ();
      let ended = cpu () in
      out :=
        Some
          {
            r_ops = ops;
            r_handle = !handle;
            r_steady = steady;
            r_recover = rec_;
            r_recoveries = !recoveries;
            r_scale = Clock.scaled began ended /. (ended -. began);
            r_bad = !bad;
          });
  ignore (K.spawn k ~prog:"replay" ~arg:"");
  K.run k;
  match !out with Some r -> r | None -> failwith "replay did not finish"

let per_layer o ~count ~traced ~pings ~rp =
  let w = o.o_world in
  let n = float (calls count) in
  let d f = per_op count f in
  let stats = count.rc_stats in
  let sum f = float (List.fold_left (fun a st -> a + f st) 0 stats) in
  let ops = float (max 1 (calls traced)) in
  let classes evs c =
    float (List.length (List.filter (fun (_, r, _) -> syscall_class r = c) evs))
    /. ops
  in
  (* Requests per worker index, summed over every incarnation. *)
  let served =
    List.fold_left
      (fun acc r -> List.map2 ( + ) acc (Array.to_list r.Netd.served))
      (List.init Netd.default_config.workers (fun _ -> 0))
      (Netd.runs w.netd)
  in
  let smax = List.fold_left max 0 served
  and smin = List.fold_left min max_int served in
  let rate ph = float ph.ok /. elapsed ph in
  let rops = float rp.r_ops in
  let rus x = us (x *. rp.r_scale) in
  let st = rp.r_steady in
  let probed =
    List.filteri (fun i _ -> i >= !(w.probes_at)) (Netd.runs w.netd)
  in
  let respawns = !(w.respawns) in
  [
    ( "resilient_client.attempts_per_op",
      sum (fun s -> s.RC.attempts) /. n,
      "count" );
    ("resilient_client.retries_per_kop", sum (fun s -> s.RC.retries) *. 1e3 /. n, "count");
    ( "nd_client.ping_us",
      us (quantile (Fbuf.sorted (scaled_latencies pings)) 0.5),
      "us" );
    ("kernel.server.syscalls_per_op", float (List.length traced.sys_server) /. ops, "count");
    ("kernel.client.syscalls_per_op", float (List.length traced.sys_client) /. ops, "count");
    ("kernel.server.fs_syscalls_per_op", classes traced.sys_server "fs", "count");
    ("kernel.server.tcp_syscalls_per_op", classes traced.sys_server "tcp", "count");
    ("kernel.server.futex_syscalls_per_op", classes traced.sys_server "futex", "count");
    ("kernel.server.sleep_syscalls_per_op", classes traced.sys_server "sleep", "count");
    ( "sysabi.codec_us_per_op",
      us (codec_seconds (traced.sys_server @ traced.sys_client)) /. ops,
      "us" );
    ("pkt.copied_bytes_per_op", d (fun b a -> float (a.s_copied - b.s_copied)), "B");
    ("pkt.copies_per_op", d (fun b a -> float (a.s_copies - b.s_copies)), "count");
    ( "req_queue.high_water",
      float
        (List.fold_left
           (fun a r -> max a r.Netd.queue_high_water)
           0 (Netd.runs w.netd)),
      "count" );
    ("netd.served_max_over_min", float smax /. float (max 1 smin), "ratio");
    ("node_core.handle_us_per_op", rus rp.r_handle /. rops, "us");
    ( "node_core.self_us_per_op",
      rus (rp.r_handle -. store_time st -. journal_time st) /. rops,
      "us" );
    ("node_core.applied_per_op", d (fun b a -> float (a.s_applied - b.s_applied)), "count");
    ("node_core.dup_hits", float (dup_hits_total w.netd), "count");
    ( "node_core.checkpoints_per_kop",
      d (fun b a -> float (a.s_checkpoints - b.s_checkpoints)) *. 1e3,
      "count" );
    ( "node_core.recover_records",
      median
        (List.map
           (fun r -> float r.Netd.run_recovery.Node_core.r_records)
           probed),
      "count" );
    ("netd.respawns", float (List.length respawns), "count");
    ( "netd.respawn_recovery_ms",
      (if respawns = [] then 0. else scaled_median respawns *. 1e3),
      "ms" );
    ("journal.append_us_per_op", rus st.append.t /. rops, "us");
    ( "journal.replace_us_per_checkpoint",
      (if st.replace.n = 0 then 0. else rus st.replace.t /. float st.replace.n),
      "us" );
    ( "journal.read_us_per_recovery",
      rus rp.r_recover.jread.t /. float (max 1 rp.r_recoveries),
      "us" );
    ("journal.bytes_per_op", float st.append.bytes /. rops, "B");
    ("storage_node.save_us_per_op", rus st.save.t /. rops, "us");
    ("storage_node.load_us_per_op", rus st.load.t /. rops, "us");
    ("block_dev.io_per_op", d (fun b a -> float (a.s_io - b.s_io)), "count");
    ("fs.used_blocks", float (used_blocks w), "count");
    ("mmu.tlb_miss_per_op", d (fun b a -> float (a.s_tlb_miss - b.s_tlb_miss)), "count");
    ("mmu.phys_accesses_per_op", d (fun b a -> float (a.s_phys - b.s_phys)), "count");
    ("gc.minor_words_per_op", d (fun b a -> a.s_minor -. b.s_minor), "words");
    ( "gc.major_collections_per_kop",
      d (fun b a -> float (a.s_major - b.s_major)) *. 1e3,
      "count" );
    ("vt.ticks_per_op", d (fun b a -> Int64.to_float (Int64.sub a.s_ticks b.s_ticks)), "ticks");
    ("trace.untraced_ops_per_cpu_s", rate count, "1/s");
    ("trace.traced_ops_per_cpu_s", rate traced, "1/s");
    ("trace.overhead_pct", (rate count -. rate traced) /. rate count *. 100., "%");
  ]

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~errs ~attempted ~failed metrics =
  let bad =
    List.filter_map
      (fun (name, v, _) ->
        if Float.is_finite v then None else Some (name ^ " is not finite"))
      metrics
  in
  let errs = errs @ bad in
  List.iter (fun e -> Printf.eprintf "CHECK FAILED: %s\n" e) errs;
  let correct = errs = [] in
  if correct then
    List.iter
      (fun (name, v, unit) -> Printf.eprintf "%-40s %14.4f %s\n" name v unit)
      metrics;
  let body =
    if correct then
      String.concat ", "
        (List.map
           (fun (name, v, unit) ->
             Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
               (json_number v) unit)
           metrics)
    else ""
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body;
  if not correct then exit 1

(* One line per call of the phase: op index, thread, clock reading at
   the start, and the scaled duration (inf for a failed call). *)
let write_spans path ph =
  let oc = open_out path in
  let dur = scaled_latencies ph in
  output_string oc "op\tthread\tstart_us\tdur_us\n";
  for i = 0 to Fbuf.length ph.fin - 1 do
    Printf.fprintf oc "%d\t%.0f\t%.3f\t%.3f\n" i (Fbuf.get ph.who i)
      (us (Fbuf.get ph.start i))
      (us (Fbuf.get dur i))
  done;
  close_out oc

let totals o =
  List.fold_left
    (fun (a, f) ph -> (a + calls ph, f + ph.failed))
    (o.o_side.calls, o.o_side.fails)
    o.o_phases

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and keys = ref 0 and spans = ref "" and plant = ref false in
  let usage =
    "hostbench --workload write|read|restart --seed N --seconds S --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "write, read or restart");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "length of the timed phase");
      ("--trace", Arg.Set_int trace, "1: traced run, per-layer metrics");
      ("--keys", Arg.Set_int keys, "override the workload's key count");
      ("--spans", Arg.Set_string spans, "write the traced run's client spans here");
      ( "--plant-wrong-value",
        Arg.Set plant,
        "corrupt the model of key 0 before the checks (self-test)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let spec =
    match spec_of_name !workload with
    | Some s -> s
    | None ->
        prerr_endline usage;
        exit 2
  in
  let spec = if !keys > 0 then { spec with keys = !keys } else spec in
  let inp = make_inputs ~seed:!seed ~nkeys:spec.keys in
  Clock.warm_up ();
  let finish o =
    if !plant then o.o_shared.model.(0) <- Some "planted-wrong-value";
    let errs = checks o in
    let space_amp =
      float (used_blocks o.o_world * Bi_fs.Block_dev.block_size)
      /. float (max 1 (live_bytes o.o_shared))
    in
    probe_recovery o.o_world;
    (errs, space_amp)
  in
  if !trace = 0 then begin
    let o = execute spec inp [ phase (Until !seconds) ] in
    let errs, space_amp = finish o in
    let attempted, failed, metrics = end_to_end o ~space_amp in
    let ph = List.hd o.o_phases in
    Printf.eprintf
      "%s seed %d: %d timed calls (latency samples), %d netd runs, %d \
       in-load respawns, %d acked puts, %d clock loops\n"
      spec.name !seed (calls ph)
      (List.length (Netd.runs o.o_world.netd))
      (List.length !(o.o_world.respawns))
      o.o_shared.acked_puts (Fbuf.length Clock.took);
    print_result ~errs ~attempted ~failed metrics
  end
  else begin
    let count = phase (Calls count_ops) in
    let traced = phase ~traced:true (Calls count_ops) in
    let pings = phase (Pings 400) in
    let o = execute spec inp [ count; traced; pings ] in
    let errs, _ = finish o in
    let rp =
      replay spec inp ~ops:count_ops
        ~recover_every:(if spec.kind = Restart then 100 else 0)
    in
    let errs =
      if rp.r_bad > 0 then
        errs @ [ Printf.sprintf "replay: %d unexpected responses" rp.r_bad ]
      else errs
    in
    if !spans <> "" then write_spans !spans traced;
    let attempted, failed = totals o in
    print_result ~errs ~attempted ~failed (per_layer o ~count ~traced ~pings ~rp)
  end
