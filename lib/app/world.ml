module P = Protocol
module RC = Resilient_client
module FL = Bi_fault.Faulty_link

(* ================================================================== *)
(* Virtual-time fiber scheduler                                        *)
(*                                                                     *)
(* Client fibers perform [Sleep] effects; the scheduler resumes them   *)
(* in deterministic (time, spawn-order) order and advances the world   *)
(* one round at a time between quiescent points.  Virtual time is the  *)
(* only clock anywhere in the suites, so runs are replayable.          *)

module Sim = struct
  type _ Effect.t += Sleep : int -> unit Effect.t

  let sleep n = Effect.perform (Sleep n)

  type entry = { wake : int; seq : int; resume : unit -> unit }
  type sched = { mutable now : int; mutable queue : entry list;
                 mutable seqno : int }

  let make () = { now = 0; queue = []; seqno = 0 }
  let now s = s.now

  let enqueue s wake resume =
    s.seqno <- s.seqno + 1;
    let e = { wake; seq = s.seqno; resume } in
    let rec ins = function
      | [] -> [ e ]
      | hd :: tl ->
          if (e.wake, e.seq) < (hd.wake, hd.seq) then e :: hd :: tl
          else hd :: ins tl
    in
    s.queue <- ins s.queue

  let spawn s fiber =
    let run () =
      Effect.Deep.match_with fiber ()
        {
          retc = (fun () -> ());
          exnc = raise;
          effc =
            (fun (type b) (eff : b Effect.t) ->
              match eff with
              | Sleep n ->
                  Some
                    (fun (k : (b, unit) Effect.Deep.continuation) ->
                      enqueue s (s.now + max 1 n) (fun () ->
                          Effect.Deep.continue k ()))
              | _ -> None);
        }
    in
    enqueue s s.now run

  let run ?(max_rounds = 100_000) ~tick s =
    let rec loop () =
      match s.queue with
      | [] -> s.now
      | e :: rest when e.wake <= s.now ->
          s.queue <- rest;
          e.resume ();
          loop ()
      | _ ->
          if s.now >= max_rounds then failwith "sim: round bound exceeded";
          s.now <- s.now + 1;
          tick ();
          loop ()
    in
    loop ()
end

(* ================================================================== *)
(* Histories, checked against the one store specification              *)

module Lin = Bi_core.Linearizability.Make (Store_spec)

type recorder = {
  mutable calls : Lin.call list;
  mutable errors : string list;
}

let recorder () = { calls = []; errors = [] }

let record rc ~now proc op run =
  let inv = now () in
  match run () with
  | Ok ret ->
      let res = max (inv + 1) (now ()) in
      rc.calls <- { Lin.proc; op; ret; inv; res } :: rc.calls
  | Error msg -> rc.errors <- msg :: rc.errors

let linearizable rc = Lin.check ~init:Store_spec.empty (List.rev rc.calls)

let acked_mutations rc =
  List.length
    (List.filter
       (fun call ->
         match (call.Lin.op, call.Lin.ret) with
         | Store_spec.Put _, _ -> true
         | Store_spec.Delete _, Store_spec.Deleted b -> b
         | _ -> false)
       rc.calls)

type ops = {
  put : key:string -> value:string -> (unit, string) result;
  get : key:string -> (string option, string) result;
  delete : key:string -> (bool, string) result;
}

let client_ops cl =
  let err r = Result.map_error (Format.asprintf "%a" RC.pp_error) r in
  {
    put = (fun ~key ~value -> err (RC.put cl ~key ~value));
    get = (fun ~key -> err (RC.get cl ~key));
    delete = (fun ~key -> err (RC.delete cl ~key));
  }

let lin_op rc ~now ops ~proc ~i ~deletes ~key ~value =
  let record = record rc ~now proc in
  let get () =
    record (Store_spec.Get key) (fun () ->
        Result.map (fun v -> Store_spec.Value v) (ops.get ~key))
  in
  match (i + (2 * proc)) mod 4 with
  | 0 | 1 ->
      record (Store_spec.Put (key, value)) (fun () ->
          Result.map (fun () -> Store_spec.Done) (ops.put ~key ~value))
  | 2 -> get ()
  | _ when deletes ->
      record (Store_spec.Delete key) (fun () ->
          Result.map (fun b -> Store_spec.Deleted b) (ops.delete ~key))
  | _ -> get ()

(* ================================================================== *)
(* The request/response wire                                           *)

type wire = {
  sched : Sim.sched;
  pending : (int, P.resp option ref) Hashtbl.t;
  mutable next_id : int;
}

let wire sched = { sched; pending = Hashtbl.create 64; next_id = 1 }

let fresh_id w =
  let id = w.next_id in
  w.next_id <- id + 1;
  id

let endpoint w ~name req_ch ~attempt_timeout : RC.endpoint =
  {
    RC.name;
    rpc =
      (fun req ->
        let id = fresh_id w in
        let slot = ref None in
        Hashtbl.replace w.pending id slot;
        FL.send req_ch (P.seal ~id (P.encode_req req));
        let deadline = w.sched.Sim.now + attempt_timeout in
        let rec wait () =
          match !slot with
          | Some resp -> Ok resp
          | None ->
              if w.sched.Sim.now >= deadline then begin
                Hashtbl.remove w.pending id;
                Error "attempt timed out"
              end
              else begin
                Sim.sleep 1;
                wait ()
              end
        in
        wait ());
  }

let deliver w resp_ch =
  List.iter
    (fun frame ->
      match P.unseal frame with
      | None -> ()
      | Some (id, body) -> (
          match P.decode_resp body ~off:0 with
          | None -> ()
          | Some (resp, _) -> (
              match Hashtbl.find_opt w.pending id with
              | Some slot ->
                  slot := Some resp;
                  Hashtbl.remove w.pending id
              | None -> ())))
    (FL.step resp_ch)

let clock w = { RC.now = (fun () -> w.sched.Sim.now); sleep = Sim.sleep }

let patient_config seed =
  {
    RC.max_attempts = 10;
    backoff_base = 2;
    backoff_cap = 8;
    jitter_pm = 1;
    breaker_threshold = 10_000;
    breaker_cooldown = 50;
    deadline = 2_000;
    seed;
  }
