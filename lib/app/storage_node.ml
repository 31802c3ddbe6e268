let port = 9000

(* One log per process, kept with the process, so [usys_store s] and
   [usys_journal s] share it however they are built, and it is dropped
   when the process exits. *)
type Bi_kernel.Kernel.local += Node_log of Node_files.log

let usys_log s =
  let module K = Bi_kernel.Kernel in
  match K.find_local s (function Node_log l -> Some l | _ -> None) with
  | Some log -> log
  | None ->
      let log = Node_files.log (Node_files.of_usys s) in
      K.add_local s (Node_log log);
      log

let usys_store s = Node_files.store (usys_log s)
let usys_journal s = Node_files.sink (usys_log s)
