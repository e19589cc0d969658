(** The application's home-grown deadlock detector — itself racy.

    "One of the first reported data races was in the application's
    deadlock detection code.  Unfortunately, this code was not easy to
    change in order to remove the race condition.  Therefore, it was
    disabled for further experiments." (§4.1)

    The pattern: every lock acquisition writes who-is-waiting-for-what
    into a global watch table {e without synchronisation} (taking the
    very lock being watched would deadlock...), and a watchdog thread
    periodically scans the table looking for threads stuck too long.
    The table accesses are genuine data races. *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api

let lc = Loc.site "lock_watch.cpp" "LockWatch::"

let max_slots = 64

type t = {
  table : int;  (** [max_slots] words: waiting-since clock per thread, 0 = idle *)
  stop_flag : int;
  timeout : int;
  mutable thread : int;
  mutable alarms : (int * int) list;  (** (tid, waited) — host-side findings *)
}

let create ~timeout =
  let table = Api.alloc ~loc:(lc "LockWatch" 30) max_slots in
  let stop_flag = Api.alloc ~loc:(lc "LockWatch" 31) 1 in
  { table; stop_flag; timeout; thread = -1; alarms = [] }

(** Called by [GuardedMutex::lock] just before blocking: record the
    wait start.  Unsynchronised write — bug B1. *)
let before_lock t =
  let tid = Api.self () in
  if tid < max_slots then Api.write ~loc:(lc "beforeLock" 39) (t.table + tid) (Api.now ())

(** Called after the lock is acquired: clear the slot.  Also racy. *)
let after_lock t =
  let tid = Api.self () in
  if tid < max_slots then Api.write ~loc:(lc "afterLock" 45) (t.table + tid) 0

let scan t =
  let now = Api.now () in
  for tid = 0 to max_slots - 1 do
    (* unsynchronised read of a slot another thread writes — bug B1 *)
    let since = Api.read ~loc:(lc "scan" 52) (t.table + tid) in
    if since > 0 && now - since > t.timeout then t.alarms <- (tid, now - since) :: t.alarms
  done

let run t () =
  Api.with_frame (lc "run" 58) @@ fun () ->
  while Api.read ~loc:(lc "run" 59) t.stop_flag = 0 do
    scan t;
    Api.sleep 20
  done

let start t = t.thread <- Api.spawn ~loc:(lc "start" 65) ~name:"lock-watchdog" (run t)
let stop t = ignore (Api.atomic_rmw ~loc:(lc "stop" 66) t.stop_flag (fun _ -> 1))
let join t = if t.thread >= 0 then Api.join ~loc:(lc "join" 67) t.thread
let alarms t = t.alarms
