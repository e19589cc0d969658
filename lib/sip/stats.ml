(** Server statistics counters — partly racy by design (§4.1 bug B6).

    The "proper" counters are guarded by a mutex.  The "fast path"
    counters are plain unsynchronised read-modify-write increments from
    every worker thread, a classic real data race that the detector
    must report in every configuration. *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api
module Metrics = Raceguard_obs.Metrics

let lc = Loc.site "stats.cpp" "Stats::"

type t = {
  base : int;  (** block of counter words *)
  mutex : Api.Mutex.t;  (** guards only the "locked" counters *)
}

(* word offsets *)
let total_requests = 0  (* racy *)
let total_responses = 1  (* racy *)
let parse_errors = 2  (* racy *)
let lines_logged = 3  (* racy; also the shutdown-race target (B3) *)
let active_calls = 4  (* locked *)
let registered_users = 5  (* locked *)
let method_base = 6  (* 6 racy per-method counters (INVITE..OPTIONS) *)
let n_counters = 12

(* Host-side mirror in the metrics registry: reading the counters out
   of VM memory would emit detector-visible events (and for the racy
   words, warnings), so observers read [sip.stats.*] from the registry
   instead, maintained at the increment sites without any VM traffic.
   The racy VM words can lose updates by design; the mirror counts
   every call, so it is also the ground truth the lost-update bug can
   be measured against. *)
let metric_name counter =
  match counter with
  | 0 -> "sip.stats.total_requests"
  | 1 -> "sip.stats.total_responses"
  | 2 -> "sip.stats.parse_errors"
  | 3 -> "sip.stats.lines_logged"
  | 4 -> "sip.stats.active_calls"
  | 5 -> "sip.stats.registered_users"
  | 6 -> "sip.stats.method_invite"
  | 7 -> "sip.stats.method_ack"
  | 8 -> "sip.stats.method_bye"
  | 9 -> "sip.stats.method_cancel"
  | 10 -> "sip.stats.method_register"
  | 11 -> "sip.stats.method_options"
  | _ -> "sip.stats.unknown"

type mirror = C of Metrics.counter | G of Metrics.gauge

let mirrors =
  Array.init n_counters (fun i ->
      if i = active_calls || i = registered_users then G (Metrics.gauge (metric_name i))
      else C (Metrics.counter (metric_name i)))

let mirror_adjust counter delta =
  match mirrors.(counter) with
  | C c -> Metrics.add c delta
  | G g -> Metrics.set g (Metrics.gauge_value g + delta)

let create () =
  {
    base = Api.alloc ~loc:(lc "Stats" 10) n_counters;
    mutex = Api.Mutex.create ~loc:(lc "Stats" 11) "stats.mutex";
  }

(** The racy fast-path increment: unlocked load + store. *)
let bump_racy t counter ~loc =
  mirror_adjust counter 1;
  let addr = t.base + counter in
  let v = Api.read ~loc addr in
  Api.write ~loc addr (v + 1)

let incr_total_requests t = bump_racy t total_requests ~loc:(lc "onRequest" 20)

(** Per-method counter, bumped from inside each handler — six more
    unsynchronised increment sites (each with its own handler stack). *)
let incr_method t ~meth_code =
  if meth_code >= 1 && meth_code <= 6 then
    bump_racy t (method_base + meth_code - 1) ~loc:(lc "onMethod" 22)
let incr_total_responses t = bump_racy t total_responses ~loc:(lc "onResponse" 24)
let incr_parse_errors t = bump_racy t parse_errors ~loc:(lc "onParseError" 28)
let incr_lines_logged t = bump_racy t lines_logged ~loc:(lc "onLogLine" 32)

(** The correctly locked counters (mirrored as registry gauges: they go
    up and down, so a monotonic counter would be wrong). *)
let adjust_locked t counter delta ~loc =
  mirror_adjust counter delta;
  Api.Mutex.with_lock ~loc t.mutex (fun () ->
      let addr = t.base + counter in
      Api.write ~loc addr (Api.read ~loc addr + delta))

let incr_active_calls t = adjust_locked t active_calls 1 ~loc:(lc "callStarted" 42)
let decr_active_calls t = adjust_locked t active_calls (-1) ~loc:(lc "callEnded" 44)
let incr_registered t = adjust_locked t registered_users 1 ~loc:(lc "userRegistered" 46)
let decr_registered t = adjust_locked t registered_users (-1) ~loc:(lc "userUnregistered" 48)

let get t counter ~loc = Api.read ~loc (t.base + counter)

(** Free the counter block — part of the shutdown-order bug (B3): the
    main thread destroys the statistics while the logger thread is
    still bumping [lines_logged]. *)
let destroy t ~annotate =
  if annotate then Api.hg_destruct ~addr:t.base ~len:n_counters;
  Api.free ~loc:(lc "~Stats" 58) t.base
