(** The routing table: next-hop selection, guarded by a POSIX
    read-write lock.

    The original Helgrind had {e no} support for
    [pthread_rwlock_t] — "an extension for read-write locks that is
    presented in the original Eraser algorithm is not implemented in
    Helgrind" (§2.3.2) — so every access to rwlock-protected data
    looked unprotected and was reported.  Implementing the corrected
    hardware-bus-lock model required read-write lock-sets, after which
    "support for the corresponding POSIX API could be added easily"
    (§3.1): the HWLC configuration understands these events and the
    warnings disappear.

    Workers take the lock in read mode on every routed request; a
    route-refresh pass (run from the housekeeping timer) takes it in
    write mode. *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api
module Refstring = Raceguard_cxxsim.Refstring

let lc = Loc.site "routing.cpp" "RouteTable::"

let max_routes = 8

type t = {
  rwlock : Api.Rwlock.t;
  base : int;  (** max_routes × 3 words: [domain_hash; next_hop; cost] *)
  default_gw : Refstring.t;  (** shared gateway name *)
  mutable refreshes : int;
}

let entry t i = t.base + (3 * i)

let create ~domains =
  let loc = lc "RouteTable" 30 in
  let t =
    {
      rwlock = Api.Rwlock.create ~loc "routing.rwlock";
      base = Api.alloc ~loc (max_routes * 3);
      default_gw = Refstring.create ~loc "gw1.core.example.net";
      refreshes = 0;
    }
  in
  List.iteri
    (fun i d ->
      if i < max_routes then begin
        Api.write ~loc:(lc "RouteTable" 41) (entry t i) (Registrar.hash_string d);
        Api.write ~loc:(lc "RouteTable" 42) (entry t i + 1) (100 + i);
        Api.write ~loc:(lc "RouteTable" 43) (entry t i + 2) 10
      end)
    domains;
  t

(** Select the next hop for a domain: read-locked table scan plus a
    copy of the shared gateway banner. *)
let next_hop t ~domain =
  let loc = lc "nextHop" 52 in
  Api.with_frame loc @@ fun () ->
  Api.Rwlock.with_rdlock ~loc t.rwlock @@ fun () ->
  let key = Registrar.hash_string domain in
  let rec scan i =
    if i >= max_routes then None
    else
      let h = Api.read ~loc:(lc "nextHop" 58) (entry t i) in
      if h = key then begin
        let hop = Api.read ~loc:(lc "nextHop" 60) (entry t i + 1) in
        let cost = Api.read ~loc:(lc "nextHop" 61) (entry t i + 2) in
        let gw = Refstring.copy t.default_gw in
        let name = Refstring.to_string gw in
        Refstring.release gw;
        Some (hop, cost, name)
      end
      else scan (i + 1)
  in
  scan 0

(** Periodic refresh: write-locked cost update. *)
let refresh t =
  let loc = lc "refresh" 73 in
  Api.with_frame loc @@ fun () ->
  Api.Rwlock.with_wrlock ~loc t.rwlock @@ fun () ->
  t.refreshes <- t.refreshes + 1;
  for i = 0 to max_routes - 1 do
    let cost = Api.read ~loc:(lc "refresh" 78) (entry t i + 2) in
    Api.write ~loc:(lc "refresh" 79) (entry t i + 2) ((cost mod 97) + 1)
  done

let refreshes t = t.refreshes
