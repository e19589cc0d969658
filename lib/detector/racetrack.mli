(** RaceTrack-style adaptive detection — the paper's citation [16]
    (Yu, Rodeheffer & Chen, SOSP 2005).

    Per location, a happens-before-pruned {e threadset} decides whether
    the location is effectively exclusive (candidate lock-set stays at
    ⊤) or genuinely concurrent (lock-set refinement and checking run).
    Ownership transfer through any synchronisation — including the
    queue handoffs of §4.2.3 — re-privatises the location without
    annotations, at the price of the happens-before family's schedule
    dependence. *)

type config = { bus_model : Helgrind.bus_model  (** same semantics as in {!Helgrind} *) }

val default_config : config
(** Corrected (rw-lock) bus model, all HB edge sources on. *)

type t

val create : ?config:config -> ?suppressions:Suppression.t list -> unit -> t
val tool : t -> Raceguard_vm.Tool.t
val on_event : t -> Raceguard_vm.Tool.ctx -> Raceguard_vm.Event.t -> unit

val reports : t -> Report.t list
val locations : t -> (Report.t * int) list
val location_count : t -> int
val collector : t -> Report.collector
