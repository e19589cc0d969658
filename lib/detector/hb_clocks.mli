(** Shared happens-before clock maintenance for the vector-clock-based
    detectors ({!Djit}, {!Racetrack}): one clock per thread, advanced
    and joined along create/join, lock release→acquire and
    condition-variable edges, and (configurably) semaphore and
    annotation edges. *)

type config = { sync_on_sem : bool; sync_on_annotations : bool }

val default_config : config
(** All edge sources on. *)

type t

val create : ?config:config -> unit -> t

val on_event : t -> Raceguard_vm.Event.t -> unit
(** Absorb one event's effect on the clocks (memory events are
    ignored).  Call before consulting the queries below for the same
    event's access. *)

val thread_vc : t -> int -> Vector_clock.t
(** The thread's current clock (created on first use). *)

val clock_of : t -> int -> int
(** The thread's own component — the stamp to record on a shadow
    cell. *)

val ordered_before : t -> tid:int -> clk:int -> now:int -> bool
(** Is an access stamped (tid, clk) happens-before thread [now]'s
    current state? *)
