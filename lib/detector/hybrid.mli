(** Hybrid lock-set × happens-before detection — the Multi-Race /
    O'Callahan-Choi combination surveyed in §2.2.

    A {!Helgrind} instance performs the lock-set analysis; each of its
    candidate warnings is admitted only if a {!Djit} instance on the
    same event stream confirms the access is concurrent with a previous
    conflicting access.  Precision up; DJIT's schedule-dependence is
    the price. *)

type gate_engine =
  | Vector_clocks  (** full-VC {!Djit} gate — the historical default *)
  | Epochs  (** {!Fasttrack} gate with adaptive demotion — same answers *)

type config = { gate : gate_engine }
(** Lock-sets are always {!Helgrind.hwlc_dr} and the gate honours every
    HB edge source. *)

val default_config : config
(** The vector-clock gate. *)

val epoch_config : config
(** [default_config] with the epoch ({!Fasttrack}) gate. *)

type t

val create : ?config:config -> ?suppressions:Suppression.t list -> unit -> t
val tool : t -> Raceguard_vm.Tool.t
val on_event : t -> Raceguard_vm.Tool.ctx -> Raceguard_vm.Event.t -> unit

val reports : t -> Report.t list
val locations : t -> (Report.t * int) list
val location_count : t -> int
val collector : t -> Report.collector
