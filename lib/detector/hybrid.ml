(** Hybrid lock-set × happens-before detection — the Multi-Race /
    O'Callahan-Choi combination the paper surveys in §2.2.

    "Multi-Race tries to improve the data race detection capabilities
    by combining enhanced versions of Lock-set and DJIT into a common
    framework"; the hybrid detector of [12] gates lock-set warnings
    with a vector-clock happens-before check on synchronisation
    primitives.

    This implementation composes the two real engines: a {!Helgrind}
    instance performs the lock-set analysis, and each of its candidate
    warnings is admitted only if a {!Djit} instance (updated on the
    same event stream) confirms the access is {e concurrent} with a
    previous conflicting access.  Lock-discipline violations whose
    accesses happened to be ordered on this execution are therefore
    suppressed — precision up, at the price of DJIT's
    schedule-dependence (the §2.2 trade-off, measurable in the
    [baselines] experiment). *)

module Vm = Raceguard_vm

type gate_engine =
  | Vector_clocks  (** full-VC {!Djit} gate — the historical default *)
  | Epochs
      (** {!Fasttrack} gate with adaptive read-vector demotion — same
          answers (both probes implement the same unordered-now
          question over equivalent state), cheaper per access *)

type config = { gate : gate_engine }

let default_config = { gate = Vector_clocks }

let epoch_config = { gate = Epochs }

type engine = Vc of Djit.t | Ft of Fasttrack.t
type t = { lockset : Helgrind.t; hb : engine }

let create ?(config = default_config) ?(suppressions = []) () =
  let lockset = Helgrind.create ~suppressions Helgrind.hwlc_dr in
  let hb =
    match config.gate with
    | Vector_clocks -> Vc (Djit.create ~config:{ Djit.default_config with first_only = false } ())
    | Epochs -> Ft (Fasttrack.create ~config:{ Fasttrack.default_config with first_only = false } ())
  in
  (* the gate: a lock-set warning survives only when the access is
     genuinely unordered with a previous conflicting access *)
  Helgrind.set_warning_filter lockset (fun ~tid ~addr ~kind ->
      let write = match kind with Report.Race_write -> true | _ -> false in
      match hb with
      | Vc d -> Djit.unordered_now d ~tid ~addr ~write
      | Ft f -> Fasttrack.unordered_now f ~tid ~addr ~write);
  { lockset; hb }

(* event order matters: the lock-set side (and its gate probing the
   HB state of all {e previous} accesses) runs first, then the HB side
   absorbs the current event. *)
let on_event t ctx e =
  Helgrind.on_event t.lockset ctx e;
  match t.hb with Vc d -> Djit.on_event d ctx e | Ft f -> Fasttrack.on_event f ctx e

let tool t = Vm.Tool.make ~name:"hybrid" ~on_event:(on_event t)

let reports t = Helgrind.reports t.lockset
let locations t = Helgrind.locations t.lockset
let location_count t = Helgrind.location_count t.lockset
let collector t = Helgrind.collector t.lockset
