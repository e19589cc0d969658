(** Post-mortem (offline) analysis — §2.2 / §4.5.

    "Principally, on-the-fly checkers can work post mortem and hence
    reduce the performance impact due to the online calculations.  But
    they still need logging of the execution trace.  Hence, offline
    techniques suffer from their need for large amounts of data."

    A {!recorder} is the compact binary recorder of {!Raceguard_trace}:
    a VM tool that streams every event {e together with} the
    introspection data a detector would have queried live (call stack,
    heap block, clock) into a [raceguard-trace/1] byte stream —
    interned tables, varint encoding, CRC-guarded footer.  {!replay}
    then feeds any detector tool the decoded stream through the
    synthetic context of {!Raceguard_trace.Reader}.  The recorder's
    [footprint_words] makes the space cost measurable — the trade-off
    experiment of §4.5 — and is now the cost of the {e encoded} log,
    not of an in-memory object graph.

    The {!sink} registry names the ten detector configurations the
    replay plane drives (the paper's Helgrind column, the surveyed
    baselines and the §5 annotation extension); {!replay_config} is
    the pure per-config cell the parallel fan-out in [lib/core] maps
    across domains. *)

module Vm = Raceguard_vm
module Loc = Raceguard_util.Loc
module Json = Raceguard_obs.Json
module Metrics = Raceguard_obs.Metrics
module Trace = Raceguard_trace

(* --- recording ------------------------------------------------------ *)

type recorder = { writer : Trace.Writer.t }

let create_recorder ?snapshot_every ?meta () =
  { writer = Trace.Writer.create ?snapshot_every ?meta () }

let tool r = Trace.Writer.tool r.writer
let length r = Trace.Writer.event_count r.writer
let writer r = r.writer
let contents r = Trace.Writer.contents r.writer
let to_file r path = Trace.Writer.to_file r.writer path

(** Space cost of the encoded log, in words — the paper's "heavy memory
    usage" of offline analysis, made concrete (and, with the interned
    binary format, small). *)
let footprint_words r =
  (Trace.Writer.byte_size r.writer + (Sys.word_size / 8) - 1) / (Sys.word_size / 8)

let decode r =
  match Trace.Reader.of_string (contents r) with
  | Ok t -> t
  | Error (`Msg m) -> invalid_arg ("Offline.decode: " ^ m)

(** Feed the recorded trace through a tool, post mortem. *)
let replay r (tool : Vm.Tool.t) = Trace.Reader.replay (decode r) [ tool ]

(* --- the detector sink registry ------------------------------------- *)

(** One detector instance behind a uniform face: the replay plane can
    drive any of them and read back counts, dedup signatures and
    rendered occurrences without knowing which algorithm it is. *)
type sink = {
  sk_name : string;
  sk_tool : Vm.Tool.t;
  sk_occurrences : unit -> Report.t list;
  sk_locations : unit -> (Report.t * int) list;
}

let helgrind cfg name =
  let h = Helgrind.create cfg in
  {
    sk_name = name;
    sk_tool = Helgrind.tool h;
    sk_occurrences = (fun () -> Helgrind.reports h);
    sk_locations = (fun () -> Helgrind.locations h);
  }

(** The face the five non-Helgrind detectors share. *)
module type DETECTOR = sig
  type t

  val tool : t -> Vm.Tool.t
  val reports : t -> Report.t list
  val locations : t -> (Report.t * int) list
end

let detector (type d) (module D : DETECTOR with type t = d) (create : unit -> d) name =
  let d = create () in
  {
    sk_name = name;
    sk_tool = D.tool d;
    sk_occurrences = (fun () -> D.reports d);
    sk_locations = (fun () -> D.locations d);
  }

(** The ten replayable configurations, each named once: the paper's
    Helgrind column (original → HWLC → HWLC+DR → HWLC+DR+HB), the
    pure-Eraser ablation, the three surveyed baselines, and the
    epoch-based pair — FastTrack pinned byte-identical to DJIT, the
    epoch hybrid pinned byte-identical to the vector-clock one. *)
let registry : (string * (string -> sink)) list =
  [
    ("helgrind-original", helgrind Helgrind.original);
    ("helgrind-hwlc", helgrind Helgrind.hwlc);
    ("helgrind-hwlc+dr", helgrind Helgrind.hwlc_dr);
    ("helgrind-hwlc+dr+hb", helgrind Helgrind.hwlc_dr_hb);
    ("eraser-pure", helgrind Helgrind.pure_eraser);
    ("djit", detector (module Djit) Djit.create);
    ("fasttrack", detector (module Fasttrack) Fasttrack.create);
    ("racetrack", detector (module Racetrack) Racetrack.create);
    ("hybrid", detector (module Hybrid) Hybrid.create);
    ("hybrid-epoch", detector (module Hybrid) (Hybrid.create ~config:Hybrid.epoch_config));
  ]

let configs = List.map fst registry

let sink name =
  match List.assoc_opt name registry with
  | Some make -> make name
  | None -> invalid_arg ("Offline.sink: unknown config " ^ name)

(* --- verdicts: what a detector concluded, digested ------------------ *)

let sig_string (r : Report.t) =
  let kind, frames = Report.signature r in
  Report.kind_name kind ^ "@" ^ String.concat ";" (List.map Loc.to_string frames)

(** MD5 over the sorted dedup signatures — the same digest the tests'
    and chaos fidelity gates use. *)
let digest_signatures locations =
  let lines = List.sort compare (List.map (fun (r, _) -> sig_string r) locations) in
  Digest.to_hex (Digest.string (String.concat "\n" lines))

let m_digest_occurrences = Metrics.counter "detector.report.digest_occurrences"
let m_digest_bytes = Metrics.counter "detector.report.digest_bytes"

(** MD5 over every occurrence rendered with {!Report.add_to_buffer}, in
    chronological order and ['\n']-separated: byte-level equality of
    the full report stream, not just of its dedup signatures.  The
    buffer is per call because pool domains digest concurrently.  It is
    sized for ~400 bytes per occurrence (SIP reports render to 365–510),
    so the tens of MB of an eraser-pure stream are not reached by
    doubling copies whose garbage would raise the peak heap. *)
let digest_reports occurrences =
  let b = Buffer.create (max 4096 (400 * List.length occurrences)) in
  let n =
    List.fold_left
      (fun i r ->
        if i > 0 then Buffer.add_char b '\n';
        Report.add_to_buffer b r;
        i + 1)
      0 occurrences
  in
  Metrics.add m_digest_occurrences n;
  Metrics.add m_digest_bytes (Buffer.length b);
  Digest.to_hex (Digest.string (Buffer.contents b))

type verdict = {
  v_config : string;
  v_events : int;  (** events fed to the detector *)
  v_occurrences : int;
  v_locations : int;  (** deduplicated — the Figure-6 metric *)
  v_sig_digest : string;
  v_report_digest : string;
}

let verdict_of_sink ~events s =
  let occurrences = s.sk_occurrences () and locations = s.sk_locations () in
  {
    v_config = s.sk_name;
    v_events = events;
    v_occurrences = List.length occurrences;
    v_locations = List.length locations;
    v_sig_digest = digest_signatures locations;
    v_report_digest = digest_reports occurrences;
  }

let verdict_to_json v =
  Json.Obj
    [
      ("config", Json.Str v.v_config);
      ("events", Json.int v.v_events);
      ("occurrences", Json.int v.v_occurrences);
      ("locations", Json.int v.v_locations);
      ("sig_digest", Json.Str v.v_sig_digest);
      ("report_digest", Json.Str v.v_report_digest);
    ]

let verdict_equal a b =
  a.v_config = b.v_config && a.v_events = b.v_events
  && a.v_occurrences = b.v_occurrences
  && a.v_locations = b.v_locations
  && a.v_sig_digest = b.v_sig_digest
  && a.v_report_digest = b.v_report_digest

(** Drive one named configuration over a decoded trace.  Pure in the
    sense the parallel runner needs: a fresh detector instance per
    call, no shared state — one cell of the replay fan-out. *)
let replay_config trace name =
  let s = sink name in
  Trace.Reader.replay trace [ s.sk_tool ];
  verdict_of_sink ~events:(Trace.Reader.length trace) s
