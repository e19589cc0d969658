(* Benchmark harness: measures detector throughput (events/sec) per
   (workload, configuration) with Bechamel and writes it as
   machine-readable JSON for CI.  The paper's tables and figures are
   regenerated by [raceguard-experiments run all].

     dune exec bench/main.exe                  # full suite -> BENCH_detector.json
     dune exec bench/main.exe -- --quick
     dune exec bench/main.exe -- --quick --compare bench/baseline.json

   Flags (anything else is a usage error, exit 2):
     --quick              CI smoke subset (fewer workloads, shorter quota)
     --seed N             VM scheduling seed (default 7; echoed into the JSON)
     --domains N          worker domains for the audit pass and the
                          sequential leg of the scaling suite
                          (1 = sequential, 0 = auto); digests are
                          identical for any value.  The Bechamel timed
                          pass always runs sequentially — parallel
                          timing would corrupt the measurements.
     --out FILE           output path (default BENCH_detector.json)
     --compare FILE       compare against a committed baseline JSON;
                          exit 2 on >threshold normalized-throughput
                          regression, and on a baseline that does not
                          parse, has no rows (checked before the suite
                          runs) or shares no detector row with the run
     --max-regression PCT regression threshold in percent (default 25) *)

open Bechamel
open Toolkit

module R = Raceguard
module Det = Raceguard_detector
module Vm = Raceguard_vm
module Sip = Raceguard_sip
module Loc = Raceguard_util.Loc
module Obs = Raceguard_obs
module Json = Obs.Json

let seed = 7

(* Every VM run goes through the Runner; [plain seed] attaches no
   detector of its own, so a run sees exactly the [tools] it is given. *)
let plain seed = { R.Runner.default with seed; helgrind_configs = [] }
let vm_run ?tools ~seed main = fst (R.Runner.run_main ?tools (plain seed) main)

(* A throughput "subject" is "no-tool" or a registry name; the sink is
   fresh per run, and the row reads its report count and digest back. *)
let subject_sink = function "no-tool" -> None | name -> Some (Det.Offline.sink name)
let tools_of = function None -> [] | Some s -> [ s.Det.Offline.sk_tool ]

let verdict sink =
  let locations = match sink with None -> [] | Some s -> s.Det.Offline.sk_locations () in
  (List.length locations, Det.Offline.digest_signatures locations)

(* ------------------------------------------------------------------ *)
(* Throughput suite: events/sec per detector config × workload, JSON   *)
(* ------------------------------------------------------------------ *)

let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]

type workload = {
  w_name : string;
  w_run : seed:int -> Vm.Tool.t list -> unit;
      (** one full run of the workload with the given tools attached;
          everything downstream of [seed] is deterministic *)
}

let scenario_workload name f =
  { w_name = name; w_run = (fun ~seed tools -> ignore (vm_run ~tools ~seed f)) }

let sip_workload tc =
  {
    w_name = String.lowercase_ascii tc.Sip.Workload.tc_name;
    w_run = (fun ~seed tools -> ignore (R.Runner.run_test_case ~tools (plain seed) tc));
  }

let workloads ~quick =
  let micro =
    if quick then
      [
        scenario_workload "micro-contention" (fun () ->
            R.Scenarios.high_contention ~iters:120 ());
        scenario_workload "micro-readshared" (fun () -> R.Scenarios.read_shared ~iters:200 ());
        scenario_workload "micro-readchurn" (fun () ->
            R.Scenarios.read_shared_churn ~rounds:3 ~iters:60 ());
      ]
    else
      [
        scenario_workload "micro-contention" (fun () -> R.Scenarios.high_contention ());
        scenario_workload "micro-readshared" (fun () -> R.Scenarios.read_shared ());
        scenario_workload "micro-readchurn" (fun () -> R.Scenarios.read_shared_churn ());
      ]
  in
  let sip =
    if quick then [ Sip.Workload.t2; Sip.Workload.t3 ] else Sip.Workload.all_test_cases
  in
  List.map sip_workload sip @ micro

(* The throughput rows' subjects: no tools, then the nine registry
   configurations the committed baseline pins (all but HWLC+DR+HB). *)
let subjects =
  "no-tool" :: List.filter (fun c -> c <> "helgrind-hwlc+dr+hb") Det.Offline.configs

let no_tool_config = Json.Obj [ ("detector", Json.Str "none") ]

let subject_config = function
  | "no-tool" -> no_tool_config
  | name -> (Det.Offline.sink name).Det.Offline.sk_config

type row = {
  r_workload : string;
  r_config : string;
  r_events : int;  (** VM events emitted by one run (seed-deterministic) *)
  r_reports : int;  (** deduplicated race locations *)
  r_sig_digest : string;  (** MD5 over the sorted dedup signatures *)
  r_ns_per_run : float;
  r_events_per_sec : float;
  r_minor_words_per_event : float;
  r_normalized : float;  (** events/sec relative to no-tool on this workload *)
  r_checked : int;  (** detector accesses checked during the audit run *)
  r_fast_hits : int;  (** of which answered by the shadow fast path *)
  r_interned : int;  (** lock-set intern table size after the audit run *)
  r_gc_words_per_event : float;  (** minor words allocated per event (audit run) *)
}

let composite w s = w.w_name ^ "::" ^ s

(* Analyze.all keys carry the grouped-test prefix; match on suffix. *)
let estimate tbl composite =
  Hashtbl.fold
    (fun name ols_result acc ->
      if name = composite || String.ends_with ~suffix:("/" ^ composite) name then
        match Analyze.OLS.estimates ols_result with Some (e :: _) -> Some e | _ -> acc
      else acc)
    tbl None

let count_events w ~seed =
  let n = ref 0 in
  w.w_run ~seed [ Vm.Tool.of_fn "count" (fun _ -> incr n) ];
  !n

let run_throughput ~quick ~seed ~domains =
  let workloads = workloads ~quick in
  let quota, limit = if quick then (0.15, 60) else (0.5, 200) in
  (* audit pass: one untimed run per subject×workload for event counts,
     report counts, dedup signatures and a metrics-registry delta.
     Each subject×workload pair is one cell on the work-stealing pool:
     detector state is per-instance and the metrics registry is
     domain-local, so report counts and digests are identical for any
     domain count.  (Registry-level gauges such as the lockset intern
     size reflect whatever else already ran on the executing domain —
     in sequential mode, all preceding cells — and are informational,
     not digest material.) *)
  let events_of =
    Raceguard_par.Par.map_cells ~domains
      (fun w -> count_events w ~seed)
      (Array.of_list workloads)
  in
  let audit_cells =
    Array.of_list (List.concat_map (fun w -> List.map (fun s -> (w, s)) subjects) workloads)
  in
  let audited =
    Raceguard_par.Par.map_cells ~domains
      (fun (w, s) ->
        let sink = subject_sink s in
        let before = Obs.Metrics.snapshot () in
        let gc0 = Gc.minor_words () in
        w.w_run ~seed (tools_of sink);
        let gc_words = Gc.minor_words () -. gc0 in
        let m = Obs.Metrics.diff ~before (Obs.Metrics.snapshot ()) in
        let n_reports, digest = verdict sink in
        (w.w_name, (s, (n_reports, digest, m, gc_words))))
      audit_cells
  in
  let audits =
    List.mapi
      (fun i w ->
        let per_subject =
          Array.to_list audited
          |> List.filter_map (fun (wn, entry) ->
                 if wn = w.w_name then Some entry else None)
        in
        (w.w_name, (events_of.(i), per_subject)))
      workloads
  in
  (* timed pass: bechamel over every subject×workload *)
  let tests =
    List.concat_map
      (fun w ->
        List.map
          (fun s ->
            Test.make ~name:(composite w s)
              (Staged.stage (fun () -> w.w_run ~seed (tools_of (subject_sink s)))))
          subjects)
      workloads
  in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:None () in
  let raw =
    Benchmark.all cfg
      Instance.[ monotonic_clock; minor_allocated ]
      (Test.make_grouped ~name:"throughput" tests)
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let allocs = Analyze.all ols Instance.minor_allocated raw in
  let rows =
    List.concat_map
      (fun w ->
        let events, per_subject = List.assoc w.w_name audits in
        List.map
          (fun s ->
            let key = composite w s in
            let ns = Option.value ~default:nan (estimate times key) in
            let words = Option.value ~default:nan (estimate allocs key) in
            let eps =
              if Float.is_nan ns || ns <= 0. then 0. else float_of_int events /. (ns /. 1e9)
            in
            let n_reports, digest, m, gc_words = List.assoc s per_subject in
            let counter name = Option.value ~default:0 (Obs.Metrics.find_counter m name) in
            let gauge name = Option.value ~default:0 (Obs.Metrics.find_gauge m name) in
            (* the fast-path columns read whichever detector family the
               subject runs: fasttrack rows report epoch hits, everything
               else the lock-set shadow fast path *)
            let checked, fast_hits =
              if s = "fasttrack" then
                ( counter "detector.fasttrack.accesses_checked",
                  counter "detector.fasttrack.epoch_hits" )
              else
                ( counter "detector.helgrind.accesses_checked",
                  counter "detector.helgrind.fast_path_hits" )
            in
            {
              r_workload = w.w_name;
              r_config = s;
              r_events = events;
              r_reports = n_reports;
              r_sig_digest = digest;
              r_ns_per_run = ns;
              r_events_per_sec = eps;
              r_minor_words_per_event =
                (if Float.is_nan words || events = 0 then 0.
                 else words /. float_of_int events);
              r_normalized = 0.;  (* filled below *)
              r_checked = checked;
              r_fast_hits = fast_hits;
              r_interned = gauge "detector.lockset.interned";
              r_gc_words_per_event =
                (if events = 0 then 0. else gc_words /. float_of_int events);
            })
          subjects)
      workloads
  in
  List.map
    (fun r ->
      let base =
        List.find_opt
          (fun b -> b.r_workload = r.r_workload && b.r_config = "no-tool")
          rows
      in
      let normalized =
        match base with
        | Some b when b.r_events_per_sec > 0. -> r.r_events_per_sec /. b.r_events_per_sec
        | _ -> 0.
      in
      { r with r_normalized = normalized })
    rows

(* --- epoch fast-path gate ------------------------------------------- *)

(* FastTrack's whole value proposition is that almost every access is
   decided in the packed-epoch representation.  Pin that property on
   the SIP rows — counter-based (deterministic in the seed), not
   timing-based, so it cannot flake on a loaded runner.  The threshold
   sits just below the observed minimum across T1–T8 (t3 at 0.9405 in
   both quick and full mode; every other workload is above 0.97). *)
let epoch_gate_threshold = 0.93

let epoch_gate rows =
  let is_sip r =
    String.length r.r_workload = 2
    && r.r_workload.[0] = 't'
    && match r.r_workload.[1] with '0' .. '9' -> true | _ -> false
  in
  let rate r =
    if r.r_checked = 0 then 0. else float_of_int r.r_fast_hits /. float_of_int r.r_checked
  in
  let fts = List.filter (fun r -> r.r_config = "fasttrack" && is_sip r) rows in
  List.iter
    (fun r ->
      if rate r < epoch_gate_threshold then begin
        Printf.printf "EPOCH FAST-PATH GATE FAILURE: %s hit rate %.4f < %.2f (%d/%d)\n"
          r.r_workload (rate r) epoch_gate_threshold r.r_fast_hits r.r_checked;
        exit 2
      end)
    fts;
  if fts <> [] then begin
    let lo = List.fold_left (fun acc r -> min acc (rate r)) 1. fts in
    Printf.printf
      "epoch fast-path gate OK: min hit rate %.4f across %d SIP row(s) (>= %.2f)\n%!" lo
      (List.length fts) epoch_gate_threshold
  end;
  (* informational: the representation win in wall-clock terms *)
  List.iter
    (fun f ->
      match
        List.find_opt (fun d -> d.r_config = "djit" && d.r_workload = f.r_workload) rows
      with
      | Some d when d.r_events_per_sec > 0. && f.r_events_per_sec > 0. ->
          Printf.printf "  fasttrack vs djit on %-18s %5.2fx (%.0f vs %.0f events/sec)\n"
            f.r_workload
            (f.r_events_per_sec /. d.r_events_per_sec)
            f.r_events_per_sec d.r_events_per_sec
      | _ -> ())
    (List.filter (fun r -> r.r_config = "fasttrack") rows)

(* --- static-hints suite --------------------------------------------- *)

(* A workload engineered so the static thread-locality hints matter:
   main keeps one long-lived buffer and re-touches every word between
   spawn/join pairs.  Each spawn/join advances main's thread segment,
   so without hints the first access per word per pass misses the
   Exclusive fast path (stale segment stamp); with the buffer pre-marked
   thread-local every access stays on the fast path.  The worker touches
   only locals — the program is race-free, so the report digest must be
   identical (and empty) in both rows. *)
let hints_source =
  {|
fn worker(k) {
  var i = 0;
  while (i < 40) { i = i + k; }
  return i;
}

fn main() {
  var buf = alloc(64);
  var pass = 0;
  while (pass < 6) {
    var i = 0;
    while (i < 64) {
      store(buf + i, load(buf + i) + pass);
      i = i + 1;
    }
    var t = spawn worker(1);
    join(t);
    pass = pass + 1;
  }
  free(buf);
  return 0;
}
|}

let hints_workload_name = "minicc-hints"

let hints_locs () =
  let module M = Raceguard_minicc in
  let ast =
    M.Preprocess.parse (M.Preprocess.with_builtins ()) ~file:"hints.mcc" hints_source
  in
  let r = M.Static_race.analyse ast in
  r.M.Static_race.hint_locs

let hints_run ~seed ~hints () =
  let module M = Raceguard_minicc in
  let interp, _, _ = M.Interp.compile ~annotate:true ~file:"hints.mcc" hints_source in
  let h = Det.Helgrind.create Det.Helgrind.hwlc_dr in
  (match hints with Some locs -> Det.Helgrind.set_static_hints h locs | None -> ());
  ignore (vm_run ~tools:[ Det.Helgrind.tool h ] ~seed (fun () -> M.Interp.run_main interp));
  h

let hints_configs =
  [
    ("minicc-hwlc+dr", Det.Helgrind.config_to_json Det.Helgrind.hwlc_dr);
    ("minicc-hwlc+dr+static-hints", Det.Helgrind.config_to_json Det.Helgrind.hwlc_dr);
  ]

(* Two extra rows (baseline vs hinted) plus a strict gate: byte-identical
   report digests AND a strictly higher fast-path hit rate, or exit 2. *)
let hints_rows ~quick ~seed =
  let locs = hints_locs () in
  let events =
    let module M = Raceguard_minicc in
    let interp, _, _ = M.Interp.compile ~annotate:true ~file:"hints.mcc" hints_source in
    let n = ref 0 in
    ignore
      (vm_run ~tools:[ Vm.Tool.of_fn "count" (fun _ -> incr n) ] ~seed (fun () ->
           M.Interp.run_main interp));
    !n
  in
  let mk name hints =
    let h = hints_run ~seed ~hints () in
    let reports = Det.Helgrind.location_count h in
    let digest = Det.Offline.digest_signatures (Det.Helgrind.locations h) in
    let checked = Det.Helgrind.accesses_checked h in
    let hits = Det.Helgrind.fast_path_hits h in
    let reps = if quick then 3 else 10 in
    let t0 = Sys.time () in
    for _ = 1 to reps do
      ignore (hints_run ~seed ~hints ())
    done;
    let ns = (Sys.time () -. t0) /. float_of_int reps *. 1e9 in
    {
      r_workload = hints_workload_name;
      r_config = name;
      r_events = events;
      r_reports = reports;
      r_sig_digest = digest;
      r_ns_per_run = ns;
      r_events_per_sec = (if ns <= 0. then 0. else float_of_int events /. (ns /. 1e9));
      r_minor_words_per_event = 0.;
      r_normalized = 0.;
      (* no no-tool base: excluded from the perf-regression gate *)
      r_checked = checked;
      r_fast_hits = hits;
      r_interned = 0;
      r_gc_words_per_event = 0.;
    }
  in
  let base = mk "minicc-hwlc+dr" None in
  let hinted = mk "minicc-hwlc+dr+static-hints" (Some locs) in
  if hinted.r_sig_digest <> base.r_sig_digest then begin
    Printf.printf "STATIC-HINTS FIDELITY FAILURE: report digest %s (hints) vs %s (baseline)\n"
      hinted.r_sig_digest base.r_sig_digest;
    exit 2
  end;
  let rate r =
    if r.r_checked = 0 then 0. else float_of_int r.r_fast_hits /. float_of_int r.r_checked
  in
  if not (rate hinted > rate base) then begin
    Printf.printf "STATIC-HINTS GATE FAILURE: fast-path hit rate %.4f (hints) <= %.4f (baseline)\n"
      (rate hinted) (rate base);
    exit 2
  end;
  Printf.printf "static-hints gate OK: fast-path hit rate %.4f -> %.4f (%d hint site(s))\n%!"
    (rate base) (rate hinted) (List.length locs);
  [ base; hinted ]

(* --- chaos-off overhead suite --------------------------------------- *)

(* The fault-injection plane must compile to a no-op when its plan is
   empty: wiring an off injector into the transport, the server and the
   engine may not change the schedule (same events, same report digest)
   and may not cost more than 5% of throughput vs no injector at all. *)
let faults_workload_name = "sip-t2-chaos-off"

let faults_run ~seed ~injector tools =
  let transport = Sip.Transport.create ?faults:injector () in
  let server = { R.Runner.default.server with Sip.Proxy.faults = injector } in
  ignore
    (R.Runner.run_main ~tools
       { (plain seed) with faults = injector }
       (Sip.Workload.run_test_case ~transport ~server_config:server Sip.Workload.t2))

let faults_helgrind ~seed ~injector =
  let h = Det.Helgrind.create Det.Helgrind.hwlc_dr in
  faults_run ~seed ~injector [ Det.Helgrind.tool h ];
  h

let faults_events ~seed ~injector =
  let n = ref 0 in
  faults_run ~seed ~injector [ Vm.Tool.of_fn "count" (fun _ -> incr n) ];
  !n

let faults_configs =
  [
    ("sip-hwlc+dr-no-injector", Det.Helgrind.config_to_json Det.Helgrind.hwlc_dr);
    ("sip-hwlc+dr-injector-off", Det.Helgrind.config_to_json Det.Helgrind.hwlc_dr);
  ]

let faults_rows ~quick ~seed =
  let off_injector () =
    Some (Raceguard_faults.Injector.create ~seed ~plan:Raceguard_faults.Plan.none)
  in
  let variants = [ ("sip-hwlc+dr-no-injector", fun () -> None);
                   ("sip-hwlc+dr-injector-off", off_injector) ] in
  let audited =
    List.map
      (fun (name, inj) ->
        let h = faults_helgrind ~seed ~injector:(inj ()) in
        let events = faults_events ~seed ~injector:(inj ()) in
        (name, inj, events, Det.Helgrind.location_count h,
         Det.Offline.digest_signatures (Det.Helgrind.locations h)))
      variants
  in
  (* interleave the timed repetitions so clock drift hits both equally *)
  let reps = if quick then 4 else 12 in
  let spent = Hashtbl.create 4 in
  List.iter (fun (name, _, _, _, _) -> Hashtbl.replace spent name 0.) audited;
  List.iter (fun (_, inj, _, _, _) -> ignore (faults_helgrind ~seed ~injector:(inj ())))
    audited (* warm-up *);
  for _ = 1 to reps do
    List.iter
      (fun (name, inj, _, _, _) ->
        let injector = inj () in
        let t0 = Sys.time () in
        ignore (faults_helgrind ~seed ~injector);
        Hashtbl.replace spent name (Hashtbl.find spent name +. (Sys.time () -. t0)))
      audited
  done;
  let rows =
    List.map
      (fun (name, _, events, reports, digest) ->
        let ns = Hashtbl.find spent name /. float_of_int reps *. 1e9 in
        {
          r_workload = faults_workload_name;
          r_config = name;
          r_events = events;
          r_reports = reports;
          r_sig_digest = digest;
          r_ns_per_run = ns;
          r_events_per_sec = (if ns <= 0. then 0. else float_of_int events /. (ns /. 1e9));
          r_minor_words_per_event = 0.;
          r_normalized = 0.;
          (* gated in-process below, not via the baseline comparison *)
          r_checked = 0;
          r_fast_hits = 0;
          r_interned = 0;
          r_gc_words_per_event = 0.;
        })
      audited
  in
  let find name = List.find (fun r -> r.r_config = name) rows in
  let absent = find "sip-hwlc+dr-no-injector" in
  let off = find "sip-hwlc+dr-injector-off" in
  if off.r_sig_digest <> absent.r_sig_digest || off.r_events <> absent.r_events then begin
    Printf.printf
      "CHAOS-OFF FIDELITY FAILURE: off injector perturbed the run (%d/%s events/digest vs \
       %d/%s)\n"
      off.r_events off.r_sig_digest absent.r_events absent.r_sig_digest;
    exit 2
  end;
  let ratio =
    if absent.r_events_per_sec <= 0. then 1.
    else off.r_events_per_sec /. absent.r_events_per_sec
  in
  if ratio < 0.95 then begin
    Printf.printf
      "CHAOS-OFF OVERHEAD GATE FAILURE: normalized throughput %.3f < 0.95 of the \
       injector-free build\n"
      ratio;
    exit 2
  end;
  Printf.printf "chaos-off overhead gate OK: normalized throughput %.3f (>= 0.95)\n%!" ratio;
  rows

(* --- record/replay trace suite -------------------------------------- *)

(* Three rows: the detection-off baseline, the capture+encode pass
   (the trace-production cost), and the §4.5 payoff: events/sec when
   every registry configuration replays from the recorded bytes,
   VM-free.  Two audits run first and exit 2 on failure: the ride-along
   recorder must not perturb the detector's digest, and recording the
   same (workload, seed) twice must produce byte-identical traces. *)

module Trace = Raceguard_trace

let trace_workload_name = "sip-t2-trace"

let plain_run ~seed () = ignore (R.Runner.run_test_case (plain seed) Sip.Workload.t2)

let trace_run ~seed ~record () =
  let recorder =
    if record then
      Some
        (Det.Offline.create_recorder
           ~meta:[ ("workload", "T2"); ("seed", string_of_int seed) ]
           ())
    else None
  in
  let res =
    R.Runner.run_test_case
      ~tools:(Option.to_list (Option.map Det.Offline.tool recorder))
      { R.Runner.default with seed; helgrind_configs = [ ("HWLC+DR", Det.Helgrind.hwlc_dr) ] }
      Sip.Workload.t2
  in
  (R.Runner.locations_of res "HWLC+DR", recorder)

let trace_configs =
  [
    ("sip-plain-detection-off", Obs.Json.Str "no tools attached");
    ("trace-capture-encode", Obs.Json.Str "run with the binary recorder attached + encode");
    ("trace-replay-registry", Obs.Json.Str "all registry configurations, offline");
  ]

let trace_rows ~quick ~seed =
  (* audit 1: the ride-along recorder is a pure observer — attaching it
     next to the detector must not move the report digest *)
  let audit record =
    let locations, r = trace_run ~seed ~record () in
    (List.length locations, Det.Offline.digest_signatures locations, r)
  in
  let base_reports, base_digest, _ = audit false in
  let rec_reports, rec_digest, recorder = audit true in
  let recorder = Option.get recorder in
  let events = Det.Offline.length recorder in
  if rec_digest <> base_digest || rec_reports <> base_reports then begin
    Printf.printf
      "RECORDER FIDELITY FAILURE: recorder perturbed the run (%d/%s vs %d/%s)\n" rec_reports
      rec_digest base_reports base_digest;
    exit 2
  end;
  (* audit 2: recording is deterministic — recording the same
     (workload, seed) twice must produce byte-identical traces, with the
     same event count the ride-along recorder saw *)
  let record () = (R.Trace_ops.record_test ~seed Sip.Workload.t2).R.Trace_ops.rec_recorder in
  let first = record () in
  let rec_bytes = Det.Offline.contents first in
  let again = Det.Offline.contents (record ()) in
  if (not (String.equal rec_bytes again)) || Det.Offline.length first <> events then begin
    Printf.printf
      "RECORDING FIDELITY FAILURE: re-recorded trace diverges (%d bytes vs %d, %d events \
       vs %d)\n"
      (String.length rec_bytes) (String.length again) (Det.Offline.length first) events;
    exit 2
  end;
  (* interleave the timed repetitions so clock drift hits both legs
     equally: plain run | capture+encode pass *)
  let reps = if quick then 4 else 12 in
  let spent_plain = ref 0. and spent_encode = ref 0. in
  plain_run ~seed () (* warm-up *);
  for _ = 1 to reps do
    let t0 = Sys.time () in
    plain_run ~seed ();
    spent_plain := !spent_plain +. (Sys.time () -. t0);
    let t1 = Sys.time () in
    ignore (Det.Offline.contents (record ()));
    spent_encode := !spent_encode +. (Sys.time () -. t1)
  done;
  let trace =
    match Trace.Reader.of_string rec_bytes with
    | Ok t -> t
    | Error (`Msg m) ->
        Printf.printf "TRACE DECODE FAILURE: %s\n" m;
        exit 2
  in
  ignore (Det.Offline.replay_all trace) (* warm-up *);
  let t0 = Sys.time () in
  let verdicts = Det.Offline.replay_all trace in
  let replay_s = Sys.time () -. t0 in
  let n_configs = List.length verdicts in
  let row name reports digest ns =
    {
      r_workload = trace_workload_name;
      r_config = name;
      r_events = events;
      r_reports = reports;
      r_sig_digest = digest;
      r_ns_per_run = ns;
      r_events_per_sec = (if ns <= 0. then 0. else float_of_int events /. (ns /. 1e9));
      r_minor_words_per_event = 0.;
      r_normalized = 0.;
      (* audited in-process above, not via the baseline comparison *)
      r_checked = 0;
      r_fast_hits = 0;
      r_interned = 0;
      r_gc_words_per_event = 0.;
    }
  in
  let plain =
    row "sip-plain-detection-off" 0 "-" (!spent_plain /. float_of_int reps *. 1e9)
  in
  let encode =
    row "trace-capture-encode" rec_reports rec_digest
      (!spent_encode /. float_of_int reps *. 1e9)
  in
  (* the replay row's events/sec counts events fed across all configs —
     the offline plane's aggregate analysis rate *)
  let replay =
    let total = events * n_configs in
    let r = row "trace-replay-registry" 0 "-" (replay_s *. 1e9) in
    {
      r with
      r_events = total;
      r_events_per_sec = (if replay_s <= 0. then 0. else float_of_int total /. replay_s);
    }
  in
  Printf.printf
    "trace suite: %d events, %.2f bytes/event, capture+encode %.0f events/sec, replay %.0f \
     events/sec across %d configs\n%!"
    events
    (float_of_int (String.length rec_bytes) /. float_of_int events)
    encode.r_events_per_sec replay.r_events_per_sec n_configs;
  [ plain; encode; replay ]

(* --- automated-repair pipeline -------------------------------------- *)

(* The full raceguard-fix pipeline over an embedded racy program:
   parse -> static lockset pass -> dynamic detection across the
   verification seeds -> cross-check -> patch synthesis -> four-stage
   verification -> emitted-source recheck.  Gated in-process: the
   pipeline must produce >= 1 verified patch whose emitted source
   rechecks, or we exit 2.  The row's normalized value is the plain
   (no-tool, single-seed) run's wall time over the pipeline's — a
   machine-independent cost factor gated against the baseline. *)

let fix_source =
  {|
class Counter {
  var value;
}

fn locked_worker(c, m, n) {
  var i = 0;
  while (i < n) {
    lock (m) {
      c.value = c.value + 1;
    }
    i = i + 1;
  }
  return 0;
}

fn unlocked_worker(c, n) {
  var i = 0;
  while (i < n) {
    c.value = c.value + 1;
    i = i + 1;
  }
  return 0;
}

fn main() {
  var m = mutex("bench_guard");
  var c = new Counter();
  c.value = 0;
  var t1 = spawn locked_worker(c, m, 8);
  var t2 = spawn unlocked_worker(c, 8);
  join(t1);
  join(t2);
  print(c.value);
  delete c;
  return 0;
}
|}

let fix_rows ~quick ~seed:_ =
  let module Fix = Raceguard_fix in
  let module M = Raceguard_minicc in
  let reps = if quick then 2 else 4 in
  let run_fix () =
    match Fix.Engine.run ~file:"bench_fix.mcc" ~src:fix_source () with
    | Ok t -> t
    | Error e ->
        Printf.printf "FIX PIPELINE FAILURE: %s\n" e;
        exit 2
  in
  let run_plain () =
    let interp, _, _ = M.Interp.compile ~annotate:true ~file:"bench_fix.mcc" fix_source in
    ignore (vm_run ~seed:1 (fun () -> M.Interp.run_main interp));
    interp
  in
  let best reps f =
    let t = ref infinity and last = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !t then t := dt;
      last := Some r
    done;
    (Option.get !last, !t)
  in
  let result, t_fix = best reps run_fix in
  (* the plain leg is ~microseconds; many reps keep the min stable so
     the normalized ratio doesn't flap the baseline gate *)
  let _, t_plain = best (reps * 25) (fun () -> ignore (run_plain ())) in
  let verified =
    List.filter (fun p -> p.Fix.Engine.pr_verified) result.Fix.Engine.t_patches
  in
  if verified = [] || not result.Fix.Engine.t_recheck_ok then begin
    Printf.printf
      "FIX PIPELINE GATE FAILURE: %d verified patch(es), emitted-source recheck %s\n"
      (List.length verified)
      (if result.Fix.Engine.t_recheck_ok then "ok" else "FAILED");
    exit 2
  end;
  let digest =
    List.map
      (fun p ->
        p.Fix.Engine.pr_plan.Fix.Synth.pl_strategy
        ^ "|" ^ p.Fix.Engine.pr_plan.Fix.Synth.pl_guard_desc)
      verified
    |> List.sort compare |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  Printf.printf
    "fix pipeline gate OK: %d verified patch(es) in %.1f ms (plain run %.2f ms, cost \
     factor %.0fx)\n%!"
    (List.length verified) (t_fix *. 1e3) (t_plain *. 1e3)
    (if t_plain > 0. then t_fix /. t_plain else 0.);
  [
    {
      r_workload = "minicc-racy-counter";
      r_config = "fix-pipeline";
      r_events = List.length result.Fix.Engine.t_seeds;
      r_reports = List.length result.Fix.Engine.t_confirmed;
      r_sig_digest = digest;
      r_ns_per_run = t_fix *. 1e9;
      r_events_per_sec = (if t_fix <= 0. then 0. else 1. /. t_fix);
      r_minor_words_per_event = 0.;
      r_normalized = (if t_fix <= 0. then 0. else t_plain /. t_fix);
      r_checked = 0;
      r_fast_hits = 0;
      r_interned = 0;
      r_gc_words_per_event = 0.;
    };
  ]

(* --- sharded-registrar storm suite ----------------------------------- *)

(* The sharded registrar driven directly, VM-scheduled: 8 writer threads
   register a user population onto a Resilient striped table sized to
   double repeatedly under the load (initial 8 shards, grow_at 8), with
   a lookup tail mixing cross-shard reads into the storm.  Gated
   in-process: the post-run audit must be clean, every registration must
   have survived the resizes, and the table must have reached its shard
   ceiling — or exit 2.  Two rows: no-tool (normalized 0, exempt from
   the baseline gate) and HWLC+DR, whose normalized throughput the
   baseline comparison covers like any detector row. *)

let storm_workload_name = "registrar-storm"
let storm_loc = Loc.v "bench_storm.ml" "storm" 1

let storm_params ~quick = if quick then (2_000, 64) else (20_000, 256)

let storm_run ~quick ~seed tools =
  let users, max_shards = storm_params ~quick in
  let reg = ref None in
  let outcome =
    (vm_run ~tools ~seed (fun () ->
        let alloc = Raceguard_cxxsim.Allocator.create Raceguard_cxxsim.Allocator.Direct in
        let stats = Sip.Stats.create () in
        let r =
          Sip.Registrar.create
            ~sharding:
              (Sip.Registrar.Sharded
                 { flavor = Sip.Registrar.Resilient; initial = 8; grow_at = 8; max_shards })
            ~alloc ~stats ()
        in
        reg := Some r;
        let workers = 8 in
        let per = users / workers in
        let threads =
          List.init workers (fun w ->
              Vm.Api.spawn ~loc:storm_loc ~name:(Printf.sprintf "storm%d" w) (fun () ->
                  for i = w * per to ((w + 1) * per) - 1 do
                    ignore
                      (Sip.Registrar.register r ~annotate:true
                         ~aor:(Printf.sprintf "u%d@bench" i)
                         ~contact:(Printf.sprintf "sip:c%d" i)
                         ~cseq:1 ~expires:1_000_000)
                  done;
                  (* lookup tail: cross-shard reads racing later growers *)
                  for i = w * per to (w * per) + (per / 4) - 1 do
                    match Sip.Registrar.lookup r ~aor:(Printf.sprintf "u%d@bench" i) with
                    | Some c -> Sip.Registrar.Refstring.release c
                    | None -> ()
                  done))
        in
        List.iter (fun t -> Vm.Api.join ~loc:storm_loc t) threads;
        ignore (Sip.Registrar.rebalance r)))
      .R.Runner.outcome
  in
  (match outcome.Vm.Engine.failures with
  | [] -> ()
  | (_, name, e) :: _ ->
      Printf.printf "REGISTRAR STORM FAILURE: thread %s raised %s\n" name
        (Printexc.to_string e);
      exit 2);
  if outcome.Vm.Engine.deadlock <> None then begin
    Printf.printf "REGISTRAR STORM FAILURE: deadlock\n";
    exit 2
  end;
  Option.get !reg

let storm_configs =
  [
    ("storm-no-tool", no_tool_config);
    ("storm-hwlc+dr", Det.Helgrind.config_to_json Det.Helgrind.hwlc_dr);
  ]

let storm_rows ~quick ~seed =
  let users, max_shards = storm_params ~quick in
  let events =
    let n = ref 0 in
    ignore (storm_run ~quick ~seed [ Vm.Tool.of_fn "count" (fun _ -> incr n) ]);
    !n
  in
  let variants = [ ("storm-no-tool", "no-tool"); ("storm-hwlc+dr", "helgrind-hwlc+dr") ] in
  let audited =
    List.map
      (fun (name, subject) ->
        let sink = subject_sink subject in
        let before = Obs.Metrics.snapshot () in
        let gc0 = Gc.minor_words () in
        let r = storm_run ~quick ~seed (tools_of sink) in
        let gc_words = Gc.minor_words () -. gc0 in
        let m = Obs.Metrics.diff ~before (Obs.Metrics.snapshot ()) in
        let audit = Sip.Registrar.audit r in
        (* bound_aors, not size: the latter takes the shard locks and
           needs VM context, the former reads the host mirrors *)
        let bound = List.length (Sip.Registrar.bound_aors r) in
        if audit <> [] || bound <> users || Sip.Registrar.shard_count r <> max_shards
        then begin
          Printf.printf
            "REGISTRAR STORM GATE FAILURE (%s): bound %d/%d, %d/%d shards, audit [%s]\n" name
            bound users (Sip.Registrar.shard_count r) max_shards
            (String.concat ", " audit);
          exit 2
        end;
        Printf.printf
          "registrar storm gate OK (%s): %d users over %d shards, %d resize(s), %d \
           migration(s), audit clean\n%!"
          name users (Sip.Registrar.shard_count r) (Sip.Registrar.resizes r)
          (Sip.Registrar.migrations r);
        let n_reports, digest = verdict sink in
        (name, subject, n_reports, digest, m, gc_words))
      variants
  in
  (* interleave the timed repetitions so clock drift hits both equally *)
  let reps = if quick then 3 else 6 in
  let spent = Hashtbl.create 4 in
  List.iter (fun (name, _, _, _, _, _) -> Hashtbl.replace spent name 0.) audited;
  List.iter
    (fun (_, subject, _, _, _, _) ->
      ignore (storm_run ~quick ~seed (tools_of (subject_sink subject))))
    audited (* warm-up *);
  for _ = 1 to reps do
    List.iter
      (fun (name, subject, _, _, _, _) ->
        let tools = tools_of (subject_sink subject) in
        let t0 = Sys.time () in
        ignore (storm_run ~quick ~seed tools);
        Hashtbl.replace spent name (Hashtbl.find spent name +. (Sys.time () -. t0)))
      audited
  done;
  let rows =
    List.map
      (fun (name, _, reports, digest, m, gc_words) ->
        let ns = Hashtbl.find spent name /. float_of_int reps *. 1e9 in
        let counter n = Option.value ~default:0 (Obs.Metrics.find_counter m n) in
        {
          r_workload = storm_workload_name;
          r_config = name;
          r_events = events;
          r_reports = reports;
          r_sig_digest = digest;
          r_ns_per_run = ns;
          r_events_per_sec = (if ns <= 0. then 0. else float_of_int events /. (ns /. 1e9));
          r_minor_words_per_event = 0.;
          r_normalized = 0.;
          (* filled below for the detector row *)
          r_checked = counter "detector.helgrind.accesses_checked";
          r_fast_hits = counter "detector.helgrind.fast_path_hits";
          r_interned = 0;
          r_gc_words_per_event =
            (if events = 0 then 0. else gc_words /. float_of_int events);
        })
      audited
  in
  let base = List.find (fun r -> r.r_config = "storm-no-tool") rows in
  List.map
    (fun r ->
      if r.r_config = "storm-no-tool" || base.r_events_per_sec <= 0. then r
      else { r with r_normalized = r.r_events_per_sec /. base.r_events_per_sec })
    rows

(* --- domain-scaling suite ------------------------------------------- *)

(* The quick chaos grid run whole, once per domain count: the
   work-stealing pool's headline number (cells/sec vs domains) plus the
   determinism pin that justifies it — the concatenated per-cell
   digests must be byte-identical on every leg, or we exit 2.  The
   quick grid bounds the suite's runtime even in full mode; speedup is
   relative to the 1-domain leg and is only meaningful on runners with
   enough cores (CI checks it conditionally). *)

type scaling_row = {
  sc_domains : int;
  sc_cells : int;
  sc_seconds : float;
  sc_cells_per_sec : float;
  sc_speedup : float;  (** vs the 1-domain leg of the same process *)
  sc_steals : int;
  sc_digest : string;  (** MD5 over the per-cell digests, in cell order *)
}

let scaling_domains = [ 1; 2; 4; 8 ]

let scaling_rows ~seed =
  let config = { R.Chaos.quick with R.Chaos.seed } in
  let grid = R.Chaos.grid config in
  let leg domains =
    let t0 = Unix.gettimeofday () in
    let cells, stats =
      Raceguard_par.Par.map_cells_stats ~domains
        (fun (plan, tc, resilient) -> R.Chaos.run_cell config ~plan ~resilient tc)
        grid
    in
    let seconds = Unix.gettimeofday () -. t0 in
    let digest =
      Digest.to_hex
        (Digest.string
           (String.concat "\n"
              (Array.to_list
                 (Array.map
                    (fun (c : R.Chaos.cell) ->
                      Printf.sprintf "%s|%s|%b|%s|%s" c.R.Chaos.cl_plan c.R.Chaos.cl_test
                        c.R.Chaos.cl_resilient c.R.Chaos.cl_sig_digest
                        c.R.Chaos.cl_behavior_digest)
                    cells))))
    in
    {
      sc_domains = domains;
      sc_cells = Array.length cells;
      sc_seconds = seconds;
      sc_cells_per_sec =
        (if seconds <= 0. then 0. else float_of_int (Array.length cells) /. seconds);
      sc_speedup = 1.;  (* filled below *)
      sc_steals = stats.Raceguard_par.Par.st_steals;
      sc_digest = digest;
    }
  in
  let legs = List.map leg scaling_domains in
  let base = List.hd legs in
  List.iter
    (fun l ->
      if l.sc_digest <> base.sc_digest then begin
        Printf.printf
          "SCALING DETERMINISM FAILURE: %d-domain digest %s differs from 1-domain %s\n"
          l.sc_domains l.sc_digest base.sc_digest;
        exit 2
      end)
    legs;
  let legs =
    List.map
      (fun l ->
        {
          l with
          sc_speedup = (if l.sc_seconds <= 0. then 0. else base.sc_seconds /. l.sc_seconds);
        })
      legs
  in
  Printf.printf "scaling determinism OK: digest %s identical across domains %s\n%!"
    base.sc_digest
    (String.concat "/" (List.map string_of_int scaling_domains));
  legs

(* --- JSON output --------------------------------------------------- *)

let row_json r =
  let hit_rate =
    if r.r_checked = 0 then 0. else float_of_int r.r_fast_hits /. float_of_int r.r_checked
  in
  Json.Obj
    [
      ("workload", Json.Str r.r_workload);
      ("config", Json.Str r.r_config);
      ("events", Json.int r.r_events);
      ("reports", Json.int r.r_reports);
      ("sig_digest", Json.Str r.r_sig_digest);
      ("ns_per_run", Json.Num r.r_ns_per_run);
      ("events_per_sec", Json.Num r.r_events_per_sec);
      ("minor_words_per_event", Json.Num r.r_minor_words_per_event);
      ("normalized", Json.Num r.r_normalized);
      ( "metrics",
        Json.Obj
          [
            ("accesses_checked", Json.int r.r_checked);
            ("fast_path_hits", Json.int r.r_fast_hits);
            ("fast_path_hit_rate", Json.Num hit_rate);
            ("lockset_interned", Json.int r.r_interned);
            ("gc_minor_words_per_event", Json.Num r.r_gc_words_per_event);
          ] );
    ]

let scaling_json l =
  Json.Obj
    [
      ("domains", Json.int l.sc_domains);
      ("cells", Json.int l.sc_cells);
      ("seconds", Json.Num l.sc_seconds);
      ("cells_per_sec", Json.Num l.sc_cells_per_sec);
      ("speedup", Json.Num l.sc_speedup);
      ("steals", Json.int l.sc_steals);
      ("digest", Json.Str l.sc_digest);
    ]

let write_json ~out ~quick ~seed ~domains ~scaling rows =
  let configs =
    List.map (fun s -> (s, subject_config s)) subjects
    @ hints_configs @ faults_configs @ trace_configs @ storm_configs
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "raceguard-bench/2");
        ("seed", Json.int seed);
        ("mode", Json.Str (if quick then "quick" else "full"));
        ("domains", Json.int domains);
        ("scaling", Json.List (List.map scaling_json scaling));
        ("configs", Json.Obj configs);
        ("results", Json.List (List.map row_json rows));
      ]
  in
  Out_channel.with_open_bin out (fun oc ->
      output_string oc (Json.to_string ~indent:2 doc);
      output_char oc '\n')

let print_summary rows =
  Printf.printf "%-18s %-18s %10s %12s %8s %8s\n" "workload" "config" "events"
    "events/sec" "norm" "reports";
  List.iter
    (fun r ->
      Printf.printf "%-18s %-18s %10d %12.0f %8.3f %8d\n" r.r_workload r.r_config r.r_events
        r.r_events_per_sec r.r_normalized r.r_reports)
    rows

(* --- baseline comparison ------------------------------------------- *)

(* (workload, config) -> normalized throughput of every baseline row.
   A file that does not parse or has no rows is an error: comparing
   against nothing would pass vacuously. *)
let load_baseline file =
  match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
  | exception Sys_error e -> Error e
  | Error e -> Error (file ^ " does not parse: " ^ e)
  | Ok doc -> (
      match Option.bind (Json.member "results" doc) Json.to_list_opt with
      | None | Some [] -> Error (file ^ " has no \"results\" rows")
      | Some rows ->
          let str k r = Option.bind (Json.member k r) Json.to_string_opt in
          let num k r = Option.bind (Json.member k r) Json.to_float_opt in
          Ok
            (List.filter_map
               (fun r ->
                 match (str "workload" r, str "config" r) with
                 | Some w, Some c -> Some ((w, c), Option.value ~default:0. (num "normalized" r))
                 | _ -> None)
               rows))

let compare_baseline ~threshold_pct ~baseline ~base rows =
  let tolerance = 1. -. (threshold_pct /. 100.) in
  let matched =
    List.filter_map
      (fun r ->
        if r.r_config = "no-tool" then None
        else
          Option.map (fun b -> (r, b)) (List.assoc_opt (r.r_workload, r.r_config) base))
      rows
  in
  let regressions =
    List.filter_map
      (fun (r, b_norm) ->
        if b_norm = 0. then None
        else
          (* normalized throughput is machine-speed independent:
             detector events/sec relative to the no-tool run of the
             same binary on the same machine *)
          let ratio = r.r_normalized /. b_norm in
          if ratio < tolerance then Some (r, b_norm, ratio) else None)
      matched
  in
  if matched = [] then
    Printf.printf "BASELINE MISMATCH: %s shares no detector row with this run\n" baseline
  else if regressions = [] then
    Printf.printf "baseline comparison OK (threshold %.0f%%, %s, %d row(s))\n" threshold_pct
      baseline (List.length matched)
  else begin
    Printf.printf "PERF REGRESSION vs %s (threshold %.0f%%):\n" baseline threshold_pct;
    List.iter
      (fun (r, b_norm, ratio) ->
        Printf.printf "  %s/%s: normalized %.3f vs baseline %.3f (%.0f%% of baseline)\n"
          r.r_workload r.r_config r.r_normalized b_norm (ratio *. 100.))
      regressions
  end;
  matched <> [] && regressions = []

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe [--quick] [--seed N] [--domains N] [--out FILE] [--compare FILE] \
     [--max-regression PCT]";
  exit 2

let () =
  let quick = ref false
  and seed_ref = ref seed
  and domains = ref 1
  and out = ref "BENCH_detector.json"
  and baseline = ref None
  and threshold = ref 25. in
  let number of_string x = match of_string x with Some v -> v | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--seed" :: n :: rest ->
        seed_ref := number int_of_string_opt n;
        parse rest
    | "--domains" :: n :: rest ->
        domains := number int_of_string_opt n;
        parse rest
    | "--out" :: f :: rest ->
        out := f;
        parse rest
    | "--compare" :: f :: rest ->
        baseline := Some f;
        parse rest
    | "--max-regression" :: p :: rest ->
        threshold := number float_of_string_opt p;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* check the baseline before spending minutes on the suite *)
  let base =
    Option.map
      (fun file ->
        match load_baseline file with
        | Ok base -> base
        | Error e ->
            Printf.printf "BASELINE ERROR: %s\n" e;
            exit 2)
      !baseline
  in
  let domains = Raceguard_par.Par.resolve !domains in
  Printf.printf "throughput suite: mode=%s seed=%d domains=%d\n%!"
    (if !quick then "quick" else "full")
    !seed_ref domains;
  let rows = run_throughput ~quick:!quick ~seed:!seed_ref ~domains in
  epoch_gate rows;
  let rows = rows @ hints_rows ~quick:!quick ~seed:!seed_ref in
  let rows = rows @ faults_rows ~quick:!quick ~seed:!seed_ref in
  let rows = rows @ trace_rows ~quick:!quick ~seed:!seed_ref in
  let rows = rows @ fix_rows ~quick:!quick ~seed:!seed_ref in
  let rows = rows @ storm_rows ~quick:!quick ~seed:!seed_ref in
  let scaling = scaling_rows ~seed:!seed_ref in
  write_json ~out:!out ~quick:!quick ~seed:!seed_ref ~domains ~scaling rows;
  print_summary rows;
  Printf.printf "%-10s %8s %10s %14s %8s %8s\n" "scaling" "domains" "cells"
    "cells/sec" "speedup" "steals";
  List.iter
    (fun l ->
      Printf.printf "%-10s %8d %10d %14.2f %8.2f %8d\n" "" l.sc_domains l.sc_cells
        l.sc_cells_per_sec l.sc_speedup l.sc_steals)
    scaling;
  Printf.printf "wrote %s\n" !out;
  match (!baseline, base) with
  | Some baseline, Some base ->
      if not (compare_baseline ~threshold_pct:!threshold ~baseline ~base rows) then exit 2
  | _ -> ()
