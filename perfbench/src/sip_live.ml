(** [sip-live]: the paper's own use of the tool — the SIP test suite
    T1–T8 run under detector sets, one [Runner.run_test_case] per op,
    on one domain.  The VM core, tool dispatch, the live detectors and
    the SIP application do nearly all the work; [lib/par], the trace
    codec and the fault injector stay idle. *)

open Raceguard
module Vm = Raceguard_vm
module Det = Raceguard_detector
module Sip = Raceguard_sip
module Obs = Raceguard_obs
module Json = Obs.Json
open Work

type set = Bare | Figure6 | Fasttrack

let sets = [ Bare; Figure6; Fasttrack ]
let set_name = function Bare -> "bare" | Figure6 -> "figure6" | Fasttrack -> "fasttrack"

(** Detector configurations each set runs, as digest labels. *)
let labels = function
  | Bare -> []
  | Figure6 -> List.map fst Runner.default.helgrind_configs
  | Fasttrack -> [ "FastTrack" ]

(** VM seeds whose outputs are pinned; runs draw their seeds here. *)
let seed_pool = Array.init 32 (fun i -> i + 1)

let tests = Sip.Workload.all_test_cases

let runner_config set seed =
  match set with
  | Bare -> { Runner.default with seed; helgrind_configs = [] }
  | Figure6 -> { Runner.default with seed }
  | Fasttrack -> { Runner.default with seed; helgrind_configs = []; run_fasttrack = true }

let key (tc : Sip.Workload.test_case) seed what =
  Printf.sprintf "sip/%s/%d/%s" tc.tc_name seed what

(** What one run produced, however it was wired. *)
type output = {
  outcome : Vm.Engine.outcome;
  oracle : Sip.Workload.run_result option;
  events : int;
  digests : (string * string) list;  (** digest label → signature digest *)
}

let helgrind_digest h = Det.Offline.digest_signatures (Det.Helgrind.locations h)
let fasttrack_digest f = Det.Offline.digest_signatures (Det.Fasttrack.locations f)

let of_runner (r : Runner.result) =
  {
    outcome = r.outcome;
    oracle = r.oracle;
    events = counter r.metrics "vm.events_emitted";
    digests =
      List.map (fun (name, h) -> (name, helgrind_digest h)) r.helgrind
      @ (match r.fasttrack with Some f -> [ ("FastTrack", fasttrack_digest f) ] | None -> []);
  }

let requests o = match o.oracle with Some r -> r.r_requests_handled | None -> -1

(** Why a run's output is wrong: the SIP functional oracle, a raised
    thread, a deadlock, then the pinned event and request counts and
    every configuration's signature digest. *)
let check expected tc seed set o =
  first_failure
    ([
       (match o.oracle with
       | None -> Some "main thread did not complete"
       | Some { r_failures = f :: _; _ } -> Some ("SIP oracle: " ^ f)
       | Some _ -> None);
       (match o.outcome.failures with
       | [] -> None
       | (_, name, e) :: _ -> Some (Printf.sprintf "thread %s raised %s" name (Printexc.to_string e)));
       (if o.outcome.deadlock <> None then Some "deadlock or op budget exhausted" else None);
       Expected.check expected (key tc seed "events") (string_of_int o.events);
       Expected.check expected (key tc seed "requests") (string_of_int (requests o));
     ]
    @ List.map
        (fun label ->
          match List.assoc_opt label o.digests with
          | None -> Some (label ^ ": configuration did not run")
          | Some d -> Expected.check expected (key tc seed label) d)
        (labels set))

let op_name (tc : Sip.Workload.test_case) set seed =
  Printf.sprintf "%s/%s/s%d" tc.tc_name (set_name set) seed

(** One workload op: the program's own [Runner]. *)
let run_op expected (tc, set, seed) =
  let r, ns, words = measure (fun () -> Runner.run_test_case (runner_config set seed) tc) in
  let o = of_runner r in
  {
    o_name = op_name tc set seed;
    o_ns = ns;
    o_events = o.events;
    o_words = words;
    o_failure = check expected tc seed set o;
  }

(* --- wiring the VM from outside, for the traced run ---------------- *)

type vm_run = {
  v_outcome : Vm.Engine.outcome;
  v_oracle : Sip.Workload.run_result option;
  v_start : int;
  v_ns : int;
  v_words : float;
  v_delta : Obs.Metrics.snapshot;
}

(** Run test case [tc] on a fresh VM with exactly [tools] attached, the
    way [Runner.run_test_case] does. *)
let vm_run ~seed tools (tc : Sip.Workload.test_case) =
  let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed } () in
  List.iter (Vm.Engine.add_tool vm) tools;
  let transport = Sip.Transport.create () in
  let oracle = ref None in
  let before = Obs.Metrics.snapshot () in
  let v_start = Clock.now_ns () in
  let v_outcome, v_ns, v_words =
    measure (fun () ->
        Vm.Engine.run vm (fun () ->
            oracle :=
              Some (Sip.Workload.run_test_case ~transport ~server_config:Runner.default.server tc ())))
  in
  let v_delta = Obs.Metrics.diff ~before (Obs.Metrics.snapshot ()) in
  { v_outcome; v_oracle = !oracle; v_start; v_ns; v_words; v_delta }

let output_of v digests =
  {
    outcome = v.v_outcome;
    oracle = v.v_oracle;
    events = counter v.v_delta "vm.events_emitted";
    digests;
  }

(** Fresh detector instances for a set: (label, tool, digest). *)
let detectors set =
  match set with
  | Bare -> []
  | Figure6 ->
      List.map
        (fun (label, cfg) ->
          let h = Det.Helgrind.create cfg in
          (label, Det.Helgrind.tool h, fun () -> helgrind_digest h))
        Runner.default.helgrind_configs
  | Fasttrack ->
      let f = Det.Fasttrack.create () in
      [ ("FastTrack", Det.Fasttrack.tool f, fun () -> fasttrack_digest f) ]

(** [tool] with every [on_event] call timed into [acc]. *)
let wrap acc (tool : Vm.Tool.t) =
  {
    tool with
    Vm.Tool.on_event =
      (fun ctx e ->
        let t0 = Clock.now_ns () in
        tool.on_event ctx e;
        acc := !acc + (Clock.now_ns () - t0));
  }

type wrapped = {
  w_run : vm_run;
  w_output : output;
  w_self_ns : (string * int) list;
      (** per detector label: time inside its [on_event], less the
          same wrapper's time around a no-op tool (clock overhead) *)
}

(** The set's detectors, each behind a timing wrapper, beside a wrapped
    no-op tool that calibrates the wrapper's own cost. *)
let wrapped_run ~seed set tc =
  let dets = detectors set in
  let null_acc = ref 0 in
  let accs = List.map (fun _ -> ref 0) dets in
  let tools =
    wrap null_acc (Vm.Tool.of_fn "null" ignore) :: List.map2 (fun acc (_, t, _) -> wrap acc t) accs dets
  in
  let run = vm_run ~seed tools tc in
  {
    w_run = run;
    w_output = output_of run (List.map (fun (label, _, digest) -> (label, digest ())) dets);
    w_self_ns = List.map2 (fun acc (label, _, _) -> (label, !acc - !null_acc)) accs dets;
  }

let traced_op spans ~parent expected (tc, set, seed) =
  let name = op_name tc set seed in
  Spans.within spans ~parent ~cat:"runner" name (fun op ->
      let w = wrapped_run ~seed set tc in
      let r = w.w_run in
      ignore
        (Spans.add spans ~parent:op ~cat:"vm" ~start_ns:r.v_start ~end_ns:(r.v_start + r.v_ns)
           ~args:
             (("events", Json.int w.w_output.events)
             :: List.map (fun (label, ns) -> ("self_ns." ^ label, Json.int ns)) w.w_self_ns)
           "Vm.Engine.run");
      {
        o_name = name;
        o_ns = r.v_ns;
        o_events = w.w_output.events;
        o_words = r.v_words;
        o_failure = check expected tc seed set w.w_output;
      })

(* --- inputs ---------------------------------------------------------- *)

(** One round: every test case under every set, each test case at one
    seed drawn from the pool, in a shuffled order. *)
let round_plan rng =
  let plan =
    List.concat_map
      (fun tc ->
        let seed = seed_pool.(Random.State.int rng (Array.length seed_pool)) in
        List.map (fun set -> (tc, set, seed)) sets)
      tests
    |> Array.of_list
  in
  shuffle rng plan;
  Array.to_list plan

(* --- layer probes ---------------------------------------------------- *)

let reps = 3

let median_of f = Stats.median (Array.init reps (fun _ -> f ()))

(** Layer numbers for the VM core, tool dispatch, each live detector
    and the SIP application, measured per test case at one seed each:
    bare and no-op-tool VM runs, each detector alone, the program's
    own [Runner] per set, and the wrapped runs that time each detector's
    [on_event]. *)
let probe expected ~seed =
  let rng = Random.State.make [| seed; 0x1a7e |] in
  let problems = ref [] in
  let note tc seed what = function
    | None -> ()
    | Some why ->
        problems :=
          Printf.sprintf "probe %s/%d/%s: %s" tc.Sip.Workload.tc_name seed what why :: !problems
  in
  let tag_of_label = function
    | "Original" -> "original"
    | "HWLC" -> "hwlc"
    | "HWLC+DR" -> "hwlc_dr"
    | _ -> "fasttrack"
  in
  let singles =
    List.map
      (fun (label, cfg) -> (tag_of_label label, fun () -> Det.Helgrind.tool (Det.Helgrind.create cfg)))
      Runner.default.helgrind_configs
    @ [ ("fasttrack", fun () -> Det.Fasttrack.tool (Det.Fasttrack.create ())) ]
  in
  let sum = Hashtbl.create 64 in
  let add k v = Hashtbl.replace sum k (v +. Option.value ~default:0. (Hashtbl.find_opt sum k)) in
  let get k = Option.value ~default:0. (Hashtbl.find_opt sum k) in
  let metrics_sum = ref Obs.Metrics.empty in
  let interned = ref 0 in
  List.iter
    (fun (tc : Sip.Workload.test_case) ->
      let seed = seed_pool.(Random.State.int rng (Array.length seed_pool)) in
      let bare = List.init reps (fun _ -> vm_run ~seed [] tc) in
      let b = List.hd bare in
      note tc seed "bare" (check expected tc seed Bare (output_of b []));
      let events = fi (counter b.v_delta "vm.events_emitted") in
      let bare_ns = Stats.median (Array.of_list (List.map (fun r -> fi r.v_ns) bare)) in
      let null_ns = median_of (fun () -> fi (vm_run ~seed [ Vm.Tool.of_fn "null" ignore ] tc).v_ns) in
      add "events" events;
      add "bare_ns" bare_ns;
      add "bare_words" (Stats.median (Array.of_list (List.map (fun r -> r.v_words) bare)));
      add "ops" (fi b.v_outcome.stats.ops_executed);
      add "switches" (fi b.v_outcome.stats.scheduler_switches);
      add "requests" (fi (match b.v_oracle with Some o -> o.r_requests_handled | None -> 0));
      add "dispatch_ns" (null_ns -. bare_ns);
      List.iter
        (fun (tag, make) ->
          let runs = List.init reps (fun _ -> vm_run ~seed [ make () ] tc) in
          add (tag ^ ".ns") (Stats.median (Array.of_list (List.map (fun r -> fi r.v_ns) runs)));
          add (tag ^ ".words") (Stats.median (Array.of_list (List.map (fun r -> r.v_words) runs))))
        singles;
      List.iter
        (fun set ->
          let runner_ns =
            median_of (fun () ->
                let r, ns, _ = measure (fun () -> Runner.run_test_case (runner_config set seed) tc) in
                note tc seed (set_name set) (check expected tc seed set (of_runner r));
                metrics_sum := Obs.Metrics.merge !metrics_sum r.metrics;
                interned := max !interned (gauge r.metrics "detector.lockset.interned");
                fi ns)
          in
          let w = wrapped_run ~seed set tc in
          note tc seed (set_name set ^ "-wrapped") (check expected tc seed set w.w_output);
          let self = List.fold_left (fun acc (_, ns) -> acc +. fi ns) 0. w.w_self_ns in
          List.iter (fun (label, ns) -> add (tag_of_label label ^ ".self_ns") (fi ns)) w.w_self_ns;
          let k = fi (List.length w.w_self_ns) in
          add "runner_ns" runner_ns;
          add "unaccounted_ns" (runner_ns -. bare_ns -. (k *. (null_ns -. bare_ns)) -. self))
        [ Figure6; Fasttrack ])
    tests;
  let events = get "events" in
  let per_event k = ratio (get k) events in
  let m = !metrics_sum in
  let hit_rate hits total = ratio (fi (counter m hits)) (fi total) in
  let memo_rate prefix =
    hit_rate (prefix ^ "_hits") (counter m (prefix ^ "_hits") + counter m (prefix ^ "_misses"))
  in
  ( [
      metric "vm.ns_per_event" "ns" (per_event "bare_ns");
      metric "vm.minor_words_per_event" "words/event" (per_event "bare_words");
      metric "vm.ops_per_event" "ops/event" (per_event "ops");
      metric "vm.switches_per_kevent" "1/kevent" (1000. *. per_event "switches");
      metric "tool.dispatch_ns_per_event" "ns" (per_event "dispatch_ns");
      metric "runner.unaccounted_frac" "fraction" (ratio (get "unaccounted_ns") (get "runner_ns"));
      metric "sip.events_per_request" "events" (ratio events (get "requests"));
      metric "sip.requests_per_op" "requests" (get "requests" /. fi (List.length tests));
      metric "detector.helgrind.fast_path_hit_rate" "fraction"
        (hit_rate "detector.helgrind.fast_path_hits" (counter m "detector.helgrind.accesses_checked"));
      metric "detector.fasttrack.epoch_hit_rate" "fraction"
        (hit_rate "detector.fasttrack.epoch_hits" (counter m "detector.fasttrack.accesses_checked"));
      metric "detector.lockset.memo_hit_rate" "fraction" (memo_rate "detector.lockset.inter_memo");
      metric "detector.held_locks.memo_hit_rate" "fraction"
        (memo_rate "detector.held_locks.transition_memo");
      metric "detector.lockset.interned" "count" (fi !interned);
    ]
    @ List.concat_map
        (fun (tag, _) ->
          [
            metric ("detector." ^ tag ^ ".self_ns_per_event") "ns" (per_event (tag ^ ".self_ns"));
            metric
              ("detector." ^ tag ^ ".minor_words_per_event")
              "words/event"
              (ratio (get (tag ^ ".words") -. get "bare_words") events);
            metric ("detector.slowdown." ^ tag) "x" (ratio (get (tag ^ ".ns")) (get "bare_ns"));
          ])
        singles,
    List.rev !problems )

(* --- the workload ---------------------------------------------------- *)

let setup ~expected ~seed =
  let rng = Random.State.make [| seed |] in
  (* warm-up: two full rounds, so process-wide lockset and memo tables
     fill before timing *)
  let warm_up = List.concat_map (fun _ -> List.map (run_op expected) (round_plan rng)) [ 1; 2 ] in
  let pending = once (failures "warm-up" warm_up) in
  {
    round = (fun () -> { ops = List.map (run_op expected) (round_plan rng); problems = pending () });
    traced_round =
      (fun spans ->
        Spans.within spans ~cat:"runner" "sip-live round" (fun parent ->
            {
              ops = List.map (traced_op spans ~parent expected) (round_plan rng);
              problems = pending ();
            }));
    layer_metrics = (fun () -> probe expected ~seed);
  }

let workload = { w_name = "sip-live"; setup }
