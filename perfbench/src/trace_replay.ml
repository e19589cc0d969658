(** [trace-replay]: the same detectors driven VM-free from decoded
    bytes.  Set-up records T1–T8 with [Trace_ops.record_test ~live],
    keeping the bytes and the live verdicts; each round decodes every
    trace once and replays it under every configuration.  One op is one
    (trace, configuration) replay, on one domain.  A VM change should
    leave this workload flat; a codec or detector change shows here
    without VM noise. *)

open Raceguard
module Det = Raceguard_detector
module Sip = Raceguard_sip
module Trace = Raceguard_trace
module Obs = Raceguard_obs
module Json = Obs.Json
open Work

(** The registry minus [djit] and [hybrid], which are pinned
    byte-identical to [fasttrack] and [hybrid-epoch]. *)
let configs = List.filter (fun c -> c <> "djit" && c <> "hybrid") Det.Offline.configs

(** Metric tag of a registry name: [helgrind-hwlc+dr] → [hwlc_dr]. *)
let tag config =
  let name =
    match String.index_opt config '-' with
    | Some i when String.sub config 0 i = "helgrind" ->
        String.sub config (i + 1) (String.length config - i - 1)
    | _ -> config
  in
  String.map (function '-' | '+' -> '_' | c -> c) name

type recording = {
  tc : Sip.Workload.test_case;
  seed : int;
  bytes : string;
  live : Det.Offline.verdict list;
}

let record ~seed tc =
  let r = Trace_ops.record_test ~seed ~live:configs tc in
  let problem =
    match (r.rec_outcome.deadlock, r.rec_outcome.failures) with
    | None, [] -> []
    | _ -> [ Printf.sprintf "set-up: recording %s/s%d did not complete" tc.tc_name seed ]
  in
  ({ tc; seed; bytes = Det.Offline.contents r.rec_recorder; live = r.rec_live }, problem)

let check r (v : Det.Offline.verdict) =
  match List.find_opt (fun (l : Det.Offline.verdict) -> l.v_config = v.v_config) r.live with
  | None -> Some (v.v_config ^ ": no live verdict to compare with")
  | Some l when Det.Offline.verdict_equal l v -> None
  | Some _ -> Some (v.v_config ^ ": replayed verdict differs from the live one")

(** Accumulated by traced rounds, per configuration tag and for the
    decoder: [ns], [words], [events], [bytes]. *)
type acc = (string, float) Hashtbl.t

let bump (acc : acc) key v =
  Hashtbl.replace acc key (v +. Option.value ~default:0. (Hashtbl.find_opt acc key))

let get (acc : acc) key = Option.value ~default:0. (Hashtbl.find_opt acc key)

(** Decode [r] once, then replay it under every configuration in the
    order given.  A trace's decode cost is shared evenly among its
    replays.  [observe] sees each step for the traced round. *)
let replay_trace ~observe r order =
  let decoded, decode_ns, decode_words = measure (fun () -> Trace.Reader.of_string r.bytes) in
  let name config = Printf.sprintf "%s/s%d/%s" r.tc.tc_name r.seed config in
  match decoded with
  | Error (`Msg e) ->
      List.map
        (fun config ->
          {
            o_name = name config;
            o_ns = decode_ns;
            o_events = 0;
            o_words = decode_words;
            o_failure = Some ("decode: " ^ e);
          })
        order
  | Ok reader ->
      observe (`Decode (reader, decode_ns));
      let share = List.length order in
      List.map
        (fun config ->
          let before = Obs.Metrics.snapshot () in
          let start_ns = Clock.now_ns () in
          let v, ns, words = measure (fun () -> Det.Offline.replay_config reader config) in
          observe (`Replay (config, v, start_ns, ns, words, before));
          {
            o_name = name config;
            o_ns = ns + (decode_ns / share);
            o_events = v.v_events;
            o_words = words +. (decode_words /. fi share);
            o_failure = check r v;
          })
        order

let round_plan rng recordings =
  let traces = Array.of_list recordings in
  shuffle rng traces;
  Array.to_list
    (Array.map
       (fun r ->
         let order = Array.of_list configs in
         shuffle rng order;
         (r, Array.to_list order))
       traces)

(* --- layer probe ----------------------------------------------------- *)

(** Recording cost per event: a recording-only run less a bare run of
    the same test case and seed (median of three each). *)
let record_ns_per_event recordings =
  let extra, events =
    List.fold_left
      (fun (extra, events) r ->
        let median_ns f = Stats.median (Array.init 3 (fun _ -> fi (f ()))) in
        let recorded =
          median_ns (fun () ->
              let _, ns, _ = measure (fun () -> Trace_ops.record_test ~seed:r.seed r.tc) in
              ns)
        in
        let bare_events = ref 0 in
        let bare =
          median_ns (fun () ->
              let v = Sip_live.vm_run ~seed:r.seed [] r.tc in
              bare_events := counter v.v_delta "vm.events_emitted";
              v.v_ns)
        in
        (extra +. recorded -. bare, events + !bare_events))
      (0., 0) recordings
  in
  ratio extra (fi events)

let layer_metrics acc recordings =
  let events = get acc "decode.events" in
  [
    metric "trace.decode_ns_per_event" "ns" (ratio (get acc "decode.ns") events);
    metric "trace.bytes_per_event" "bytes" (ratio (get acc "decode.bytes") events);
    metric "trace.record_ns_per_event" "ns" (record_ns_per_event recordings);
  ]
  @ List.concat_map
      (fun config ->
        let t = tag config in
        let events = get acc (t ^ ".events") in
        [
          metric ("replay." ^ t ^ ".ns_per_event") "ns" (ratio (get acc (t ^ ".ns")) events);
          metric
            ("replay." ^ t ^ ".minor_words_per_event")
            "words/event"
            (ratio (get acc (t ^ ".words")) events);
        ])
      configs

(* --- the workload ---------------------------------------------------- *)

let setup ~expected:_ ~seed =
  let rng = Random.State.make [| seed |] in
  let pool = Sip_live.seed_pool in
  let recordings, problems =
    List.split
      (List.map
         (fun tc -> record ~seed:pool.(Random.State.int rng (Array.length pool)) tc)
         Sip_live.tests)
  in
  let pending = once (List.concat problems) in
  let acc : acc = Hashtbl.create 64 in
  let run_round observe =
    List.concat_map (fun (r, order) -> replay_trace ~observe:(observe r) r order)
      (round_plan rng recordings)
  in
  {
    round = (fun () -> { ops = run_round (fun _ _ -> ()); problems = pending () });
    traced_round =
      (fun spans ->
        Spans.within spans ~cat:"replay" "trace-replay round" (fun parent ->
            let observe r = function
              | `Decode (reader, ns) ->
                  let events = fi (Trace.Reader.length reader) in
                  bump acc "decode.ns" (fi ns);
                  bump acc "decode.events" events;
                  bump acc "decode.bytes" (fi (String.length r.bytes));
                  let end_ns = Clock.now_ns () in
                  ignore
                    (Spans.add spans ~parent ~cat:"trace" ~start_ns:(end_ns - ns) ~end_ns
                       ~args:[ ("bytes", Json.int (String.length r.bytes)) ]
                       (r.tc.tc_name ^ " Trace.Reader.of_string"))
              | `Replay (config, (v : Det.Offline.verdict), start_ns, ns, words, before) ->
                  let t = tag config in
                  bump acc (t ^ ".ns") (fi ns);
                  bump acc (t ^ ".words") words;
                  bump acc (t ^ ".events") (fi v.v_events);
                  let delta = Obs.Metrics.diff ~before (Obs.Metrics.snapshot ()) in
                  let args =
                    List.filter_map
                      (fun (k, n) -> if n = 0 then None else Some (k, Json.int n))
                      delta.s_counters
                  in
                  ignore
                    (Spans.add spans ~parent ~cat:"replay" ~start_ns ~end_ns:(start_ns + ns) ~args
                       (r.tc.tc_name ^ " " ^ config))
            in
            { ops = run_round observe; problems = pending () }));
    layer_metrics = (fun () -> (layer_metrics acc recordings, []));
  }

let workload = { w_name = "trace-replay"; setup }
