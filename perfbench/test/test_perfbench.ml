(* Tests of the benchmark's own machinery: the tail-percentile rule,
   the failure classifier, and determinism of a workload's inputs. *)

open Perfbench

let expected () =
  match Expected.load "../expected.json" with Ok t -> t | Error e -> Alcotest.fail e

let samples n = Array.init n (fun i -> float_of_int (n - i))

let test_tail () =
  let check n pm value =
    match Stats.tail (samples n) with
    | None -> Alcotest.failf "n=%d: no tail" n
    | Some t ->
        Alcotest.(check int) (Printf.sprintf "n=%d percentile" n) pm t.t_pm;
        Alcotest.(check (float 0.)) (Printf.sprintf "n=%d value" n) value t.t_value;
        Alcotest.(check int) (Printf.sprintf "n=%d count" n) n t.t_n;
        Alcotest.(check bool) "ten samples beyond" true (Stats.beyond n pm >= 10)
  in
  check 100 9000 90.;
  check 999 9000 900.;
  check 1000 9900 990.;
  check 10_000 9990 9990.;
  check 100_000 9999 99_990.;
  Alcotest.(check bool) "99 samples: no percentile has ten beyond" true
    (Stats.tail (samples 99) = None);
  Alcotest.(check (float 0.)) "median" 50. (Stats.median (samples 100));
  Alcotest.(check string) "label" "p99.9" (Stats.label 9990)

let tc name =
  List.find (fun (t : Raceguard_sip.Workload.test_case) -> t.tc_name = name) Sip_live.tests

let test_classifier () =
  let table = expected () in
  let op = (tc "T7", Sip_live.Fasttrack, 1) in
  let ok = Sip_live.run_op table op in
  Alcotest.(check (option string)) "pinned output passes" None ok.o_failure;
  let key = Sip_live.key (tc "T7") 1 "FastTrack" in
  let flipped = Hashtbl.copy table in
  Hashtbl.replace flipped key (String.map (function '0' -> '1' | _ -> '0') (Hashtbl.find table key));
  let bad = Sip_live.run_op flipped op in
  Alcotest.(check bool) "flipped digest fails the op" true (bad.o_failure <> None);
  let v = Work.verdict [ ok; bad ] [] in
  Alcotest.(check (list int)) "attempted, failed" [ 2; 1 ] [ v.attempted; v.failed ];
  Alcotest.(check bool) "run with a failed op is not correct" false v.correct;
  let missing = Hashtbl.copy table in
  Hashtbl.remove missing key;
  Alcotest.(check bool) "missing pin fails the op" true
    ((Sip_live.run_op missing op).o_failure <> None);
  let empty = Work.verdict [] [] in
  Alcotest.(check bool) "zero-op run is not correct" false empty.correct;
  Alcotest.(check bool) "clean run is correct" true (Work.verdict [ ok ] []).correct;
  Alcotest.(check bool) "round problem fails the run" false
    (Work.verdict [ ok ] [ "asymmetry" ]).correct

let test_replay_classifier () =
  let r, problems = Trace_replay.record ~seed:1 (tc "T7") in
  Alcotest.(check (list string)) "recording completes" [] problems;
  let reader =
    match Raceguard_trace.Reader.of_string r.bytes with
    | Ok reader -> reader
    | Error (`Msg e) -> Alcotest.fail e
  in
  let v = Raceguard_detector.Offline.replay_config reader "fasttrack" in
  Alcotest.(check (option string)) "replay equals live" None (Trace_replay.check r v);
  let flip (l : Raceguard_detector.Offline.verdict) =
    if l.v_config = "fasttrack" then { l with v_sig_digest = "0" ^ l.v_sig_digest } else l
  in
  Alcotest.(check bool) "flipped live digest fails the op" true
    (Trace_replay.check { r with live = List.map flip r.live } v <> None);
  Alcotest.(check bool) "missing live verdict fails the op" true
    (Trace_replay.check { r with live = [] } v <> None)

let test_repeat () =
  let table = expected () in
  let counts () =
    let inst = Sip_live.workload.setup ~expected:table ~seed:5 in
    List.map (fun (o : Work.op) -> (o.o_name, o.o_events)) (inst.round ()).ops
  in
  let first = counts () in
  Alcotest.(check int) "a round holds every op" 24 (List.length first);
  Alcotest.(check (list (pair string int))) "same ops and event counts" first (counts ())

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "tail percentile has ten samples beyond it" `Quick test_tail;
          Alcotest.test_case "classifier fails flipped digest and empty run" `Quick test_classifier;
          Alcotest.test_case "replay classifier fails flipped live digest" `Quick
            test_replay_classifier;
          Alcotest.test_case "sip-live ops and events repeat for one seed" `Slow test_repeat;
        ] );
    ]
