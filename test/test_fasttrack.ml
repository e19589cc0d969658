(* FastTrack (epoch-based happens-before) — equivalence with DJIT and
   the epoch-state transitions.

   The central law: FastTrack is a representation change, not an
   algorithm change.  On any schedule it must report exactly DJIT's
   races, rendered byte-identically (same previous access in the
   detail line, same order, same occurrence counts) — pinned here on
   random programs across first_only × demotion-cadence configurations
   and on the eight SIP test cases, and pinned live-vs-replay for the
   whole registry in test_trace.ml. *)

module Vm = Raceguard_vm
module Engine = Vm.Engine
module Api = Vm.Api
module Det = Raceguard_detector
module Sip = Raceguard_sip
module R = Raceguard
module Loc = Raceguard_util.Loc

let loc = Loc.v "ft.c" "main" 1

let run_djit ?(seed = 1) ?(config = Det.Djit.default_config) program =
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  let d = Det.Djit.create ~config () in
  Engine.add_tool vm (Det.Djit.tool d);
  let _ = Engine.run vm program in
  d

let run_ft ?(seed = 1) ?(config = Det.Fasttrack.default_config) program =
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  let f = Det.Fasttrack.create ~config () in
  Engine.add_tool vm (Det.Fasttrack.tool f);
  let _ = Engine.run vm program in
  f

let djit_digests d =
  ( Det.Offline.digest_signatures (Det.Djit.locations d),
    Det.Offline.digest_reports (Det.Djit.reports d) )

let ft_digests f =
  ( Det.Offline.digest_signatures (Det.Fasttrack.locations f),
    Det.Offline.digest_reports (Det.Fasttrack.reports f) )

(* --- the equivalence law on random schedules ----------------------------- *)

let ft_config ~first_only ~demote_check =
  { Det.Fasttrack.first_only; demote_check }

let qc_equivalence =
  QCheck2.Test.make ~name:"fasttrack ≡ djit (digests, random schedules)" ~count:50
    Test_properties.gen_program (fun p ->
      List.for_all
        (fun seed ->
          List.for_all
            (fun discipline ->
              let program = Test_properties.build p ~discipline in
              List.for_all
                (fun first_only ->
                  let dj =
                    djit_digests
                      (run_djit ~seed
                         ~config:{ Det.Djit.default_config with first_only }
                         program)
                  in
                  (* demote_check 0 = classic FastTrack (never demote),
                     1 = demote at every opportunity, 32 = the default
                     cadence — all three must be invisible in the
                     reports *)
                  List.for_all
                    (fun demote_check ->
                      dj
                      = ft_digests
                          (run_ft ~seed ~config:(ft_config ~first_only ~demote_check) program))
                    [ 0; 1; 32 ])
                [ true; false ])
            [ true; false ])
        [ 1; 7 ])

(* --- the hybrid gate: VC and epoch engines agree ------------------------- *)

let run_hybrid ?(seed = 1) ~config program =
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  let h = Det.Hybrid.create ~config () in
  Engine.add_tool vm (Det.Hybrid.tool h);
  let _ = Engine.run vm program in
  ( Det.Offline.digest_signatures (Det.Hybrid.locations h),
    Det.Offline.digest_reports (Det.Hybrid.reports h) )

let qc_hybrid_gate_equivalence =
  QCheck2.Test.make ~name:"hybrid VC gate ≡ epoch gate (random schedules)" ~count:40
    Test_properties.gen_program (fun p ->
      List.for_all
        (fun seed ->
          let program = Test_properties.build p ~discipline:false in
          run_hybrid ~seed ~config:Det.Hybrid.default_config program
          = run_hybrid ~seed ~config:Det.Hybrid.epoch_config program)
        [ 1; 7 ])

(* --- epoch-state transitions, one by one --------------------------------- *)

(* read-same-epoch: repeated reads by one thread are O(1) skips *)
let test_same_epoch_reads () =
  let f =
    run_ft (fun () ->
        let a = Api.alloc ~loc 1 in
        Api.write ~loc a 0;
        for _ = 1 to 50 do
          ignore (Api.read ~loc a)
        done)
  in
  Alcotest.(check int) "silent" 0 (Det.Fasttrack.location_count f);
  Alcotest.(check int) "never promoted" 0 (Det.Fasttrack.read_promotions f);
  Alcotest.(check bool) "reads decided on the epoch fast path" true
    (Det.Fasttrack.epoch_hits f >= 50)

(* read-exclusive replacement: totally ordered reads by different
   threads stay a single epoch *)
let test_ordered_reads_replace () =
  let f =
    run_ft (fun () ->
        let a = Api.alloc ~loc 1 in
        Api.write ~loc a 1;
        let t = Api.spawn ~loc ~name:"r1" (fun () -> ignore (Api.read ~loc a)) in
        Api.join ~loc t;
        ignore (Api.read ~loc a);
        let t2 = Api.spawn ~loc ~name:"r2" (fun () -> ignore (Api.read ~loc a)) in
        Api.join ~loc t2)
  in
  Alcotest.(check int) "silent" 0 (Det.Fasttrack.location_count f);
  Alcotest.(check int) "ordered reads never promote" 0 (Det.Fasttrack.read_promotions f)

(* read-shared promotion: genuinely concurrent readers *)
let test_concurrent_reads_promote () =
  let f =
    run_ft (fun () ->
        let a = Api.alloc ~loc 1 in
        Api.write ~loc a 1;
        let reader () = ignore (Api.read ~loc a) in
        let t1 = Api.spawn ~loc ~name:"r1" reader in
        let t2 = Api.spawn ~loc ~name:"r2" reader in
        Api.join ~loc t1;
        Api.join ~loc t2)
  in
  Alcotest.(check int) "exactly one promotion" 1 (Det.Fasttrack.read_promotions f);
  Alcotest.(check int) "concurrent reads are not a race" 0 (Det.Fasttrack.location_count f)

(* write-exclusive fast path: a tight single-thread update loop *)
let test_same_epoch_writes () =
  let f =
    run_ft (fun () ->
        let a = Api.alloc ~loc 1 in
        for i = 1 to 50 do
          Api.write ~loc a i
        done)
  in
  Alcotest.(check int) "silent" 0 (Det.Fasttrack.location_count f);
  Alcotest.(check bool) "writes decided on the epoch fast path" true
    (Det.Fasttrack.epoch_hits f >= 49)

(* a write racing promoted (read-shared) state must render exactly
   DJIT's report — same previous read picked out of the vector *)
let shared_write_race () =
  let a = Api.alloc ~loc 1 in
  Api.write ~loc a 1;
  let reader k () = ignore (Api.read ~loc:(Loc.v "ft.c" "reader" (10 + k)) a) in
  let t1 = Api.spawn ~loc ~name:"r1" (reader 1) in
  let t2 = Api.spawn ~loc ~name:"r2" (reader 2) in
  let w = Api.spawn ~loc ~name:"w" (fun () -> Api.write ~loc:(Loc.v "ft.c" "w" 20) a 2) in
  Api.join ~loc t1;
  Api.join ~loc t2;
  Api.join ~loc w

let test_shared_write_race_matches_djit () =
  List.iter
    (fun seed ->
      let dj = djit_digests (run_djit ~seed shared_write_race) in
      let f = run_ft ~seed shared_write_race in
      Alcotest.(check (pair string string))
        (Fmt.str "seed %d: digests match djit" seed)
        dj (ft_digests f))
    [ 1; 2; 3; 7; 42 ]

(* demotion and re-promotion: the churn scenario promotes every word
   each round and the post-join sweeps demote them again *)
let test_demotion_and_repromotion () =
  let words = 4 and rounds = 2 in
  let program () = R.Scenarios.read_shared_churn ~threads:3 ~rounds ~iters:30 ~words () in
  let f = run_ft ~config:(ft_config ~first_only:true ~demote_check:1) program in
  Alcotest.(check int) "race-free" 0 (Det.Fasttrack.location_count f);
  Alcotest.(check bool)
    (Fmt.str "every word demoted at least once (%d)" (Det.Fasttrack.read_demotions f))
    true
    (Det.Fasttrack.read_demotions f >= words);
  Alcotest.(check bool)
    (Fmt.str "demoted words re-promote next round (%d promotions)"
       (Det.Fasttrack.read_promotions f))
    true
    (Det.Fasttrack.read_promotions f >= rounds * words);
  (* the default cadence still demotes on this workload *)
  let f32 = run_ft program in
  Alcotest.(check bool) "default cadence demotes too" true
    (Det.Fasttrack.read_demotions f32 >= 1)

(* --- the unordered_now dead-cell fix ------------------------------------- *)

(* Once first_only retires a cell its shadow state goes stale; the
   composition probe must answer false instead of gating on it.  Both
   detectors run on the same stream; the probing tid never synchronised
   with either writer, so the stale last-write would look unordered. *)
let test_unordered_now_dead_cell () =
  let vm = Engine.create ~config:{ Engine.default_config with seed = 1 } () in
  let d = Det.Djit.create () in
  let f = Det.Fasttrack.create () in
  Engine.add_tool vm (Det.Djit.tool d);
  Engine.add_tool vm (Det.Fasttrack.tool f);
  let addr = ref 0 in
  let _ =
    Engine.run vm (fun () ->
        let a = Api.alloc ~loc 1 in
        addr := a;
        let t = Api.spawn ~loc ~name:"w" (fun () -> Api.write ~loc a 1) in
        Api.write ~loc a 2;
        Api.join ~loc t)
  in
  Alcotest.(check int) "djit reported and retired the cell" 1 (Det.Djit.location_count d);
  Alcotest.(check int) "fasttrack agrees" 1 (Det.Fasttrack.location_count f);
  Alcotest.(check bool) "djit: dead cell answers false" false
    (Det.Djit.unordered_now d ~tid:99 ~addr:!addr ~write:true);
  Alcotest.(check bool) "fasttrack: dead cell answers false" false
    (Det.Fasttrack.unordered_now f ~tid:99 ~addr:!addr ~write:true)

(* --- Vector_clock.pp normalization --------------------------------------- *)

(* pp must render the logical clock: two pointwise-equal clocks with
   different backing-array growth histories print identically *)
let qc_vc_pp_normalized =
  QCheck2.Test.make ~name:"Vc.pp invariant under growth history" ~count:200
    QCheck2.Gen.(pair (small_list (pair (int_bound 20) (int_bound 100))) (int_bound 40))
    (fun (assignments, extra) ->
      let a = Det.Vector_clock.create () in
      let b = Det.Vector_clock.create () in
      List.iter
        (fun (tid, v) ->
          Det.Vector_clock.set a tid v;
          Det.Vector_clock.set b tid v)
        assignments;
      (* grow b's backing array far past a's, with a zero entry *)
      Det.Vector_clock.set b (41 + extra) 1;
      Det.Vector_clock.set b (41 + extra) 0;
      Det.Vector_clock.equal a b
      && String.equal (Fmt.str "%a" Det.Vector_clock.pp a) (Fmt.str "%a" Det.Vector_clock.pp b))

(* --- alloc recycling ------------------------------------------------------ *)

(* E_alloc must fully reset recycled shadow state in both detectors —
   allocation-heavy workloads keep identical reports *)
let test_alloc_recycling_matches_djit () =
  let program () =
    let racer a =
      let t = Api.spawn ~loc ~name:"w" (fun () -> Api.write ~loc a 1) in
      Api.write ~loc a 2;
      Api.join ~loc t
    in
    (* allocate/free in a loop: the VM recycles addresses, so stale
       shadow (including dead cells) would leak across iterations *)
    for _ = 1 to 8 do
      let a = Api.alloc ~loc 16 in
      racer a;
      Api.free ~loc a
    done
  in
  List.iter
    (fun seed ->
      let dj = djit_digests (run_djit ~seed program) in
      let ft = ft_digests (run_ft ~seed program) in
      Alcotest.(check (pair string string))
        (Fmt.str "seed %d: digests match djit" seed)
        dj ft)
    [ 1; 7; 42 ]

(* --- live SIP pins: fasttrack ≡ djit on one shared event stream ----------- *)

(* FastTrack's whole value proposition is that almost every access is
   decided in the packed-epoch representation.  The counter is
   deterministic in the seed, so the gate cannot flake on a loaded
   machine.  The threshold sits just below the observed minimum across
   T1-T8 at seed 7 (T3 at 0.9405; every other test case is above 0.97). *)
let epoch_hit_floor = 0.93

let test_sip_equivalence () =
  List.iter
    (fun (tc : Sip.Workload.test_case) ->
      List.iter
        (fun seed ->
          let d = Det.Djit.create () in
          let cfg =
            { R.Runner.default with seed; helgrind_configs = []; run_fasttrack = true }
          in
          let res = R.Runner.run_test_case ~tools:[ Det.Djit.tool d ] cfg tc in
          let f = Option.get res.fasttrack in
          Alcotest.(check string)
            (Fmt.str "%s seed %d: signature digest" tc.tc_name seed)
            (Det.Offline.digest_signatures (Det.Djit.locations d))
            (Det.Offline.digest_signatures (Det.Fasttrack.locations f));
          Alcotest.(check string)
            (Fmt.str "%s seed %d: report digest" tc.tc_name seed)
            (Det.Offline.digest_reports (Det.Djit.reports d))
            (Det.Offline.digest_reports (Det.Fasttrack.reports f));
          if seed = 7 then begin
            let checked = Det.Fasttrack.accesses_checked f in
            let rate = float_of_int (Det.Fasttrack.epoch_hits f) /. float_of_int checked in
            if checked = 0 || rate < epoch_hit_floor then
              Alcotest.failf "%s seed 7: epoch hit rate %.4f < %.2f (%d accesses)" tc.tc_name
                rate epoch_hit_floor checked
          end)
        [ 7; 42 ])
    Sip.Workload.all_test_cases

let suite =
  ( "fasttrack",
    [
      QCheck_alcotest.to_alcotest qc_equivalence;
      QCheck_alcotest.to_alcotest qc_hybrid_gate_equivalence;
      QCheck_alcotest.to_alcotest qc_vc_pp_normalized;
      Alcotest.test_case "read-same-epoch fast path" `Quick test_same_epoch_reads;
      Alcotest.test_case "ordered reads replace (no promotion)" `Quick
        test_ordered_reads_replace;
      Alcotest.test_case "concurrent reads promote" `Quick test_concurrent_reads_promote;
      Alcotest.test_case "write-same-epoch fast path" `Quick test_same_epoch_writes;
      Alcotest.test_case "write racing read-shared renders DJIT's report" `Quick
        test_shared_write_race_matches_djit;
      Alcotest.test_case "adaptive demotion and re-promotion" `Quick
        test_demotion_and_repromotion;
      Alcotest.test_case "unordered_now: dead cells answer false" `Quick
        test_unordered_now_dead_cell;
      Alcotest.test_case "alloc recycling matches djit" `Quick
        test_alloc_recycling_matches_djit;
      Alcotest.test_case "fasttrack ≡ djit on T1-T8 (seeds 7/42, live)" `Slow
        test_sip_equivalence;
    ] )
