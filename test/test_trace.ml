(* Tests for the binary trace plane ([lib/trace/] + the offline replay
   driver):

   - codec properties: varint/zigzag/string round-trips, incremental
     CRC-32 equals whole-buffer CRC-32;
   - qcheck container round-trip: decode (encode entries) = entries for
     random event streams, including interning-table reuse and snapshot
     markers at aggressive cadences;
   - corruption rejection: truncation anywhere, a flipped body byte
     (CRC), bad magics, wrong version byte are all decode errors;
   - recording determinism: the same (workload, seed) produces
     byte-identical trace files, and attaching the recorder does not
     move a live detector's digest;
   - the replay fidelity pin: for every SIP test case x seeds 7/42, all
     eight registry detector configurations replayed from the trace (at
     1 and 4 domains) produce verdicts byte-identical to the detectors
     that watched the run live;
   - the report-stream pin: every configuration's report digest on
     T1-T8 at seed 7, live and replayed, equals a committed hex value;
   - trace diffing: identical traces have no divergence; a mutated
     stream is pinpointed at the exact first divergent event;
   - recorder throughput metrics ride the Obs.Metrics registry. *)

module Trace = Raceguard_trace
module Codec = Trace.Codec
module Writer = Trace.Writer
module Reader = Trace.Reader
module Vm = Raceguard_vm
module Event = Vm.Event
module Eff = Vm.Eff
module Loc = Raceguard_util.Loc
module Det = Raceguard_detector
module Sip = Raceguard_sip
module Obs = Raceguard_obs
module R = Raceguard
module Gen = QCheck2.Gen

(* --- codec properties --------------------------------------------------- *)

let qc_varint_roundtrip =
  QCheck2.Test.make ~name:"varint round-trips" ~count:500
    Gen.(oneof [ int_bound 200; int_bound max_int ])
    (fun n ->
      let b = Buffer.create 10 in
      Codec.write_varint b n;
      let c = Codec.cursor (Buffer.contents b) in
      Codec.read_varint c = n && Codec.at_end c)

let qc_zigzag_roundtrip =
  (* zigzag doubles the magnitude, so the representable range is
     [-max_int/2, max_int/2] — plenty for the client-request tags it
     encodes *)
  QCheck2.Test.make ~name:"zigzag round-trips (negatives too)" ~count:500
    Gen.(map (fun (s, n) -> if s then -n else n) (pair bool (int_bound (max_int / 2))))
    (fun n ->
      let b = Buffer.create 10 in
      Codec.write_zigzag b n;
      let c = Codec.cursor (Buffer.contents b) in
      Codec.read_zigzag c = n && Codec.at_end c)

let qc_string_roundtrip =
  QCheck2.Test.make ~name:"length-prefixed strings round-trip" ~count:200
    Gen.(string_size (int_bound 64))
    (fun s ->
      let b = Buffer.create 16 in
      Codec.write_string b s;
      let c = Codec.cursor (Buffer.contents b) in
      Codec.read_string c = s && Codec.at_end c)

let qc_crc_incremental =
  QCheck2.Test.make ~name:"incremental CRC-32 = whole-buffer CRC-32" ~count:200
    Gen.(pair (string_size (int_bound 128)) (string_size (int_bound 128)))
    (fun (a, b) ->
      let whole = a ^ b in
      let one = Codec.crc32 whole 0 (String.length whole) in
      let two =
        Codec.crc32 ~crc:(Codec.crc32 a 0 (String.length a)) b 0 (String.length b)
      in
      one = two)

(* --- random entry streams ----------------------------------------------- *)

let locs =
  [|
    Loc.v "a.cpp" "f" 1;
    Loc.v "a.cpp" "g" 2;
    Loc.v "b.cpp" "h" 3;
    Loc.v "c.cpp" "i" 44;
    Loc.unknown;
  |]

let names = [| "main"; "worker"; "logger"; "reaper" |]
let gen_loc = Gen.(map (fun i -> locs.(i)) (int_bound (Array.length locs - 1)))
let gen_name = Gen.(map (fun i -> names.(i)) (int_bound (Array.length names - 1)))
let gen_stack = Gen.(list_size (int_bound 4) gen_loc)

let gen_sync =
  Gen.(
    map2
      (fun k i ->
        match k with
        | 0 -> Event.Mutex i
        | 1 -> Event.Rwlock i
        | 2 -> Event.Cond i
        | _ -> Event.Sem i)
      (int_bound 3) (int_bound 5))

let gen_block tid =
  Gen.(
    map3
      (fun base len freed ->
        {
          Vm.Memory.base;
          len = len + 1;
          alloc_tid = tid;
          alloc_loc = locs.(0);
          alloc_stack = [ locs.(0); locs.(1) ];
          freed;
        })
      (int_bound 1000) (int_bound 16) bool)

(* one random event plus the block a read/write would resolve to; the
   writer only encodes blocks for reads/writes, so other kinds carry
   [None] to keep the round-trip an equality *)
let gen_entry =
  let open Gen in
  let* tid = int_bound 5 in
  let* loc = gen_loc in
  let* kind = int_bound 16 in
  let* value = int_bound 10_000 in
  let* addr = int_bound 2000 in
  let* atomic = bool in
  let no_block ev = return (ev, None) in
  match kind with
  | 0 ->
      let* name = gen_name in
      let* parent = oneof [ return None; map Option.some (int_bound 3) ] in
      no_block (Event.E_thread_start { tid; name; parent })
  | 1 -> no_block (Event.E_thread_exit { tid })
  | 2 -> no_block (Event.E_spawn { parent = tid; child = tid + 1; loc })
  | 3 -> no_block (Event.E_join { joiner = tid; joined = tid + 1; loc })
  | 4 ->
      let* block = oneof [ return None; map Option.some (gen_block tid) ] in
      return (Event.E_read { tid; addr; value; atomic; loc }, block)
  | 5 ->
      let* block = oneof [ return None; map Option.some (gen_block tid) ] in
      return (Event.E_write { tid; addr; value; atomic; loc }, block)
  | 6 -> no_block (Event.E_alloc { tid; addr; len = (value mod 64) + 1; loc })
  | 7 -> no_block (Event.E_free { tid; addr; len = (value mod 64) + 1; loc })
  | 8 ->
      let* sync = gen_sync in
      let* name = gen_name in
      no_block (Event.E_sync_create { tid; sync; name; loc })
  | 9 ->
      let* lock = gen_sync in
      let* w = bool in
      no_block
        (Event.E_acquire
           { tid; lock; mode = (if w then Eff.Write_mode else Eff.Read_mode); loc })
  | 10 ->
      let* lock = gen_sync in
      no_block (Event.E_release { tid; lock; loc })
  | 11 -> no_block (Event.E_cond_signal { tid; cv = addr mod 6; broadcast = atomic; loc })
  | 12 -> no_block (Event.E_cond_wait_pre { tid; cv = addr mod 6; m = value mod 6; loc })
  | 13 -> no_block (Event.E_cond_wait_post { tid; cv = addr mod 6; m = value mod 6; loc })
  | 14 -> no_block (Event.E_sem_post { tid; sem = addr mod 6; loc })
  | 15 -> no_block (Event.E_sem_wait_post { tid; sem = addr mod 6; loc })
  | _ ->
      let* req =
        oneof
          [
            return (Eff.Destruct { addr; len = (value mod 8) + 1 });
            return (Eff.Benign_race { addr; len = (value mod 8) + 1 });
            return (Eff.Happens_before { tag = value });
            return (Eff.Happens_after { tag = value });
          ]
      in
      no_block (Event.E_client { tid; req; loc })

(* a stream: events with strictly monotonic clocks and per-entry
   stack/thread-name context *)
let gen_stream =
  let open Gen in
  let* raw = list_size (int_bound 60) (triple gen_entry gen_stack gen_name) in
  let clock = ref 0 in
  return
    (List.map
       (fun ((ev, block), stack, name) ->
         incr clock;
         (ev, !clock, stack, name, block))
       raw)

let encode ?snapshot_every ?meta stream =
  let w = Writer.create ?snapshot_every ?meta () in
  List.iter
    (fun (event, clock, stack, thread_name, block) ->
      Writer.add_entry w ~event ~clock ~stack ~thread_name ~block)
    stream;
  (w, Writer.contents w)

let decode_exn s =
  match Reader.of_string s with
  | Ok t -> t
  | Error (`Msg m) -> Alcotest.failf "decode failed: %s" m

let entry_matches (e : Reader.entry) (event, clock, stack, thread_name, block) =
  e.Reader.en_event = event && e.en_clock = clock && e.en_stack = stack
  && e.en_thread = thread_name
  && e.en_block = block

let qc_container_roundtrip =
  QCheck2.Test.make ~name:"decode (encode stream) = stream" ~count:120
    Gen.(pair gen_stream (int_range 1 9))
    (fun (stream, snapshot_every) ->
      let w, bytes = encode ~snapshot_every ~meta:[ ("k", "v"); ("seed", "9") ] stream in
      let t = decode_exn bytes in
      Reader.length t = List.length stream
      && Reader.schema t = Writer.schema
      && Reader.meta_find t "k" = Some "v"
      && List.length (Reader.snapshots t) = Writer.snapshot_count w
      && List.for_all2 entry_matches (Array.to_list (Reader.entries t)) stream)

let qc_truncation_rejected =
  QCheck2.Test.make ~name:"every truncation is rejected" ~count:40 gen_stream
    (fun stream ->
      let _, bytes = encode ~snapshot_every:5 stream in
      let n = String.length bytes in
      (* every prefix strictly shorter than the container fails *)
      List.for_all
        (fun k ->
          match Reader.of_string (String.sub bytes 0 k) with
          | Error _ -> true
          | Ok _ -> false)
        [ 0; 1; 3; n / 4; n / 2; n - 9; n - 5; n - 1 ])

let test_corruption_rejected () =
  let stream =
    [
      (Event.E_thread_start { tid = 0; name = "main"; parent = None }, 1, [], "main", None);
      ( Event.E_write { tid = 0; addr = 4; value = 7; atomic = false; loc = locs.(0) },
        2,
        [ locs.(0) ],
        "main",
        None );
      (Event.E_thread_exit { tid = 0 }, 3, [], "main", None);
    ]
  in
  let _, bytes = encode stream in
  let expect_error what s =
    match Reader.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s was accepted" what
  in
  (* flip one byte in the middle of the body: CRC must catch it *)
  let flipped = Bytes.of_string bytes in
  let mid = String.length bytes / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x5A));
  expect_error "flipped body byte" (Bytes.to_string flipped);
  (* bad magics *)
  expect_error "bad head magic" ("XXXX" ^ String.sub bytes 4 (String.length bytes - 4));
  expect_error "bad tail magic" (String.sub bytes 0 (String.length bytes - 4) ^ "XXXX");
  (* wrong version byte (also breaks the CRC, but the message path must
     not crash) *)
  let vbad = Bytes.of_string bytes in
  Bytes.set vbad 4 '\xee';
  expect_error "wrong version" (Bytes.to_string vbad);
  expect_error "empty input" ""

let test_monotonic_clock_enforced () =
  let w = Writer.create () in
  Writer.add_entry w
    ~event:(Event.E_thread_start { tid = 0; name = "main"; parent = None })
    ~clock:5 ~stack:[] ~thread_name:"main" ~block:None;
  Alcotest.check_raises "backwards clock rejected"
    (Invalid_argument "Writer.add_entry: clock went backwards") (fun () ->
      Writer.add_entry w ~event:(Event.E_thread_exit { tid = 0 }) ~clock:4 ~stack:[]
        ~thread_name:"main" ~block:None)

(* --- recording determinism and replay fidelity --------------------------- *)

let t4 = Option.get (R.Trace_ops.test_case_of_string "T4")

let test_recording_deterministic () =
  let a = Det.Offline.contents (R.Trace_ops.record_test ~seed:7 t4).rec_recorder in
  let b = Det.Offline.contents (R.Trace_ops.record_test ~seed:7 t4).rec_recorder in
  Alcotest.(check bool) "same (workload, seed) => byte-identical trace" true (a = b);
  let c = Det.Offline.contents (R.Trace_ops.record_test ~seed:42 t4).rec_recorder in
  Alcotest.(check bool) "different seed => different trace" true (a <> c)

(* The recorder is a pure observer: attaching it next to a live
   detector must not move that detector's verdict. *)
let test_recorder_is_invisible () =
  let digest tools =
    let res =
      R.Runner.run_test_case ~tools
        {
          R.Runner.default with
          seed = 7;
          helgrind_configs = [ ("HWLC+DR", Det.Helgrind.hwlc_dr) ];
        }
        Sip.Workload.t2
    in
    Det.Offline.digest_signatures (R.Runner.locations_of res "HWLC+DR")
  in
  let recorder = Det.Offline.create_recorder () in
  let recorded = digest [ Det.Offline.tool recorder ] in
  Alcotest.(check bool) "the recorder saw the run" true (Det.Offline.length recorder > 0);
  Alcotest.(check string) "T2 HWLC+DR sig digest with the recorder attached" (digest [])
    recorded

let test_trace_self_describing () =
  let r = R.Trace_ops.record_test ~seed:7 t4 in
  let t = decode_exn (Det.Offline.contents r.rec_recorder) in
  Alcotest.(check (option string)) "workload in meta" (Some "T4") (Reader.meta_find t "workload");
  Alcotest.(check (option string)) "seed in meta" (Some "7") (Reader.meta_find t "seed");
  Alcotest.(check bool) "snapshots present" true (Reader.snapshots t <> [])

let test_replay_matches_live () =
  List.iter
    (fun (tc : Sip.Workload.test_case) ->
      List.iter
        (fun seed ->
          let r = R.Trace_ops.record_test ~seed ~live:Det.Offline.configs tc in
          let trace = decode_exn (Det.Offline.contents r.rec_recorder) in
          List.iter
            (fun domains ->
              let replayed = R.Trace_ops.replay_parallel ~domains trace in
              List.iter
                (fun (name, status) ->
                  Alcotest.(check bool)
                    (Fmt.str "%s seed %d domains %d: %s replay byte-identical to live"
                       tc.tc_name seed domains name)
                    true (status = `Match))
                (R.Trace_ops.compare_verdicts ~live:r.rec_live replayed))
            [ 1; 4 ])
        [ 7; 42 ])
    Sip.Workload.all_test_cases

(* Every other check compares two verdicts that go through the same
   renderer; these pin the report stream itself.  [v_report_digest] of
   every registry configuration on T1-T8 at seed 7, as produced by the
   Format-based renderer that preceded [Report.add_to_buffer]. *)
let report_digest_pins =
  [
    ("T1", "helgrind-original", "812ecc3fd17831ccaad4f2e9c7416e67");
    ("T1", "helgrind-hwlc", "1d6ea7a9b9964047f9c15d6550e9123a");
    ("T1", "helgrind-hwlc+dr", "f6a301a06334ea25072b3294127997df");
    ("T1", "helgrind-hwlc+dr+hb", "1b97cca61efa43a2d5120f9d031a4c0c");
    ("T1", "eraser-pure", "3a18ba0a62d2a1a560635a3b9895554f");
    ("T1", "djit", "99adc137e2de694b4d00e32ea6a9199f");
    ("T1", "fasttrack", "99adc137e2de694b4d00e32ea6a9199f");
    ("T1", "racetrack", "ead82a7856d40bf0d8f0102aa49604e7");
    ("T1", "hybrid", "f47f5b4b0d75755ddb4ec9db53c0a739");
    ("T1", "hybrid-epoch", "f47f5b4b0d75755ddb4ec9db53c0a739");
    ("T2", "helgrind-original", "193bb68f189ed122342a9225e1c988fe");
    ("T2", "helgrind-hwlc", "a61c97f6d2b61f65eb553fe751f9e928");
    ("T2", "helgrind-hwlc+dr", "120ad731887c49faf2ab29741c96e020");
    ("T2", "helgrind-hwlc+dr+hb", "bcede5cb78c6b371c1a95177f8e7f4b1");
    ("T2", "eraser-pure", "8b942027c80e620810af59b02722d99d");
    ("T2", "djit", "99658d385e826cd34a732b7f17f13789");
    ("T2", "fasttrack", "99658d385e826cd34a732b7f17f13789");
    ("T2", "racetrack", "deb67308754577cd27deae28e6fc4f93");
    ("T2", "hybrid", "4cd18234bc50e784b8a3963e1a5e8b94");
    ("T2", "hybrid-epoch", "4cd18234bc50e784b8a3963e1a5e8b94");
    ("T3", "helgrind-original", "6c20b2a1f7f3a54275a1a6081b165832");
    ("T3", "helgrind-hwlc", "941c29f736c2c72a41c9e93fdf595d55");
    ("T3", "helgrind-hwlc+dr", "80c716869ea035545c32120f3f51b1c6");
    ("T3", "helgrind-hwlc+dr+hb", "032d3b8fc6130520eb1b2b8b5fbcf1ef");
    ("T3", "eraser-pure", "2dd93c9a8724ada734337767352f6af4");
    ("T3", "djit", "aaea108946133cf82a0dcada35206579");
    ("T3", "fasttrack", "aaea108946133cf82a0dcada35206579");
    ("T3", "racetrack", "d8e253714aeb9fb7270b4dcaeaf95118");
    ("T3", "hybrid", "aeed4e36cb31c15e47beaea305c4ca89");
    ("T3", "hybrid-epoch", "aeed4e36cb31c15e47beaea305c4ca89");
    ("T4", "helgrind-original", "11b40f57566afb523eb10d20444c02b3");
    ("T4", "helgrind-hwlc", "1f22a829e8fcbc4a26fa1ce0ce7a8adc");
    ("T4", "helgrind-hwlc+dr", "a9ba8aaa23813d111410c4132d0de68a");
    ("T4", "helgrind-hwlc+dr+hb", "2f0d2ec6c240f01d8fdfb820b18daf2f");
    ("T4", "eraser-pure", "cb47e9734a5db363c9cdf2ab8ea9f076");
    ("T4", "djit", "1b07d80a46ac6554f1a37218e33696f1");
    ("T4", "fasttrack", "1b07d80a46ac6554f1a37218e33696f1");
    ("T4", "racetrack", "d784a8418cfdb5205d6ab7b49ad7393a");
    ("T4", "hybrid", "de90f51bbcddbd8ae722209986207422");
    ("T4", "hybrid-epoch", "de90f51bbcddbd8ae722209986207422");
    ("T5", "helgrind-original", "54b4b96b0987467242caf002770195b9");
    ("T5", "helgrind-hwlc", "078b9edb4a0d587beafdd785b5de623b");
    ("T5", "helgrind-hwlc+dr", "e5927f2008a4539fac1edba825d8a8c9");
    ("T5", "helgrind-hwlc+dr+hb", "81241fc169803f3f6b12fa3576299f91");
    ("T5", "eraser-pure", "96323129db6cd64328b5cc2c2ec6a0ac");
    ("T5", "djit", "85bbf915d23a7a8b7cc2831708d46a0d");
    ("T5", "fasttrack", "85bbf915d23a7a8b7cc2831708d46a0d");
    ("T5", "racetrack", "6d8f639e271cfa4a6a98fdabb29c1cb3");
    ("T5", "hybrid", "b9d33b2baf7fda8412371f91b2a32a32");
    ("T5", "hybrid-epoch", "b9d33b2baf7fda8412371f91b2a32a32");
    ("T6", "helgrind-original", "f142e03cceb2dba58bdd784dcb0536bb");
    ("T6", "helgrind-hwlc", "cbb12f6b17c842fcdf560796a7df0172");
    ("T6", "helgrind-hwlc+dr", "63d565ab95f2fe5440e7baadbf8209e0");
    ("T6", "helgrind-hwlc+dr+hb", "4b3b43b473becfaffeed073b3c9ebb25");
    ("T6", "eraser-pure", "da29cebf98eaba67a087f838470d56c8");
    ("T6", "djit", "9719044259538466b547e85bd87cf20c");
    ("T6", "fasttrack", "9719044259538466b547e85bd87cf20c");
    ("T6", "racetrack", "06967aedcb2a46bb9d9ccd663a90913c");
    ("T6", "hybrid", "e26ee121381b38f33ca2815e3ae27d1f");
    ("T6", "hybrid-epoch", "e26ee121381b38f33ca2815e3ae27d1f");
    ("T7", "helgrind-original", "d4960ba9b30df969a1e2f884f9ac5c94");
    ("T7", "helgrind-hwlc", "c449805cc6861b143fc9b14cd7df1174");
    ("T7", "helgrind-hwlc+dr", "98000bdefb39c3d1887fd5a4afc0b31d");
    ("T7", "helgrind-hwlc+dr+hb", "4810c84f49e461201bdeff4891272f97");
    ("T7", "eraser-pure", "47de8fae885901ef44fed5c6f88babf7");
    ("T7", "djit", "faf6f9db851e8477ed4b0fb533cc5f16");
    ("T7", "fasttrack", "faf6f9db851e8477ed4b0fb533cc5f16");
    ("T7", "racetrack", "0f82ba5a4ce68f03bbaabf02f686cebc");
    ("T7", "hybrid", "630db80236dab562b54fb374f2af0dbf");
    ("T7", "hybrid-epoch", "630db80236dab562b54fb374f2af0dbf");
    ("T8", "helgrind-original", "7b9ec3078e01a93d155e3185900a4288");
    ("T8", "helgrind-hwlc", "2842d83ee18f5a41c7ae25e6d2a8467f");
    ("T8", "helgrind-hwlc+dr", "a44466c3bd3819ad4eff1686c7ffd440");
    ("T8", "helgrind-hwlc+dr+hb", "21dfb493a57386fe0f8a8266a61d1ca0");
    ("T8", "eraser-pure", "02fc49dddc48bdf454464574c5e4657f");
    ("T8", "djit", "7e7b2b52156e5599754f70118bb419eb");
    ("T8", "fasttrack", "7e7b2b52156e5599754f70118bb419eb");
    ("T8", "racetrack", "701117859239f5df207390538e336aa7");
    ("T8", "hybrid", "b3f48b952eea606205006ff32e17dd24");
    ("T8", "hybrid-epoch", "b3f48b952eea606205006ff32e17dd24");
  ]

let test_report_digests_pinned () =
  List.iter
    (fun (tc : Sip.Workload.test_case) ->
      let r = R.Trace_ops.record_test ~seed:7 ~live:Det.Offline.configs tc in
      let trace = decode_exn (Det.Offline.contents r.rec_recorder) in
      let replayed = R.Trace_ops.replay_parallel trace in
      List.iter
        (fun (side, verdicts) ->
          List.iter
            (fun (v : Det.Offline.verdict) ->
              let pin =
                List.find_map
                  (fun (t, c, d) -> if t = tc.tc_name && c = v.v_config then Some d else None)
                  report_digest_pins
              in
              Alcotest.(check (option string))
                (Fmt.str "%s %s %s report digest" tc.tc_name v.v_config side)
                pin (Some v.v_report_digest))
            verdicts)
        [ ("live", r.rec_live); ("replayed", replayed) ])
    Sip.Workload.all_test_cases

(* --- the sink registry ---------------------------------------------------- *)

let test_registry_round_trip () =
  let names = Det.Offline.configs in
  Alcotest.(check int) "ten distinct names" 10 (List.length (List.sort_uniq compare names));
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " round-trips through sk_name")
        name (Det.Offline.sink name).sk_name)
    names

let test_registry_rejects_unknown () =
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Offline.sink: unknown config no-such-detector") (fun () ->
      ignore (Det.Offline.sink "no-such-detector"))

(* --- diffing ------------------------------------------------------------- *)

let fixed_stream n =
  List.init n (fun i ->
      ( Event.E_write
          { tid = i mod 3; addr = 16 + i; value = i; atomic = false; loc = locs.(i mod 4) },
        i + 1,
        [ locs.(i mod 4) ],
        names.(i mod 3),
        None ))

let test_diff_identical () =
  let _, bytes = encode (fixed_stream 32) in
  let t = decode_exn bytes in
  Alcotest.(check bool) "no divergence against itself" true
    (Trace.Diff.first_divergence t t = None)

let test_diff_pinpoints_first_divergence () =
  let stream = fixed_stream 32 in
  let mutated =
    List.mapi
      (fun i ((_ev, clk, stack, name, block) as e) ->
        if i = 17 then
          (Event.E_read { tid = 9; addr = 999; value = 0; atomic = true; loc = locs.(1) },
           clk, stack, name, block)
        else e)
      stream
  in
  let _, a = encode stream and _, b = encode mutated in
  match Trace.Diff.first_divergence ~window:5 (decode_exn a) (decode_exn b) with
  | None -> Alcotest.fail "divergence not detected"
  | Some d ->
      Alcotest.(check int) "first divergent event index" 17 d.Trace.Diff.d_index;
      Alcotest.(check int) "context window" 5 (List.length d.d_context);
      (match (d.d_left, d.d_right) with
      | Some l, Some r ->
          Alcotest.(check bool) "sides differ" true (l.Reader.en_event <> r.Reader.en_event)
      | _ -> Alcotest.fail "both sides should be present")

let test_diff_prefix_shorter () =
  let stream = fixed_stream 20 in
  let _, a = encode stream in
  let _, b = encode (fixed_stream 12) in
  match Trace.Diff.first_divergence (decode_exn a) (decode_exn b) with
  | None -> Alcotest.fail "length divergence not detected"
  | Some d ->
      Alcotest.(check int) "diverges where the prefix ends" 12 d.Trace.Diff.d_index;
      Alcotest.(check bool) "right side exhausted" true (d.d_right = None)

(* --- recorder metrics ----------------------------------------------------- *)

let test_recorder_metrics () =
  let before = Obs.Metrics.snapshot () in
  let stream = fixed_stream 10 in
  let _, bytes = encode stream in
  let after = Obs.Metrics.snapshot () in
  let d = Obs.Metrics.diff ~before after in
  let j = Obs.Metrics.to_json d in
  let counters = Option.get (Obs.Json.member "counters" j) in
  let counter name =
    match Obs.Json.member name counters with
    | Some v -> Option.get (Obs.Json.to_float_opt v)
    | None -> Alcotest.failf "counter %s not published" name
  in
  Alcotest.(check (float 0.)) "trace.record.events counts entries" 10.
    (counter "trace.record.events");
  Alcotest.(check bool) "trace.record.bytes within container size" true
    (counter "trace.record.bytes" > 0.
    && counter "trace.record.bytes" <= float_of_int (String.length bytes))

(* --- streaming report digest ------------------------------------------ *)

let render r =
  let b = Buffer.create 512 in
  Det.Report.add_to_buffer b r;
  Buffer.contents b

let digest_bytes () =
  Option.value ~default:0
    (Obs.Metrics.find_counter (Obs.Metrics.snapshot ()) "detector.report.digest_bytes")

(* the streaming digest is the digest of the materialised stream, and
   the byte counter grows by that stream's length *)
let digest_is_exact reports =
  let stream = String.concat "\n" (List.map render reports) in
  let before = digest_bytes () in
  Det.Offline.digest_reports reports = Digest.to_hex (Digest.string stream)
  && digest_bytes () - before = String.length stream

let gen_report ~depth =
  let open Gen in
  let* kind = oneofl Det.Report.[ Race_write; Race_read; Lock_order ] in
  let* addr = int_bound 100_000 in
  let* stack = list_size depth gen_loc in
  let* detail = oneofl [ ""; "Previous state: shared RO, no locks" ] in
  let+ block =
    opt (map (fun len -> { Det.Report.b_base = addr; b_len = len + 1; b_alloc_tid = 0;
                           b_alloc_stack = [ locs.(0); locs.(1) ] })
           (int_bound 64))
  in
  { Det.Report.kind; addr; tid = 1; thread_name = "worker"; stack; detail; block; clock = addr;
    provenance = None }

(* a report whose rendering alone exceeds the 64 KB digest chunk *)
let deep_report = gen_report ~depth:(Gen.pure 5000)

let gen_reports =
  let open Gen in
  let small = gen_report ~depth:(int_bound 8) in
  frequency
    [
      (1, pure []);
      (1, list_size (pure 1) small);
      (* 600+ renderings of 100-400 bytes: several chunk boundaries *)
      (2, list_size (int_range 600 1200) small);
      (2, map3 (fun a d b -> a @ (d :: b)) (list_size (int_bound 300) small) deep_report
            (list_size (int_bound 300) small));
    ]

let qc_digest_streaming =
  QCheck2.Test.make ~name:"streamed report digest = digest of the whole stream" ~count:30
    gen_reports digest_is_exact

(* The property's shapes, each once and checked to be what it claims. *)
let test_digest_shapes () =
  let rand = Random.State.make [| 18 |] in
  let small = Gen.generate ~rand ~n:900 (gen_report ~depth:(Gen.int_bound 8)) in
  let deep = Gen.generate1 ~rand deep_report in
  let length rs = String.length (String.concat "\n" (List.map render rs)) in
  Alcotest.(check bool) "deep report renders past one chunk" true (length [ deep ] > 65536);
  Alcotest.(check bool) "many reports cross several chunks" true (length small > 3 * 65536);
  List.iter
    (fun (what, rs) -> Alcotest.(check bool) what true (digest_is_exact rs))
    [
      ("empty", []);
      ("single", [ List.hd small ]);
      ("many", small);
      ("deep alone", [ deep ]);
      ("deep among many", small @ (deep :: small));
    ]

(* --- decode allocation and malformed varints ------------------------------ *)

let t1 = Option.get (R.Trace_ops.test_case_of_string "T1")

(* Minor words per event of decoding T1 recorded at seed 7, measured at
   22.0 with OCaml 5.1 native code: the entry record, the event record,
   and the cons cells of the entry list and its reversal.  The bound
   sits 2 words above, so a closure or an option per field read (the
   decoder once spent 84 words/event on them) fails here. *)
let decode_words_budget = 24.0

let test_decode_alloc () =
  if Sys.backend_type = Sys.Native then begin
    let b = Buffer.create 16 in
    Codec.write_varint b max_int;
    let c = Codec.cursor (Buffer.contents b) in
    let n = 100_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      c.Codec.pos <- 0;
      ignore (Codec.read_varint c)
    done;
    let w = Gc.minor_words () -. w0 in
    if w > 8. then Alcotest.failf "Codec.read_varint allocates: %.0f words over %d calls" w n;
    let bytes = Det.Offline.contents (R.Trace_ops.record_test ~seed:7 t1).rec_recorder in
    ignore (decode_exn bytes);
    let w0 = Gc.minor_words () in
    let t = decode_exn bytes in
    let per_event = (Gc.minor_words () -. w0) /. float_of_int (Reader.length t) in
    if per_event > decode_words_budget then
      Alcotest.failf "decoding T1 allocates %.2f words/event (budget %.1f)" per_event
        decode_words_budget
  end

(* A body with a valid footer: CRC recomputed, so the structural decoder
   behind the CRC check is what sees the bytes. *)
let with_footer body =
  let b = Buffer.create (String.length body + 8) in
  Buffer.add_string b body;
  Codec.write_u32 b (Codec.crc32 body 0 (String.length body));
  Buffer.add_string b Writer.magic_tail;
  Buffer.contents b

let test_overlong_varint_rejected () =
  let _, bytes = encode (fixed_stream 4) in
  let body = String.sub bytes 0 (String.length bytes - 8) in
  Alcotest.(check bool) "re-footered body decodes" true
    (Result.is_ok (Reader.of_string (with_footer body)));
  (* the first event's tid, a one-byte varint, becomes ten
     continuation bytes: more than a 63-bit int can hold *)
  let at = (Reader.entries (decode_exn bytes)).(0).en_offset + 1 in
  let mutated =
    String.sub body 0 at ^ String.make 10 '\x81'
    ^ String.sub body (at + 1) (String.length body - at - 1)
  in
  match Reader.of_string (with_footer mutated) with
  | Error (`Msg _) -> ()
  | Ok _ -> Alcotest.fail "over-long varint accepted"
  | exception e -> Alcotest.failf "over-long varint raised %s" (Printexc.to_string e)

let suite =
  ( "trace",
    [
      QCheck_alcotest.to_alcotest qc_varint_roundtrip;
      QCheck_alcotest.to_alcotest qc_zigzag_roundtrip;
      QCheck_alcotest.to_alcotest qc_string_roundtrip;
      QCheck_alcotest.to_alcotest qc_crc_incremental;
      QCheck_alcotest.to_alcotest qc_container_roundtrip;
      QCheck_alcotest.to_alcotest qc_truncation_rejected;
      QCheck_alcotest.to_alcotest qc_digest_streaming;
      Alcotest.test_case "streamed report digest: empty, single, chunk-crossing" `Quick
        test_digest_shapes;
      Alcotest.test_case "decode allocation budget" `Quick test_decode_alloc;
      Alcotest.test_case "over-long varint rejected" `Quick test_overlong_varint_rejected;
      Alcotest.test_case "corrupt containers rejected" `Quick test_corruption_rejected;
      Alcotest.test_case "monotonic clock enforced" `Quick test_monotonic_clock_enforced;
      Alcotest.test_case "recording is deterministic" `Slow test_recording_deterministic;
      Alcotest.test_case "recorder leaves the live digest unchanged" `Quick
        test_recorder_is_invisible;
      Alcotest.test_case "trace is self-describing" `Slow test_trace_self_describing;
      Alcotest.test_case "replay byte-identical to live (T1-T8 x 10 configs x 2 seeds)" `Slow
        test_replay_matches_live;
      Alcotest.test_case "report digests pinned (T1-T8 x 10 configs, seed 7)" `Slow
        test_report_digests_pinned;
      Alcotest.test_case "registry names round-trip through sk_name" `Quick
        test_registry_round_trip;
      Alcotest.test_case "registry rejects an unknown name" `Quick test_registry_rejects_unknown;
      Alcotest.test_case "diff: identical traces" `Quick test_diff_identical;
      Alcotest.test_case "diff pinpoints first divergent event" `Quick
        test_diff_pinpoints_first_divergence;
      Alcotest.test_case "diff: one trace a prefix of the other" `Quick test_diff_prefix_shorter;
      Alcotest.test_case "recorder metrics published" `Quick test_recorder_metrics;
    ] )
