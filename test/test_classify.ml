(* Unit tests for report classification, report rendering and
   suppression generation over synthetic reports. *)

module Det = Raceguard_detector
module Loc = Raceguard_util.Loc
module R = Raceguard

let mk_report ?(kind = Det.Report.Race_write) ?(addr = 16) ~stack () =
  {
    Det.Report.kind;
    addr;
    tid = 2;
    thread_name = "worker";
    stack;
    detail = "Previous state: shared modified, no locks";
    block =
      Some { Det.Report.b_base = 16; b_len = 4; b_alloc_tid = 0; b_alloc_stack = [ Loc.v "a.c" "main" 1 ] };
    clock = 100;
    provenance = None;
  }

let stack1 =
  [ Loc.v "x.c" "f" 10; Loc.v "x.c" "g" 20; Loc.v "x.c" "h" 25; Loc.v "x.c" "main" 30 ]
let stack2 = [ Loc.v "y.c" "h" 5; Loc.v "y.c" "main" 6 ]
let stack3 = [ Loc.v "z.c" "k" 7 ]

let test_signature () =
  let r1 = mk_report ~stack:stack1 () and r1' = mk_report ~addr:99 ~stack:stack1 () in
  Alcotest.(check bool) "same stack, same signature" true
    (Det.Report.signature r1 = Det.Report.signature r1');
  let r2 = mk_report ~kind:Det.Report.Race_read ~stack:stack1 () in
  Alcotest.(check bool) "kind is part of the signature" false
    (Det.Report.signature r1 = Det.Report.signature r2);
  (* only the top 4 frames participate *)
  let deep extra = mk_report ~stack:(stack1 @ [ Loc.v "x.c" "outer" extra ]) () in
  Alcotest.(check bool) "frames beyond the depth are ignored" true
    (Det.Report.signature (deep 1) = Det.Report.signature (deep 2))

let test_report_rendering () =
  let rendered = Fmt.str "%a" Det.Report.pp (mk_report ~stack:stack1 ()) in
  List.iter
    (fun needle ->
      let contains =
        let n = String.length needle and m = String.length rendered in
        let rec go i = i + n <= m && (String.sub rendered i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("rendering mentions " ^ needle) true contains)
    [
      "Possible data race writing variable";
      "at f (x.c:10)";
      "by g (x.c:20)";
      "inside a block of size 4 alloc'd by thread 0";
      "Previous state";
    ]

let test_split_differencing () =
  (* Original reports {1,2,3}; HWLC removes 1; DR removes 2; 3 remains *)
  let l1 = mk_report ~stack:stack1 () in
  let l2 = mk_report ~stack:stack2 () in
  let l3 = mk_report ~stack:stack3 () in
  let s =
    R.Classify.split
      ~original:[ (l1, 4); (l2, 2); (l3, 1) ]
      ~hwlc:[ (l2, 2); (l3, 1) ]
      ~hwlc_dr:[ (l3, 1) ]
  in
  Alcotest.(check int) "hw FP" 1 s.hw_lock_fp;
  Alcotest.(check int) "dtor FP" 1 s.destructor_fp;
  Alcotest.(check int) "remaining" 1 s.remaining;
  Alcotest.(check int) "total" 3 s.total;
  Alcotest.(check bool) "reduction" true (abs_float (R.Classify.reduction_pct s -. 66.6) < 1.0)

let test_bug_attribution () =
  let watchdog_stack = [ Loc.v "lock_watch.cpp" "LockWatch::scan" 52 ] in
  let ctime_stack = [ Loc.v "time.c" "ctime" 22; Loc.v "proxy.cpp" "SipProxy::handleInvite" 160 ] in
  Alcotest.(check bool) "watchdog stack -> B1" true
    (Raceguard_sip.Bugs.identify watchdog_stack = [ Raceguard_sip.Bugs.B1_watchdog ]);
  Alcotest.(check bool) "ctime stack -> B5" true
    (List.mem Raceguard_sip.Bugs.B5_static_buffer (Raceguard_sip.Bugs.identify ctime_stack));
  Alcotest.(check (list string)) "unrelated stack -> nothing" []
    (List.map Raceguard_sip.Bugs.to_string (Raceguard_sip.Bugs.identify stack1))

let test_gen_suppression_matches_own_report () =
  let r = mk_report ~stack:stack1 () in
  let s =
    Det.Suppression.of_frames ~name:"generated"
      ~kind:(Fmt.str "%a" Det.Report.pp_kind r.kind)
      ~frames:r.stack
  in
  Alcotest.(check bool) "suppresses its own report" true
    (Det.Suppression.matches s
       ~kind:(Fmt.str "%a" Det.Report.pp_kind r.kind)
       ~stack:r.stack);
  Alcotest.(check bool) "does not suppress others" false
    (Det.Suppression.matches s
       ~kind:(Fmt.str "%a" Det.Report.pp_kind r.kind)
       ~stack:stack2);
  (* survives a serialisation round trip *)
  match Det.Suppression.parse_string (Det.Suppression.to_string s) with
  | [ s' ] ->
      Alcotest.(check bool) "roundtripped suppression still matches" true
        (Det.Suppression.matches s'
           ~kind:(Fmt.str "%a" Det.Report.pp_kind r.kind)
           ~stack:r.stack)
  | _ -> Alcotest.fail "roundtrip parse failed"

let test_collector_ordering () =
  let c = Det.Report.collector () in
  Det.Report.add c { (mk_report ~stack:stack2 ()) with clock = 5 };
  Det.Report.add c { (mk_report ~stack:stack1 ()) with clock = 9 };
  Det.Report.add c { (mk_report ~stack:stack2 ()) with clock = 12 };
  Alcotest.(check int) "two locations" 2 (Det.Report.location_count c);
  Alcotest.(check int) "three occurrences" 3 (Det.Report.occurrence_count c);
  match Det.Report.locations c with
  | [ (first, n1); (second, n2) ] ->
      Alcotest.(check int) "first seen first" 5 first.clock;
      Alcotest.(check int) "first count" 2 n1;
      Alcotest.(check int) "second count" 1 n2;
      Alcotest.(check int) "second clock" 9 second.clock
  | _ -> Alcotest.fail "unexpected location list"

(* Two signatures first seen at the same clock keep signature order:
   kind first, then the frames by (file, line, func) — the order the
   collector has always given, added in any order. *)
let test_collector_same_clock_order () =
  let c = Det.Report.collector () in
  let at kind stack = { (mk_report ~kind ~stack ()) with clock = 7 } in
  let b_stack = [ Loc.v "b.c" "f" 1 ] and a_stack = [ Loc.v "a.c" "f" 9 ] in
  Det.Report.add c (at Det.Report.Race_read a_stack);
  Det.Report.add c (at Det.Report.Race_write b_stack);
  Det.Report.add c (at Det.Report.Race_write a_stack);
  Det.Report.add c { (at Det.Report.Race_write b_stack) with clock = 9 };
  Det.Report.add c { (at Det.Report.Lock_order b_stack) with clock = 3 };
  let order =
    List.map
      (fun ((r : Det.Report.t), _) -> (r.kind, Loc.file (List.hd r.stack), r.clock))
      (Det.Report.locations c)
  in
  Alcotest.(check bool) "(clock, kind, frames) order" true
    (order
    = [
        (Det.Report.Lock_order, "b.c", 3);
        (Det.Report.Race_write, "a.c", 7);
        (Det.Report.Race_write, "b.c", 7);
        (Det.Report.Race_read, "a.c", 7);
      ])

(* Only the top [signature_depth] frames dedup; fresh (not [==]) but
   equal frames match, and frames that hash alike but differ do not. *)
let test_collector_dedup_depth () =
  let frames n tail = List.init n (fun i -> Loc.v "x.c" "f" (10 + i)) @ tail in
  let count stacks =
    let c = Det.Report.collector () in
    List.iter (fun stack -> Det.Report.add c (mk_report ~stack ())) stacks;
    (Det.Report.location_count c, List.map snd (Det.Report.locations c))
  in
  Alcotest.(check (pair int (list int))) "differ only below frame 4: one location" (1, [ 2 ])
    (count [ frames 4 [ Loc.v "x.c" "outer" 1 ]; frames 4 [ Loc.v "y.c" "other" 2 ] ]);
  Alcotest.(check (pair int (list int))) "differ only in frame 4: two locations" (2, [ 1; 1 ])
    (count [ frames 3 [ Loc.v "x.c" "g" 40 ]; frames 3 [ Loc.v "x.c" "h" 41 ] ]);
  Alcotest.(check (pair int (list int))) "same line and name length, other file: two" (2, [ 1; 1 ])
    (count [ [ Loc.v "p.c" "f" 5 ]; [ Loc.v "q.c" "f" 5 ] ]);
  Alcotest.(check (pair int (list int))) "shorter stack is another signature" (2, [ 1; 1 ])
    (count [ frames 2 []; frames 3 [] ])

let test_collector_suppressions () =
  let kind = Det.Report.kind_name Det.Report.Race_write in
  let sup = Det.Suppression.of_frames ~name:"s1" ~kind ~frames:stack1 in
  let c = Det.Report.collector ~suppressions:[ sup ] () in
  List.iter
    (fun stack -> Det.Report.add c (mk_report ~stack ()))
    [ stack1; stack2; stack1; stack3; stack2 ];
  Alcotest.(check int) "suppressed" 2 (Det.Report.suppressed_count c);
  Alcotest.(check int) "locations" 2 (Det.Report.location_count c);
  Alcotest.(check int) "occurrences" 3 (Det.Report.occurrence_count c);
  Alcotest.(check (list int)) "counts" [ 2; 1 ] (List.map snd (Det.Report.locations c))

(* Adding an occurrence of a known signature costs the occurrence
   list's cons cell (3 words) and nothing else: no signature list, no
   option, no map path copy. *)
let test_collector_add_budget () =
  if Sys.backend_type = Sys.Native then begin
    let c = Det.Report.collector () in
    let r = mk_report ~stack:stack1 () in
    Det.Report.add c r;
    let n = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      Det.Report.add c r
    done;
    let per_add = (Gc.minor_words () -. w0) /. float_of_int n in
    if per_add > 3.01 then
      Alcotest.failf "Report.add of a known signature allocates %.2f words (budget 3)" per_add
  end

let suite =
  ( "classify",
    [
      Alcotest.test_case "signatures" `Quick test_signature;
      Alcotest.test_case "report rendering" `Quick test_report_rendering;
      Alcotest.test_case "split by differencing" `Quick test_split_differencing;
      Alcotest.test_case "bug attribution" `Quick test_bug_attribution;
      Alcotest.test_case "gen-suppressions" `Quick test_gen_suppression_matches_own_report;
      Alcotest.test_case "collector ordering" `Quick test_collector_ordering;
      Alcotest.test_case "collector: same-clock signature order" `Quick
        test_collector_same_clock_order;
      Alcotest.test_case "collector: dedup depth" `Quick test_collector_dedup_depth;
      Alcotest.test_case "collector: suppressions" `Quick test_collector_suppressions;
      Alcotest.test_case "collector: known-signature add budget" `Quick
        test_collector_add_budget;
    ] )
