(* Tests for the Helgrind-style detector: the Figure 1 state machine,
   lock-set refinement, the bus-lock models, destructor annotations,
   rw-lock tracking, report dedup and suppressions. *)

module Vm = Raceguard_vm
module Engine = Vm.Engine
module Api = Vm.Api
module Det = Raceguard_detector
module Helgrind = Det.Helgrind
module Loc = Raceguard_util.Loc

let loc = Loc.v "prog.c" "main" 1
let wloc = Loc.v "prog.c" "worker" 2

(* run a program under a single helgrind config; return location count
   and the helgrind instance *)
let run ?(seed = 1) config f =
  let vm = Engine.create ~config:{ Engine.default_config with seed } () in
  let h = Helgrind.create config in
  Engine.add_tool vm (Helgrind.tool h);
  let outcome = Engine.run vm f in
  (match outcome.failures with
  | [] -> ()
  | (_, name, e) :: _ -> Alcotest.failf "thread %s raised %s" name (Printexc.to_string e));
  h

let count ?seed config f = Helgrind.location_count (run ?seed config f)

(* common program shapes *)
let spawn2 body_a body_b =
  let t1 = Api.spawn ~loc ~name:"a" body_a in
  let t2 = Api.spawn ~loc ~name:"b" body_b in
  Api.join ~loc t1;
  Api.join ~loc t2

(* --- Figure 1 state machine (E3) ------------------------------------ *)

let test_single_thread_silent () =
  (* one thread, no locks, lots of traffic: never a report *)
  let n =
    count Helgrind.hwlc_dr (fun () ->
        let a = Api.alloc ~loc 8 in
        for i = 0 to 7 do
          Api.write ~loc (a + i) i
        done;
        for i = 0 to 7 do
          ignore (Api.read ~loc (a + i))
        done)
  in
  Alcotest.(check int) "exclusive accesses are silent" 0 n

let test_init_then_read_shared_silent () =
  (* initialise once, share read-only with many threads: the whole
     point of the Shared-RO state *)
  let n =
    count Helgrind.hwlc_dr (fun () ->
        let a = Api.alloc ~loc 4 in
        for i = 0 to 3 do
          Api.write ~loc (a + i) (i * 7)
        done;
        let reader () =
          for i = 0 to 3 do
            ignore (Api.read ~loc:wloc (a + i))
          done
        in
        spawn2 reader reader)
  in
  Alcotest.(check int) "read-shared data needs no locks" 0 n

let test_unlocked_cross_thread_write_reported () =
  let n =
    count Helgrind.hwlc_dr (fun () ->
        let a = Api.alloc ~loc 1 in
        Api.write ~loc a 1;
        let writer () = Api.write ~loc:wloc a 2 in
        spawn2 writer writer)
  in
  Alcotest.(check bool) "unlocked cross-thread write reported" true (n > 0)

let test_consistent_locking_silent () =
  let n =
    count Helgrind.hwlc_dr (fun () ->
        let a = Api.alloc ~loc 1 in
        let m = Api.Mutex.create ~loc "m" in
        let writer () =
          for _ = 1 to 5 do
            Api.Mutex.with_lock ~loc:wloc m (fun () ->
                Api.write ~loc:wloc a (Api.read ~loc:wloc a + 1))
          done
        in
        spawn2 writer writer)
  in
  Alcotest.(check int) "consistent locking is silent" 0 n

let test_lock_change_reported () =
  (* guarded by m1 in one thread and m2 in the other: intersection
     empties even though every access holds *a* lock *)
  let n =
    count Helgrind.hwlc_dr (fun () ->
        let a = Api.alloc ~loc 1 in
        let m1 = Api.Mutex.create ~loc "m1" in
        let m2 = Api.Mutex.create ~loc "m2" in
        let writer m () =
          for _ = 1 to 3 do
            Api.Mutex.with_lock ~loc:wloc m (fun () ->
                Api.write ~loc:wloc a (Api.read ~loc:wloc a + 1))
          done
        in
        spawn2 (writer m1) (writer m2))
  in
  Alcotest.(check bool) "different locks per thread reported" true (n > 0)

let test_two_locks_refine_to_common () =
  (* both threads hold {m1,m2}; one thread sometimes holds only m1:
     candidate set refines to {m1}, never empty: silent *)
  let n =
    count Helgrind.hwlc_dr (fun () ->
        let a = Api.alloc ~loc 1 in
        let m1 = Api.Mutex.create ~loc "m1" in
        let m2 = Api.Mutex.create ~loc "m2" in
        let both () =
          Api.Mutex.with_lock ~loc:wloc m1 (fun () ->
              Api.Mutex.with_lock ~loc:wloc m2 (fun () ->
                  Api.write ~loc:wloc a (Api.read ~loc:wloc a + 1)))
        in
        let only_m1 () =
          Api.Mutex.with_lock ~loc:wloc m1 (fun () ->
              Api.write ~loc:wloc a (Api.read ~loc:wloc a + 1))
        in
        spawn2 both only_m1)
  in
  Alcotest.(check int) "common lock suffices" 0 n

let test_alloc_resets_shadow () =
  (* racy block freed, then malloc reuses the address: the new
     lifetime must start virgin *)
  let h =
    run Helgrind.hwlc_dr (fun () ->
        let a = Api.alloc ~loc 1 in
        Api.write ~loc a 1;
        let writer () = Api.write ~loc:wloc a 2 in
        spawn2 writer writer;
        Api.free ~loc a;
        (* same address comes back from the allocator *)
        let b = Api.alloc ~loc 1 in
        assert (b = a);
        (* single-threaded use of the new block: silent *)
        Api.write ~loc:(Loc.v "prog.c" "second_life" 9) b 5)
  in
  let second_life_reports =
    List.filter
      (fun ((r : Det.Report.t), _) ->
        List.exists (fun l -> Loc.func l = "second_life") r.stack)
      (Helgrind.locations h)
  in
  Alcotest.(check int) "no report on the recycled lifetime" 0
    (List.length second_life_reports)

(* --- thread segments (E4 behaviour through the detector) ------------- *)

let test_handoff_silent_with_segments () =
  let n = count Helgrind.hwlc_dr Raceguard.Scenarios.handoff_per_request in
  Alcotest.(check int) "create/join handoff is silent" 0 n

let test_handoff_reported_without_segments () =
  let n =
    count
      { Helgrind.hwlc_dr with thread_segments = false }
      Raceguard.Scenarios.handoff_per_request
  in
  Alcotest.(check bool) "handoff reported without segments" true (n > 0)

let test_queue_handoff_reported () =
  let n = count Helgrind.hwlc_dr Raceguard.Scenarios.handoff_pool in
  Alcotest.(check bool) "queue handoff reported (Figure 11)" true (n > 0)

(* --- bus-lock models (Figure 8) -------------------------------------- *)

let refcount_program () =
  let a = Api.alloc ~loc 1 in
  Api.write ~loc a 1;
  let user () =
    (* plain read then LOCK-prefixed update: the CoW refcount pattern *)
    ignore (Api.read ~loc:wloc a);
    ignore (Api.atomic_incr ~loc:wloc a);
    ignore (Api.atomic_decr ~loc:wloc a)
  in
  spawn2 user user

let test_refcount_original_fp () =
  Alcotest.(check bool) "original model reports the refcount" true
    (count Helgrind.original refcount_program > 0)

let test_refcount_hwlc_silent () =
  Alcotest.(check int) "rw-lock model accepts the refcount" 0
    (count Helgrind.hwlc refcount_program)

let test_hwlc_still_catches_plain_write () =
  (* a plain (unlocked, non-atomic) write racing with atomic traffic
     must still be reported under HWLC *)
  let n =
    count Helgrind.hwlc (fun () ->
        let a = Api.alloc ~loc 1 in
        Api.write ~loc a 1;
        let atomic_user () = ignore (Api.atomic_incr ~loc:wloc a) in
        let plain_writer () = Api.write ~loc:wloc a 9 in
        spawn2 atomic_user plain_writer)
  in
  Alcotest.(check bool) "plain write still reported under HWLC" true (n > 0)

let test_stringtest_scenario () =
  Alcotest.(check bool) "Figure 8 fires under Original" true
    (count Helgrind.original Raceguard.Scenarios.stringtest > 0);
  Alcotest.(check int) "Figure 8 silent under HWLC" 0
    (count Helgrind.hwlc Raceguard.Scenarios.stringtest)

(* --- rw-lock tracking ------------------------------------------------- *)

let rwlock_program () =
  let a = Api.alloc ~loc 1 in
  let rw = Api.Rwlock.create ~loc "rw" in
  Api.write ~loc a 0;
  let reader () =
    for _ = 1 to 4 do
      Api.Rwlock.with_rdlock ~loc:wloc rw (fun () -> ignore (Api.read ~loc:wloc a));
      Api.yield ()
    done
  in
  let writer () =
    for _ = 1 to 4 do
      Api.Rwlock.with_wrlock ~loc:wloc rw (fun () -> Api.write ~loc:wloc a 1);
      Api.yield ()
    done
  in
  spawn2 reader writer

let test_rwlock_untracked_fp () =
  Alcotest.(check bool) "original helgrind blind to rwlocks" true
    (count Helgrind.original rwlock_program > 0)

let test_rwlock_tracked_silent () =
  Alcotest.(check int) "HWLC understands rwlocks" 0 (count Helgrind.hwlc rwlock_program)

let test_rdlock_does_not_protect_writes () =
  (* holding the lock in READ mode while writing is a violation the
     rw-aware lock-sets must catch *)
  let n =
    count Helgrind.hwlc (fun () ->
        let a = Api.alloc ~loc 1 in
        let rw = Api.Rwlock.create ~loc "rw" in
        Api.write ~loc a 0;
        let bad_writer () =
          Api.Rwlock.with_rdlock ~loc:wloc rw (fun () -> Api.write ~loc:wloc a 1)
        in
        spawn2 bad_writer bad_writer)
  in
  Alcotest.(check bool) "write under read-mode lock reported" true (n > 0)

(* --- destructor annotations (DR) -------------------------------------- *)

let dtor_program ~annotate () =
  let cls = Raceguard_cxxsim.Object_model.define ~name:"T" ~fields:[ "f" ] () in
  let m = Api.Mutex.create ~loc "m" in
  let obj = Raceguard_cxxsim.Object_model.new_ ~loc cls in
  Raceguard_cxxsim.Object_model.set ~loc cls obj "f" 1;
  let toucher () =
    Api.Mutex.with_lock ~loc:wloc m (fun () ->
        (* a virtual call reads the vptr before dispatching *)
        ignore (Raceguard_cxxsim.Object_model.vptr ~loc:wloc obj);
        ignore (Raceguard_cxxsim.Object_model.get ~loc:wloc cls obj "f"))
  in
  (* two concurrent touchers: the object genuinely becomes shared *)
  spawn2 toucher toucher;
  (* correctly deleted afterwards — but the memory is in a SHARED state
     and the destructor writes hold no lock *)
  Raceguard_cxxsim.Object_model.delete_ ~loc ~annotate cls obj

let test_dtor_fp_without_annotation () =
  Alcotest.(check bool) "destructor writes reported without DR" true
    (count Helgrind.hwlc_dr (dtor_program ~annotate:false) > 0)

let test_dtor_silent_with_annotation () =
  Alcotest.(check int) "HG_DESTRUCT suppresses the destructor chain" 0
    (count Helgrind.hwlc_dr (dtor_program ~annotate:true))

let test_annotation_ignored_by_original () =
  (* an annotated binary under the un-patched detector: requests are
     no-ops, the false positives stay *)
  Alcotest.(check bool) "original config ignores HG_DESTRUCT" true
    (count { Helgrind.hwlc with destructor_annotations = false }
       (dtor_program ~annotate:true)
    > 0)

let test_access_during_destruction_still_caught () =
  (* DR must not mask a genuine cross-thread access while destruction
     runs: a concurrent thread writes the object after HG_DESTRUCT *)
  let program () =
    let a = Api.alloc ~loc 2 in
    Api.write ~loc a 1;
    let racer () =
      Api.sleep 3;
      Api.write ~loc:wloc a 7
    in
    let t = Api.spawn ~loc ~name:"racer" racer in
    (* destruction starts while the racer is still alive *)
    Api.hg_destruct ~addr:a ~len:2;
    Api.write ~loc a 0;
    Api.sleep 10;
    Api.join ~loc t
  in
  let detected_somewhere =
    List.exists
      (fun seed -> count ~seed Helgrind.hwlc_dr program > 0)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "concurrent access during destruction reported" true
    detected_somewhere

(* --- pure Eraser ablation --------------------------------------------- *)

let test_pure_eraser_flags_initialisation () =
  let n =
    count Helgrind.pure_eraser (fun () ->
        let a = Api.alloc ~loc 1 in
        Api.write ~loc a 1)
  in
  Alcotest.(check bool) "pure Eraser cannot handle initialisation" true (n > 0)

let test_states_allow_initialisation () =
  let n =
    count Helgrind.original (fun () ->
        let a = Api.alloc ~loc 1 in
        Api.write ~loc a 1)
  in
  Alcotest.(check int) "states allow initialisation" 0 n

(* --- false negatives (§4.3 / E8) --------------------------------------- *)

let test_false_negative_depends_on_schedule () =
  let detect seed =
    Helgrind.location_count
      (run ~seed Helgrind.hwlc_dr Raceguard.Scenarios.false_negative_schedule)
    > 0
  in
  let results = List.init 30 (fun i -> detect (i + 1)) in
  Alcotest.(check bool) "missed on some schedules" true (List.exists not results);
  Alcotest.(check bool) "found on some schedules" true (List.exists Fun.id results)

(* --- benign-race client request ----------------------------------------- *)

let test_benign_race_suppressed () =
  let n =
    count Helgrind.hwlc_dr (fun () ->
        let a = Api.alloc ~loc 1 in
        Api.benign_race ~addr:a ~len:1;
        Api.write ~loc a 1;
        let writer () = Api.write ~loc:wloc a 2 in
        spawn2 writer writer)
  in
  Alcotest.(check int) "benign-race annotation silences the word" 0 n

(* --- reports: dedup, block info, suppressions ---------------------------- *)

let racy_many_times () =
  let a = Api.alloc ~loc 1 in
  Api.write ~loc a 1;
  let writer () =
    for _ = 1 to 10 do
      Api.write ~loc:wloc a 2
    done
  in
  spawn2 writer writer

let test_dedup_by_signature () =
  let h = run Helgrind.hwlc_dr racy_many_times in
  let locations = Helgrind.locations h in
  let occurrences = Det.Report.occurrence_count (Helgrind.collector h) in
  Alcotest.(check bool) "many occurrences" true (occurrences > List.length locations);
  List.iter
    (fun ((r : Det.Report.t), n) ->
      Alcotest.(check bool) "count positive" true (n >= 1);
      Alcotest.(check bool) "block info attached" true (r.block <> None))
    locations

let test_suppression_file () =
  let body =
    "{\n  ignore-worker-writes\n  kind: Possible data race*\n  frame: worker (prog.c:*\n}\n"
  in
  let sups = Det.Suppression.parse_string body in
  Alcotest.(check int) "one suppression parsed" 1 (List.length sups);
  let vm = Engine.create ~config:Engine.default_config () in
  let h = Helgrind.create ~suppressions:sups Helgrind.hwlc_dr in
  Engine.add_tool vm (Helgrind.tool h);
  let _ = Engine.run vm racy_many_times in
  Alcotest.(check int) "all reports suppressed" 0 (Helgrind.location_count h);
  Alcotest.(check bool) "suppressed counter advanced" true
    (Det.Report.suppressed_count (Helgrind.collector h) > 0)

let test_suppression_roundtrip () =
  let s =
    Det.Suppression.make ~name:"n" ~kind_pattern:"Possible*"
      ~frame_patterns:[ "f (a.c:1)"; "*" ]
  in
  let parsed = Det.Suppression.parse_string (Det.Suppression.to_string s) in
  Alcotest.(check int) "roundtrip" 1 (List.length parsed)

let test_suppression_parse_error () =
  Alcotest.(check bool) "malformed file rejected" true
    (match Det.Suppression.parse_string "{\n x\n bad line\n}" with
    | exception Det.Suppression.Parse_error _ -> true
    | _ -> false)

(* glob matching properties *)
let qc_glob_literal =
  QCheck2.Test.make ~name:"glob: literal pattern matches only itself" ~count:200
    QCheck2.Gen.(string_size ~gen:(char_range 'a' 'e') (int_bound 8))
    (fun s ->
      Det.Suppression.(
        matches
          (make ~name:"t" ~kind_pattern:s ~frame_patterns:[])
          ~kind:s ~stack:[]))

let qc_glob_star_prefix =
  QCheck2.Test.make ~name:"glob: 'prefix*' matches any extension" ~count:200
    QCheck2.Gen.(
      pair (string_size ~gen:(char_range 'a' 'e') (int_bound 6))
        (string_size ~gen:(char_range 'a' 'e') (int_bound 6)))
    (fun (prefix, rest) ->
      Det.Suppression.(
        matches
          (make ~name:"t" ~kind_pattern:(prefix ^ "*") ~frame_patterns:[])
          ~kind:(prefix ^ rest) ~stack:[]))

(* --- report rendering ------------------------------------------------------ *)

(* The Format-based renderer that [Report.pp] was before reports were
   rendered into a Buffer, kept as the byte-for-byte oracle. *)
let reference_pp_kind ppf = function
  | Det.Report.Race_write -> Fmt.string ppf "Possible data race writing variable"
  | Race_read -> Fmt.string ppf "Possible data race reading variable"
  | Lock_order -> Fmt.string ppf "Lock order violation (potential deadlock)"

let reference_pp_loc ppf (l : Loc.t) = Fmt.pf ppf "%s (%s:%d)" l.func l.file l.line

let reference_pp_stack ppf stack =
  List.iteri
    (fun i loc -> Fmt.pf ppf "   %s %a@\n" (if i = 0 then "at" else "by") reference_pp_loc loc)
    stack

let reference_pp ppf (r : Det.Report.t) =
  Fmt.pf ppf "%a at %#x@\n" reference_pp_kind r.kind r.addr;
  reference_pp_stack ppf r.stack;
  (match r.block with
  | Some b ->
      Fmt.pf ppf " Address %#x is %d words inside a block of size %d alloc'd by thread %d@\n"
        r.addr (r.addr - b.b_base) b.b_len b.b_alloc_tid;
      reference_pp_stack ppf
        (List.filteri (fun i _ -> i < Det.Report.signature_depth) b.b_alloc_stack)
  | None -> ());
  if r.detail <> "" then Fmt.pf ppf " %s@\n" r.detail

let reference_sig_string r =
  let kind, frames = Det.Report.signature r in
  Fmt.str "%a@%s" reference_pp_kind kind
    (String.concat ";" (List.map (Fmt.str "%a" reference_pp_loc) frames))

let gen_report =
  let open QCheck2.Gen in
  let gen_text = string_size ~gen:printable (int_bound 12) in
  let gen_loc = map3 (fun file func line -> Loc.v file func line) gen_text gen_text int in
  let gen_stack = list_size (int_bound 7) gen_loc in
  let gen_addr = oneof [ return 0; int_bound 4096; int ] in
  let gen_block =
    map4
      (fun b_base b_len b_alloc_tid b_alloc_stack ->
        { Det.Report.b_base; b_len; b_alloc_tid; b_alloc_stack })
      gen_addr (int_bound 64) (int_bound 8) gen_stack
  in
  let* kind = oneofl [ Det.Report.Race_write; Race_read; Lock_order ] in
  let* addr = gen_addr in
  let* tid = int_bound 8 in
  let* stack = gen_stack in
  let* detail = oneof [ return ""; return "Previous state: shared RO, no locks"; gen_text ] in
  let* block = option gen_block in
  let* clock = int_bound 100_000 in
  return
    {
      Det.Report.kind;
      addr;
      tid;
      thread_name = "t";
      stack;
      detail;
      block;
      clock;
      provenance = None;
    }

let qc_renderer_matches_reference =
  QCheck2.Test.make ~name:"report renderer = Format reference, byte for byte" ~count:500
    ~print:(Fmt.str "%a" reference_pp) gen_report (fun r ->
      let expected = Fmt.str "%a" reference_pp r in
      let b = Buffer.create 64 in
      Det.Report.add_to_buffer b r;
      Buffer.contents b = expected
      && Fmt.str "%a" Det.Report.pp r = expected
      && Det.Offline.sig_string r = reference_sig_string r
      && Det.Report.kind_name r.kind = Fmt.str "%a" reference_pp_kind r.kind
      && List.for_all (fun l -> Loc.to_string l = Fmt.str "%a" reference_pp_loc l) r.stack)

let test_renderer_edge_cases () =
  let frame i = Loc.v "f.cpp" (Printf.sprintf "fn%d" i) i in
  let r =
    {
      Det.Report.kind = Race_write;
      addr = 0;
      tid = 1;
      thread_name = "t";
      stack = [];
      detail = "";
      block =
        Some
          {
            b_base = 0;
            b_len = 4;
            b_alloc_tid = 0;
            b_alloc_stack = List.init (Det.Report.signature_depth + 3) frame;
          };
      clock = 0;
      provenance = None;
    }
  in
  let expected =
    "Possible data race writing variable at 0\n\
    \ Address 0 is 0 words inside a block of size 4 alloc'd by thread 0\n\
    \   at fn0 (f.cpp:0)\n\
    \   by fn1 (f.cpp:1)\n\
    \   by fn2 (f.cpp:2)\n\
    \   by fn3 (f.cpp:3)\n"
  in
  Alcotest.(check string) "reference agrees" expected (Fmt.str "%a" reference_pp r);
  Alcotest.(check string)
    "address 0 as 0, no stack lines, alloc stack cut at the signature depth, no detail line"
    expected (Fmt.str "%a" Det.Report.pp r)

(* A warning's "Previous state" detail names the locks in the state.
   Helgrind caches the rendering per state, so naming a lock after a
   detail mentioning it was rendered must not leave the old text in
   later warnings. *)
let test_detail_cache_follows_lock_names () =
  let module Trace = Raceguard_trace in
  let module Event = Vm.Event in
  let w = Trace.Writer.create () in
  let clock = ref 0 in
  let add event =
    incr clock;
    Trace.Writer.add_entry w ~event ~clock:!clock ~stack:[] ~thread_name:"t" ~block:None
  in
  let write tid addr = add (Event.E_write { tid; addr; value = 0; atomic = false; loc }) in
  let lock = Event.Mutex 3 in
  (* [addr] goes Exclusive(0) -> Shared_mod {m} -> empty: one warning
     whose previous state is "shared modified, {m}" *)
  let race_on addr =
    write 0 addr;
    add (Event.E_acquire { tid = 1; lock; mode = Vm.Eff.Write_mode; loc });
    write 1 addr;
    add (Event.E_release { tid = 1; lock; loc });
    write 0 addr
  in
  race_on 10;
  add (Event.E_sync_create { tid = 0; sync = lock; name = "m"; loc });
  race_on 11;
  let h = Helgrind.create Helgrind.hwlc in
  (match Trace.Reader.of_string (Trace.Writer.contents w) with
  | Ok t -> Trace.Reader.replay t [ Helgrind.tool h ]
  | Error (`Msg m) -> Alcotest.fail m);
  Alcotest.(check (list string))
    "details before and after the lock is named"
    [ "Previous state: shared modified, {lock#7}"; "Previous state: shared modified, {\"m\"}" ]
    (List.map (fun (r : Det.Report.t) -> r.detail) (Helgrind.reports h))

let suite =
  ( "detector",
    [
      Alcotest.test_case "single thread silent" `Quick test_single_thread_silent;
      Alcotest.test_case "init+read-shared silent" `Quick test_init_then_read_shared_silent;
      Alcotest.test_case "unlocked write reported" `Quick test_unlocked_cross_thread_write_reported;
      Alcotest.test_case "consistent locking silent" `Quick test_consistent_locking_silent;
      Alcotest.test_case "different locks reported" `Quick test_lock_change_reported;
      Alcotest.test_case "common lock refinement" `Quick test_two_locks_refine_to_common;
      Alcotest.test_case "alloc resets shadow" `Quick test_alloc_resets_shadow;
      Alcotest.test_case "segment handoff silent" `Quick test_handoff_silent_with_segments;
      Alcotest.test_case "no segments: handoff reported" `Quick test_handoff_reported_without_segments;
      Alcotest.test_case "queue handoff reported" `Quick test_queue_handoff_reported;
      Alcotest.test_case "refcount FP under original" `Quick test_refcount_original_fp;
      Alcotest.test_case "refcount ok under HWLC" `Quick test_refcount_hwlc_silent;
      Alcotest.test_case "HWLC catches plain write" `Quick test_hwlc_still_catches_plain_write;
      Alcotest.test_case "figure 8 scenario" `Quick test_stringtest_scenario;
      Alcotest.test_case "rwlock untracked FP" `Quick test_rwlock_untracked_fp;
      Alcotest.test_case "rwlock tracked silent" `Quick test_rwlock_tracked_silent;
      Alcotest.test_case "read-mode lock no write protection" `Quick test_rdlock_does_not_protect_writes;
      Alcotest.test_case "dtor FP without DR" `Quick test_dtor_fp_without_annotation;
      Alcotest.test_case "dtor silent with DR" `Quick test_dtor_silent_with_annotation;
      Alcotest.test_case "original ignores annotations" `Quick test_annotation_ignored_by_original;
      Alcotest.test_case "race during destruction caught" `Quick test_access_during_destruction_still_caught;
      Alcotest.test_case "pure eraser flags init" `Quick test_pure_eraser_flags_initialisation;
      Alcotest.test_case "states allow init" `Quick test_states_allow_initialisation;
      Alcotest.test_case "schedule-dependent miss" `Quick test_false_negative_depends_on_schedule;
      Alcotest.test_case "benign race suppressed" `Quick test_benign_race_suppressed;
      Alcotest.test_case "report dedup + block info" `Quick test_dedup_by_signature;
      Alcotest.test_case "suppression file" `Quick test_suppression_file;
      Alcotest.test_case "suppression roundtrip" `Quick test_suppression_roundtrip;
      Alcotest.test_case "suppression parse error" `Quick test_suppression_parse_error;
      QCheck_alcotest.to_alcotest qc_glob_literal;
      QCheck_alcotest.to_alcotest qc_glob_star_prefix;
      QCheck_alcotest.to_alcotest qc_renderer_matches_reference;
      Alcotest.test_case "renderer edge cases" `Quick test_renderer_edge_cases;
      Alcotest.test_case "detail cache follows lock names" `Quick
        test_detail_cache_follows_lock_names;
    ] )
