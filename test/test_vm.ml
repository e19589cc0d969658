(* Tests for the virtual machine: scheduling, synchronisation objects,
   memory, events, determinism, deadlock detection. *)

module Vm = Raceguard_vm
module Engine = Vm.Engine
module Api = Vm.Api
module Event = Vm.Event
module Loc = Raceguard_util.Loc

let loc = Loc.v "test_vm.ml" "test" 1

let run ?(seed = 1) ?(policy = Engine.Random_seeded) ?tool f =
  let vm = Engine.create ~config:{ Engine.default_config with seed; policy } () in
  (match tool with Some t -> Engine.add_tool vm t | None -> ());
  let result = ref None in
  let outcome = Engine.run vm (fun () -> result := Some (f ())) in
  (outcome, !result)

let check_clean (outcome : Engine.outcome) =
  Alcotest.(check bool) "no deadlock" true (outcome.deadlock = None);
  (match outcome.failures with
  | [] -> ()
  | (_, name, e) :: _ ->
      Alcotest.failf "thread %s raised %s" name (Printexc.to_string e));
  ()

(* --- basic execution ------------------------------------------------ *)

let test_mutex_counter () =
  let outcome, result =
    run (fun () ->
        let c = Api.alloc ~loc 1 in
        let m = Api.Mutex.create ~loc "m" in
        let worker () =
          for _ = 1 to 25 do
            Api.Mutex.with_lock ~loc m (fun () ->
                Api.write ~loc c (Api.read ~loc c + 1))
          done
        in
        let ts = List.init 4 (fun i -> Api.spawn ~loc ~name:(Printf.sprintf "w%d" i) worker) in
        List.iter (Api.join ~loc) ts;
        Api.read ~loc c)
  in
  check_clean outcome;
  Alcotest.(check (option int)) "no lost updates under the mutex" (Some 100) result

let test_racy_counter_loses_updates () =
  (* sanity of the simulation itself: an unlocked RMW under the
     random scheduler actually loses updates for some seed *)
  let lost_somewhere =
    List.exists
      (fun seed ->
        let _, result =
          run ~seed (fun () ->
              let c = Api.alloc ~loc 1 in
              let worker () =
                for _ = 1 to 20 do
                  let v = Api.read ~loc c in
                  Api.write ~loc c (v + 1)
                done
              in
              let t1 = Api.spawn ~loc ~name:"a" worker in
              let t2 = Api.spawn ~loc ~name:"b" worker in
              Api.join ~loc t1;
              Api.join ~loc t2;
              Api.read ~loc c)
        in
        result <> Some 40)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "some schedule loses an update" true lost_somewhere

let test_deterministic_same_seed () =
  let trace seed =
    let events = ref [] in
    let tool = Vm.Tool.of_fn "rec" (fun e -> events := Fmt.str "%a" Event.pp e :: !events) in
    let outcome, _ =
      run ~seed ~tool (fun () ->
          let c = Api.alloc ~loc 1 in
          let worker () = Api.write ~loc c (Api.read ~loc c + 1) in
          let t1 = Api.spawn ~loc ~name:"a" worker in
          let t2 = Api.spawn ~loc ~name:"b" worker in
          Api.join ~loc t1;
          Api.join ~loc t2)
    in
    check_clean outcome;
    List.rev !events
  in
  Alcotest.(check (list string)) "same seed, same trace" (trace 9) (trace 9);
  Alcotest.(check bool) "different seeds usually differ" true (trace 1 <> trace 3 || trace 2 <> trace 5)

let test_join_after_exit () =
  let outcome, result =
    run (fun () ->
        let t = Api.spawn ~loc ~name:"quick" (fun () -> ()) in
        (* let it finish first *)
        Api.sleep 10;
        Api.join ~loc t;
        42)
  in
  check_clean outcome;
  Alcotest.(check (option int)) "join of finished thread" (Some 42) result

let test_trylock () =
  let outcome, result =
    run (fun () ->
        let m = Api.Mutex.create ~loc "m" in
        let first = Api.Mutex.try_lock ~loc m in
        let second = Api.Mutex.try_lock ~loc m in
        Api.Mutex.unlock ~loc m;
        let third = Api.Mutex.try_lock ~loc m in
        Api.Mutex.unlock ~loc m;
        (first, second, third))
  in
  check_clean outcome;
  Alcotest.(check (option (triple bool bool bool)))
    "trylock semantics" (Some (true, false, true)) result

let test_mutex_misuse () =
  let outcome, _ =
    run (fun () ->
        let m = Api.Mutex.create ~loc "m" in
        Api.Mutex.unlock ~loc m)
  in
  Alcotest.(check bool) "unlock of unheld mutex fails the thread" true
    (List.exists (fun (_, _, e) -> match e with Engine.Misuse _ -> true | _ -> false)
       outcome.failures)

let test_double_free () =
  let outcome, _ =
    run (fun () ->
        let a = Api.alloc ~loc 4 in
        Api.free ~loc a;
        Api.free ~loc a)
  in
  Alcotest.(check bool) "double free raises" true (outcome.failures <> [])

(* --- rwlock --------------------------------------------------------- *)

let test_rwlock_readers_concurrent () =
  (* two readers can hold the lock at the same time: both acquire
     before either releases, observed through the event stream *)
  let acquired = ref 0 and max_concurrent = ref 0 in
  let tool =
    Vm.Tool.of_fn "rw" (fun e ->
        match e with
        | Event.E_acquire { lock = Event.Rwlock _; _ } ->
            incr acquired;
            if !acquired > !max_concurrent then max_concurrent := !acquired
        | Event.E_release { lock = Event.Rwlock _; _ } -> decr acquired
        | _ -> ())
  in
  let outcome, _ =
    run ~seed:3 ~tool (fun () ->
        let rw = Api.Rwlock.create ~loc "rw" in
        let gate = Api.Sem.create ~loc ~init:0 "gate" in
        let reader () =
          Api.Rwlock.rdlock ~loc rw;
          Api.Sem.post ~loc gate;
          Api.sleep 20;
          Api.Rwlock.unlock ~loc rw
        in
        let t1 = Api.spawn ~loc ~name:"r1" reader in
        let t2 = Api.spawn ~loc ~name:"r2" reader in
        Api.Sem.wait ~loc gate;
        Api.Sem.wait ~loc gate;
        Api.join ~loc t1;
        Api.join ~loc t2)
  in
  check_clean outcome;
  Alcotest.(check int) "two concurrent readers" 2 !max_concurrent

let test_rwlock_writer_exclusive () =
  (* a writer never overlaps a reader: track with a shadow flag *)
  let outcome, result =
    run ~seed:11 (fun () ->
        let rw = Api.Rwlock.create ~loc "rw" in
        let data = Api.alloc ~loc 1 in
        let violations = ref 0 in
        let writer () =
          for _ = 1 to 5 do
            Api.Rwlock.with_wrlock ~loc rw (fun () ->
                Api.write ~loc data 1;
                Api.yield ();
                Api.write ~loc data 0)
          done
        in
        let reader () =
          for _ = 1 to 10 do
            Api.Rwlock.with_rdlock ~loc rw (fun () ->
                if Api.read ~loc data <> 0 then incr violations)
          done
        in
        let w = Api.spawn ~loc ~name:"w" writer in
        let r1 = Api.spawn ~loc ~name:"r1" reader in
        let r2 = Api.spawn ~loc ~name:"r2" reader in
        Api.join ~loc w;
        Api.join ~loc r1;
        Api.join ~loc r2;
        !violations)
  in
  check_clean outcome;
  Alcotest.(check (option int)) "writer exclusion holds" (Some 0) result

(* --- condvars and semaphores ---------------------------------------- *)

let test_condvar_producer_consumer () =
  let outcome, result =
    run ~seed:17 (fun () ->
        let m = Api.Mutex.create ~loc "m" in
        let cv = Api.Cond.create ~loc "cv" in
        let slot = Api.alloc ~loc 1 in
        let sum = ref 0 in
        let consumer () =
          for _ = 1 to 10 do
            Api.Mutex.lock ~loc m;
            while Api.read ~loc slot = 0 do
              Api.Cond.wait ~loc cv m
            done;
            sum := !sum + Api.read ~loc slot;
            Api.write ~loc slot 0;
            Api.Cond.signal ~loc cv;
            Api.Mutex.unlock ~loc m
          done
        in
        let producer () =
          for i = 1 to 10 do
            Api.Mutex.lock ~loc m;
            while Api.read ~loc slot <> 0 do
              Api.Cond.wait ~loc cv m
            done;
            Api.write ~loc slot i;
            Api.Cond.signal ~loc cv;
            Api.Mutex.unlock ~loc m
          done
        in
        let c = Api.spawn ~loc ~name:"consumer" consumer in
        let p = Api.spawn ~loc ~name:"producer" producer in
        Api.join ~loc c;
        Api.join ~loc p;
        !sum)
  in
  check_clean outcome;
  Alcotest.(check (option int)) "all items consumed" (Some 55) result

let test_cond_broadcast () =
  let outcome, result =
    run ~seed:23 (fun () ->
        let m = Api.Mutex.create ~loc "m" in
        let cv = Api.Cond.create ~loc "cv" in
        let go = Api.alloc ~loc 1 in
        let woke = ref 0 in
        let waiter () =
          Api.Mutex.lock ~loc m;
          while Api.read ~loc go = 0 do
            Api.Cond.wait ~loc cv m
          done;
          incr woke;
          Api.Mutex.unlock ~loc m
        in
        let ts = List.init 5 (fun i -> Api.spawn ~loc ~name:(Printf.sprintf "w%d" i) waiter) in
        Api.sleep 30;
        Api.Mutex.lock ~loc m;
        Api.write ~loc go 1;
        Api.Cond.broadcast ~loc cv;
        Api.Mutex.unlock ~loc m;
        List.iter (Api.join ~loc) ts;
        !woke)
  in
  check_clean outcome;
  Alcotest.(check (option int)) "broadcast wakes everyone" (Some 5) result

let test_semaphore () =
  let outcome, result =
    run (fun () ->
        let s = Api.Sem.create ~loc ~init:2 "s" in
        let inside = Api.alloc ~loc 1 in
        let peak = ref 0 in
        let worker () =
          Api.Sem.wait ~loc s;
          let n = Api.read ~loc inside + 1 in
          Api.write ~loc inside n;
          if n > !peak then peak := n;
          Api.sleep 5;
          Api.write ~loc inside (Api.read ~loc inside - 1);
          Api.Sem.post ~loc s
        in
        let ts = List.init 6 (fun i -> Api.spawn ~loc ~name:(Printf.sprintf "w%d" i) worker) in
        List.iter (Api.join ~loc) ts;
        !peak)
  in
  check_clean outcome;
  (match result with
  | Some peak -> Alcotest.(check bool) "at most 2 inside" true (peak <= 2 && peak >= 1)
  | None -> Alcotest.fail "no result")

(* --- msg queue and thread pool --------------------------------------- *)

let test_msg_queue_fifo () =
  let outcome, result =
    run (fun () ->
        let q = Vm.Msg_queue.create ~name:"q" ~capacity:3 () in
        let received = ref [] in
        let consumer () =
          for _ = 1 to 10 do
            received := Vm.Msg_queue.get q :: !received
          done
        in
        let c = Api.spawn ~loc ~name:"c" consumer in
        for i = 1 to 10 do
          Vm.Msg_queue.put q (i * 11)
        done;
        Api.join ~loc c;
        List.rev !received)
  in
  check_clean outcome;
  Alcotest.(check (option (list int)))
    "FIFO order, bounded queue" (Some (List.init 10 (fun i -> (i + 1) * 11))) result

let test_thread_pool_processes_all () =
  let outcome, result =
    run ~seed:29 (fun () ->
        let processed = ref [] in
        let pool =
          Vm.Thread_pool.create ~name:"pool" ~workers:3 ~queue_capacity:4
            ~handler:(fun task -> processed := task :: !processed)
            ()
        in
        for i = 1 to 20 do
          Vm.Thread_pool.submit pool i
        done;
        Vm.Thread_pool.shutdown pool;
        List.sort compare !processed)
  in
  check_clean outcome;
  Alcotest.(check (option (list int)))
    "every task processed exactly once" (Some (List.init 20 (fun i -> i + 1))) result

(* --- deadlock detection ---------------------------------------------- *)

let test_deadlock_detected () =
  let outcome, _ =
    run ~policy:Engine.Round_robin (fun () ->
        let a = Api.Mutex.create ~loc "A" and b = Api.Mutex.create ~loc "B" in
        let t1 =
          Api.spawn ~loc ~name:"t1" (fun () ->
              Api.Mutex.lock ~loc a;
              Api.yield ();
              Api.Mutex.lock ~loc b;
              Api.Mutex.unlock ~loc b;
              Api.Mutex.unlock ~loc a)
        in
        let t2 =
          Api.spawn ~loc ~name:"t2" (fun () ->
              Api.Mutex.lock ~loc b;
              Api.yield ();
              Api.Mutex.lock ~loc a;
              Api.Mutex.unlock ~loc a;
              Api.Mutex.unlock ~loc b)
        in
        Api.join ~loc t1;
        Api.join ~loc t2)
  in
  match outcome.deadlock with
  | Some d -> Alcotest.(check int) "two threads in the cycle" 2 (List.length d.dl_cycle)
  | None -> Alcotest.fail "deadlock not detected"

let test_lost_signal_hang () =
  let outcome, _ =
    run (fun () ->
        let m = Api.Mutex.create ~loc "m" in
        let cv = Api.Cond.create ~loc "cv" in
        Api.Mutex.lock ~loc m;
        Api.Cond.wait ~loc cv m
        (* nobody will ever signal *))
  in
  match outcome.deadlock with
  | Some d ->
      Alcotest.(check bool) "reported as hang, not cycle" true
        (d.dl_cycle = [] && d.dl_stuck <> [])
  | None -> Alcotest.fail "hang not detected"

(* --- clock / sleep / atomic ------------------------------------------ *)

let test_sleep_advances_clock () =
  let outcome, result =
    run (fun () ->
        let t0 = Api.now () in
        Api.sleep 100;
        Api.now () - t0)
  in
  check_clean outcome;
  match result with
  | Some d -> Alcotest.(check bool) "clock advanced by at least the sleep" true (d >= 100)
  | None -> Alcotest.fail "no result"

let test_atomic_rmw_indivisible () =
  (* atomic increments never lose updates, unlike the racy test above *)
  let outcome, result =
    run ~seed:31 (fun () ->
        let c = Api.alloc ~loc 1 in
        let worker () =
          for _ = 1 to 50 do
            ignore (Api.atomic_incr ~loc c)
          done
        in
        let ts = List.init 4 (fun i -> Api.spawn ~loc ~name:(Printf.sprintf "w%d" i) worker) in
        List.iter (Api.join ~loc) ts;
        Api.read ~loc c)
  in
  check_clean outcome;
  Alcotest.(check (option int)) "atomics never lose updates" (Some 200) result

let test_atomic_cas () =
  let outcome, result =
    run (fun () ->
        let a = Api.alloc ~loc 1 in
        Api.write ~loc a 5;
        let ok = Api.atomic_cas ~loc a ~expected:5 ~desired:9 in
        let not_ok = Api.atomic_cas ~loc a ~expected:5 ~desired:1 in
        (ok, not_ok, Api.read ~loc a))
  in
  check_clean outcome;
  Alcotest.(check (option (triple bool bool int))) "cas" (Some (true, false, 9)) result

let test_op_budget () =
  let vm =
    Engine.create ~config:{ Engine.default_config with max_ops = 1000 } ()
  in
  let outcome =
    Engine.run vm (fun () ->
        while true do
          Api.yield ()
        done)
  in
  Alcotest.(check bool) "livelock cut off by op budget" true (outcome.deadlock <> None)

let test_frames_stack () =
  let stacks = ref [] in
  let tool =
    Vm.Tool.of_fn "frames" (fun _ -> ())
  in
  ignore tool;
  let tool2 =
    Vm.Tool.make ~name:"frames" ~on_event:(fun ctx e ->
        match e with
        | Event.E_write { tid; _ } -> stacks := ctx.stack_of tid :: !stacks
        | _ -> ())
  in
  let outcome, _ =
    run ~tool:tool2 (fun () ->
        let a = Api.alloc ~loc 1 in
        Api.with_frame (Loc.v "f.c" "outer" 1) (fun () ->
            Api.with_frame (Loc.v "f.c" "inner" 2) (fun () -> Api.write ~loc a 1)))
  in
  check_clean outcome;
  match !stacks with
  | [ stack ] ->
      Alcotest.(check (list string)) "frames innermost first"
        [ "inner (f.c:2)"; "outer (f.c:1)"; "main (<vm>:0)" ]
        (List.map Loc.to_string stack)
  | l -> Alcotest.failf "expected exactly one write, saw %d" (List.length l)

let test_memory_reuse_lifo () =
  let addrs = ref (0, 0) in
  let outcome, _ =
    run (fun () ->
        let a = Api.alloc ~loc 4 in
        Api.free ~loc a;
        let b = Api.alloc ~loc 4 in
        addrs := (a, b))
  in
  check_clean outcome;
  let a, b = !addrs in
  Alcotest.(check int) "same-size block recycled" a b

let test_queue_blocks_when_full () =
  (* capacity-1 queue: the producer must block on the second put until
     the consumer drains one element *)
  let outcome, result =
    run ~seed:13 (fun () ->
        let q = Vm.Msg_queue.create ~name:"q1" ~capacity:1 () in
        let order = ref [] in
        let producer () =
          Vm.Msg_queue.put q 1;
          order := "put1" :: !order;
          Vm.Msg_queue.put q 2;
          order := "put2" :: !order
        in
        let t = Api.spawn ~loc ~name:"producer" producer in
        Api.sleep 30;
        order := "get-start" :: !order;
        let a = Vm.Msg_queue.get q in
        let b = Vm.Msg_queue.get q in
        Api.join ~loc t;
        (List.rev !order, a, b))
  in
  check_clean outcome;
  match result with
  | Some (order, a, b) ->
      Alcotest.(check (pair int int)) "values in order" (1, 2) (a, b);
      (* put2 cannot complete before the main thread starts draining *)
      let idx x = ref (List.mapi (fun i s -> (s, i)) order) |> fun l -> List.assoc x !l in
      Alcotest.(check bool) "put2 blocked until a get ran" true (idx "put2" > idx "get-start")
  | None -> Alcotest.fail "no result"

let test_signal_with_no_waiter_is_lost () =
  (* POSIX semantics: a signal with no waiter does nothing; the waiter
     must therefore check its predicate (here: it does, and the flag
     write comes after, so the program still terminates thanks to the
     while loop re-check under the lock) *)
  let outcome, _ =
    run (fun () ->
        let m = Api.Mutex.create ~loc "m" in
        let cv = Api.Cond.create ~loc "cv" in
        let flag = Api.alloc ~loc 1 in
        (* signal before anyone waits: lost *)
        Api.Cond.signal ~loc cv;
        let t =
          Api.spawn ~loc ~name:"setter" (fun () ->
              Api.sleep 5;
              Api.Mutex.lock ~loc m;
              Api.write ~loc flag 1;
              Api.Cond.signal ~loc cv;
              Api.Mutex.unlock ~loc m)
        in
        Api.Mutex.lock ~loc m;
        while Api.read ~loc flag = 0 do
          Api.Cond.wait ~loc cv m
        done;
        Api.Mutex.unlock ~loc m;
        Api.join ~loc t)
  in
  check_clean outcome

let test_spawn_many_threads () =
  let outcome, result =
    run (fun () ->
        let counter = Api.alloc ~loc 1 in
        let ts =
          List.init 40 (fun i ->
              Api.spawn ~loc ~name:(Printf.sprintf "t%d" i) (fun () ->
                  ignore (Api.atomic_incr ~loc counter)))
        in
        List.iter (Api.join ~loc) ts;
        Api.read ~loc counter)
  in
  check_clean outcome;
  Alcotest.(check (option int)) "40 threads all ran" (Some 40) result;
  Alcotest.(check int) "thread count" 41 outcome.stats.threads_created

let test_rwlock_writer_waits_for_readers () =
  (* a writer arriving while readers hold the lock must wait until the
     last reader releases; readers arriving behind a queued writer do
     not starve it forever (FIFO queue) *)
  let outcome, result =
    run ~seed:19 (fun () ->
        let rw = Api.Rwlock.create ~loc "rw" in
        let log = ref [] in
        let reader name hold () =
          Api.Rwlock.rdlock ~loc rw;
          log := (name ^ ":in") :: !log;
          Api.sleep hold;
          log := (name ^ ":out") :: !log;
          Api.Rwlock.unlock ~loc rw
        in
        let writer () =
          Api.Rwlock.wrlock ~loc rw;
          log := "w:in" :: !log;
          Api.Rwlock.unlock ~loc rw
        in
        let r1 = Api.spawn ~loc ~name:"r1" (reader "r1" 30) in
        Api.sleep 5;
        let w = Api.spawn ~loc ~name:"w" writer in
        Api.join ~loc r1;
        Api.join ~loc w;
        List.rev !log)
  in
  check_clean outcome;
  match result with
  | Some log ->
      let idx x =
        let rec go i = function
          | [] -> -1
          | y :: rest -> if y = x then i else go (i + 1) rest
        in
        go 0 log
      in
      Alcotest.(check bool) "writer entered after the reader left" true
        (idx "w:in" > idx "r1:out")
  | None -> Alcotest.fail "no result"

let test_block_metadata () =
  let info = ref None in
  let tool =
    Vm.Tool.make ~name:"blocks" ~on_event:(fun ctx e ->
        match e with
        | Event.E_write { addr; _ } when !info = None -> info := ctx.block_of addr
        | _ -> ())
  in
  let outcome, _ =
    run ~tool (fun () ->
        Api.with_frame (Loc.v "b.c" "allocator_caller" 3) (fun () ->
            let a = Api.alloc ~loc:(Loc.v "b.c" "allocate" 4) 6 in
            Api.write ~loc a 1))
  in
  check_clean outcome;
  match !info with
  | Some (b : Vm.Memory.block) ->
      Alcotest.(check int) "block length" 6 b.len;
      Alcotest.(check int) "allocating thread" 0 b.alloc_tid;
      Alcotest.(check bool) "allocation stack captured" true
        (List.exists (fun l -> Loc.func l = "allocator_caller") b.alloc_stack)
  | None -> Alcotest.fail "no block info observed"

let test_memory_stats () =
  let outcome, result =
    run (fun () ->
        let a = Api.alloc ~loc 10 in
        let _b = Api.alloc ~loc 5 in
        Api.free ~loc a;
        ())
  in
  ignore result;
  check_clean outcome;
  Alcotest.(check int) "allocs counted" 2 outcome.stats.memory_allocs;
  Alcotest.(check int) "live words" 5 outcome.stats.memory_live_words

(* --- allocation budget ------------------------------------------------ *)

(* Minor words per operation of [body n] on a fresh VM, with the fixed
   cost of a run (VM, main thread, tables) cancelled by differencing two
   run lengths. *)
let words_per_op ?(tools = []) ~n body =
  let words n =
    let vm = Engine.create () in
    List.iter (Engine.add_tool vm) tools;
    let w0 = Gc.minor_words () in
    let outcome = Engine.run vm (fun () -> body n) in
    let w = Gc.minor_words () -. w0 in
    check_clean outcome;
    w
  in
  ignore (words n);
  (words (2 * n) -. words n) /. float_of_int n

let yield_loop n =
  for _ = 1 to n do
    Api.yield ()
  done

(* one write then one read of the same word per two operations *)
let write_read_loop n =
  let a = Api.alloc ~loc 1 in
  for i = 1 to n / 2 do
    Api.write ~loc a i;
    ignore (Api.read ~loc a)
  done

(* one lock then one unlock of a free mutex per two operations *)
let lock_unlock_loop n =
  let m = Api.Mutex.create ~loc "m" in
  for _ = 1 to n / 2 do
    Api.Mutex.lock ~loc m;
    Api.Mutex.unlock ~loc m
  done

(* Per-op budgets, measured with OCaml 5.1 native code: 4 words for a
   [Yield] (the effect round trip alone: the continuation and the
   [Wake] that parks it), and 4 for a write+read or a lock+unlock
   pair's average (an unobserved access or lock operation builds no
   event record).  Each bound sits less than one [Some] (2 words) above
   its value, so a per-op option, closure or event record that creeps
   back into the engine fails here. *)
let yield_budget = 5.5
let write_read_budget = 5.5
let lock_unlock_budget = 5.5

let test_alloc_budget () =
  if Sys.backend_type = Sys.Native then begin
    let y = words_per_op ~n:20_000 yield_loop in
    let rw = words_per_op ~n:20_000 write_read_loop in
    let lu = words_per_op ~n:20_000 lock_unlock_loop in
    if y > yield_budget then
      Alcotest.failf "Yield allocates %.2f words/op (budget %.1f)" y yield_budget;
    if rw > write_read_budget then
      Alcotest.failf "write+read allocates %.2f words/op (budget %.1f)" rw write_read_budget;
    if lu > lock_unlock_budget then
      Alcotest.failf "lock+unlock allocates %.2f words/op (budget %.1f)" lu lock_unlock_budget;
    (* an attached tool sees real records: with it the same loop pays
       at least one access event record per access *)
    let record =
      Obj.size (Obj.repr (Event.E_read { tid = 0; addr = 0; value = 0; atomic = false; loc })) + 1
    in
    let rw_tool = words_per_op ~tools:[ Vm.Tool.of_fn "noop" ignore ] ~n:20_000 write_read_loop in
    if rw_tool -. rw < float_of_int record then
      Alcotest.failf "a no-op tool adds %.2f words/access, less than a %d-word event record"
        (rw_tool -. rw) record
  end

(* A tool's exception is the tool's bug, not the simulated program's: it
   must end the run naming the tool, never surface at the thread's
   perform point where the program could catch it and carry on.  The
   VM's own misuse checks still reach the thread with a tool attached. *)
let test_tool_exception_ends_run () =
  let misuse_caught = ref false in
  let outcome, _ =
    run ~tool:(Vm.Tool.of_fn "noop" ignore) (fun () ->
        let m = Api.Mutex.create ~loc "m" in
        try Api.Mutex.unlock ~loc m with Engine.Misuse _ -> misuse_caught := true)
  in
  check_clean outcome;
  Alcotest.(check bool) "the thread caught its own misuse" true !misuse_caught;
  let caught = ref false in
  let tool =
    Vm.Tool.of_fn "boom" (function Event.E_read _ -> invalid_arg "boom" | _ -> ())
  in
  let vm = Engine.create () in
  Engine.add_tool vm tool;
  match
    Engine.run vm (fun () ->
        let a = Api.alloc ~loc 1 in
        (try ignore (Api.read ~loc a) with Invalid_argument _ -> caught := true);
        Api.write ~loc a 1)
  with
  | (_ : Engine.outcome) -> Alcotest.fail "run returned although a tool raised"
  | exception Engine.Tool_failure (name, e) ->
      Alcotest.(check string) "names the tool" "boom" name;
      Alcotest.(check bool) "carries the tool's exception" true (e = Invalid_argument "boom");
      Alcotest.(check bool) "the thread never saw it" false !caught

(* The API is only meaningful under the engine's handler: outside
   [Engine.run] its effect has no handler, as api.mli promises. *)
let test_api_outside_run () =
  match Api.read ~loc 0 with
  | (_ : int) -> Alcotest.fail "Api.read returned outside Engine.run"
  | exception Effect.Unhandled _ -> ()

(* A write/read/lock/spawn program whose event stream records the
   operands and results of every op kind the slots carry. *)
let slot_program () =
  let m = Api.Mutex.create ~loc "m" in
  let cell = Api.alloc ~loc 1 in
  let worker i () =
    for j = 1 to 50 do
      Api.Mutex.lock ~loc m;
      let v = Api.read ~loc cell in
      Api.write ~loc cell (v + i + j);
      Api.Mutex.unlock ~loc m;
      if Api.Mutex.try_lock ~loc m then Api.Mutex.unlock ~loc m;
      ignore (Api.atomic_incr ~loc cell)
    done
  in
  let ts = List.init 4 (fun i -> Api.spawn ~loc ~name:(Printf.sprintf "w%d" i) (worker i)) in
  List.iter (Api.join ~loc) ts

let recorded_run () =
  let events = ref [] in
  let vm = Engine.create ~config:{ Engine.default_config with seed = 5 } () in
  Engine.add_tool vm (Vm.Tool.of_fn "record" (fun e -> events := e :: !events));
  let outcome = Engine.run vm slot_program in
  (List.rev !events, outcome.deadlock = None, outcome.failures = [], outcome.stats)

(* The op slots are per domain: a VM running on a second domain at the
   same time as one on the main domain must not see the other's
   operands.  Both must reproduce a sequential run event for event. *)
let test_slots_per_domain () =
  let rounds = 40 in
  let expected = recorded_run () in
  let events, _, _, _ = expected in
  Alcotest.(check bool) "the program emits events" true (List.length events > 1000);
  (* both domains start together, so their runs overlap *)
  let ready = Atomic.make 0 in
  let repeat () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    List.init rounds (fun _ -> recorded_run ())
  in
  let other = Domain.spawn repeat in
  let here = repeat () in
  let there = Domain.join other in
  List.iteri
    (fun i (here, there) ->
      if here <> expected then Alcotest.failf "main-domain run %d differs from the sequential run" i;
      if there <> expected then Alcotest.failf "second-domain run %d differs from the sequential run" i)
    (List.combine here there)

(* Negative script entries pick [entry mod n] reduced into [0, n). *)
let test_scripted_negative_entries () =
  let script = [| -1; -5; min_int; -2; 7; -3; -1; -4 |] in
  let vm = Engine.create ~config:{ Engine.default_config with policy = Engine.Scripted script } () in
  let outcome =
    Engine.run vm (fun () ->
        let worker () = for _ = 1 to 3 do Api.yield () done in
        let ts = List.init 3 (fun i -> Api.spawn ~loc ~name:(Printf.sprintf "w%d" i) worker) in
        List.iter (Api.join ~loc) ts)
  in
  check_clean outcome;
  let log = Engine.decision_log vm in
  Alcotest.(check bool) "the script was consulted" true (List.length log >= Array.length script);
  List.iteri
    (fun k (choice, arity) ->
      let want =
        if k < Array.length script then ((script.(k) mod arity) + arity) mod arity else 0
      in
      Alcotest.(check int) (Printf.sprintf "decision %d of arity %d" k arity) want choice)
    log

let suite =
  ( "vm",
    [
      Alcotest.test_case "mutex counter" `Quick test_mutex_counter;
      Alcotest.test_case "racy counter loses updates" `Quick test_racy_counter_loses_updates;
      Alcotest.test_case "deterministic per seed" `Quick test_deterministic_same_seed;
      Alcotest.test_case "join after exit" `Quick test_join_after_exit;
      Alcotest.test_case "trylock" `Quick test_trylock;
      Alcotest.test_case "mutex misuse" `Quick test_mutex_misuse;
      Alcotest.test_case "double free" `Quick test_double_free;
      Alcotest.test_case "rwlock readers concurrent" `Quick test_rwlock_readers_concurrent;
      Alcotest.test_case "rwlock writer exclusive" `Quick test_rwlock_writer_exclusive;
      Alcotest.test_case "condvar producer/consumer" `Quick test_condvar_producer_consumer;
      Alcotest.test_case "cond broadcast" `Quick test_cond_broadcast;
      Alcotest.test_case "semaphore bound" `Quick test_semaphore;
      Alcotest.test_case "msg queue FIFO" `Quick test_msg_queue_fifo;
      Alcotest.test_case "thread pool completes" `Quick test_thread_pool_processes_all;
      Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
      Alcotest.test_case "lost signal hang" `Quick test_lost_signal_hang;
      Alcotest.test_case "sleep advances clock" `Quick test_sleep_advances_clock;
      Alcotest.test_case "atomic rmw indivisible" `Quick test_atomic_rmw_indivisible;
      Alcotest.test_case "atomic cas" `Quick test_atomic_cas;
      Alcotest.test_case "op budget stops livelock" `Quick test_op_budget;
      Alcotest.test_case "memory LIFO reuse" `Quick test_memory_reuse_lifo;
      Alcotest.test_case "queue blocks when full" `Quick test_queue_blocks_when_full;
      Alcotest.test_case "lost signal semantics" `Quick test_signal_with_no_waiter_is_lost;
      Alcotest.test_case "many threads" `Quick test_spawn_many_threads;
      Alcotest.test_case "rwlock writer waits" `Quick test_rwlock_writer_waits_for_readers;
      Alcotest.test_case "block metadata" `Quick test_block_metadata;
      Alcotest.test_case "call stacks" `Quick test_frames_stack;
      Alcotest.test_case "memory stats" `Quick test_memory_stats;
      Alcotest.test_case "allocation budget per op" `Quick test_alloc_budget;
      Alcotest.test_case "tool exception ends the run" `Quick test_tool_exception_ends_run;
      Alcotest.test_case "scripted negative entries" `Quick test_scripted_negative_entries;
      Alcotest.test_case "api outside the engine is unhandled" `Quick test_api_outside_run;
      Alcotest.test_case "op slots are per domain" `Quick test_slots_per_domain;
    ] )
