(** The virtual machine engine: a deterministic cooperative scheduler.

    Simulated threads are OCaml fibers (effect handlers).  Every VM
    operation is a scheduling point: the fiber suspends, the operation
    is applied to the VM state, events are emitted to the registered
    tools, and the scheduler picks the next runnable thread according
    to the configured policy.  Given the same seed and policy, a run is
    bit-for-bit reproducible — which is what makes "rerun the test
    suite after fixing a problem" (§4 of the paper) meaningful.

    The engine also performs runtime deadlock detection: when no thread
    is runnable or sleeping but some are blocked, it reconstructs the
    waits-for graph and reports the cycle (the paper's application
    detected deadlocks with lock timeouts; the race checker "also does
    dead-lock detection, [so] application level detection is not
    needed", §3.3). *)

module Loc = Raceguard_util.Loc
module Rng = Raceguard_util.Rng
module Growvec = Raceguard_util.Growvec
module Metrics = Raceguard_obs.Metrics
module Trace = Raceguard_obs.Trace
module Injector = Raceguard_faults.Injector
open Eff

(* Process-global instruments; per-run deltas come from snapshot/diff. *)
let m_events = Metrics.counter "vm.events_emitted"
let m_ops = Metrics.counter "vm.ops_executed"
let m_switches = Metrics.counter "vm.scheduler_switches"
let m_threads = Metrics.counter "vm.threads_created"
let m_allocs = Metrics.counter "vm.memory_allocs"
let m_deadlocks = Metrics.counter "vm.deadlocks"
let h_thread_ops = Metrics.histogram "vm.ops_per_thread"

(* ------------------------------------------------------------------ *)
(* Scheduling policies                                                 *)
(* ------------------------------------------------------------------ *)

type policy =
  | Round_robin  (** strict FIFO over ready threads *)
  | Random_seeded  (** uniformly random among ready threads (uses seed) *)
  | Scripted of int array
      (** replay a decision script: the k-th scheduling decision picks
          ready thread [script.(k) mod n], reduced into [\[0, n)] for
          negative entries too; past the end of the script decisions
          default to 0 (FIFO).  The backbone of systematic
          schedule exploration ({!Explore}). *)

let pp_policy ppf = function
  | Round_robin -> Fmt.string ppf "round-robin"
  | Random_seeded -> Fmt.string ppf "random"
  | Scripted s -> Fmt.pf ppf "scripted[%d]" (Array.length s)

type config = {
  seed : int;
  policy : policy;
  max_ops : int;  (** safety valve against runaway simulations *)
  tracer : Trace.t option;
      (** when set, every emitted event is offered to this sampling
          ring tracer (Chrome trace_event export); [None] costs one
          comparison per event *)
  faults : Injector.t option;
      (** fault-injection decision engine: delayed thread starts and
          slow mutex acquisitions are drawn from its dedicated streams
          (never from the scheduler's rng); [None] costs one comparison
          per spawn / free-mutex lock *)
}

let default_config =
  {
    seed = 1;
    policy = Random_seeded;
    max_ops = 50_000_000;
    tracer = None;
    faults = None;
  }

(* ------------------------------------------------------------------ *)
(* Threads                                                             *)
(* ------------------------------------------------------------------ *)

type wake =
  | No_wake  (** no pending resumption: the thread is fresh, running or done *)
  | Wake of (int, unit) Effect.Deep.continuation
      (** resume with the thread's [wake_v]: every op answers an int *)
  | Wake_cond_post of { k : (int, unit) Effect.Deep.continuation; cv : int; m : int; loc : Loc.t }
      (** a signalled condition waiter that had to queue for its mutex:
          emit its [E_cond_wait_post] when it runs, then resume with 0 *)

type block_reason =
  | On_mutex of int
  | On_rwlock of int * mode
  | On_cond of int * int  (** cv, mutex to reacquire *)
  | On_sem of int
  | On_join of int
  | On_sleep of int  (** absolute wake time *)

type status =
  | Fresh of (unit -> unit)
  | Ready
  | Running
  | Blocked of block_reason
  | Done

type thread = {
  tid : int;
  name : string;
  parent : int option;
  mutable status : status;
  mutable wake : wake;
  mutable wake_v : int;
  mutable frames : Loc.t list;
  mutable failure : exn option;
  mutable join_waiters : int list;
  mutable ops : int;  (** operations executed by this thread *)
}

(* ------------------------------------------------------------------ *)
(* Synchronisation objects                                             *)
(* ------------------------------------------------------------------ *)

type mutex_obj = {
  m_id : int;
  m_name : string;
  mutable m_owner : int;  (** owning tid, or -1 when free *)
  m_waiters : int Queue.t;
}

type rwlock_obj = {
  rw_id : int;
  rw_name : string;
  mutable rw_writer : int;  (** writing tid, or -1 when none *)
  mutable rw_readers : int list;
  rw_waiters : (int * mode) Queue.t;
}

type cond_obj = { cv_id : int; cv_name : string; cv_waiters : (int * int) Queue.t }
(** waiters carry the mutex they must reacquire *)

type sem_obj = { sem_id : int; sem_name : string; mutable sem_count : int; sem_waiters : int Queue.t }

(* ------------------------------------------------------------------ *)
(* Deadlock / run outcome                                              *)
(* ------------------------------------------------------------------ *)

type deadlock = {
  dl_cycle : (int * string) list;  (** (tid, what it waits for) *)
  dl_stuck : (int * string) list;  (** blocked threads not in a cycle *)
}

let pp_deadlock ppf d =
  if d.dl_cycle <> [] then begin
    Fmt.pf ppf "DEADLOCK: cyclic wait among %d thread(s):@\n" (List.length d.dl_cycle);
    List.iter (fun (tid, what) -> Fmt.pf ppf "  thread %d waits for %s@\n" tid what) d.dl_cycle
  end;
  if d.dl_stuck <> [] then begin
    Fmt.pf ppf "HANG: %d thread(s) blocked with no waker:@\n" (List.length d.dl_stuck);
    List.iter (fun (tid, what) -> Fmt.pf ppf "  thread %d waits for %s@\n" tid what) d.dl_stuck
  end

type run_stats = {
  ops_executed : int;
  scheduler_switches : int;
  threads_created : int;
  final_clock : int;
  memory_allocs : int;
  memory_live_words : int;
}

type outcome = {
  deadlock : deadlock option;
  failures : (int * string * exn) list;  (** threads that raised *)
  stats : run_stats;
}

exception Misuse of string
(** raised inside a simulated thread on API misuse (unlocking a mutex
    one does not hold, double free, ...) *)

exception Tool_failure of string * exn
(** a tool's [on_event] raised: (tool name, its exception).  Ends the
    run instead of reaching the simulated thread. *)

let () =
  Printexc.register_printer (function
    | Tool_failure (name, e) ->
        Some (Printf.sprintf "Tool_failure(%S, %s)" name (Printexc.to_string e))
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* The VM                                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  config : config;
  rng : Rng.t;
  memory : Memory.t;
  threads : thread Growvec.t;
  mutexes : mutex_obj Growvec.t;
  rwlocks : rwlock_obj Growvec.t;
  conds : cond_obj Growvec.t;
  sems : sem_obj Growvec.t;
  mutable ready : int array;  (** first [ready_len] entries: ready tids, FIFO *)
  mutable ready_len : int;
  mutable current : int;
  mutable clock : int;
  mutable ops : int;
  mutable switches : int;
  mutable tools : Tool.t list;
  mutable observed : bool;
      (** some consumer sees events (a tool or a tracer); when false,
          plain accesses only count theirs *)
  mutable benign_ranges : (int * int) list;
  mutable decisions : (int * int) list;
      (** reverse log of (chosen index, arity) for decision points with
          arity > 1 — the branching structure {!Explore} enumerates.
          Only kept under [Scripted] policy (its sole consumer), so the
          common policies do not allocate per scheduling step *)
  mutable decision_count : int;
  mutable cached_ctx : Tool.ctx option;
      (** the tool ctx is pure closures over [t]; built once so [emit]
          does not allocate per event *)
  mutable delayed_fresh : (int * int) list;
      (** (tid, wake_at): spawned threads whose first run a spawn-delay
          fault postponed; they stay [Fresh] and enter the ready queue
          when the clock reaches [wake_at] *)
}

let dummy_thread =
  {
    tid = -1;
    name = "<dummy>";
    parent = None;
    status = Done;
    wake = No_wake;
    wake_v = 0;
    frames = [];
    failure = None;
    join_waiters = [];
    ops = 0;
  }

let create ?(config = default_config) () =
  {
    config;
    rng = Rng.create ~seed:config.seed;
    memory = Memory.create ();
    threads = Growvec.create ~dummy:dummy_thread;
    mutexes =
      Growvec.create ~dummy:{ m_id = -1; m_name = ""; m_owner = -1; m_waiters = Queue.create () };
    rwlocks =
      Growvec.create
        ~dummy:{ rw_id = -1; rw_name = ""; rw_writer = -1; rw_readers = []; rw_waiters = Queue.create () };
    conds = Growvec.create ~dummy:{ cv_id = -1; cv_name = ""; cv_waiters = Queue.create () };
    sems = Growvec.create ~dummy:{ sem_id = -1; sem_name = ""; sem_count = 0; sem_waiters = Queue.create () };
    ready = [||];
    ready_len = 0;
    decision_count = 0;
    current = -1;
    clock = 0;
    ops = 0;
    switches = 0;
    tools = [];
    observed = config.tracer <> None;
    benign_ranges = [];
    decisions = [];
    cached_ctx = None;
    delayed_fresh = [];
  }

let add_tool t tool =
  t.tools <- t.tools @ [ tool ];
  t.observed <- true

(** Chronological log of nontrivial scheduling decisions as
    (chosen index, arity) pairs; meaningful after {!run}. *)
let decision_log t = List.rev t.decisions

let thread t tid = Growvec.get t.threads tid
let memory t = t.memory

let tool_ctx t : Tool.ctx =
  match t.cached_ctx with
  | Some ctx -> ctx
  | None ->
      let ctx : Tool.ctx =
        {
          stack_of = (fun tid -> (thread t tid).frames);
          thread_name = (fun tid -> (thread t tid).name);
          block_of = (fun addr -> Memory.block_of t.memory addr);
          clock = (fun () -> t.clock);
        }
      in
      t.cached_ctx <- Some ctx;
      ctx

let rec dispatch ctx event = function
  | [] -> ()
  | (tool : Tool.t) :: rest -> (
      match tool.on_event ctx event with
      | () -> dispatch ctx event rest
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Printexc.raise_with_backtrace (Tool_failure (tool.name, e)) bt)

let emit t event =
  Metrics.incr m_events;
  (match t.config.tracer with
  | None -> ()
  | Some tr ->
      Trace.emit tr ~ts:t.clock ~tid:(Event.tid event) ~name:(Event.kind_name event) ~cat:"vm" ());
  match t.tools with [] -> () | tools -> dispatch (tool_ctx t) event tools

(* --- ready queue ------------------------------------------------- *)

let enqueue_ready t tid =
  let th = thread t tid in
  (match th.status with
  | Fresh _ | Ready -> ()
  | Running | Blocked _ -> th.status <- Ready
  | Done -> invalid_arg "enqueue_ready: thread is done");
  let n = Array.length t.ready in
  if t.ready_len >= n then begin
    let a = Array.make (max 16 (2 * n)) (-1) in
    Array.blit t.ready 0 a 0 n;
    t.ready <- a
  end;
  t.ready.(t.ready_len) <- tid;
  t.ready_len <- t.ready_len + 1

let ready_count t = t.ready_len

let take_ready_at t idx =
  if idx < 0 || idx >= t.ready_len then invalid_arg "take_ready_at";
  let x = t.ready.(idx) in
  Array.blit t.ready (idx + 1) t.ready idx (t.ready_len - idx - 1);
  t.ready_len <- t.ready_len - 1;
  x

(* The next thread to run, or -1 when none is ready. *)
let pick_ready t =
  let n = t.ready_len in
  if n = 0 then -1
  else begin
    let choice =
      match t.config.policy with
      | Round_robin -> 0
      | Random_seeded -> Rng.int t.rng n
      | Scripted script ->
          let k = t.decision_count in
          if k < Array.length script then
            let r = script.(k) mod n in
            if r < 0 then r + n else r
          else 0
    in
    if n > 1 then begin
      t.decision_count <- t.decision_count + 1;
      match t.config.policy with
      | Scripted _ -> t.decisions <- (choice, n) :: t.decisions
      | Round_robin | Random_seeded -> ()
    end;
    take_ready_at t choice
  end

(* --- waking helpers ---------------------------------------------- *)

let resume_value (th : thread) v k =
  th.wake <- Wake k;
  th.wake_v <- v

(* Grant a mutex to a waiting thread and make it runnable.  The
   acquire event is emitted at grant time: that is the moment the
   acquisition semantically happens. *)
let grant_mutex t (m : mutex_obj) tid ~loc =
  m.m_owner <- tid;
  if t.observed then emit t (Event.E_acquire { tid; lock = Event.Mutex m.m_id; mode = Write_mode; loc })
  else Metrics.incr m_events;
  enqueue_ready t tid

let rec rwlock_grant_waiters t (rw : rwlock_obj) ~loc =
  (* FIFO with reader batching: grant the head; if it is a reader, keep
     granting readers until a writer is at the head. *)
  if (not (Queue.is_empty rw.rw_waiters)) && rw.rw_writer < 0 then begin
    let tid, mode = Queue.peek rw.rw_waiters in
    match mode with
    | Write_mode ->
        if rw.rw_readers = [] then begin
          ignore (Queue.pop rw.rw_waiters);
          rw.rw_writer <- tid;
          if t.observed then emit t (Event.E_acquire { tid; lock = Event.Rwlock rw.rw_id; mode = Write_mode; loc })
          else Metrics.incr m_events;
          enqueue_ready t tid
        end
    | Read_mode ->
        ignore (Queue.pop rw.rw_waiters);
        rw.rw_readers <- tid :: rw.rw_readers;
        if t.observed then emit t (Event.E_acquire { tid; lock = Event.Rwlock rw.rw_id; mode = Read_mode; loc })
        else Metrics.incr m_events;
        enqueue_ready t tid;
        rwlock_grant_waiters t rw ~loc
  end

(* Full mutex unlock path shared by Mutex_unlock and Cond_wait. *)
let do_mutex_unlock t th (m : mutex_obj) ~loc =
  if m.m_owner <> th.tid then
    raise (Misuse (Fmt.str "thread %d unlocks mutex %S it does not hold" th.tid m.m_name));
  m.m_owner <- -1;
  if t.observed then emit t (Event.E_release { tid = th.tid; lock = Event.Mutex m.m_id; loc })
  else Metrics.incr m_events;
  if not (Queue.is_empty m.m_waiters) then begin
    let w = Queue.pop m.m_waiters in
    grant_mutex t m w ~loc
  end

(* --- deadlock detection ------------------------------------------ *)

let describe_wait t = function
  | On_mutex m ->
      let mu = Growvec.get t.mutexes m in
      Fmt.str "mutex %S (held by %s)" mu.m_name
        (if mu.m_owner >= 0 then Fmt.str "thread %d" mu.m_owner else "nobody")
  | On_rwlock (rw, mode) ->
      let r = Growvec.get t.rwlocks rw in
      Fmt.str "rwlock %S in %a mode (writer=%s, readers=%d)" r.rw_name Eff.pp_mode mode
        (if r.rw_writer >= 0 then Fmt.str "t%d" r.rw_writer else "none")
        (List.length r.rw_readers)
  | On_cond (cv, _) -> Fmt.str "condition %S (no signal pending)" (Growvec.get t.conds cv).cv_name
  | On_sem s -> Fmt.str "semaphore %S" (Growvec.get t.sems s).sem_name
  | On_join tid -> Fmt.str "termination of thread %d" tid
  | On_sleep until -> Fmt.str "sleep until %d" until

(* waits-for edges: tid -> tid that could wake it (single blocking
   owner for mutex/rwlock-writer/join; none for cond/sem). *)
let waiting_on_thread t reason =
  match reason with
  | On_mutex m ->
      let o = (Growvec.get t.mutexes m).m_owner in
      if o >= 0 then Some o else None
  | On_rwlock (rw, _) -> (
      let r = Growvec.get t.rwlocks rw in
      if r.rw_writer >= 0 then Some r.rw_writer
      else match r.rw_readers with [ x ] -> Some x | _ -> None)
  | On_join tid -> Some tid
  | On_cond _ | On_sem _ | On_sleep _ -> None

let detect_deadlock t =
  let blocked = ref [] in
  Growvec.iter
    (fun th -> match th.status with Blocked r -> blocked := (th, r) :: !blocked | _ -> ())
    t.threads;
  match !blocked with
  | [] -> None
  | blocked ->
      (* find a cycle in the waits-for graph *)
      let edge tid =
        match (thread t tid).status with
        | Blocked r -> waiting_on_thread t r
        | _ -> None
      in
      let in_cycle = Hashtbl.create 8 in
      List.iter
        (fun (th, _) ->
          (* follow edges from th; if we come back to a visited node on
             this walk, everything from there on is a cycle *)
          let rec walk seen tid =
            if List.mem tid seen then begin
              let rec mark = function
                | [] -> ()
                | x :: rest ->
                    if x = tid then List.iter (fun y -> Hashtbl.replace in_cycle y ()) (tid :: rest)
                    else mark rest
              in
              mark (List.rev seen)
            end
            else match edge tid with None -> () | Some next -> walk (tid :: seen) next
          in
          walk [] th.tid)
        blocked;
      let cycle, stuck =
        List.partition (fun (th, _) -> Hashtbl.mem in_cycle th.tid) blocked
      in
      let describe (th, r) = (th.tid, describe_wait t r) in
      Some { dl_cycle = List.map describe cycle; dl_stuck = List.map describe stuck }

(* ------------------------------------------------------------------ *)
(* Operation interpretation                                            *)
(* ------------------------------------------------------------------ *)

exception Too_many_ops

let reschedule_self t th v k =
  resume_value th v k;
  enqueue_ready t th.tid

(* Park [th] in a wait queue; whoever wakes it resumes it with 0. *)
let block th reason k =
  th.status <- Blocked reason;
  resume_value th 0 k

(* Interpret the op in [s] performed by thread [th].  Must either make
   [th] runnable again (with a wake) or leave it blocked in some wait
   queue.  Every operand is read from [s] before anything can run
   another fiber on this domain. *)
let rec handle_op t (th : thread) (s : slots) (k : (int, unit) Effect.Deep.continuation) =
  t.ops <- t.ops + 1;
  th.ops <- th.ops + 1;
  t.clock <- t.clock + 1;
  if t.ops > t.config.max_ops then raise Too_many_ops;
  match s.op with
  | Read ->
      let addr = s.arg in
      let value = Memory.get t.memory addr in
      if t.observed then emit t (Event.E_read { tid = th.tid; addr; value; atomic = false; loc = s.loc })
      else Metrics.incr m_events;
      reschedule_self t th value k
  | Write ->
      let addr = s.arg and value = s.arg2 in
      Memory.set t.memory addr value;
      if t.observed then emit t (Event.E_write { tid = th.tid; addr; value; atomic = false; loc = s.loc })
      else Metrics.incr m_events;
      reschedule_self t th 0 k
  | Atomic_rmw ->
      (* one LOCK-prefixed instruction: an atomic load followed by an
         atomic store, indivisible (no scheduling point in between) *)
      let addr = s.arg and loc = s.loc in
      let old = Memory.get t.memory addr in
      let value = s.f old in
      Memory.set t.memory addr value;
      if t.observed then begin
        emit t (Event.E_read { tid = th.tid; addr; value = old; atomic = true; loc });
        emit t (Event.E_write { tid = th.tid; addr; value; atomic = true; loc })
      end
      else Metrics.add m_events 2;
      reschedule_self t th old k
  | Alloc ->
      let len = s.arg and loc = s.loc in
      let addr = Memory.alloc t.memory ~tid:th.tid ~loc ~stack:th.frames ~len in
      emit t (Event.E_alloc { tid = th.tid; addr; len; loc });
      reschedule_self t th addr k
  | Free ->
      let addr = s.arg in
      let len = Memory.free t.memory ~addr in
      emit t (Event.E_free { tid = th.tid; addr; len; loc = s.loc });
      reschedule_self t th 0 k
  | Spawn ->
      let name = s.name and body = s.body and loc = s.loc in
      (* the slot must not keep the body (and what it captures) alive *)
      s.body <- no_body;
      let child =
        {
          tid = Growvec.length t.threads;
          name;
          parent = Some th.tid;
          status = Fresh body;
          wake = No_wake;
          wake_v = 0;
          frames = [ loc ];
          failure = None;
          join_waiters = [];
          ops = 0;
        }
      in
      ignore (Growvec.push t.threads child);
      emit t (Event.E_thread_start { tid = child.tid; name; parent = Some th.tid });
      emit t (Event.E_spawn { parent = th.tid; child = child.tid; loc });
      let spawn_delay =
        match t.config.faults with Some inj -> Injector.spawn_delay inj | None -> 0
      in
      if spawn_delay = 0 then enqueue_ready t child.tid
      else t.delayed_fresh <- (child.tid, t.clock + spawn_delay) :: t.delayed_fresh;
      reschedule_self t th child.tid k
  | Join ->
      let tid = s.arg in
      if tid < 0 || tid >= Growvec.length t.threads then
        raise (Misuse (Fmt.str "join of unknown thread %d" tid));
      let target = thread t tid in
      if target.status = Done then begin
        emit t (Event.E_join { joiner = th.tid; joined = tid; loc = s.loc });
        reschedule_self t th 0 k
      end
      else begin
        target.join_waiters <- (th.tid :: target.join_waiters);
        block th (On_join tid) k
      end
  | Mutex_create ->
      let name = s.name in
      let m = { m_id = Growvec.length t.mutexes; m_name = name; m_owner = -1; m_waiters = Queue.create () } in
      ignore (Growvec.push t.mutexes m);
      emit t (Event.E_sync_create { tid = th.tid; sync = Event.Mutex m.m_id; name; loc = s.loc });
      reschedule_self t th m.m_id k
  | Mutex_lock ->
      let m = s.arg in
      let mu = Growvec.get t.mutexes m in
      if mu.m_owner < 0 then begin
        mu.m_owner <- th.tid;
        if t.observed then emit t (Event.E_acquire { tid = th.tid; lock = Event.Mutex m; mode = Write_mode; loc = s.loc })
        else Metrics.incr m_events;
        let lock_delay =
          match t.config.faults with Some inj -> Injector.lock_delay inj | None -> 0
        in
        if lock_delay = 0 then reschedule_self t th 0 k
        else
          (* slow-acquire fault: the lock is held from this moment
             (contention builds behind it) but the owner stalls before
             proceeding *)
          block th (On_sleep (t.clock + lock_delay)) k
      end
      else if mu.m_owner = th.tid then
        raise (Misuse (Fmt.str "thread %d relocks non-recursive mutex %S" th.tid mu.m_name))
      else begin
        Queue.push th.tid mu.m_waiters;
        block th (On_mutex m) k
      end
  | Mutex_trylock ->
      let m = s.arg in
      let mu = Growvec.get t.mutexes m in
      if mu.m_owner < 0 then begin
        mu.m_owner <- th.tid;
        if t.observed then emit t (Event.E_acquire { tid = th.tid; lock = Event.Mutex m; mode = Write_mode; loc = s.loc })
        else Metrics.incr m_events;
        reschedule_self t th 1 k
      end
      else reschedule_self t th 0 k
  | Mutex_unlock ->
      let mu = Growvec.get t.mutexes s.arg in
      do_mutex_unlock t th mu ~loc:s.loc;
      reschedule_self t th 0 k
  | Rwlock_create ->
      let name = s.name in
      let rw =
        { rw_id = Growvec.length t.rwlocks; rw_name = name; rw_writer = -1; rw_readers = []; rw_waiters = Queue.create () }
      in
      ignore (Growvec.push t.rwlocks rw);
      emit t (Event.E_sync_create { tid = th.tid; sync = Event.Rwlock rw.rw_id; name; loc = s.loc });
      reschedule_self t th rw.rw_id k
  | Rwlock_lock ->
      let rw = s.arg and mode = s.mode in
      let r = Growvec.get t.rwlocks rw in
      let free =
        r.rw_writer < 0
        && Queue.is_empty r.rw_waiters
        && (match mode with Read_mode -> true | Write_mode -> r.rw_readers = [])
      in
      if free then begin
        (match mode with
        | Read_mode -> r.rw_readers <- th.tid :: r.rw_readers
        | Write_mode -> r.rw_writer <- th.tid);
        if t.observed then emit t (Event.E_acquire { tid = th.tid; lock = Event.Rwlock rw; mode; loc = s.loc })
        else Metrics.incr m_events;
        reschedule_self t th 0 k
      end
      else begin
        Queue.push (th.tid, mode) r.rw_waiters;
        block th (On_rwlock (rw, mode)) k
      end
  | Rwlock_unlock ->
      let rw = s.arg and loc = s.loc in
      let r = Growvec.get t.rwlocks rw in
      (if r.rw_writer = th.tid then r.rw_writer <- -1
       else if List.mem th.tid r.rw_readers then
         r.rw_readers <- List.filter (fun x -> x <> th.tid) r.rw_readers
       else raise (Misuse (Fmt.str "thread %d unlocks rwlock %S it does not hold" th.tid r.rw_name)));
      if t.observed then emit t (Event.E_release { tid = th.tid; lock = Event.Rwlock rw; loc })
      else Metrics.incr m_events;
      rwlock_grant_waiters t r ~loc;
      reschedule_self t th 0 k
  | Cond_create ->
      let name = s.name in
      let cv = { cv_id = Growvec.length t.conds; cv_name = name; cv_waiters = Queue.create () } in
      ignore (Growvec.push t.conds cv);
      emit t (Event.E_sync_create { tid = th.tid; sync = Event.Cond cv.cv_id; name; loc = s.loc });
      reschedule_self t th cv.cv_id k
  | Cond_wait ->
      let cv = s.arg and m = s.arg2 and loc = s.loc in
      let c = Growvec.get t.conds cv in
      let mu = Growvec.get t.mutexes m in
      emit t (Event.E_cond_wait_pre { tid = th.tid; cv; m; loc });
      do_mutex_unlock t th mu ~loc;
      Queue.push (th.tid, m) c.cv_waiters;
      block th (On_cond (cv, m)) k
  | Cond_signal ->
      let cv = s.arg and loc = s.loc in
      let c = Growvec.get t.conds cv in
      emit t (Event.E_cond_signal { tid = th.tid; cv; broadcast = false; loc });
      (if not (Queue.is_empty c.cv_waiters) then begin
         let w, m = Queue.pop c.cv_waiters in
         wake_cond_waiter t w m ~cv ~loc
       end);
      reschedule_self t th 0 k
  | Cond_broadcast ->
      let cv = s.arg and loc = s.loc in
      let c = Growvec.get t.conds cv in
      emit t (Event.E_cond_signal { tid = th.tid; cv; broadcast = true; loc });
      while not (Queue.is_empty c.cv_waiters) do
        let w, m = Queue.pop c.cv_waiters in
        wake_cond_waiter t w m ~cv ~loc
      done;
      reschedule_self t th 0 k
  | Sem_create ->
      let name = s.name in
      let sem = { sem_id = Growvec.length t.sems; sem_name = name; sem_count = s.arg; sem_waiters = Queue.create () } in
      ignore (Growvec.push t.sems sem);
      emit t (Event.E_sync_create { tid = th.tid; sync = Event.Sem sem.sem_id; name; loc = s.loc });
      reschedule_self t th sem.sem_id k
  | Sem_wait ->
      let id = s.arg in
      let sem = Growvec.get t.sems id in
      if sem.sem_count > 0 then begin
        sem.sem_count <- sem.sem_count - 1;
        emit t (Event.E_sem_wait_post { tid = th.tid; sem = id; loc = s.loc });
        reschedule_self t th 0 k
      end
      else begin
        Queue.push th.tid sem.sem_waiters;
        block th (On_sem id) k
      end
  | Sem_post ->
      let id = s.arg and loc = s.loc in
      let sem = Growvec.get t.sems id in
      emit t (Event.E_sem_post { tid = th.tid; sem = id; loc });
      (if Queue.is_empty sem.sem_waiters then sem.sem_count <- sem.sem_count + 1
       else begin
         let w = Queue.pop sem.sem_waiters in
         emit t (Event.E_sem_wait_post { tid = w; sem = id; loc });
         enqueue_ready t w
       end);
      reschedule_self t th 0 k
  | Client ->
      let req = s.req in
      let loc = match th.frames with [] -> Loc.unknown | l :: _ -> l in
      (match req with
      | Benign_race { addr; len } -> t.benign_ranges <- (addr, len) :: t.benign_ranges
      | Destruct _ | Happens_before _ | Happens_after _ -> ());
      emit t (Event.E_client { tid = th.tid; req; loc });
      reschedule_self t th 0 k
  | Yield -> reschedule_self t th 0 k
  | Sleep -> block th (On_sleep (t.clock + max 1 s.arg)) k
  | Now -> reschedule_self t th t.clock k
  | Self -> reschedule_self t th th.tid k
  | Push_frame ->
      th.frames <- s.loc :: th.frames;
      reschedule_self t th 0 k
  | Pop_frame ->
      (match th.frames with [] -> () | _ :: rest -> th.frames <- rest);
      reschedule_self t th 0 k
  | Random_int -> reschedule_self t th (Rng.int t.rng s.arg) k

and wake_cond_waiter t w m ~cv ~loc =
  (* a signalled waiter must reacquire its mutex before returning *)
  let mu = Growvec.get t.mutexes m in
  let wth = thread t w in
  if mu.m_owner < 0 then begin
    mu.m_owner <- w;
    if t.observed then emit t (Event.E_acquire { tid = w; lock = Event.Mutex m; mode = Write_mode; loc })
    else Metrics.incr m_events;
    emit t (Event.E_cond_wait_post { tid = w; cv; m; loc });
    enqueue_ready t w
  end
  else begin
    (* park on the mutex; when granted, the wait_post event must still
       be emitted — at the moment the waiter runs again *)
    wth.status <- Blocked (On_mutex m);
    (match wth.wake with
    | Wake k -> wth.wake <- Wake_cond_post { k; cv; m; loc }
    | Wake_cond_post _ | No_wake -> ());
    Queue.push w mu.m_waiters
  end

(* ------------------------------------------------------------------ *)
(* The scheduler loop                                                  *)
(* ------------------------------------------------------------------ *)

let thread_finished t th =
  th.status <- Done;
  emit t (Event.E_thread_exit { tid = th.tid });
  List.iter
    (fun w ->
      emit t (Event.E_join { joiner = w; joined = th.tid; loc = Loc.unknown });
      enqueue_ready t w)
    th.join_waiters;
  th.join_waiters <- []

(* One handler per thread.  [Step] is the only effect, so its handler
   function and the [Some] around it are built once here, not per op. *)
let handler t th slots : (unit, unit) Effect.Deep.handler =
  let on_step =
    Some
      (fun k ->
        (* API misuse (bad unlock, double free, out-of-bounds access,
           ...) is the calling thread's error: deliver it at the
           perform point so the thread fails and the VM keeps running.
           Engine-level conditions (Too_many_ops) still abort the run. *)
        match handle_op t th slots k with
        | () -> ()
        | exception ((Misuse _ | Invalid_argument _) as e) -> Effect.Deep.discontinue k e)
  in
  {
    retc = (fun () -> thread_finished t th);
    exnc =
      (fun e ->
        th.failure <- Some e;
        thread_finished t th);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Step -> (on_step : ((a, unit) Effect.Deep.continuation -> unit) option)
        | _ -> None);
  }

let run_thread t th slots =
  t.current <- th.tid;
  t.switches <- t.switches + 1;
  match th.status with
  | Fresh body ->
      th.status <- Running;
      Effect.Deep.match_with body () (handler t th slots)
  | Ready -> (
      th.status <- Running;
      match th.wake with
      | Wake k ->
          th.wake <- No_wake;
          Effect.Deep.continue k th.wake_v
      | Wake_cond_post { k; cv; m; loc } ->
          th.wake <- No_wake;
          emit t (Event.E_cond_wait_post { tid = th.tid; cv; m; loc });
          Effect.Deep.continue k 0
      | No_wake -> invalid_arg "run_thread: ready thread without wake")
  | Running | Blocked _ | Done -> invalid_arg "run_thread: thread not runnable"

let wake_due_sleepers t =
  let woke = ref false in
  (match t.delayed_fresh with
  | [] -> ()
  | delayed ->
      let due, still = List.partition (fun (_, until) -> until <= t.clock) delayed in
      if due <> [] then begin
        t.delayed_fresh <- still;
        List.iter
          (fun (tid, _) ->
            enqueue_ready t tid;
            woke := true)
          (List.sort compare due)
      end);
  Growvec.iter
    (fun th ->
      match th.status with
      | Blocked (On_sleep until) when until <= t.clock ->
          enqueue_ready t th.tid;
          woke := true
      | _ -> ())
    t.threads;
  !woke

let earliest_sleeper t =
  let from_delayed =
    List.fold_left
      (fun acc (_, until) ->
        match acc with Some u -> Some (min u until) | None -> Some until)
      None t.delayed_fresh
  in
  Growvec.fold
    (fun acc th ->
      match th.status with
      | Blocked (On_sleep until) -> (
          match acc with Some u -> Some (min u until) | None -> Some until)
      | _ -> acc)
    from_delayed t.threads

(** Run [main] as thread 0 until all threads finish, a deadlock is
    detected, or the op budget is exhausted. *)
let run t main =
  let main_thread =
    {
      tid = 0;
      name = "main";
      parent = None;
      status = Fresh main;
      wake = No_wake;
      wake_v = 0;
      frames = [ Loc.v "<vm>" "main" 0 ];
      failure = None;
      join_waiters = [];
      ops = 0;
    }
  in
  ignore (Growvec.push t.threads main_thread);
  emit t (Event.E_thread_start { tid = 0; name = "main"; parent = None });
  enqueue_ready t 0;
  let slots = Eff.slots () in
  let deadlock = ref None in
  (try
     let continue_loop = ref true in
     while !continue_loop do
       match pick_ready t with
       | -1 -> (
           ignore (wake_due_sleepers t);
           if ready_count t > 0 then ()
           else
             match earliest_sleeper t with
             | Some until ->
                 t.clock <- until;
                 ignore (wake_due_sleepers t)
             | None -> (
                 match detect_deadlock t with
                 | Some d ->
                     deadlock := Some d;
                     continue_loop := false
                 | None -> continue_loop := false))
       | tid -> run_thread t (thread t tid) slots
     done
   with Too_many_ops ->
     deadlock :=
       Some
         {
           dl_cycle = [];
           dl_stuck = [ (t.current, Fmt.str "op budget (%d) exhausted — livelock?" t.config.max_ops) ];
         });
  let failures =
    Growvec.fold
      (fun acc th -> match th.failure with Some e -> (th.tid, th.name, e) :: acc | None -> acc)
      [] t.threads
  in
  Metrics.add m_ops t.ops;
  Metrics.add m_switches t.switches;
  Metrics.add m_threads (Growvec.length t.threads);
  Metrics.add m_allocs (Memory.total_allocs t.memory);
  if !deadlock <> None then Metrics.incr m_deadlocks;
  Growvec.iter (fun (th : thread) -> Metrics.observe h_thread_ops th.ops) t.threads;
  {
    deadlock = !deadlock;
    failures = List.rev failures;
    stats =
      {
        ops_executed = t.ops;
        scheduler_switches = t.switches;
        threads_created = Growvec.length t.threads;
        final_clock = t.clock;
        memory_allocs = Memory.total_allocs t.memory;
        memory_live_words = Memory.live_words t.memory;
      };
  }
