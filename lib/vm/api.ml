(** Operations available {e inside} simulated threads.

    These are the "system calls" of the VM: a simulated application is
    ordinary OCaml code calling these functions.  Each call suspends
    the fiber and hands control to the scheduler, so every call is a
    potential preemption point — the granularity at which Valgrind's
    serialised execution can interleave threads.

    All functions taking [~loc] record the (pseudo) source position for
    race reports; use {!with_frame} to maintain the simulated call
    stack.  Each call fills this domain's {!Eff.slots} and performs
    {!Eff.Step}; see {!Eff} for the protocol. *)

module Loc = Raceguard_util.Loc
open Eff

let step () = Effect.perform Step [@@inline]

let call op =
  let s = slots () in
  s.op <- op;
  step ()

let call_a op a =
  let s = slots () in
  s.op <- op;
  s.arg <- a;
  step ()

let call_loc op ~loc a =
  let s = slots () in
  s.op <- op;
  s.arg <- a;
  s.loc <- loc;
  step ()

let call_name op ~loc name =
  let s = slots () in
  s.op <- op;
  s.name <- name;
  s.loc <- loc;
  step ()

(* --- memory ------------------------------------------------------- *)

let read ~loc addr = call_loc Read ~loc addr

let write ~loc addr value =
  let s = slots () in
  s.op <- Write;
  s.arg <- addr;
  s.arg2 <- value;
  s.loc <- loc;
  ignore (step ())

(** [LOCK]-prefixed read-modify-write; returns the old value. *)
let atomic_rmw ~loc addr f =
  let s = slots () in
  s.op <- Atomic_rmw;
  s.arg <- addr;
  s.f <- f;
  s.loc <- loc;
  step ()

let atomic_incr ~loc addr = atomic_rmw ~loc addr (fun v -> v + 1)
let atomic_decr ~loc addr = atomic_rmw ~loc addr (fun v -> v - 1)

let atomic_cas ~loc addr ~expected ~desired =
  let old = atomic_rmw ~loc addr (fun v -> if v = expected then desired else v) in
  old = expected

let alloc ~loc len = call_loc Alloc ~loc len
let free ~loc addr = ignore (call_loc Free ~loc addr)

(* --- threads ------------------------------------------------------ *)

let spawn ~loc ~name body =
  let s = slots () in
  s.op <- Spawn;
  s.name <- name;
  s.body <- body;
  s.loc <- loc;
  step ()

let join ~loc tid = ignore (call_loc Join ~loc tid)
let self () = call Self
let yield () = ignore (call Yield)
let sleep n = ignore (call_a Sleep n)
let now () = call Now
let random_int bound = call_a Random_int bound

(* --- synchronisation ---------------------------------------------- *)

module Mutex = struct
  type t = int

  let create ~loc name = call_name Mutex_create ~loc name
  let lock ~loc m = ignore (call_loc Mutex_lock ~loc m)
  let try_lock ~loc m = call_loc Mutex_trylock ~loc m <> 0
  let unlock ~loc m = ignore (call_loc Mutex_unlock ~loc m)

  let with_lock ~loc m f =
    lock ~loc m;
    Fun.protect ~finally:(fun () -> unlock ~loc m) f
end

module Rwlock = struct
  type t = int

  let create ~loc name = call_name Rwlock_create ~loc name

  let lock mode ~loc rw =
    let s = slots () in
    s.op <- Rwlock_lock;
    s.arg <- rw;
    s.mode <- mode;
    s.loc <- loc;
    ignore (step ())

  let rdlock ~loc rw = lock Read_mode ~loc rw
  let wrlock ~loc rw = lock Write_mode ~loc rw
  let unlock ~loc rw = ignore (call_loc Rwlock_unlock ~loc rw)

  let with_rdlock ~loc rw f =
    rdlock ~loc rw;
    Fun.protect ~finally:(fun () -> unlock ~loc rw) f

  let with_wrlock ~loc rw f =
    wrlock ~loc rw;
    Fun.protect ~finally:(fun () -> unlock ~loc rw) f
end

module Cond = struct
  type t = int

  let create ~loc name = call_name Cond_create ~loc name

  let wait ~loc cv m =
    let s = slots () in
    s.op <- Cond_wait;
    s.arg <- cv;
    s.arg2 <- m;
    s.loc <- loc;
    ignore (step ())

  let signal ~loc cv = ignore (call_loc Cond_signal ~loc cv)
  let broadcast ~loc cv = ignore (call_loc Cond_broadcast ~loc cv)
end

module Sem = struct
  type t = int

  let create ~loc ~init name =
    let s = slots () in
    s.op <- Sem_create;
    s.arg <- init;
    s.name <- name;
    s.loc <- loc;
    step ()

  let wait ~loc s = ignore (call_loc Sem_wait ~loc s)
  let post ~loc s = ignore (call_loc Sem_post ~loc s)
end

(* --- client requests (Valgrind user-space calls) ------------------ *)

let client req =
  let s = slots () in
  s.op <- Client;
  s.req <- req;
  ignore (step ())

(** Announce that the object at [addr..addr+len-1] is about to be
    destroyed — the [VALGRIND_HG_DESTRUCT] macro of Figure 4.  A no-op
    for the VM itself; only tools interpret it. *)
let hg_destruct ~addr ~len = client (Destruct { addr; len })

let benign_race ~addr ~len = client (Benign_race { addr; len })

(** [ANNOTATE_HAPPENS_BEFORE]/[_AFTER]: make a higher-level handoff
    (queue put/get, custom synchronisation) visible to detectors that
    honour these annotations — the paper's §5 future-work direction. *)
let annotate_happens_before ~tag = client (Happens_before { tag })

let annotate_happens_after ~tag = client (Happens_after { tag })

(* --- call stack maintenance --------------------------------------- *)

let push_frame loc =
  let s = slots () in
  s.op <- Push_frame;
  s.loc <- loc;
  ignore (step ())

let pop_frame () = ignore (call Pop_frame)

(** Run [f] with [loc] pushed on the simulated call stack. *)
let with_frame loc f =
  push_frame loc;
  Fun.protect ~finally:pop_frame f
