(** The VM instruction set, exposed as one OCaml effect.

    A simulated thread is an ordinary OCaml closure that calls {!Api};
    each call writes an op code and its operands into this domain's
    {!slots} record and performs the constant {!Step} effect, and the
    scheduler in {!Engine} reads the slots back and interprets the op.
    Every op answers with an int ([unit] is 0, [bool] is 0/1), so one
    effect of type [int Effect.t] serves the whole instruction set and
    a round trip allocates only the continuation and the engine's wake
    record: no payload record, no per-effect handler closure, no
    [Some].

    This mirrors Valgrind's architecture: the "binary" runs on a virtual
    machine that observes every memory access and every call into the
    threading library, serialising all threads onto a single carrier
    thread ({i "the virtual machine in itself is single-threaded"},
    §3.3 of the paper). *)

module Loc = Raceguard_util.Loc

(** Acquisition mode for read-write locks.  A plain mutex always counts
    as [Write_mode]. *)
type mode = Read_mode | Write_mode

let pp_mode ppf = function
  | Read_mode -> Fmt.string ppf "read"
  | Write_mode -> Fmt.string ppf "write"

(** Client requests: user-space calls that are no-ops under normal
    execution but are recognised by the VM and forwarded to tools —
    the analogue of Valgrind's [VALGRIND_HG_*] macros (Figure 4). *)
type client_request =
  | Destruct of { addr : int; len : int }
      (** [VALGRIND_HG_DESTRUCT]: the object at [addr..addr+len-1] is
          about to be destroyed by the calling thread; mark it
          exclusively owned. *)
  | Benign_race of { addr : int; len : int }
      (** Mark a range as intentionally racy (suppress reports). *)
  | Happens_before of { tag : int }
      (** [ANNOTATE_HAPPENS_BEFORE]: everything this thread did so far
          is ordered before whoever observes [tag] with
          {!Happens_after}.  The §5 "higher level synchronisation"
          extension: message queues annotate their put/get with the
          payload as tag, making ownership transfer through queues
          visible to the thread-segment graph. *)
  | Happens_after of { tag : int }  (** [ANNOTATE_HAPPENS_AFTER] *)

(** Op codes.  The operands each op reads from {!slots} are listed by
    the op; the result it resumes with follows the arrow. *)
type op =
  | Read  (** [arg] addr, [loc] -> value *)
  | Write  (** [arg] addr, [arg2] value, [loc] *)
  | Atomic_rmw
      (** [arg] addr, [f], [loc] -> old value.  Bus-locked
          read-modify-write ([LOCK]-prefixed instruction). *)
  | Alloc  (** [arg] len, [loc] -> base address *)
  | Free  (** [arg] addr, [loc] *)
  | Spawn  (** [name], [body], [loc] -> tid *)
  | Join  (** [arg] tid, [loc] *)
  | Mutex_create  (** [name], [loc] -> id *)
  | Mutex_lock  (** [arg] mutex, [loc] *)
  | Mutex_trylock  (** [arg] mutex, [loc] -> 1 if acquired, else 0 *)
  | Mutex_unlock  (** [arg] mutex, [loc] *)
  | Rwlock_create  (** [name], [loc] -> id *)
  | Rwlock_lock  (** [arg] rwlock, [mode], [loc] *)
  | Rwlock_unlock  (** [arg] rwlock, [loc] *)
  | Cond_create  (** [name], [loc] -> id *)
  | Cond_wait  (** [arg] cv, [arg2] mutex, [loc] *)
  | Cond_signal  (** [arg] cv, [loc] *)
  | Cond_broadcast  (** [arg] cv, [loc] *)
  | Sem_create  (** [name], [arg] initial count, [loc] -> id *)
  | Sem_wait  (** [arg] semaphore, [loc] *)
  | Sem_post  (** [arg] semaphore, [loc] *)
  | Client  (** [req] *)
  | Yield
  | Sleep  (** [arg] ticks: block for that many virtual clock ticks *)
  | Now  (** -> current virtual clock *)
  | Self  (** -> calling thread's id *)
  | Push_frame  (** [loc] *)
  | Pop_frame
  | Random_int
      (** [arg] bound -> deterministic per-run randomness drawn from
          the VM seed *)

(** One op in flight.  Slots are per domain, because chaos runs VMs on
    several domains at once; within a domain nothing runs between an
    {!Api} call's slot writes and its [perform], and the engine reads
    the slots before anything else runs. *)
type slots = {
  mutable op : op;
  mutable arg : int;
  mutable arg2 : int;
  mutable loc : Loc.t;
  mutable mode : mode;
  mutable f : int -> int;
  mutable body : unit -> unit;
  mutable name : string;
  mutable req : client_request;
}

let no_body () = ()

let slots_key =
  Domain.DLS.new_key (fun () ->
      {
        op = Yield;
        arg = 0;
        arg2 = 0;
        loc = Loc.unknown;
        mode = Write_mode;
        f = Fun.id;
        body = no_body;
        name = "";
        req = Happens_before { tag = 0 };
      })

(** The calling domain's slots. *)
let slots () = Domain.DLS.get slots_key [@@inline]

type _ Effect.t += Step : int Effect.t
