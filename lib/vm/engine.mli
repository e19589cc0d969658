(** The virtual machine engine: a deterministic cooperative scheduler
    for simulated threads (the Valgrind-substitute substrate).

    Create a VM, attach tools, then {!run} a main function that uses
    {!Api} operations.  Execution is fully serialised: tools observe
    one totally ordered event stream, and a given (program, seed,
    policy) triple reproduces bit-for-bit. *)

(** {1 Configuration} *)

type policy =
  | Round_robin  (** strict FIFO over ready threads *)
  | Random_seeded  (** uniformly random among ready threads (uses seed) *)
  | Sticky
      (** keep running the current thread until it blocks or exits;
          models a coarse-grained interleaving with few switches *)
  | Scripted of int array
      (** replay a decision script: the k-th nontrivial scheduling
          decision picks ready thread [script.(k) mod n], reduced
          into [\[0, n)] for negative entries too; past the end of the
          script decisions default to 0 (FIFO).  The backbone of
          systematic schedule exploration ({!Explore}). *)

val pp_policy : Format.formatter -> policy -> unit

type config = {
  seed : int;
  policy : policy;
  reuse_memory : bool;  (** allocator recycles freed blocks *)
  trace_events : bool;  (** record the full event trace in the outcome *)
  max_ops : int;  (** safety valve against runaway simulations *)
  tracer : Raceguard_obs.Trace.t option;
      (** offer every emitted event to this sampling ring tracer
          (Chrome trace_event export); [None] (the default) costs one
          comparison per event *)
  faults : Raceguard_faults.Injector.t option;
      (** fault-injection decision engine for delayed thread starts and
          slow mutex acquisitions; [None] (the default) costs one
          comparison per spawn / free-mutex acquisition.  Fault
          decisions come from the injector's own streams, so the
          scheduler's rng — and therefore every fault-free run — is
          untouched *)
}

val default_config : config

(** {1 Outcomes} *)

type deadlock = {
  dl_cycle : (int * string) list;  (** threads in a waits-for cycle *)
  dl_stuck : (int * string) list;  (** blocked threads with no waker *)
}

val pp_deadlock : Format.formatter -> deadlock -> unit

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
      (** set when the run ended with blocked threads (cyclic wait or
          lost wake-up) or exhausted its operation budget *)
  failures : (int * string * exn) list;
      (** threads that raised, as (tid, name, exn); API misuse (bad
          unlock, double free, out-of-bounds access) lands here *)
  stats : run_stats;
  trace : Event.t array;  (** empty unless [config.trace_events] *)
}

exception Misuse of string
(** Raised {e inside} a simulated thread on API misuse; shows up in
    [failures] unless the program catches it. *)

exception Tool_failure of string * exn
(** [Tool_failure (tool_name, e)]: a tool's [on_event] raised [e].  It
    ends {!run} (which raises it) and never reaches the simulated
    thread, whose own misuse checks are the only exceptions delivered
    at its perform point. *)

(** {1 The VM} *)

type t

val create : ?config:config -> unit -> t

val add_tool : t -> Tool.t -> unit
(** Attach a tool; it sees every event from then on.  Any number of
    tools can watch the same run.  A VM with no tool, no
    [trace_events] and no tracer builds no read/write event records;
    it only counts them in [vm.events_emitted]. *)

val run : t -> (unit -> unit) -> outcome
(** Execute [main] as thread 0 until every thread finishes, a deadlock
    is detected, or the op budget runs out.  A VM is single-use: create
    a fresh one per run.

    @raise Tool_failure when an attached tool's [on_event] raises. *)

val memory : t -> Memory.t

val decision_log : t -> (int * int) list
(** Chronological log of the run's nontrivial scheduling decisions as
    (chosen index, arity) pairs — only decision points with more than
    one ready thread are logged, and only under the [Scripted] policy
    (its sole consumer).  Meaningful after {!run}; used by {!Explore}
    to enumerate alternative schedules. *)
