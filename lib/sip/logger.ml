(** Asynchronous logging: workers enqueue [LogRecord] objects, a
    dedicated logger thread formats and deletes them.

    The handoff goes through a {!Raceguard_vm.Msg_queue}, i.e. through
    synchronisation the lock-set algorithm cannot see (§4.2.3) — so
    without the DR annotation every record's destructor-chain writes in
    the logger thread are reported.  The logger also calls the
    non-thread-safe {!Timeutil.ctime} (bug B5) and bumps a racy
    counter, and its shutdown interacts with the main thread's eager
    [Stats] destruction (bug B3). *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api
module Msg_queue = Raceguard_vm.Msg_queue
module Obj_model = Raceguard_cxxsim.Object_model
module Refstring = Raceguard_cxxsim.Refstring

let lc = Loc.site "logger.cpp" "Logger::"

(* class Record { int timestamp; int level; }
   class LogRecord : Record { RefString text; int processed; } *)
let record_class =
  Obj_model.define ~name:"Record" ~fields:[ "timestamp"; "level" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"logger.cpp" ~base_line:20 cls obj ~strings:[]
        ~ints:[ "timestamp"; "level" ])
    ()

let log_record_class =
  Obj_model.define ~parent:record_class ~name:"LogRecord"
    ~fields:[ "text"; "category"; "processed" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"logger.cpp" ~base_line:27 cls obj
        ~strings:[ "text"; "category" ] ~ints:[ "processed" ])
    ()

type t = {
  queue : Msg_queue.t;
  stop_flag : int;  (** word set with a bus-locked write, read plainly *)
  stats : Stats.t;
  time : Timeutil.t;
  annotate : bool;
  categories : Refstring.t array;
      (** canned per-level category strings, shared by every logging
          thread (each use copies a shared rep: bus-lock sites) *)
  mutable thread : int;  (** logger tid *)
  mutable lines : string list;  (** host-side sink (the "log file") *)
}

let create ~stats ~time ~annotate =
  let stop_flag = Api.alloc ~loc:(lc "Logger" 40) 1 in
  Api.write ~loc:(lc "Logger" 41) stop_flag 0;
  let mk = Refstring.create ~loc:(lc "Logger" 42) in
  {
    queue = Msg_queue.create ~annotated:annotate ~name:"logger.queue" ~capacity:64 ();
    stop_flag;
    stats;
    time;
    annotate;
    categories = [| mk "DEBUG"; mk "INFO"; mk "WARN"; mk "ERROR" |];
    thread = -1;
    lines = [];
  }

(** Called by worker threads: allocate a record and enqueue it. *)
let log t ~loc ~level text =
  Api.with_frame (lc "log" 56) @@ fun () ->
  let record =
    Obj_model.new_ ~loc log_record_class ~init:(fun obj ->
        let cls = log_record_class in
        Obj_model.set ~loc cls obj "timestamp" (Api.now ());
        Obj_model.set ~loc cls obj "level" level;
        Obj_model.set ~loc cls obj "text" (Refstring.create ~loc text);
        Obj_model.set ~loc cls obj "category"
          (Refstring.copy t.categories.(max 0 (min 3 level)));
        Obj_model.set ~loc cls obj "processed" 0)
  in
  Msg_queue.put t.queue record

let process_record t record =
  Api.with_frame (lc "processRecord" 64) @@ fun () ->
  let cls = log_record_class in
  let when_ = Timeutil.ctime t.time in
  let stamp = Timeutil.read_formatted t.time when_ in
  let text = Refstring.to_string (Obj_model.get ~loc:(lc "run" 68) cls record "text") in
  let level = Obj_model.get ~loc:(lc "run" 69) cls record "level" in
  t.lines <- Printf.sprintf "[%s] <%d> %s" stamp level text :: t.lines;
  (* mark processed: a plain write to worker-created memory — remains a
     (queue-handoff) false positive even with HWLC+DR *)
  Obj_model.set ~loc:(lc "run" 73) cls record "processed" 1;
  Stats.incr_lines_logged t.stats;
  Obj_model.delete_ ~loc:(lc "run" 76) ~annotate:t.annotate cls record

(** The logger thread body. *)
let run t () =
  Api.with_frame (lc "run" 80) @@ fun () ->
  let rec loop () =
    (* drain everything that is queued, then check the stop flag *)
    if Msg_queue.length t.queue > 0 then begin
      process_record t (Msg_queue.get t.queue);
      loop ()
    end
    else if Api.read ~loc:(lc "run" 87) t.stop_flag = 0 then begin
      Api.sleep 3;
      loop ()
    end
  in
  loop ();
  (* final flush: anything enqueued while we saw the flag *)
  while Msg_queue.length t.queue > 0 do
    process_record t (Msg_queue.get t.queue)
  done;
  (* B3: this last bump races with the main thread destroying Stats
     before joining us — a distinct report site for the shutdown bug *)
  Stats.bump_racy t.stats Stats.lines_logged ~loc:(lc "flushFinal" 97)

let start t =
  t.thread <- Api.spawn ~loc:(lc "start" 101) ~name:"logger" (run t)

(** Request shutdown: bus-locked store to the stop flag. *)
let stop t = ignore (Api.atomic_rmw ~loc:(lc "stop" 105) t.stop_flag (fun _ -> 1))

let join t = Api.join ~loc:(lc "join" 107) t.thread

(** Destructor: drain whatever is still enqueued into [lines], exactly
    as the logger thread would have.  Shutdown orderings that race the
    logger (B3 destroys [Stats] before stopping us) must not silently
    drop buffered records — the ordering bug itself stays injected (the
    flush still bumps the possibly-destroyed statistics, which is the
    report site), but every enqueued line reaches the sink. *)
let destroy t =
  Api.with_frame (lc "~Logger" 112) @@ fun () ->
  while Msg_queue.length t.queue > 0 do
    process_record t (Msg_queue.get t.queue)
  done

let lines t = List.rev t.lines
