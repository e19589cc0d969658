(** Time formatting with a static buffer — the §4.1.3 bug.

    "The four functions asctime(), ctime(), gmtime() and localtime()
    return a pointer to static data and hence are NOT thread-safe."
    The application under test called them from worker threads; the
    tool reported the races.  We reproduce the pattern: one static
    buffer, written then read on every call, with no lock. *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api

let lc = Loc.site "time.c" ""

type t = { static_buf : int }

let buf_len = 8

(** Initialise the C library's static storage (done once by "the
    runtime" before main). *)
let create () = { static_buf = Api.alloc ~loc:(lc "__libc_init" 1) buf_len }

(** [ctime]-alike: formats the current virtual time into the static
    buffer and returns its address.  Writes shared static data without
    synchronisation — a genuine data race when called from several
    threads. *)
let ctime t =
  let now = Api.now () in
  let digits = Printf.sprintf "%08d" (now mod 100_000_000) in
  String.iteri
    (fun i c -> Api.write ~loc:(lc "ctime" 22) (t.static_buf + i) (Char.code c))
    digits;
  t.static_buf

(** Read the formatted text out of the static buffer (more racy
    accesses, on the reader side). *)
let read_formatted t addr =
  ignore t;
  String.init buf_len (fun i -> Char.chr (Api.read ~loc:(lc "ctime_read" 30) (addr + i) land 0xff))
