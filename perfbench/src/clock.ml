(** Host monotonic time in nanoseconds.  The underlying stub is
    [noalloc] with an unboxed result, so reading the clock inside a
    per-event wrapper allocates nothing. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_of_ns ns = float_of_int ns /. 1e9
