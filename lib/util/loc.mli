(** Source locations for simulated programs.

    Every memory access and synchronisation operation carries a
    [Loc.t] naming the pseudo source position performing it, so race
    reports print Valgrind-style call stacks. *)

type t = { file : string; func : string; line : int }

val make : file:string -> func:string -> line:int -> t

val v : string -> string -> int -> t
(** [v file func line]. *)

val site : string -> string -> string -> int -> t
(** [site file prefix] is a call-site constructor for one source file:
    [site file prefix func line] equals [v file (prefix ^ func) line].
    Each (func, line) is built once per domain and then returned from
    a table indexed by [line] and searched by [func] ([==] first), so a
    hit allocates nothing and hashes nothing.  Apply it once per file
    ([let lc = Loc.site "proxy.cpp" "SipProxy::"]) so every call shares
    the table; lines outside [\[0, 65536)] are built fresh each call. *)

val unknown : t

val file : t -> string
val func : t -> string
val line : t -> int

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val add_int : Buffer.t -> int -> unit
(** Appends [string_of_int n] without allocating it (for [n >= 0]) —
    the number writer of {!add_to_buffer}, shared by report rendering. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends ["func (file:line)"] — the one frame text that {!pp},
    {!to_string}, report rendering and suppression matching share. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
