(** A GNU-libstdc++-style copy-on-write reference-counted string.

    This is the [std::string] of Figure 8/9: the representation block
    is shared between copies and carries a reference counter that is
    updated with bus-locked ([LOCK]-prefixed) increments/decrements,
    but {e inspected} with plain unlocked reads ([_M_is_shared] /
    [_M_is_leaked] style checks).  Under the original Helgrind bus-lock
    model those plain reads empty the candidate lock-set of the counter
    word and every subsequent locked update is reported as a possible
    race; under the corrected rw-lock model (HWLC) all these accesses
    share the virtual bus lock and the warnings disappear — while a
    plain (non-atomic) write to the counter would still be caught.

    Representation block layout: [[refcount; length; chars...]]. *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api

type t = int
(** address of the representation block *)

let rep_refcount = 0
let rep_length = 1
let rep_chars = 2

let lc = Loc.site "basic_string.h" "std::string::"

(** [_Rep::_S_create]: allocate a representation holding [s]. *)
let create ~loc:_ s =
  let n = String.length s in
  let rep = Api.alloc ~loc:(lc "_Rep::_S_create" 580) (rep_chars + n) in
  Api.write ~loc:(lc "_Rep::_S_create" 581) (rep + rep_refcount) 1;
  Api.write ~loc:(lc "_Rep::_S_create" 582) (rep + rep_length) n;
  String.iteri
    (fun i c -> Api.write ~loc:(lc "_Rep::_S_create" 583) (rep + rep_chars + i) (Char.code c))
    s;
  rep

let length t = Api.read ~loc:(lc "length" 700) (t + rep_length)

let get_char t i = Api.read ~loc:(lc "operator[]" 770) (t + rep_chars + i)

(** plain (unlocked) read of the reference counter — the access that
    breaks the original bus-lock model *)
let is_shared t = Api.read ~loc:(lc "_Rep::_M_is_shared" 210) (t + rep_refcount) > 1

(** [_M_grab]: copy construction shares the representation and bumps
    the counter with a bus-locked increment. *)
let copy t =
  ignore (is_shared t);
  ignore (Api.atomic_incr ~loc:(lc "_Rep::_M_grab" 230) (t + rep_refcount));
  t

(** [_M_dispose]: drop one reference; free the representation when the
    last owner releases it. *)
let release t =
  let old = Api.atomic_decr ~loc:(lc "_Rep::_M_dispose" 240) (t + rep_refcount) in
  if old = 1 then Api.free ~loc:(lc "_Rep::_M_destroy" 245) t

let to_string t =
  let n = length t in
  String.init n (fun i -> Char.chr (get_char t i land 0xff))

(* deep copy into a fresh representation *)
let clone ~loc t = create ~loc (to_string t)

(** Mutation with copy-on-write: unshare first if needed ([_M_mutate]).
    Returns the (possibly new) representation address. *)
let set_char ~loc t i c =
  let t' =
    if is_shared t then begin
      let fresh = clone ~loc t in
      release t;
      fresh
    end
    else t
  in
  Api.write ~loc:(lc "_M_mutate" 450) (t' + rep_chars + i) (Char.code c);
  t'

(** Equality by contents (reads both representations). *)
let equal a b =
  if a = b then true
  else
    let la = length a and lb = length b in
    la = lb
    &&
    let rec go i = i >= la || (get_char a i = get_char b i && go (i + 1)) in
    go 0

(** Hash of the character data (plain reads). *)
let hash t =
  let n = length t in
  let h = ref 5381 in
  for i = 0 to n - 1 do
    h := (!h * 33) + get_char t i
  done;
  !h land max_int
