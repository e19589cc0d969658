(** Race/deadlock reports and the de-duplicating collector.

    Valgrind de-duplicates errors by their call-stack signature; the
    paper counts "reported possible data race {e locations}" (Figure 6),
    i.e. distinct signatures, not individual dynamic occurrences.  The
    collector keeps both: every occurrence, and the deduplicated
    location list with occurrence counts. *)

module Loc = Raceguard_util.Loc

type kind =
  | Race_write  (** write with empty candidate lock-set *)
  | Race_read  (** read with empty candidate lock-set in Shared-Modified *)
  | Lock_order  (** lock acquisition order inverts an earlier order *)

let kind_name = function
  | Race_write -> "Possible data race writing variable"
  | Race_read -> "Possible data race reading variable"
  | Lock_order -> "Lock order violation (potential deadlock)"

let pp_kind ppf k = Format.pp_print_string ppf (kind_name k)

type block_info = {
  b_base : int;
  b_len : int;
  b_alloc_tid : int;
  b_alloc_stack : Loc.t list;
}

(* --- provenance ---------------------------------------------------- *)

(** One shadow-state transition of the warned address.  The state and
    lock-set renderings are produced by the detector at transition time
    (it owns the lock-name table), which also makes byte-stability
    across the fast path trivial to check: the strings either match or
    they don't. *)
type transition = {
  t_clock : int;
  t_tid : int;
  t_access : string;  (** "read" / "write" / "destruct" *)
  t_from : string;  (** rendered state before, e.g. "shared RO, {\"m\"}" *)
  t_to : string;  (** rendered state after *)
  t_loc : Loc.t option;
}

type provenance = {
  p_history : transition list;
      (** shadow-state evolution of the warned address since its last
          allocation, oldest first, truncated to the first
          [max_history] genuine transitions *)
  p_dropped : int;  (** transitions beyond the truncation bound *)
  mutable p_suppressed_by : string list;
      (** config knobs (e.g. "hwlc", "dr") whose enabling removes this
          warning's signature; filled in by [Explain], empty until
          then *)
}

type t = {
  kind : kind;
  addr : int;
  tid : int;
  thread_name : string;
  stack : Loc.t list;  (** innermost frame first *)
  detail : string;  (** e.g. "Previous state: shared RO, no locks" *)
  block : block_info option;
  clock : int;
  provenance : provenance option;
}

(* --- signatures ---------------------------------------------------- *)

(** Number of stack frames participating in the dedup signature
    (Valgrind's default is the top 4). *)
let signature_depth = 4

let rec take n = function [] -> [] | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest

type signature = kind * Loc.t list

let signature r : signature = (r.kind, take signature_depth r.stack)

(* --- rendering ----------------------------------------------------- *)

(* [%#x]: "0" for zero, "0x" and lowercase digits otherwise; [lsr]
   reads a negative int as its unsigned 63-bit pattern, as [%x] does *)
let rec add_hex_digits b n =
  if n <> 0 then begin
    add_hex_digits b (n lsr 4);
    Buffer.add_char b (String.unsafe_get "0123456789abcdef" (n land 15))
  end

let add_hex b n =
  if n = 0 then Buffer.add_char b '0'
  else begin
    Buffer.add_string b "0x";
    add_hex_digits b n
  end

(* at most [depth] frames, innermost "at", the rest "by" *)
let rec add_stack b depth i = function
  | loc :: rest when i < depth ->
      Buffer.add_string b (if i = 0 then "   at " else "   by ");
      Loc.add_to_buffer b loc;
      Buffer.add_char b '\n';
      add_stack b depth (i + 1) rest
  | _ -> ()

let add_to_buffer b r =
  Buffer.add_string b (kind_name r.kind);
  Buffer.add_string b " at ";
  add_hex b r.addr;
  Buffer.add_char b '\n';
  add_stack b max_int 0 r.stack;
  (match r.block with
  | Some blk ->
      Buffer.add_string b " Address ";
      add_hex b r.addr;
      Buffer.add_string b " is ";
      Loc.add_int b (r.addr - blk.b_base);
      Buffer.add_string b " words inside a block of size ";
      Loc.add_int b blk.b_len;
      Buffer.add_string b " alloc'd by thread ";
      Loc.add_int b blk.b_alloc_tid;
      Buffer.add_char b '\n';
      add_stack b signature_depth 0 blk.b_alloc_stack
  | None -> ());
  if r.detail <> "" then begin
    Buffer.add_char b ' ';
    Buffer.add_string b r.detail;
    Buffer.add_char b '\n'
  end

(* Each rendered line goes out as one string and a forced newline, so
   inside a formatter the output is what "...@\n" directives printed. *)
let pp ppf r =
  let b = Buffer.create 256 in
  add_to_buffer b r;
  let s = Buffer.contents b in
  let rec lines start =
    match String.index_from_opt s start '\n' with
    | Some i ->
        Format.pp_print_string ppf (String.sub s start (i - start));
        Format.pp_force_newline ppf ();
        lines (i + 1)
    | None -> ()
  in
  lines 0

(* Provenance rendering is kept out of [pp] on purpose: [pp] output is
   compared byte-for-byte by the fast-path fidelity tests and by users
   diffing runs, so the explain trace is an opt-in second section. *)
let pp_provenance ppf (p : provenance) =
  Fmt.pf ppf " Shadow-state history of the warned address:@\n";
  List.iter
    (fun tr ->
      Fmt.pf ppf "   clock %-6d thread %-3d %-8s %s -> %s%a@\n" tr.t_clock tr.t_tid tr.t_access
        tr.t_from tr.t_to
        (fun ppf -> function None -> () | Some l -> Fmt.pf ppf "  (%a)" Loc.pp l)
        tr.t_loc)
    p.p_history;
  if p.p_dropped > 0 then Fmt.pf ppf "   ... %d further transitions elided@\n" p.p_dropped;
  match p.p_suppressed_by with
  | [] -> ()
  | ks -> Fmt.pf ppf " Suppressed by enabling: %s@\n" (String.concat ", " ks)

module Json = Raceguard_obs.Json

let loc_to_json (l : Loc.t) = Json.Str (Loc.to_string l)

let transition_to_json tr =
  Json.Obj
    ([
       ("clock", Json.int tr.t_clock);
       ("tid", Json.int tr.t_tid);
       ("access", Json.Str tr.t_access);
       ("from", Json.Str tr.t_from);
       ("to", Json.Str tr.t_to);
     ]
    @ match tr.t_loc with None -> [] | Some l -> [ ("loc", loc_to_json l) ])

let provenance_to_json p =
  Json.Obj
    [
      ("history", Json.List (List.map transition_to_json p.p_history));
      ("dropped", Json.int p.p_dropped);
      ("suppressed_by", Json.List (List.map (fun k -> Json.Str k) p.p_suppressed_by));
    ]

let to_json r =
  Json.Obj
    ([
       ("kind", Json.Str (kind_name r.kind));
       ("addr", Json.int r.addr);
       ("tid", Json.int r.tid);
       ("thread", Json.Str r.thread_name);
       ("clock", Json.int r.clock);
       ("stack", Json.List (List.map loc_to_json r.stack));
       ("detail", Json.Str r.detail);
     ]
    @ (match r.block with
      | None -> []
      | Some b ->
          [
            ( "block",
              Json.Obj
                [
                  ("base", Json.int b.b_base);
                  ("len", Json.int b.b_len);
                  ("alloc_tid", Json.int b.b_alloc_tid);
                ] );
          ])
    @
    match r.provenance with
    | None -> []
    | Some p -> [ ("provenance", provenance_to_json p) ])

(* --- collector ------------------------------------------------------ *)

(* Dedup by signature without building one: a key is a report, equal to
   another when kinds and the top [signature_depth] frames agree.  The
   frames are mostly the same interned [Loc.t]s, so [==] settles most
   comparisons; the hash reads only ints (kind, line, name length) and
   runs no [caml_hash] over strings. *)
let kind_index = function Race_write -> 0 | Race_read -> 1 | Lock_order -> 2

let rec frames_equal i s1 s2 =
  i = 0
  ||
  match (s1, s2) with
  | [], [] -> true
  | a :: r1, b :: r2 -> (a == b || Loc.equal a b) && frames_equal (i - 1) r1 r2
  | _ -> false

let rec frames_hash i h = function
  | (l : Loc.t) :: rest when i > 0 ->
      frames_hash (i - 1) ((h * 31) + (l.line * 7) + String.length l.func) rest
  | _ -> h

module Sig_tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal a b = a.kind == b.kind && frames_equal signature_depth a.stack b.stack
  let hash r = frames_hash signature_depth (kind_index r.kind) r.stack land max_int
end)

type location = { first : t; mutable count : int }

type collector = {
  mutable all : t list;  (** reverse chronological *)
  by_sig : location Sig_tbl.t;
  mutable suppressed : int;
  suppressions : Suppression.t list;
}

let collector ?(suppressions = []) () =
  { all = []; by_sig = Sig_tbl.create 16; suppressed = 0; suppressions }

let suppressed_by c r =
  match c.suppressions with
  | [] -> false
  | sups ->
      let kind = kind_name r.kind in
      List.exists (fun s -> Suppression.matches s ~kind ~stack:r.stack) sups

let add c r =
  if suppressed_by c r then c.suppressed <- c.suppressed + 1
  else begin
    c.all <- r :: c.all;
    match Sig_tbl.find c.by_sig r with
    | l -> l.count <- l.count + 1
    | exception Not_found -> Sig_tbl.add c.by_sig r { first = r; count = 1 }
  end

(** All occurrences, in chronological order. *)
let occurrences c = List.rev c.all

let compare_signatures a b =
  let c = compare a.kind b.kind in
  if c <> 0 then c
  else List.compare Loc.compare (take signature_depth a.stack) (take signature_depth b.stack)

(** Distinct reported locations (the Figure 6 metric), with occurrence
    counts, ordered by first occurrence; signatures first seen at the
    same clock keep signature order. *)
let locations c =
  Sig_tbl.fold (fun _ l acc -> (l.first, l.count) :: acc) c.by_sig []
  |> List.sort (fun (a, _) (b, _) ->
         let c = Int.compare a.clock b.clock in
         if c <> 0 then c else compare_signatures a b)

let location_count c = Sig_tbl.length c.by_sig
let occurrence_count c = List.length c.all
let suppressed_count c = c.suppressed
