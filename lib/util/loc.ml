(** Source locations for the simulated programs.

    Reports produced by the detectors print Valgrind-style call stacks,
    so every memory access and synchronisation operation in a simulated
    application carries a [Loc.t] naming the (pseudo) source position
    that performed it. *)

type t = { file : string; func : string; line : int }

let make ~file ~func ~line = { file; func; line }

let v file func line = { file; func; line }

let unknown = { file = "<unknown>"; func = "<unknown>"; line = 0 }

(* A site's per-domain table: by line, then the few functions of the
   file that share that line.  Function names are usually the same
   string literal at every call, so [==] settles most probes; no hash
   runs and a hit allocates nothing. *)
type site_table = { mutable by_line : (string * t) list array }

let max_site_line = 1 lsl 16

let rec site_find func = function
  | [] -> unknown
  | (f, loc) :: rest -> if f == func || String.equal f func then loc else site_find func rest

let site file prefix =
  let key = Domain.DLS.new_key (fun () -> { by_line = [||] }) in
  fun func line ->
    if line < 0 || line >= max_site_line then v file (prefix ^ func) line
    else
      let tbl = Domain.DLS.get key in
      let n = Array.length tbl.by_line in
      let here = if line < n then Array.unsafe_get tbl.by_line line else [] in
      let found = site_find func here in
      if found != unknown then found
      else begin
        let loc = v file (prefix ^ func) line in
        if line >= n then begin
          let a = Array.make (min max_site_line (max (line + 1) (2 * n))) [] in
          Array.blit tbl.by_line 0 a 0 n;
          tbl.by_line <- a
        end;
        tbl.by_line.(line) <- (func, loc) :: here;
        loc
      end

let file t = t.file
let func t = t.func
let line t = t.line

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c else String.compare a.func b.func

let equal a b = compare a b = 0

let hash t = Hashtbl.hash (t.file, t.func, t.line)

let add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n)
  else
    let rec digits n =
      if n >= 10 then digits (n / 10);
      Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
    in
    digits n

let add_to_buffer b t =
  Buffer.add_string b t.func;
  Buffer.add_string b " (";
  Buffer.add_string b t.file;
  Buffer.add_char b ':';
  add_int b t.line;
  Buffer.add_char b ')'

let to_string t =
  let b = Buffer.create (String.length t.func + String.length t.file + 16) in
  add_to_buffer b t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
