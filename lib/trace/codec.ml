(** Low-level byte codec for the [raceguard-trace/1] container:
    LEB128 varints, zigzag signed ints, length-prefixed strings, fixed
    32-bit little-endian words, and CRC-32 (IEEE 802.3, the zlib
    polynomial) for the footer guard.

    Everything encodes into a [Buffer.t] and decodes from an immutable
    [string] through a {!cursor}; decoding past the end raises
    {!Truncated}, which the reader turns into a parse error — a
    truncated download is indistinguishable from a cut-off write, and
    both must be rejected, not silently half-read. *)

exception Truncated

type cursor = { data : string; mutable pos : int; limit : int }

let cursor ?(pos = 0) ?limit data =
  let limit = match limit with Some l -> l | None -> String.length data in
  if pos < 0 || limit > String.length data || pos > limit then
    invalid_arg "Codec.cursor: bad bounds";
  { data; pos; limit }

let remaining c = c.limit - c.pos
let at_end c = c.pos >= c.limit

let read_byte c =
  if c.pos >= c.limit then raise Truncated;
  let b = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  b

let peek_byte c = if c.pos >= c.limit then raise Truncated else Char.code c.data.[c.pos]

(* --- varints ------------------------------------------------------- *)

(* allocation-free: this runs ~10 times per recorded event, so no ref
   cells and no bounds check on the already-masked byte *)
let rec write_varint_loop buf n =
  if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (n land 0x7F lor 0x80));
    write_varint_loop buf (n lsr 7)
  end

let write_varint buf n =
  if n < 0 then invalid_arg "Codec.write_varint: negative";
  write_varint_loop buf n

(* top-level and taking the cursor, so no closure is built per call *)
let rec read_varint_from c shift acc =
  if shift > 62 then raise Truncated;
  let b = read_byte c in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b land 0x80 = 0 then acc else read_varint_from c (shift + 7) acc

let read_varint c = read_varint_from c 0 0

(* zigzag: signed ints of small magnitude stay small *)
let write_zigzag buf n = write_varint buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))
let read_zigzag c =
  let z = read_varint c in
  (z lsr 1) lxor (-(z land 1))

let write_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')
let read_bool c = read_byte c <> 0

let write_string buf s =
  write_varint buf (String.length s);
  Buffer.add_string buf s

let read_string c =
  let n = read_varint c in
  if n < 0 || remaining c < n then raise Truncated;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

(* --- fixed-width ---------------------------------------------------- *)

let write_u32 buf n =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xFF))
  done

let read_u32_at data pos =
  if pos < 0 || pos + 4 > String.length data then raise Truncated;
  let b i = Char.code data.[pos + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

(* --- CRC-32 --------------------------------------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

(** CRC-32 of [data.[pos .. pos+len-1]] as a non-negative int. *)
let crc32 ?(crc = 0) data pos len =
  let table = Lazy.force crc_table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code data.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF
