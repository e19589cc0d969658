(** Suppression files.

    Valgrind lets users silence known-benign or unfixable report sites
    ("false positives or part of code that is not modifiable (e.g.,
    third-party libraries)", §2.3.1) with a file of report-type and
    call-stack patterns.  We support the same shape:

    {v
    {
      name-of-suppression
      kind: Possible data race*
      frame: std::string::*
      frame: *
      frame: main (proxy.cpp:42
    }
    v}

    [kind:] matches the report headline; each [frame:] line matches one
    stack frame (formatted as ["func (file:line)"]) from the top.
    Patterns use [*] as a wildcard over any substring. *)

type t = { name : string; kind_pattern : string; frame_patterns : string list }

let make ~name ~kind_pattern ~frame_patterns = { name; kind_pattern; frame_patterns }

(* glob match with '*' wildcards only *)
let glob_match pattern s =
  let np = String.length pattern and ns = String.length s in
  (* dp.(i) = set of reachable pattern positions after consuming i chars *)
  let rec go pi si =
    if pi = np then si = ns
    else if pattern.[pi] = '*' then
      (* '*' eats zero or more characters *)
      go (pi + 1) si || (si < ns && go pi (si + 1))
    else si < ns && pattern.[pi] = s.[si] && go (pi + 1) (si + 1)
  in
  go 0 0

let frame_to_string = Raceguard_util.Loc.to_string

let matches t ~kind ~stack =
  glob_match t.kind_pattern kind
  &&
  let rec go patterns frames =
    match (patterns, frames) with
    | [], _ -> true
    | _ :: _, [] -> false
    | p :: ps, f :: fs -> glob_match p (frame_to_string f) && go ps fs
  in
  go t.frame_patterns stack

(* --- parsing -------------------------------------------------------- *)

exception Parse_error of string

(** Parse a suppression file body.  Raises {!Parse_error}. *)
let parse_string body =
  let lines = String.split_on_char '\n' body in
  let trim = String.trim in
  let rec skip_blank = function
    | l :: rest when trim l = "" -> skip_blank rest
    | rest -> rest
  in
  let rec parse_entries acc lines =
    match skip_blank lines with
    | [] -> List.rev acc
    | l :: rest when trim l = "{" -> (
        match skip_blank rest with
        | [] -> raise (Parse_error "unexpected end of file after '{'")
        | name_line :: rest ->
            let name = trim name_line in
            let rec parse_fields kind frames = function
              | [] -> raise (Parse_error "missing '}'")
              | l :: rest when trim l = "}" ->
                  let kind = match kind with Some k -> k | None -> "*" in
                  (make ~name ~kind_pattern:kind ~frame_patterns:(List.rev frames), rest)
              | l :: rest -> (
                  let l = trim l in
                  if l = "" then parse_fields kind frames rest
                  else
                    match String.index_opt l ':' with
                    | None -> raise (Parse_error ("malformed line: " ^ l))
                    | Some i ->
                        let field = trim (String.sub l 0 i) in
                        let value = trim (String.sub l (i + 1) (String.length l - i - 1)) in
                        (match field with
                        | "kind" -> parse_fields (Some value) frames rest
                        | "frame" -> parse_fields kind (value :: frames) rest
                        | _ -> raise (Parse_error ("unknown field: " ^ field))))
            in
            let entry, rest = parse_fields None [] rest in
            parse_entries (entry :: acc) rest)
    | l :: _ -> raise (Parse_error ("expected '{', got: " ^ trim l))
  in
  parse_entries [] lines

(** Build a suppression matching exactly one report location — what
    Valgrind's [--gen-suppressions=yes] prints so the user can paste it
    into a file after triaging a warning as benign. *)
let of_frames ~name ~kind ~frames =
  make ~name ~kind_pattern:kind
    ~frame_patterns:
      (List.map frame_to_string
         (let rec take n = function
            | [] -> []
            | x :: r -> if n = 0 then [] else x :: take (n - 1) r
          in
          take 4 frames))

let to_string t =
  let b = Buffer.create 128 in
  Buffer.add_string b "{\n";
  Buffer.add_string b ("  " ^ t.name ^ "\n");
  Buffer.add_string b ("  kind: " ^ t.kind_pattern ^ "\n");
  List.iter (fun f -> Buffer.add_string b ("  frame: " ^ f ^ "\n")) t.frame_patterns;
  Buffer.add_string b "}\n";
  Buffer.contents b
