(** Pinned expected outputs, keyed by workload coordinates such as
    ["sip/T3/17/HWLC+DR"] → signature digest.  A key the table does not
    hold is a failure, never a pass: a check against nothing must not
    succeed. *)

module Json = Raceguard_obs.Json

type t = (string, string) Hashtbl.t

let schema = "perfbench-expected/1"

let of_pairs pairs =
  let t = Hashtbl.create (List.length pairs) in
  List.iter (fun (k, v) -> Hashtbl.replace t k v) pairs;
  t

let to_json pairs =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("pins", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) pairs));
    ]

let of_string s =
  match Json.parse s with
  | Error e -> Error ("expected table: " ^ e)
  | Ok json -> (
      match (Json.member "schema" json, Json.member "pins" json) with
      | Some (Json.Str v), Some (Json.Obj pins) when v = schema ->
          let rec go acc = function
            | [] -> Ok (of_pairs (List.rev acc))
            | (k, Json.Str v) :: rest -> go ((k, v) :: acc) rest
            | (k, _) :: _ -> Error ("expected table: pin " ^ k ^ " is not a string")
          in
          go [] pins
      | _ -> Error ("expected table: not a " ^ schema ^ " document"))

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e -> Error e

(** [check t key actual] is [None] when [actual] is the pinned value
    for [key], else the reason the output is wrong. *)
let check t key actual =
  match Hashtbl.find_opt t key with
  | None -> Some (key ^ ": no expected value pinned")
  | Some v when String.equal v actual -> None
  | Some v -> Some (Printf.sprintf "%s: expected %s, got %s" key v actual)
