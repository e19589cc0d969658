(** Spans recorded by the traced run, kept in memory and written once
    at exit as a Chrome [trace_event] document (chrome://tracing or
    Perfetto).  Each span lands on the row of the domain that ran it,
    so a chaos pass renders as a per-domain timeline. *)

module Json = Raceguard_obs.Json

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  cat : string;  (** the layer: runner, vm, par, chaos, trace, replay … *)
  start_ns : int;
  end_ns : int;
  domain : int;
  args : (string * Json.t) list;
}

type t = { mutable spans : span list; mutable next_id : int }

let create () = { spans = []; next_id = 0 }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let record t ~id ~parent ~domain ~args ~cat ~start_ns ~end_ns name =
  t.spans <- { id; parent; name; cat; start_ns; end_ns; domain; args } :: t.spans

(** Record one finished span; returns its id.  Call from the domain
    that owns [t] only. *)
let add t ?(parent = -1) ?(domain = 0) ?(args = []) ~cat ~start_ns ~end_ns name =
  let id = fresh_id t in
  record t ~id ~parent ~domain ~args ~cat ~start_ns ~end_ns name;
  id

(** [within t ~cat name f] runs [f id] as the span [name]: spans [f]
    adds with [~parent:id] nest under it. *)
let within t ?(parent = -1) ~cat name f =
  let id = fresh_id t in
  let start_ns = Clock.now_ns () in
  let v = f id in
  record t ~id ~parent ~domain:0 ~args:[] ~cat ~start_ns ~end_ns:(Clock.now_ns ()) name;
  v

let count t = t.next_id

let to_json t =
  let spans = List.rev t.spans in
  let origin = List.fold_left (fun acc s -> min acc s.start_ns) max_int spans in
  let us ns = Json.Num (float_of_int ns /. 1000.) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str s.cat);
        ("ph", Json.Str "X");
        ("ts", us (s.start_ns - origin));
        ("dur", us (s.end_ns - s.start_ns));
        ("pid", Json.int 1);
        ("tid", Json.int s.domain);
        ("args", Json.Obj ([ ("id", Json.int s.id); ("parent", Json.int s.parent) ] @ s.args));
      ]
  in
  Json.Obj [ ("traceEvents", Json.List (List.map event spans)); ("displayTimeUnit", Json.Str "ms") ]

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_json t)))
