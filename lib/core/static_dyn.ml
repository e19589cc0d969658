(** Cross-check of static lint findings against dynamic detector
    reports.

    The static pass ({!Raceguard_minicc.Static_race}) builds its
    warning stacks exactly like the interpreter builds dynamic frames,
    so a static and a dynamic finding describe the same defect iff
    their (kind, top-[signature_depth] stack) signatures coincide — the
    same signature Valgrind and the {!Report} collector deduplicate
    by.  The disagreements are the interesting part:

    - {b Static_only}: a path the explored schedule never executed
      (the static pass's raison d'être) — or a static false positive
      from its abstractions;
    - {b Dynamic_only}: sharing the lockset algorithm flags but the
      static pass proves fork-join ordered (e.g. a plain write after
      [join]), or code reached through pointers the static pass lost
      to havoc. *)

module Loc = Raceguard_util.Loc
module Report = Raceguard_detector.Report
module Static = Raceguard_minicc.Static_race
module Json = Raceguard_obs.Json

type verdict =
  | Confirmed  (** same signature found statically and dynamically *)
  | Static_only
  | Dynamic_only

type entry = {
  e_verdict : verdict;
  e_kind : Report.kind;
  e_stack : Loc.t list;  (** the signature frames (top 4) *)
}

type t = {
  entries : entry list;  (** confirmed, then static-only, then dynamic-only *)
  n_confirmed : int;
  n_static_only : int;
  n_dynamic_only : int;
}

let rec take n = function
  | [] -> []
  | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest

let sig_of kind stack = (kind, take Report.signature_depth stack)

let sig_compare (k1, s1) (k2, s2) =
  let c = compare k1 k2 in
  if c <> 0 then c else List.compare Loc.compare s1 s2

module Sig_set = Set.Make (struct
  type t = Report.kind * Loc.t list

  let compare = sig_compare
end)

(** Compare the static result with the dynamic reports of one (or
    more) runs of the same program. *)
let cross_check ~(static : Static.result) ~(dynamic : Report.t list) : t =
  let static_sigs =
    List.fold_left
      (fun acc (w : Static.warning) -> Sig_set.add (sig_of w.w_kind w.w_stack) acc)
      Sig_set.empty static.warnings
  in
  let dynamic_sigs =
    List.fold_left
      (fun acc (r : Report.t) -> Sig_set.add (Report.signature r) acc)
      Sig_set.empty dynamic
  in
  let entry v (k, s) = { e_verdict = v; e_kind = k; e_stack = s } in
  let confirmed = Sig_set.inter static_sigs dynamic_sigs in
  let static_only = Sig_set.diff static_sigs dynamic_sigs in
  let dynamic_only = Sig_set.diff dynamic_sigs static_sigs in
  {
    entries =
      List.map (entry Confirmed) (Sig_set.elements confirmed)
      @ List.map (entry Static_only) (Sig_set.elements static_only)
      @ List.map (entry Dynamic_only) (Sig_set.elements dynamic_only);
    n_confirmed = Sig_set.cardinal confirmed;
    n_static_only = Sig_set.cardinal static_only;
    n_dynamic_only = Sig_set.cardinal dynamic_only;
  }

(** Multi-seed cross-check: replay the program under [run] once per
    seed (each replay a cell on the work-stealing pool) and compare
    the static findings against the {e union} of the dynamic
    signatures.  More schedules shrink the static-only bucket — an
    unexecuted path on seed 1 may execute on seed 42.  Set union is
    order-independent and {!cross_check} sorts its entries, so the
    verdicts are identical for any [domains]. *)
let cross_check_seeds ?(domains = 1) ~(static : Static.result)
    ~(run : int -> Report.t list) seeds : t =
  let seeds = Array.of_list (List.sort_uniq compare seeds) in
  let per_seed =
    Raceguard_par.Par.map_cells ~domains:(Raceguard_par.Par.resolve domains) run seeds
  in
  cross_check ~static ~dynamic:(List.concat (Array.to_list per_seed))

let confirmed_sigs t =
  List.filter_map
    (fun e ->
      if e.e_verdict = Confirmed then Some (sig_of e.e_kind e.e_stack) else None)
    t.entries

let verdict_to_string = function
  | Confirmed -> "confirmed"
  | Static_only -> "static-only"
  | Dynamic_only -> "dynamic-only"

let pp ppf t =
  Fmt.pf ppf "static/dynamic cross-check: %d confirmed, %d static-only, %d dynamic-only@\n"
    t.n_confirmed t.n_static_only t.n_dynamic_only;
  List.iter
    (fun e ->
      Fmt.pf ppf "  [%-12s] %a at %a@\n" (verdict_to_string e.e_verdict) Report.pp_kind
        e.e_kind
        Fmt.(list ~sep:(any " <- ") Loc.pp)
        e.e_stack)
    t.entries

let to_json t =
  Json.Obj
    [
      ("confirmed", Json.int t.n_confirmed);
      ("static_only", Json.int t.n_static_only);
      ("dynamic_only", Json.int t.n_dynamic_only);
      ( "entries",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("verdict", Json.Str (verdict_to_string e.e_verdict));
                   ("kind", Json.Str (Report.kind_name e.e_kind));
                   ( "stack",
                     Json.List (List.map (fun l -> Json.Str (Loc.to_string l)) e.e_stack) );
                 ])
             t.entries) );
    ]
