(** Order statistics over samples.  Percentiles are given in
    permyriad (1/10000) so that ranks are exact integer arithmetic:
    [9990] is p99.9. *)

(** Nearest rank: the 1-based index of the smallest sample with at
    least [pm]/10000 of the samples at or below it. *)
let rank n pm = ((pm * n) + 9999) / 10000

let percentile_sorted sorted pm =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted.(max 0 (rank n pm - 1))

let sorted_copy samples =
  let a = Array.copy samples in
  Array.sort compare a;
  a

let percentile samples pm = percentile_sorted (sorted_copy samples) pm
let median samples = percentile samples 5000

(** Samples strictly above the nearest-rank percentile [pm]. *)
let beyond n pm = n - rank n pm

(** The tail percentiles a report may quote, most extreme first. *)
let tail_candidates = [ 9999; 9990; 9900; 9000 ]

type tail = { t_pm : int; t_value : float; t_n : int }

(** The highest percentile with at least ten samples beyond it, with
    the sample count; [None] when even p90 has fewer than ten. *)
let tail samples =
  let n = Array.length samples in
  match List.find_opt (fun pm -> beyond n pm >= 10) tail_candidates with
  | None -> None
  | Some pm -> Some { t_pm = pm; t_value = percentile samples pm; t_n = n }

(** ["p90"], ["p99.9"], … *)
let label pm =
  if pm mod 100 = 0 then Printf.sprintf "p%d" (pm / 100)
  else Printf.sprintf "p%g" (float_of_int pm /. 100.)
