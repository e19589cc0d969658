(** Metrics registry: named counters, gauges and log2-bucket
    histograms.

    Design constraints, in order:

    - The hot path (detector per-access code, VM event dispatch) must
      stay trivial — one domain-local array store per increment, no
      hashing, no allocation.  Handles are created once (registration
      hashes the name and assigns a slot) and incremented through that
      slot.
    - Since the multicore pool ([lib/par/]) runs independent cells on
      several domains at once, every instrument's {e state} is
      domain-local: a handle names a slot, and each domain lazily
      materialises its own slot array via [Domain.DLS].  A cell's
      [snapshot]/[diff] therefore sees exactly the work its own domain
      did — no cross-domain interference, no locks on the hot path —
      and per-cell snapshots combine with {!merge}.
    - Runs happen back-to-back in one process (test and benchmark runs,
      the runner's multi-config sweeps), so consumers need per-run
      deltas from domain-global counters: [snapshot] + [diff].
    - Merging snapshots from independent runs must be associative and
      commutative so aggregation order can't change results (tested by
      qcheck in [test/test_obs.ml]): counters and histogram buckets
      add; gauges keep the max.

    Histograms bucket by log2: value [v] lands in bucket
    [bucket_of_value v]; bucket [i] covers [2^(i-1) .. 2^i - 1] (bucket
    0 covers values <= 0 — nothing in this codebase records negatives,
    they are clamped). *)

let buckets = 64

type hist_state = { hs_buckets : int array; mutable hs_count : int; mutable hs_sum : int }

let fresh_hist () = { hs_buckets = Array.make buckets 0; hs_count = 0; hs_sum = 0 }

type counter = { c_name : string; c_slot : int; c_reg : registry }
and gauge = { g_name : string; g_slot : int; g_reg : registry }
and histogram = { h_name : string; h_slot : int; h_reg : registry }

and registry = {
  mutable counters : counter list;
  mutable gauges : gauge list;
  mutable histograms : histogram list;
  n_counters : int ref;  (** slots assigned so far (also sizes new domains' arrays) *)
  n_gauges : int ref;
  n_histograms : int ref;
  c_key : int array Domain.DLS.key;  (** this domain's counter values by slot *)
  g_key : int array Domain.DLS.key;
  h_key : hist_state array Domain.DLS.key;
  tbl : (string, unit) Hashtbl.t;  (* duplicate-name guard *)
  reg_lock : Mutex.t;  (* registration only; never on the hot path *)
}

let create () =
  let n_counters = ref 0 and n_gauges = ref 0 and n_histograms = ref 0 in
  {
    counters = [];
    gauges = [];
    histograms = [];
    n_counters;
    n_gauges;
    n_histograms;
    c_key = Domain.DLS.new_key (fun () -> Array.make (max 8 !n_counters) 0);
    g_key = Domain.DLS.new_key (fun () -> Array.make (max 8 !n_gauges) 0);
    h_key =
      Domain.DLS.new_key (fun () -> Array.init (max 8 !n_histograms) (fun _ -> fresh_hist ()));
    tbl = Hashtbl.create 64;
    reg_lock = Mutex.create ();
  }

(* One process-wide registry (with per-domain state).  Library code
   registers its instruments here at module-init or first use;
   consumers take before/after snapshots and [diff] them. *)
let default = create ()

let check_fresh r name =
  if Hashtbl.mem r.tbl name then
    invalid_arg (Printf.sprintf "Obs.Metrics: duplicate instrument %S" name);
  Hashtbl.replace r.tbl name ()

let registered r f =
  Mutex.lock r.reg_lock;
  match f () with
  | v ->
      Mutex.unlock r.reg_lock;
      v
  | exception e ->
      Mutex.unlock r.reg_lock;
      raise e

let counter ?(registry = default) name =
  registered registry @@ fun () ->
  check_fresh registry name;
  let c = { c_name = name; c_slot = !(registry.n_counters); c_reg = registry } in
  incr registry.n_counters;
  registry.counters <- c :: registry.counters;
  c

let gauge ?(registry = default) name =
  registered registry @@ fun () ->
  check_fresh registry name;
  let g = { g_name = name; g_slot = !(registry.n_gauges); g_reg = registry } in
  incr registry.n_gauges;
  registry.gauges <- g :: registry.gauges;
  g

let histogram ?(registry = default) name =
  registered registry @@ fun () ->
  check_fresh registry name;
  let h = { h_name = name; h_slot = !(registry.n_histograms); h_reg = registry } in
  incr registry.n_histograms;
  registry.histograms <- h :: registry.histograms;
  h

(* This domain's slot array, grown if instruments were registered after
   the array was created (registration happens at module init, so
   growth is once-per-domain cold path at worst). *)
let int_cells key wanted n =
  let a = Domain.DLS.get key in
  if wanted < Array.length a then a
  else begin
    let a' = Array.make (max !n (Array.length a * 2)) 0 in
    Array.blit a 0 a' 0 (Array.length a);
    Domain.DLS.set key a';
    a'
  end

let c_cells c = int_cells c.c_reg.c_key c.c_slot c.c_reg.n_counters
let g_cells g = int_cells g.g_reg.g_key g.g_slot g.g_reg.n_gauges

let h_state h =
  let a = Domain.DLS.get h.h_reg.h_key in
  if h.h_slot < Array.length a then a.(h.h_slot)
  else begin
    let n = max !(h.h_reg.n_histograms) (Array.length a * 2) in
    let a' = Array.init n (fun i -> if i < Array.length a then a.(i) else fresh_hist ()) in
    Domain.DLS.set h.h_reg.h_key a';
    a'.(h.h_slot)
  end

let incr c =
  let a = c_cells c in
  a.(c.c_slot) <- a.(c.c_slot) + 1

let add c n =
  let a = c_cells c in
  a.(c.c_slot) <- a.(c.c_slot) + n

let counter_value c = (c_cells c).(c.c_slot)

let set g v =
  let a = g_cells g in
  a.(g.g_slot) <- v

let gauge_value g = (g_cells g).(g.g_slot)

let bucket_of_value v =
  if v <= 0 then 0
  else
    (* index of the highest set bit, + 1; v=1 -> 1, v=2..3 -> 2, ... *)
    let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
    min (buckets - 1) (go v 0)

let observe h v =
  let v = max 0 v in
  let b = bucket_of_value v in
  let st = h_state h in
  st.hs_buckets.(b) <- st.hs_buckets.(b) + 1;
  st.hs_count <- st.hs_count + 1;
  st.hs_sum <- st.hs_sum + v

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type hist_data = { buckets : int array; count : int; sum : int }

type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * int) list;
  s_histograms : (string * hist_data) list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot ?(registry = default) () =
  {
    s_counters =
      List.sort by_name (List.map (fun c -> (c.c_name, counter_value c)) registry.counters);
    s_gauges =
      List.sort by_name (List.map (fun g -> (g.g_name, gauge_value g)) registry.gauges);
    s_histograms =
      List.sort by_name
        (List.map
           (fun h ->
             let st = h_state h in
             ( h.h_name,
               { buckets = Array.copy st.hs_buckets; count = st.hs_count; sum = st.hs_sum } ))
           registry.histograms);
  }

let empty = { s_counters = []; s_gauges = []; s_histograms = [] }

(* Merge two sorted assoc lists with a per-value combiner; names in
   either side survive.  Keeping the result sorted keeps merge
   associative/commutative structurally. *)
let rec merge_assoc f xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | (kx, vx) :: xs', (ky, vy) :: ys' ->
      let c = String.compare kx ky in
      if c = 0 then (kx, f vx vy) :: merge_assoc f xs' ys'
      else if c < 0 then (kx, vx) :: merge_assoc f xs' ys
      else (ky, vy) :: merge_assoc f xs ys'

let merge_hist a b =
  {
    buckets = Array.init buckets (fun i -> a.buckets.(i) + b.buckets.(i));
    count = a.count + b.count;
    sum = a.sum + b.sum;
  }

let merge a b =
  {
    s_counters = merge_assoc ( + ) a.s_counters b.s_counters;
    s_gauges = merge_assoc max a.s_gauges b.s_gauges;
    s_histograms = merge_assoc merge_hist a.s_histograms b.s_histograms;
  }

(* [diff ~before after]: per-run delta of the monotonic instruments.
   Counters and histogram buckets subtract (clamped at 0 in case an
   instrument was registered between the snapshots); gauges keep the
   [after] level — a gauge is a level, not a rate. *)
let diff ~before after =
  let sub_c name v = v - (match List.assoc_opt name before.s_counters with Some b -> b | None -> 0) in
  let sub_h name (h : hist_data) =
    match List.assoc_opt name before.s_histograms with
    | None -> h
    | Some b ->
        {
          buckets = Array.init buckets (fun i -> max 0 (h.buckets.(i) - b.buckets.(i)));
          count = max 0 (h.count - b.count);
          sum = max 0 (h.sum - b.sum);
        }
  in
  {
    s_counters = List.map (fun (k, v) -> (k, max 0 (sub_c k v))) after.s_counters;
    s_gauges = after.s_gauges;
    s_histograms = List.map (fun (k, h) -> (k, sub_h k h)) after.s_histograms;
  }

let find_counter s name = List.assoc_opt name s.s_counters
let find_gauge s name = List.assoc_opt name s.s_gauges

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let hist_to_json h =
  (* Sparse bucket encoding: [[bucket, count], ...] for non-empty
     buckets only, so 64 mostly-zero slots don't bloat the output. *)
  let bs = ref [] in
  for i = buckets - 1 downto 0 do
    if h.buckets.(i) > 0 then bs := Json.List [ Json.int i; Json.int h.buckets.(i) ] :: !bs
  done;
  Json.Obj [ ("count", Json.int h.count); ("sum", Json.int h.sum); ("buckets", Json.List !bs) ]

let to_json s =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) s.s_counters));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) s.s_gauges));
      ("histograms", Json.Obj (List.map (fun (k, h) -> (k, hist_to_json h)) s.s_histograms));
    ]

let pp ppf s =
  let non_zero = List.filter (fun (_, v) -> v <> 0) in
  Fmt.pf ppf "@[<v>";
  List.iter (fun (k, v) -> Fmt.pf ppf "%-44s %d@," k v) (non_zero s.s_counters);
  List.iter (fun (k, v) -> Fmt.pf ppf "%-44s %d@," k v) (non_zero s.s_gauges);
  List.iter
    (fun (k, h) ->
      if h.count > 0 then
        Fmt.pf ppf "%-44s count=%d sum=%d mean=%.1f@," k h.count h.sum
          (float_of_int h.sum /. float_of_int h.count))
    s.s_histograms;
  Fmt.pf ppf "@]"
