(** [chaos-grid]: the full [Chaos.default] grid — fault plans × test
    cases × resilience on/off, plus the shard plans × storm scenarios —
    one [Chaos.run_cell] per op, fanned over [Par.map_cells_stats].  The
    only workload that loads [lib/par], the fault injector, the
    resilience paths and the sharded registrar.

    The grid is the pinned one: [Chaos.default] fixes its seed, and the
    digests of every cell are pinned for it, so the benchmark seed does
    not change the cells. *)

open Raceguard
module Obs = Raceguard_obs
module Par = Raceguard_par.Par
module Sip = Raceguard_sip
module Faults = Raceguard_faults
module Json = Obs.Json
open Work

let config = Chaos.default
let cpus = Domain.recommended_domain_count ()

(** Worker domains: two, or fewer on a one-CPU host. *)
let domains = min 2 cpus

let grid = Chaos.grid config

let cell_name ((plan : Faults.Plan.t), (tc : Sip.Workload.test_case), resilient) =
  Printf.sprintf "%s/%s/%s" plan.p_name tc.tc_name (if resilient then "res" else "base")

let key coords what = Printf.sprintf "chaos/%d/%s/%s" config.seed (cell_name coords) what

type cell_run = {
  cell : Chaos.cell;
  domain : int;
  start_ns : int;
  end_ns : int;
  words : float;
  delta : Obs.Metrics.snapshot;  (** metrics delta on the executing domain *)
}

(** Runs on a pool domain; every measurement is taken there. *)
let run_cell (plan, tc, resilient) =
  let before = Obs.Metrics.snapshot () in
  let start_ns = Clock.now_ns () in
  let cell, ns, words = measure (fun () -> Chaos.run_cell config ~plan ~resilient tc) in
  {
    cell;
    domain = (Domain.self () :> int);
    start_ns;
    end_ns = start_ns + ns;
    words;
    delta = Obs.Metrics.diff ~before (Obs.Metrics.snapshot ());
  }

(** A resilient cell must satisfy every oracle; every cell must match
    its pinned signature and behaviour digests.  Baseline cells that
    violate oracles are the expected half of the asymmetry. *)
let check expected coords (c : Chaos.cell) =
  first_failure
    [
      (if c.cl_resilient && c.cl_violations <> [] then
         Some ("resilient cell violates: " ^ String.concat "; " c.cl_violations)
       else None);
      Expected.check expected (key coords "sig") c.cl_sig_digest;
      Expected.check expected (key coords "behavior") c.cl_behavior_digest;
    ]

let op expected coords r =
  {
    o_name = cell_name coords;
    o_ns = r.end_ns - r.start_ns;
    o_events = counter r.delta "vm.events_emitted";
    o_words = r.words;
    o_failure = check expected coords r.cell;
  }

type pass = {
  coords : (Faults.Plan.t * Sip.Workload.test_case * bool) array;
  runs : cell_run array;
  start_ns : int;
  wall_ns : int;
  steals : int;
}

let run_pass coords =
  let start_ns = Clock.now_ns () in
  let runs, stats = Par.map_cells_stats ~domains run_cell coords in
  { coords; runs; start_ns; wall_ns = Clock.now_ns () - start_ns; steals = stats.st_steals }

let ops_of expected p = Array.to_list (Array.map2 (op expected) p.coords p.runs)

(** A full pass must also show the asymmetry [Chaos.passed] demands:
    resilient cells all clean and at least one baseline cell violating. *)
let asymmetry p =
  let cells = Array.to_list (Array.map (fun r -> r.cell) p.runs) in
  let count f = List.length (List.filter f cells) in
  let report =
    {
      Chaos.rp_seed = config.seed;
      rp_fast_path = config.fast_path;
      rp_domains = domains;
      rp_cells = cells;
      rp_resilient_violations = count (fun c -> c.Chaos.cl_resilient && c.cl_violations <> []);
      rp_baseline_violations = count (fun c -> (not c.Chaos.cl_resilient) && c.cl_violations <> []);
    }
  in
  if Chaos.passed report then []
  else
    [
      Printf.sprintf "chaos pass lacks the asymmetry: %d resilient, %d baseline cells violate"
        report.rp_resilient_violations report.rp_baseline_violations;
    ]

let injected delta =
  List.fold_left
    (fun acc (name, v) ->
      if String.starts_with ~prefix:"faults.injected." name then acc + v else acc)
    0 delta.Obs.Metrics.s_counters

(** Per-pass pool and grid accounting, from the traced passes. *)
type summary = {
  s_wall_ns : int;
  s_busy_ns : int;  (** sum of cell times *)
  s_longest_ns : int;
  s_steals : int;
  s_budget_cells : int;
  s_budget_ns : int;
  s_vm_ops : int;
  s_injected : int;
  s_cells : int;
}

let summarize p =
  let cell_ns r = r.end_ns - r.start_ns in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 p.runs in
  let budget = List.filter (fun r -> r.cell.Chaos.cl_deadlocked) (Array.to_list p.runs) in
  {
    s_wall_ns = p.wall_ns;
    s_busy_ns = sum cell_ns;
    s_longest_ns = Array.fold_left (fun acc r -> max acc (cell_ns r)) 0 p.runs;
    s_steals = p.steals;
    s_budget_cells = List.length budget;
    s_budget_ns = List.fold_left (fun acc r -> acc + cell_ns r) 0 budget;
    s_vm_ops = sum (fun r -> counter r.delta "vm.ops_executed");
    s_injected = sum (fun r -> injected r.delta);
    s_cells = Array.length p.runs;
  }

let record_spans spans p =
  let pass =
    Spans.add spans ~cat:"par" ~start_ns:p.start_ns ~end_ns:(p.start_ns + p.wall_ns)
      ~domain:(Domain.self () :> int)
      ~args:[ ("steals", Json.int p.steals); ("domains", Json.int domains) ]
      "chaos pass"
  in
  Array.iteri
    (fun i r ->
      ignore
        (Spans.add spans ~parent:pass ~domain:r.domain ~cat:"chaos" ~start_ns:r.start_ns
           ~end_ns:r.end_ns
           ~args:
             [
               ("events", Json.int (counter r.delta "vm.events_emitted"));
               ("vm_ops", Json.int (counter r.delta "vm.ops_executed"));
               ("injected", Json.int (injected r.delta));
               ("deadlocked", Json.Bool r.cell.Chaos.cl_deadlocked);
             ]
           (cell_name p.coords.(i))))
    p.runs

let layer_metrics summaries =
  let n = fi (max 1 (List.length summaries)) in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 summaries in
  let mean_s f = Clock.seconds_of_ns (total f) /. n in
  let bound_ns s = max (s.s_busy_ns / domains) s.s_longest_ns in
  [
    metric "par.cpus" "count" (fi cpus);
    metric "par.domains" "count" (fi domains);
    metric "par.wall_s" "s" (mean_s (fun s -> s.s_wall_ns));
    metric "par.bound_s" "s" (mean_s bound_ns);
    metric "par.busy_frac" "fraction"
      (ratio (fi (total (fun s -> s.s_busy_ns))) (fi (domains * total (fun s -> s.s_wall_ns))));
    metric "par.idle_s" "s" (mean_s (fun s -> (domains * s.s_wall_ns) - s.s_busy_ns));
    metric "par.steals" "count" (fi (total (fun s -> s.s_steals)) /. n);
    metric "par.longest_op_s" "s"
      (Clock.seconds_of_ns (List.fold_left (fun acc s -> max acc s.s_longest_ns) 0 summaries));
    metric "chaos.budget_cells" "count" (fi (total (fun s -> s.s_budget_cells)) /. n);
    metric "chaos.budget_s" "s" (mean_s (fun s -> s.s_budget_ns));
    metric "chaos.vm_ops_per_cell" "ops"
      (ratio (fi (total (fun s -> s.s_vm_ops))) (fi (total (fun s -> s.s_cells))));
    metric "faults.injected_per_cell" "count"
      (ratio (fi (total (fun s -> s.s_injected))) (fi (total (fun s -> s.s_cells))));
  ]

(** Warm-up cells: every plan's cells, resilient and baseline, on the
    first test case it runs, so each fault and resilience path has run
    once before timing. *)
let warm_up_cells =
  let first_test = Hashtbl.create 16 in
  Array.of_list
    (List.filter
       (fun ((p : Faults.Plan.t), (tc : Sip.Workload.test_case), _) ->
         match Hashtbl.find_opt first_test p.p_name with
         | Some name -> name = tc.tc_name
         | None ->
             Hashtbl.add first_test p.p_name tc.tc_name;
             true)
       (Array.to_list grid))

let setup ~expected ~seed:_ =
  (* warm-up on the pool, checked like any op *)
  let pending = once (failures "warm-up" (ops_of expected (run_pass warm_up_cells))) in
  let summaries = ref [] in
  {
    round =
      (fun () ->
        let p = run_pass grid in
        { ops = ops_of expected p; problems = pending () @ asymmetry p });
    traced_round =
      (fun spans ->
        let p = run_pass grid in
        record_spans spans p;
        summaries := summarize p :: !summaries;
        { ops = ops_of expected p; problems = pending () @ asymmetry p });
    layer_metrics = (fun () -> (layer_metrics !summaries, []));
  }

let workload = { w_name = "chaos-grid"; setup }
