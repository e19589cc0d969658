(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe pin > perfbench/expected.json
     main.exe setup NAME SEED    (one set-up; prints its seconds)

   Run from the repository root (perfbench/run.py builds and runs it).
   With --trace 0 the run measures the end-to-end metrics; with
   --trace 1 it measures every per-layer metric instead.  Human-readable
   lines come first; the last line of stdout is the JSON result.  Exit
   status 0 means every op's output matched its expected value. *)

open Perfbench
open Work
module Json = Raceguard_obs.Json

let workloads = [ Sip_live.workload; Chaos_grid.workload; Trace_replay.workload ]
let expected_path = "perfbench/expected.json"
let spans_dir = ".perfbench"

(** Set-ups per untraced run; [setup_s] is their median. *)
let setups = 3

(** Every run holds at least this many ops, so p90 has ten beyond it. *)
let min_ops = 100

(** The closed loop: whole rounds until [seconds] have passed and at
    least [min_ops] ops completed.  Returns ops in order, round
    problems, and the elapsed ns. *)
let loop ~seconds round =
  let t0 = Clock.now_ns () in
  let limit = int_of_float (seconds *. 1e9) in
  let rec go ops problems n =
    let elapsed = Clock.now_ns () - t0 in
    if elapsed >= limit && n >= min_ops then (List.rev ops, problems, elapsed)
    else
      match round () with
      | { ops = []; _ } -> (List.rev ops, problems @ [ "a round completed no op" ], elapsed)
      | r -> go (List.rev_append r.ops ops) (problems @ r.problems) (n + List.length r.ops)
  in
  go [] [] 0

let sum f ops = List.fold_left (fun acc o -> acc +. f o) 0. ops

let end_to_end ~setup_s ~ops ~elapsed_ns =
  let secs = Clock.seconds_of_ns elapsed_ns in
  let latency = Array.of_list (List.map (fun o -> fi o.o_ns /. 1e6) ops) in
  let events = sum (fun o -> fi o.o_events) ops in
  [
    metric "setup_s" "s" setup_s;
    metric "ops_per_s" "1/s" (fi (List.length ops) /. secs);
    metric "events_per_s" "1/s" (events /. secs);
    metric "op_ms.p50" "ms" (Stats.median latency);
    metric "op_ms.p90" "ms" (Stats.percentile latency 9000);
    metric "minor_words_per_event" "words/event" (ratio (sum (fun o -> o.o_words) ops) events);
    metric "peak_rss_mb" "MB" (peak_rss_mb ());
  ]

let ops_per_s ops ns = fi (List.length ops) /. Clock.seconds_of_ns ns

(** Set-up time of [w] in a fresh process of this executable, so each
    set-up starts as cold as the first. *)
let setup_in_child (w : workload) ~seed =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "setup"; w.w_name; string_of_int seed |]
  in
  let line = In_channel.input_all ic in
  match (Unix.close_process_in ic, float_of_string_opt (String.trim line)) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith ("set-up of " ^ w.w_name ^ " failed in a child process")

let setup_seconds ~expected (w : workload) ~seed =
  let _, ns, _ = measure (fun () -> w.setup ~expected ~seed) in
  Clock.seconds_of_ns ns

let untraced ~expected (w : workload) ~seed ~seconds =
  let earlier = List.init (setups - 1) (fun _ -> setup_in_child w ~seed) in
  let inst, ns, _ = measure (fun () -> w.setup ~expected ~seed) in
  let ops, problems, elapsed_ns = loop ~seconds inst.round in
  let setup_s = Stats.median (Array.of_list (Clock.seconds_of_ns ns :: earlier)) in
  let latency = Array.of_list (List.map (fun o -> fi o.o_ns /. 1e6) ops) in
  (match Stats.tail latency with
  | Some t -> Printf.printf "op_ms.%s = %.4f ms over n = %d ops\n" (Stats.label t.t_pm) t.t_value t.t_n
  | None -> Printf.printf "fewer than 100 ops: no tail percentile\n");
  (ops, problems, end_to_end ~setup_s ~ops ~elapsed_ns)

(** The traced run: the workload's loop untraced then traced for half
    the time each (their difference is the tracing overhead), then one
    traced round of every other workload, then every layer's numbers. *)
let traced ~expected (w : workload) ~seed ~seconds =
  let spans = Spans.create () in
  let inst = w.setup ~expected ~seed in
  let gc0 = Gc.quick_stat () in
  let u_ops, u_problems, u_ns = loop ~seconds:(seconds /. 2.) inst.round in
  let gc1 = Gc.quick_stat () in
  let t_ops, t_problems, t_ns = loop ~seconds:(seconds /. 2.) (fun () -> inst.traced_round spans) in
  let others =
    List.filter_map
      (fun (o : workload) ->
        if o.w_name = w.w_name then None
        else
          let i = o.setup ~expected ~seed in
          Some (i, i.traced_round spans))
      workloads
  in
  let layers = List.map (fun i -> i.layer_metrics ()) (inst :: List.map fst others) in
  let untraced = ops_per_s u_ops u_ns and traced = ops_per_s t_ops t_ns in
  let per_op n = fi n /. fi (max 1 (List.length u_ops)) in
  let metrics =
    [
      metric "tracing.untraced_ops_per_s" "1/s" untraced;
      metric "tracing.traced_ops_per_s" "1/s" traced;
      metric "tracing.overhead_frac" "fraction" (1. -. ratio traced untraced);
      metric "gc.minor_collections" "1/op" (per_op (gc1.minor_collections - gc0.minor_collections));
      metric "gc.major_collections" "1/op" (per_op (gc1.major_collections - gc0.major_collections));
    ]
    @ Micro.metrics ()
    @ List.concat_map fst layers
  in
  (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat spans_dir (Printf.sprintf "%s-seed%d.trace.json" w.w_name seed) in
  Spans.write spans path;
  Printf.printf "spans: %d written to %s\n" (Spans.count spans) path;
  let ops = u_ops @ t_ops @ List.concat_map (fun (_, r) -> r.ops) others in
  let problems =
    u_problems @ t_problems
    @ List.concat_map (fun (_, r) -> r.problems) others
    @ List.concat_map snd layers
  in
  (ops, problems, metrics)

let print_result verdict metrics =
  List.iter (fun m -> Printf.printf "%-44s %16.6g %s\n" m.m_name m.m_value m.m_unit) metrics;
  Printf.printf "ops_failed_frac = %d / %d\n" verdict.failed verdict.attempted;
  List.iteri (fun i r -> if i < 10 then Printf.printf "FAILED %s\n" r) verdict.reasons;
  let json =
    Json.Obj
      [
        ("correct", Json.Bool verdict.correct);
        ("attempted", Json.int verdict.attempted);
        ("failed", Json.int verdict.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 (m.m_name, Json.Obj [ ("value", Json.Num m.m_value); ("unit", Json.Str m.m_unit) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string json)

(* --- pinning expected outputs --------------------------------------- *)

let fail_pin what = failwith ("refusing to pin a wrong output: " ^ what)

(** Every output the benchmark compares against, computed at this
    commit.  Refuses to pin an output that fails its own oracles. *)
let pin () =
  let module Sip = Raceguard_sip in
  let pins = ref [] in
  let add k v = pins := (k, v) :: !pins in
  Array.iter
    (fun seed ->
      List.iter
        (fun (tc : Sip.Workload.test_case) ->
          List.iter
            (fun set ->
              let o =
                Sip_live.of_runner
                  (Raceguard.Runner.run_test_case (Sip_live.runner_config set seed) tc)
              in
              (match o with
              | {
               oracle = Some { r_failures = []; _ };
               outcome = { failures = []; deadlock = None; _ };
               _;
              } ->
                  ()
              | _ -> fail_pin (Sip_live.op_name tc set seed));
              add (Sip_live.key tc seed "events") (string_of_int o.events);
              add (Sip_live.key tc seed "requests") (string_of_int (Sip_live.requests o));
              List.iter (fun (label, d) -> add (Sip_live.key tc seed label) d) o.digests)
            [ Sip_live.Figure6; Sip_live.Fasttrack ])
        Sip_live.tests)
    Sip_live.seed_pool;
  let p = Chaos_grid.run_pass Chaos_grid.grid in
  if Chaos_grid.asymmetry p <> [] then fail_pin "chaos grid asymmetry";
  Array.iteri
    (fun i (r : Chaos_grid.cell_run) ->
      let coords = p.coords.(i) in
      if r.cell.cl_resilient && r.cell.cl_violations <> [] then fail_pin (Chaos_grid.cell_name coords);
      add (Chaos_grid.key coords "sig") r.cell.cl_sig_digest;
      add (Chaos_grid.key coords "behavior") r.cell.cl_behavior_digest)
    p.runs;
  let pins = List.sort_uniq compare !pins in
  print_endline (Json.to_string ~indent:1 (Expected.to_json pins))

(* --- command line ---------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload sip-live|chaos-grid|trace-replay --seed N --seconds S --trace 0|1\n\
    \       main.exe pin > perfbench/expected.json";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "pin" ] -> pin ()
  | [ _; "setup"; name; seed ] -> (
      match
        ( List.find_opt (fun (w : workload) -> w.w_name = name) workloads,
          int_of_string_opt seed,
          Expected.load expected_path )
      with
      | Some w, Some seed, Ok expected -> Printf.printf "%.9f\n" (setup_seconds ~expected w ~seed)
      | _ -> usage ())
  | _ :: args ->
      let rec parse acc = function
        | [] -> acc
        | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
            parse ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
        | _ -> usage ()
      in
      let flags = parse [] args in
      let get name = match List.assoc_opt name flags with Some v -> v | None -> usage () in
      let int name = match int_of_string_opt (get name) with Some v -> v | None -> usage () in
      if List.exists (fun (k, _) -> not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ])) flags
      then usage ();
      let w =
        match List.find_opt (fun (w : workload) -> w.w_name = get "workload") workloads with
        | Some w -> w
        | None -> usage ()
      in
      let seed = int "seed" and seconds = fi (int "seconds") in
      let trace = match int "trace" with 0 -> false | 1 -> true | _ -> usage () in
      if seconds <= 0. then usage ();
      let expected =
        match Expected.load expected_path with
        | Ok t -> t
        | Error e ->
            prerr_endline e;
            exit 1
      in
      Printf.printf "workload %s, seed %d, %g s, trace %d, %d CPUs\n%!" w.w_name seed seconds
        (Bool.to_int trace) (Domain.recommended_domain_count ());
      let ops, problems, metrics =
        if trace then traced ~expected w ~seed ~seconds else untraced ~expected w ~seed ~seconds
      in
      let verdict = verdict ops problems in
      print_result verdict metrics;
      exit (if verdict.correct then 0 else 1)
  | [] -> usage ()
