(** Command-line entry point regenerating the paper's tables/figures.

    {v
    raceguard-experiments list               # available experiments
    raceguard-experiments run fig6           # one experiment
    raceguard-experiments run all            # everything
    raceguard-experiments explain T4         # per-warning provenance
    raceguard-experiments trace record T4    # binary trace of a run
    raceguard-experiments trace replay f.rgt # offline multi-detector replay
    raceguard-experiments trace diff a b     # first divergent event
    raceguard-experiments trace info f.rgt   # header/meta/histogram
    v} *)

open Cmdliner

module Det = Raceguard_detector
module Trace = Raceguard_trace
module Obs = Raceguard_obs

let list_cmd =
  let doc = "List available experiments." in
  let run () =
    List.iter
      (fun (name, descr, _) -> Printf.printf "%-10s %s\n" name descr)
      Raceguard.Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run one experiment (or 'all')." in
  let experiment_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc:"experiment id")
  in
  let run name =
    let run_one (id, descr, f) =
      Printf.printf "==== %s — %s ====\n%!" id descr;
      print_endline (f ());
      print_newline ()
    in
    if name = "all" then begin
      List.iter run_one Raceguard.Experiments.all;
      `Ok ()
    end
    else
      match List.find_opt (fun (id, _, _) -> id = name) Raceguard.Experiments.all with
      | Some e ->
          run_one e;
          `Ok ()
      | None ->
          `Error
            ( false,
              Printf.sprintf "unknown experiment %S; try 'raceguard-experiments list'" name )
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(ret (const run $ experiment_arg))

let explain_cmd =
  let doc =
    "Explain every warning of a test case: shadow-state history plus the config knobs (hwlc, \
     dr, segments, hb) that would suppress it.  With --from-trace, the explanation is \
     derived by time travel through a recorded trace instead: each provenance transition is \
     resolved to its exact trace offset and the surrounding schedule slice is printed."
  in
  let test_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TEST" ~doc:"test case (T1..T8); not needed with --from-trace")
  in
  let from_trace_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "from-trace" ] ~docv:"FILE"
          ~doc:"time-travel a recorded raceguard-trace/1 file instead of running a test case")
  in
  let window_arg =
    Arg.(
      value & opt int 4
      & info [ "window" ] ~docv:"N"
          ~doc:"schedule-slice events either side of each transition (with --from-trace)")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"emit machine-readable JSON instead of text")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"VM scheduling seed") in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"write a Chrome trace_event JSON of the run to $(docv)")
  in
  let sample_arg =
    Arg.(
      value & opt int 1
      & info [ "sample" ] ~docv:"N" ~doc:"trace 1-in-$(docv) offered events (with --trace)")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE" ~doc:"write the run's metrics snapshot JSON to $(docv)")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "worker domains: run each detector configuration as its own cell on the \
             work-stealing pool (1 = sequential, 0 = auto); warnings and attribution are \
             identical for any value")
  in
  let run test from_trace window json seed trace sample metrics domains =
    match from_trace with
    | Some file -> (
        match Raceguard_trace.Reader.of_file file with
        | Error (`Msg m) -> `Error (false, Printf.sprintf "%s: %s" file m)
        | Ok tr ->
            let ft = Raceguard.Trace_ops.explain_from_trace ~window tr in
            if json then
              print_endline
                (Raceguard_obs.Json.to_string ~indent:2
                   (Raceguard.Trace_ops.from_trace_json ft))
            else Fmt.pr "%a@." Raceguard.Trace_ops.pp_from_trace ft;
            `Ok ())
    | None -> (
    match test with
    | None -> `Error (true, "a TEST case (or --from-trace FILE) is required")
    | Some test ->
    match Raceguard.Explain.test_case_of_string test with
    | None -> `Error (false, Printf.sprintf "unknown test case %S (expected T1..T8)" test)
    | Some tc ->
        let module Obs = Raceguard_obs in
        let tracer =
          match trace with
          | None -> None
          | Some _ -> Some (Obs.Trace.create ~capacity:65536 ~sample ())
        in
        let runner = { Raceguard.Runner.default with seed; tracer } in
        let x = Raceguard.Explain.run ~runner ~domains tc in
        if json then print_endline (Obs.Json.to_string ~indent:2 (Raceguard.Explain.to_json x))
        else Fmt.pr "%a@." Raceguard.Explain.pp x;
        (match (trace, tracer) with
        | Some file, Some tr ->
            let oc = open_out file in
            output_string oc (Obs.Trace.to_string tr);
            close_out oc;
            Printf.eprintf "trace: %s (%d records, %d offered)\n%!" file (Obs.Trace.recorded tr)
              (Obs.Trace.offered tr)
        | _ -> ());
        (match metrics with
        | Some file ->
            let oc = open_out file in
            output_string oc
              (Obs.Json.to_string ~indent:2
                 (Obs.Metrics.to_json x.Raceguard.Explain.x_result.Raceguard.Runner.metrics));
            close_out oc;
            Printf.eprintf "metrics: %s\n%!" file
        | None -> ());
        `Ok ())
  in
  Cmd.v
    (Cmd.info "explain" ~doc)
    Term.(
      ret
        (const run $ test_arg $ from_trace_arg $ window_arg $ json_arg $ seed_arg $ trace_arg
       $ sample_arg $ metrics_arg $ domains_arg))

let chaos_cmd =
  let doc =
    "Run the chaos matrix: fault plans crossed with SIP test cases, with and without the \
     proxy's resilience layer, judged by post-run invariant oracles.  Exits non-zero unless \
     every resilient cell is violation-free and at least one baseline cell violates an \
     oracle."
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"emit the raceguard-chaos/1 JSON report")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"CI smoke subset (3 plans on T2/T6)")
  in
  let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"matrix seed") in
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"NAME" ~doc:"run only the named fault plan")
  in
  let test_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "test" ] ~docv:"T" ~doc:"run only the named test case (T1..T10)")
  in
  let no_fast_path_arg =
    Arg.(
      value & flag
      & info [ "no-fast-path" ]
          ~doc:"disable the detector fast path (digests must not change)")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"write the report (JSON or text) to $(docv)")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "worker domains for the cell grid (1 = sequential, 0 = auto); every digest is \
             identical for any value")
  in
  let record_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "record-dir" ] ~docv:"DIR"
          ~doc:
            "record every cell into a raceguard-trace/1 file under $(docv) (created if \
             missing); the recorder is a pure observer, digests are unchanged")
  in
  let run json quick seed plan test no_fast_path out domains record_dir =
    (match record_dir with
    | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
    | _ -> ());
    let base = if quick then Raceguard.Chaos.quick else Raceguard.Chaos.default in
    let config =
      { base with Raceguard.Chaos.seed; fast_path = not no_fast_path; domains; record_dir }
    in
    let with_plan =
      match plan with
      | None -> Ok config
      | Some name -> (
          match Raceguard_faults.Plan.lookup name with
          | Some p ->
              (* a shard plan selects only the scenario half of the
                 grid; a shipped plan only the T1–T8 half *)
              if List.exists (fun (q : Raceguard_faults.Plan.t) -> q.p_name = name)
                   Raceguard_faults.Plan.shard_shipped
              then
                Ok { config with Raceguard.Chaos.plans = []; shard_plans = [ p ] }
              else Ok { config with Raceguard.Chaos.plans = [ p ]; shard_plans = [] }
          | None -> Error (Printf.sprintf "unknown fault plan %S" name))
    in
    match with_plan with
    | Error e -> `Error (false, e)
    | Ok config -> (
        let config =
          match test with
          | None -> config
          | Some t ->
              let only (tc : Raceguard_sip.Workload.test_case) = tc.tc_name = t in
              {
                config with
                Raceguard.Chaos.tests = List.filter only config.Raceguard.Chaos.tests;
                scenario_tests = List.filter only config.Raceguard.Chaos.scenario_tests;
              }
        in
        match (config.Raceguard.Chaos.tests, config.Raceguard.Chaos.scenario_tests) with
        | [], [] -> `Error (false, "no test cases selected (expected T1..T10)")
        | _ ->
            let report = Raceguard.Chaos.run config in
            let rendered =
              if json then
                Raceguard_obs.Json.to_string ~indent:2
                  (Raceguard.Chaos.to_json ~config report)
                ^ "\n"
              else Fmt.str "%a@." Raceguard.Chaos.pp report
            in
            (match out with
            | Some file ->
                let oc = open_out file in
                output_string oc rendered;
                close_out oc;
                Printf.eprintf "chaos report: %s\n%!" file
            | None -> print_string rendered);
            if report.Raceguard.Chaos.rp_resilient_violations > 0 then begin
              (* a resilient cell broke an invariant oracle: the one
                 outcome that must never pass CI — exit 1 outright
                 (cmdliner's `Error path would exit 124, which generic
                 shell wrappers don't treat as a test failure) *)
              Printf.eprintf "chaos matrix FAILED: %d resilient cell violation(s)\n%!"
                report.Raceguard.Chaos.rp_resilient_violations;
              exit 1
            end;
            if Raceguard.Chaos.passed report then `Ok ()
            else `Error (false, "chaos matrix failed: invariant asymmetry not established"))
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      ret
        (const run $ json_arg $ quick_arg $ seed_arg $ plan_arg $ test_arg $ no_fast_path_arg
       $ out_arg $ domains_arg $ record_dir_arg))

(* --- trace: record / replay / diff / info --------------------------- *)

let load_trace file =
  match Trace.Reader.of_file file with
  | Ok t -> Ok t
  | Error (`Msg m) -> Error (Printf.sprintf "%s: %s" file m)

let pp_verdict ppf (v : Det.Offline.verdict) =
  Fmt.pf ppf "%-20s %8d events %4d occurrence(s) %3d location(s)  sig %s  report %s"
    v.v_config v.v_events v.v_occurrences v.v_locations
    (String.sub v.v_sig_digest 0 12)
    (String.sub v.v_report_digest 0 12)

(* Rejects N <= 0 as a usage error instead of letting the trace writer
   raise on it mid-run. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let trace_record_cmd =
  let doc =
    "Record a test case into a compact raceguard-trace/1 binary file: one VM run with the \
     zero-analysis recorder attached.  With --verify-live, every registry detector \
     configuration also observes the same run and its verdict digests are printed — the \
     ground truth a later replay must reproduce."
  in
  let test_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TEST" ~doc:"test case (T1..T8)")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"output file (default $(i,TEST)-$(i,SEED).rgt)")
  in
  let seed_arg = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"VM scheduling seed") in
  let snapshot_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "snapshot-every" ] ~docv:"N" ~doc:"snapshot marker cadence in events")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify-live" ]
          ~doc:"attach all registry detector configurations live and print their verdicts")
  in
  let run test out seed snapshot_every verify =
    match Raceguard.Trace_ops.test_case_of_string test with
    | None -> `Error (false, Printf.sprintf "unknown test case %S (expected T1..T8)" test)
    | Some tc ->
        let live = if verify then Det.Offline.configs else [] in
        let r = Raceguard.Trace_ops.record_test ~seed ?snapshot_every ~live tc in
        let file =
          match out with
          | Some f -> f
          | None -> Printf.sprintf "%s-%d.rgt" (String.lowercase_ascii test) seed
        in
        Det.Offline.to_file r.rec_recorder file;
        let w = Det.Offline.writer r.rec_recorder in
        Printf.printf "recorded %s: %d events, %d snapshot(s), %d bytes (%.2f bytes/event)\n"
          file
          (Trace.Writer.event_count w)
          (Trace.Writer.snapshot_count w)
          (Trace.Writer.byte_size w)
          (if Trace.Writer.event_count w = 0 then 0.
           else float_of_int (Trace.Writer.byte_size w) /. float_of_int (Trace.Writer.event_count w));
        List.iter (fun v -> Fmt.pr "live    %a@." pp_verdict v) r.rec_live;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "record" ~doc)
    Term.(ret (const run $ test_arg $ out_arg $ seed_arg $ snapshot_arg $ verify_arg))

let configs_arg =
  Arg.(
    value
    & opt (list string) Det.Offline.configs
    & info [ "configs" ] ~docv:"NAMES"
        ~doc:
          (Printf.sprintf "comma-separated detector configurations (default all: %s)"
             (String.concat ", " Det.Offline.configs)))

let trace_replay_cmd =
  let doc =
    "Replay a recorded trace through detector configurations without re-executing the \
     program.  With --verify-live, the workload named in the trace header is re-run live \
     (same seed) with the same configurations attached and every verdict must be \
     byte-identical, or the command exits 1."
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"trace file")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "fan configurations across worker domains (1 = sequential, 0 = auto); verdicts \
             are identical for any value")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"emit raceguard-replay/1 JSON") in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify-live" ] ~doc:"re-run the recorded workload live and compare verdicts")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:"also export the trace as Chrome trace_event JSON to $(docv)")
  in
  let run file configs domains json verify chrome =
    match load_trace file with
    | Error e -> `Error (false, e)
    | Ok trace -> (
        let unknown = List.filter (fun c -> not (List.mem c Det.Offline.configs)) configs in
        if unknown <> [] then
          `Error (false, "unknown config(s): " ^ String.concat ", " unknown)
        else
          let replayed = Raceguard.Trace_ops.replay_parallel ~domains ~configs trace in
          let live =
            if not verify then []
            else
              match
                ( Trace.Reader.meta_find trace "workload",
                  Option.bind (Trace.Reader.meta_find trace "seed") int_of_string_opt )
              with
              | Some w, Some seed -> (
                  match Raceguard.Trace_ops.test_case_of_string w with
                  | Some tc ->
                      (Raceguard.Trace_ops.record_test ~seed ~live:configs tc).rec_live
                  | None -> failwith ("trace names unknown workload " ^ w))
              | _ -> failwith "trace header lacks workload/seed meta; cannot verify live"
          in
          (match chrome with
          | Some f ->
              let oc = open_out f in
              output_string oc
                (Obs.Json.to_string ~indent:1 (Raceguard.Trace_ops.chrome_json trace));
              close_out oc;
              Printf.eprintf "chrome trace: %s\n%!" f
          | None -> ());
          if json then
            print_endline
              (Obs.Json.to_string ~indent:2
                 (Raceguard.Trace_ops.replay_json ~live ~trace replayed))
          else begin
            Printf.printf "replayed %s: %d events through %d configuration(s), %d domain(s)\n"
              file (Trace.Reader.length trace) (List.length configs) domains;
            List.iter (fun v -> Fmt.pr "replay  %a@." pp_verdict v) replayed;
            List.iter (fun v -> Fmt.pr "live    %a@." pp_verdict v) live
          end;
          if verify then begin
            let comparison = Raceguard.Trace_ops.compare_verdicts ~live replayed in
            let bad = List.filter (fun (_, v) -> v <> `Match) comparison in
            if bad <> [] then begin
              List.iter
                (fun (name, _) ->
                  Printf.eprintf "REPLAY MISMATCH: %s differs between live and replay\n" name)
                bad;
              exit 1
            end;
            (* stderr: with --json, stdout must stay one parseable object *)
            Printf.eprintf "verify-live OK: %d configuration(s) byte-identical\n"
              (List.length comparison)
          end;
          `Ok ())
  in
  Cmd.v
    (Cmd.info "replay" ~doc)
    Term.(
      ret (const run $ file_arg $ configs_arg $ domains_arg $ json_arg $ verify_arg $ chrome_arg))

let trace_diff_cmd =
  let doc =
    "Compare two recorded traces event by event and report the first divergence with a \
     window of the shared schedule before it.  Exits 1 when the traces diverge (like diff)."
  in
  let left_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"LEFT" ~doc:"first trace file")
  in
  let right_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"RIGHT" ~doc:"second trace file")
  in
  let window_arg =
    Arg.(
      value
      & opt int Trace.Diff.default_window
      & info [ "window" ] ~docv:"N" ~doc:"shared-schedule context events to show")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"emit raceguard-trace-diff/1 JSON") in
  let run left right window json =
    match (load_trace left, load_trace right) with
    | Error e, _ | _, Error e -> `Error (false, e)
    | Ok a, Ok b ->
        if json then
          print_endline (Obs.Json.to_string ~indent:2 (Raceguard.Trace_ops.diff_json a b))
        else (
          match Trace.Diff.first_divergence ~window a b with
          | None ->
              Printf.printf "traces identical: %d events\n" (Trace.Reader.length a)
          | Some d -> Fmt.pr "%a@." Trace.Diff.pp_divergence d);
        (match Trace.Diff.first_divergence a b with None -> () | Some _ -> exit 1);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "diff" ~doc)
    Term.(ret (const run $ left_arg $ right_arg $ window_arg $ json_arg))

let trace_info_cmd =
  let doc = "Show a recorded trace's header, meta, tables and event-kind histogram." in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"trace file")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"emit raceguard-trace-info/1 JSON") in
  let run file json =
    match load_trace file with
    | Error e -> `Error (false, e)
    | Ok trace ->
        if json then
          print_endline (Obs.Json.to_string ~indent:2 (Raceguard.Trace_ops.info_json trace))
        else Fmt.pr "%a@." Raceguard.Trace_ops.pp_info trace;
        `Ok ()
  in
  Cmd.v (Cmd.info "info" ~doc) Term.(ret (const run $ file_arg $ json_arg))

let trace_cmd =
  let doc = "Record, replay, diff and inspect raceguard-trace/1 binary traces." in
  Cmd.group (Cmd.info "trace" ~doc)
    [ trace_record_cmd; trace_replay_cmd; trace_diff_cmd; trace_info_cmd ]

let json_check_cmd =
  let doc =
    "Validate that a file parses with the project's own JSON parser and report its schema \
     (CI smoke for machine-readable outputs)."
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"JSON file")
  in
  let run file =
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    let module Json = Raceguard_obs.Json in
    match Json.parse s with
    | Ok j ->
        let schema =
          match j with
          | Json.Obj fields -> (
              match List.assoc_opt "schema" fields with
              | Some (Json.Str s) -> s
              | _ -> "<none>")
          | _ -> "<not an object>"
        in
        Printf.printf "%s: ok (schema %s)\n" file schema;
        `Ok ()
    | Error e -> `Error (false, Printf.sprintf "%s: JSON parse error: %s" file e)
  in
  Cmd.v (Cmd.info "json-check" ~doc) Term.(ret (const run $ file_arg))

let scenario_cmd =
  let doc =
    "List, export and validate the data-driven storm workload scenarios \
     (raceguard-scenario/1).  Without arguments, lists the shipped scenarios (T9/T10); \
     with NAME, prints that scenario (--json for the JSON document); with --check FILE, \
     parses an external scenario document, validates it and confirms it round-trips."
  in
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"shipped scenario name (T9, T10)")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"emit the raceguard-scenario/1 JSON document")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"write the output to $(docv)")
  in
  let check_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "check" ] ~docv:"FILE"
          ~doc:"parse and validate $(docv) as a raceguard-scenario/1 document")
  in
  let module Scenario = Raceguard_sip.Workload.Scenario in
  let emit out rendered =
    match out with
    | Some file ->
        let oc = open_out file in
        output_string oc rendered;
        close_out oc;
        Printf.eprintf "scenario: %s\n%!" file
    | None -> print_string rendered
  in
  let describe (sc : Scenario.t) =
    let sharded =
      match sc.sc_sharding with
      | None -> "unsharded"
      | Some sp ->
          Printf.sprintf "sharded %d..%d (grow at %d/shard)" sp.sp_initial sp.sp_max_shards
            sp.sp_grow_at
    in
    Printf.sprintf "%-4s %d agent(s), %s — %s" sc.sc_name (List.length sc.sc_agents) sharded
      sc.sc_description
  in
  let run name json out check =
    match check with
    | Some file -> (
        let ic = open_in_bin file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        match Scenario.of_string s with
        | Error e -> `Error (false, Printf.sprintf "%s: %s" file e)
        | Ok sc -> (
            (* round-trip: the parsed value must re-serialize to a
               document that parses back to the same value *)
            match Scenario.of_string (Obs.Json.to_string (Scenario.to_json sc)) with
            | Ok sc' when sc' = sc ->
                Printf.printf "%s: ok (schema %s, %s)\n" file Scenario.schema (describe sc);
                `Ok ()
            | Ok _ -> `Error (false, Printf.sprintf "%s: round-trip mismatch" file)
            | Error e -> `Error (false, Printf.sprintf "%s: round-trip parse error: %s" file e)))
    | None -> (
        match name with
        | None ->
            List.iter
              (fun sc -> print_endline (describe sc))
              Raceguard.Scenarios.sip_scenarios;
            `Ok ()
        | Some n -> (
            match Raceguard.Scenarios.sip_lookup n with
            | None -> `Error (false, Printf.sprintf "unknown scenario %S (expected T9/T10)" n)
            | Some sc ->
                let rendered =
                  if json then
                    Obs.Json.to_string ~indent:2 (Scenario.to_json sc) ^ "\n"
                  else describe sc ^ "\n"
                in
                emit out rendered;
                `Ok ()))
  in
  Cmd.v (Cmd.info "scenario" ~doc)
    Term.(ret (const run $ name_arg $ json_arg $ out_arg $ check_arg))

let fix_cmd =
  let doc =
    "Automatically repair confirmed data races in a MiniC++ program: static-lockset-driven \
     patch synthesis with four-stage verification (static re-analysis, lock-order safety, \
     dynamic re-runs, behaviour oracles).  Emits the raceguard-fix/1 document with --json \
     and the combined repaired source with --out-dir.  Exits 2 when a verified patch fails \
     the emitted-source recheck."
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC++ source file")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"emit raceguard-fix/1 JSON") in
  let seeds_arg =
    Arg.(
      value
      & opt (list int) Raceguard_fix.Engine.default_seeds
      & info [ "seeds" ] ~docv:"S1,S2,.." ~doc:"verification schedule seeds")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"worker domains for the verification fan-out (0 = auto)")
  in
  let out_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:"write the repaired source as DIR/<base>.fixed.mcc (created if missing)")
  in
  let run file json seeds domains out_dir =
    let ic = open_in_bin file in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Raceguard_fix.Engine.run ~seeds ~domains ~file ~src () with
    | Error e -> `Error (false, e)
    | Ok t ->
        if json then
          print_endline (Obs.Json.to_string ~indent:2 (Raceguard_fix.Engine.to_json t))
        else Fmt.pr "%a@." Raceguard_fix.Engine.pp t;
        Option.iter
          (fun dir ->
            match t.Raceguard_fix.Engine.t_combined_source with
            | None -> ()
            | Some repaired ->
                if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                let base = Filename.remove_extension (Filename.basename file) in
                let path = Filename.concat dir (base ^ ".fixed.mcc") in
                let oc = open_out path in
                output_string oc repaired;
                close_out oc;
                if not json then Fmt.pr "wrote %s@." path)
          out_dir;
        if t.Raceguard_fix.Engine.t_recheck_ok then `Ok () else exit 2
  in
  Cmd.v (Cmd.info "fix" ~doc)
    Term.(ret (const run $ file_arg $ json_arg $ seeds_arg $ domains_arg $ out_dir_arg))

let () =
  let doc = "Reproduce the tables and figures of the paper." in
  let info = Cmd.info "raceguard-experiments" ~version:"0.9" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; explain_cmd; chaos_cmd; fix_cmd; trace_cmd; json_check_cmd;
            scenario_cmd;
          ]))
