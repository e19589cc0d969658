(* The §2.3.1 triage workflow: run the detector, decide which reports
   are benign/unfixable, generate suppressions for them (Valgrind's
   --gen-suppressions), and rerun with the suppression file so only new
   findings surface.

     dune exec examples/triage_workflow.exe *)

module Vm = Raceguard_vm
module Det = Raceguard_detector
module Api = Vm.Api
module Loc = Raceguard_util.Loc

let loc = Loc.v "app.c" "main" 1

(* an application with one race we can fix and one we decide to accept
   (a monotonic "progress" counter used only for operator dashboards) *)
let application () =
  let progress = Api.alloc ~loc 1 in
  let balance = Api.alloc ~loc 1 in
  let m = Api.Mutex.create ~loc "balance_guard" in
  let worker () =
    Api.with_frame (Loc.v "app.c" "worker" 10) @@ fun () ->
    for _ = 1 to 5 do
      (* accepted: approximate counter, off-by-a-few is fine *)
      Api.write ~loc:(Loc.v "app.c" "bump_progress" 13) progress
        (Api.read ~loc:(Loc.v "app.c" "bump_progress" 13) progress + 1);
      (* BUG: the balance update misses the lock on this path *)
      Api.write ~loc:(Loc.v "app.c" "update_balance" 15) balance
        (Api.read ~loc:(Loc.v "app.c" "update_balance" 15) balance + 10)
    done;
    Api.Mutex.with_lock ~loc:(Loc.v "app.c" "worker" 17) m (fun () ->
        Api.write ~loc:(Loc.v "app.c" "worker" 18) balance
          (Api.read ~loc:(Loc.v "app.c" "worker" 18) balance - 1))
  in
  let t1 = Api.spawn ~loc ~name:"w1" worker in
  let t2 = Api.spawn ~loc ~name:"w2" worker in
  Api.join ~loc t1;
  Api.join ~loc t2

let audit ~suppressions =
  let vm = Vm.Engine.create ~config:{ Vm.Engine.default_config with seed = 5 } () in
  let h = Det.Helgrind.create ~suppressions Det.Helgrind.hwlc_dr in
  Vm.Engine.add_tool vm (Det.Helgrind.tool h);
  let _ = Vm.Engine.run vm application in
  h

let () =
  print_endline "=== first run: everything is reported ===";
  let h = audit ~suppressions:[] in
  List.iter (fun (r, n) -> Fmt.pr "[%d×] %a@." n Det.Report.pp r) (Det.Helgrind.locations h);

  print_endline "=== triage: accept the progress counter, suppress it ===";
  let accepted, real =
    List.partition
      (fun ((r : Det.Report.t), _) ->
        List.exists (fun l -> Loc.func l = "bump_progress") r.stack)
      (Det.Helgrind.locations h)
  in
  let suppressions =
    List.map
      (fun ((r : Det.Report.t), _) ->
        Det.Suppression.of_frames ~name:"benign-progress-counter"
          ~kind:(Det.Report.kind_name r.kind)
          ~frames:r.stack)
      accepted
  in
  List.iter (fun s -> print_string (Det.Suppression.to_string s)) suppressions;
  Printf.printf "(%d location(s) suppressed, %d considered real)\n\n" (List.length accepted)
    (List.length real);

  print_endline "=== second run, with the suppression file ===";
  let h2 = audit ~suppressions in
  List.iter (fun (r, n) -> Fmt.pr "[%d×] %a@." n Det.Report.pp r) (Det.Helgrind.locations h2);
  Printf.printf
    "%d location(s) remain (the real bug), %d occurrence(s) silenced by suppressions\n"
    (Det.Helgrind.location_count h2)
    (Det.Report.suppressed_count (Det.Helgrind.collector h2))
