(* The work-stealing pool (lib/par/): deque linearizability against a
   sequential model, no lost or duplicated cells under real concurrent
   stealing, the map_cells ≡ Array.map contract, exception
   propagation, --domains 0 resolution — and the determinism pins:
   chaos and detector-audit digests are byte-identical for --domains
   1/2/4 on seeds 7 and 42, and the micro scenarios match committed
   event counts and digests at 1 and 4 domains. *)

module Par = Raceguard_par.Par
module Deque = Raceguard_par.Deque
module R = Raceguard
module Vm = Raceguard_vm
module Det = Raceguard_detector
module Sip = Raceguard_sip

(* --- deque vs sequential model ------------------------------------- *)

(* The owner-side sequence (push/pop bottom) interleaved with top-side
   steals, all on one domain: every op must agree with a list model
   where the front is the steal end and the back is the push end. *)
type op = Push | Pop | Steal

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 200)
      (oneof [ return Push; return Pop; return Steal ]))

let pp_ops ops =
  String.concat ""
    (List.map (function Push -> "u" | Pop -> "o" | Steal -> "s") ops)

let qc_deque_model =
  QCheck2.Test.make ~count:300 ~name:"deque agrees with the list model"
    ~print:pp_ops gen_ops (fun ops ->
      let d = Deque.create ~capacity:(List.length ops + 1) in
      let model = ref [] (* front = steal end, back = push/pop end *) in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Push ->
              Deque.push d !next;
              model := !model @ [ !next ];
              incr next
          | Pop -> (
              let got = Deque.pop d in
              match (got, List.rev !model) with
              | Some x, y :: rest_rev ->
                  if x <> y then ok := false;
                  model := List.rev rest_rev
              | None, [] -> ()
              | _ -> ok := false)
          | Steal -> (
              (* single-domain: a steal may never observe Retry *)
              match (Deque.steal d, !model) with
              | Deque.Stolen x, y :: rest ->
                  if x <> y then ok := false;
                  model := rest
              | Deque.Empty, [] -> ()
              | _ -> ok := false))
        ops;
      !ok && Deque.size d = List.length !model)

(* --- concurrent steals: nothing lost, nothing duplicated ------------ *)

(* One owner pushes [n] tokens and pops between pushes; [thieves]
   domains steal concurrently the whole time.  Afterwards the union of
   everything popped and everything stolen must be exactly {0..n-1},
   each token once. *)
let qc_deque_concurrent =
  QCheck2.Test.make ~count:25 ~name:"concurrent steals lose/duplicate nothing"
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_range 50 400) (int_range 1 3))
    (fun (n, thieves) ->
      let d = Deque.create ~capacity:n in
      let stop = Atomic.make false in
      let stolen = Array.init thieves (fun _ -> ref []) in
      let domains =
        Array.init thieves (fun i ->
            Domain.spawn (fun () ->
                let mine = stolen.(i) in
                while not (Atomic.get stop) do
                  (match Deque.steal d with
                  | Deque.Stolen x -> mine := x :: !mine
                  | Deque.Empty | Deque.Retry -> ());
                  Domain.cpu_relax ()
                done))
      in
      let popped = ref [] in
      for x = 0 to n - 1 do
        Deque.push d x;
        (* pop roughly every third push, mid-stream *)
        if x mod 3 = 0 then
          match Deque.pop d with Some y -> popped := y :: !popped | None -> ()
      done;
      (* drain what the thieves left behind *)
      let rec drain () =
        match Deque.pop d with
        | Some y ->
            popped := y :: !popped;
            drain ()
        | None -> ()
      in
      drain ();
      Atomic.set stop true;
      Array.iter Domain.join domains;
      let all =
        !popped @ List.concat_map (fun r -> !r) (Array.to_list stolen)
      in
      List.sort_uniq compare all = List.init n Fun.id
      && List.length all = n)

(* --- map_cells ≡ Array.map ----------------------------------------- *)

let qc_map_cells_is_map =
  QCheck2.Test.make ~count:60 ~name:"map_cells ≡ Array.map for domains 1/2/4"
    ~print:QCheck2.Print.(list int)
    QCheck2.Gen.(list_size (int_range 0 50) (int_range (-1000) 1000))
    (fun xs ->
      let cells = Array.of_list xs in
      let f x = (x * 31) lxor 7 in
      let expect = Array.map f cells in
      List.for_all
        (fun domains -> Par.map_cells ~domains f cells = expect)
        [ 1; 2; 4 ])

let exn_propagation () =
  (* all cells still run; the lowest-index failure is re-raised *)
  let ran = Array.make 8 false in
  let f i =
    ran.(i) <- true;
    if i = 5 || i = 2 then failwith (Printf.sprintf "cell %d" i) else i
  in
  List.iter
    (fun domains ->
      (match Par.map_cells ~domains f (Array.init 8 Fun.id) with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
          Alcotest.(check string) "lowest-index failure wins" "cell 2" msg);
      Alcotest.(check bool) "every cell still ran" true
        (Array.for_all Fun.id ran);
      Array.fill ran 0 8 false)
    [ 1; 2; 4 ]

let resolve_auto () =
  Alcotest.(check int) "resolve keeps explicit counts" 3 (Par.resolve 3);
  let r = Par.resolve 0 in
  Alcotest.(check bool) "0 resolves to recommended() >= 1" true
    (r = Par.recommended () && r >= 1);
  Alcotest.(check int) "negative also resolves" r (Par.resolve (-2))

let stats_cover_cells () =
  let cells = Array.init 16 Fun.id in
  let _, st = Par.map_cells_stats ~domains:4 (fun x -> x + 1) cells in
  Alcotest.(check int) "every cell counted" 16 st.Par.st_cells;
  Alcotest.(check bool) "steals within bounds" true
    (st.Par.st_steals >= 0 && st.Par.st_steals <= 16)

(* --- determinism pins: chaos and audit digests --------------------- *)

(* a reduced chaos grid — 2 plans × T2 × both resilience settings —
   keeps the pin fast while still spreading cells across workers *)
let pin_config seed =
  {
    R.Chaos.quick with
    R.Chaos.seed;
    plans =
      List.filter_map Raceguard_faults.Plan.lookup [ "drop"; "oom" ]
      |> (function [] -> R.Chaos.quick.R.Chaos.plans | ps -> ps);
    tests = [ Sip.Workload.t2 ];
  }

let chaos_digest config ~domains =
  R.Chaos.matrix_digest (R.Chaos.run { config with R.Chaos.domains })

let chaos_pin seed () =
  let config = pin_config seed in
  let base = chaos_digest config ~domains:1 in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d: --domains %d ≡ --domains 1" seed domains)
        base
        (chaos_digest config ~domains))
    [ 2; 4 ]

(* audit digest: run a workload under a fresh detector and digest the
   sorted dedup signatures *)
let audit_cell ~seed (tc, cfg) =
  let res =
    R.Runner.run_test_case { R.Runner.default with seed; helgrind_configs = [ ("cfg", cfg) ] } tc
  in
  Det.Offline.digest_signatures (R.Runner.locations_of res "cfg")

let audit_digests ~seed ~domains =
  let cells =
    [| (Sip.Workload.t2, Det.Helgrind.original);
       (Sip.Workload.t2, Det.Helgrind.hwlc_dr);
       (Sip.Workload.t6, Det.Helgrind.original);
       (Sip.Workload.t6, Det.Helgrind.hwlc_dr) |]
  in
  Par.map_cells ~domains (audit_cell ~seed) cells

let audit_pin seed () =
  let base = audit_digests ~seed ~domains:1 in
  List.iter
    (fun domains ->
      Alcotest.(check (array string))
        (Printf.sprintf "seed %d: audit digests at %d domains" seed domains)
        base
        (audit_digests ~seed ~domains))
    [ 2; 4 ]

(* --- micro-scenario pins ---------------------------------------------- *)

(* The three lock/read-sharing micro scenarios under no tool and nine
   registry configurations (all but HWLC+DR+HB), seed 7: events and the
   sorted-signature digest per cell, at 1 and 4 domains.  The empty
   digest d41d8cd9... means no report. *)
let micro_scenarios =
  [
    ("micro-contention", fun () -> R.Scenarios.high_contention ~iters:120 ());
    ("micro-readshared", fun () -> R.Scenarios.read_shared ~iters:200 ());
    ("micro-readchurn", fun () -> R.Scenarios.read_shared_churn ~rounds:3 ~iters:60 ());
  ]

let micro_pins =
  [
    ("micro-contention", "no-tool", 3871, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-contention", "helgrind-original", 3871, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-contention", "helgrind-hwlc", 3871, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-contention", "helgrind-hwlc+dr", 3871, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-contention", "eraser-pure", 3871, "c138b52b2c46915f232f5c49539ab545");
    ("micro-contention", "djit", 3871, "3378840e3fd0467ade90b29394ed72c5");
    ("micro-contention", "fasttrack", 3871, "3378840e3fd0467ade90b29394ed72c5");
    ("micro-contention", "hybrid", 3871, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-contention", "hybrid-epoch", 3871, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-contention", "racetrack", 3871, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readshared", "no-tool", 835, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readshared", "helgrind-original", 835, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readshared", "helgrind-hwlc", 835, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readshared", "helgrind-hwlc+dr", 835, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readshared", "eraser-pure", 835, "f3a34d8192e5e31f3ec8b46b2e2380c5");
    ("micro-readshared", "djit", 835, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readshared", "fasttrack", 835, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readshared", "hybrid", 835, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readshared", "hybrid-epoch", 835, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readshared", "racetrack", 835, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readchurn", "no-tool", 1555, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readchurn", "helgrind-original", 1555, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readchurn", "helgrind-hwlc", 1555, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readchurn", "helgrind-hwlc+dr", 1555, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readchurn", "eraser-pure", 1555, "ae22d088f6b5a0e6e2d079d625c4ca1c");
    ("micro-readchurn", "djit", 1555, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readchurn", "fasttrack", 1555, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readchurn", "hybrid", 1555, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readchurn", "hybrid-epoch", 1555, "d41d8cd98f00b204e9800998ecf8427e");
    ("micro-readchurn", "racetrack", 1555, "d41d8cd98f00b204e9800998ecf8427e");
  ]

(* One cell: the scenario with an event counter and, unless the subject
   is "no-tool", a fresh registry sink attached. *)
let micro_cell (scenario, subject, _, _) =
  let events = ref 0 in
  let sink = if subject = "no-tool" then None else Some (Det.Offline.sink subject) in
  let tools =
    Vm.Tool.of_fn "count" (fun _ -> incr events)
    :: Option.to_list (Option.map (fun s -> s.Det.Offline.sk_tool) sink)
  in
  ignore
    (R.Runner.run_main ~tools
       { R.Runner.default with seed = 7; helgrind_configs = [] }
       (List.assoc scenario micro_scenarios));
  let locations = match sink with None -> [] | Some s -> s.Det.Offline.sk_locations () in
  (!events, Det.Offline.digest_signatures locations)

let micro_pinned () =
  let cells = Array.of_list micro_pins in
  List.iter
    (fun domains ->
      Array.iter2
        (fun (scenario, subject, events, digest) got ->
          Alcotest.(check (pair int string))
            (Printf.sprintf "%s %s at %d domains" scenario subject domains)
            (events, digest) got)
        cells
        (Par.map_cells ~domains micro_cell cells))
    [ 1; 4 ]

let suite =
  ( "par",
    [
      QCheck_alcotest.to_alcotest qc_deque_model;
      QCheck_alcotest.to_alcotest qc_deque_concurrent;
      QCheck_alcotest.to_alcotest qc_map_cells_is_map;
      Alcotest.test_case "exception propagation" `Quick exn_propagation;
      Alcotest.test_case "--domains 0 resolution" `Quick resolve_auto;
      Alcotest.test_case "pool stats cover every cell" `Quick stats_cover_cells;
      Alcotest.test_case "chaos digest pin, seed 7" `Quick (chaos_pin 7);
      Alcotest.test_case "chaos digest pin, seed 42" `Quick (chaos_pin 42);
      Alcotest.test_case "bench digest pin, seed 7" `Quick (audit_pin 7);
      Alcotest.test_case "bench digest pin, seed 42" `Quick (audit_pin 42);
      Alcotest.test_case "micro scenarios x 10 subjects pinned, domains 1/4" `Quick
        micro_pinned;
    ] )
