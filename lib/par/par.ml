(** Multicore cell pool: run a grid of independent deterministic cells
    across OCaml 5 domains with per-domain work-stealing deques.

    Every matrix this repo runs — detector audits, the chaos matrix, the
    explain knob sweep, the static/dynamic cross-check — is an array of
    cells where cell [i]'s result depends only on cell [i]'s input
    (each cell builds its own VM/tool instances, and the few
    process-wide caches — lockset interning, held-lock memos, the
    metrics registry — are domain-local, see DESIGN.md §12).  So the
    parallel contract is simple: {!map_cells} returns exactly
    [Array.map f cells], it just computes the slots on [domains]
    domains.

    Scheduling follows the [polytypic/par-ml] exemplar in spirit:
    one deque per worker, round-robin seeding, owners pop LIFO, idle
    workers sweep the other deques in {!steal_rounds} bounded rounds
    (distinguishing a lost CAS from emptiness) and back off between
    sweeps.  Cells are coarse (whole VM runs), so there is no fiber
    layer — a cell never suspends. *)

(** How many worker domains [domains = 0] resolves to: all
    recommended domains minus one for the rest of the process, never
    below 1.  Keeps local runs and CI from hardcoding core counts. *)
let recommended () = max 1 (Domain.recommended_domain_count () - 1)

let resolve domains = if domains <= 0 then recommended () else domains

type stats = {
  st_domains : int;  (** workers actually used (capped by cell count) *)
  st_cells : int;
  st_steals : int;  (** cells executed by a non-home worker *)
}

let steal_rounds = 2

(* Grab one cell index for [wid]: own deque first, else sweep the other
   deques in [steal_rounds] bounded rounds.  [None] means "nothing
   found this sweep", not "the matrix is done" — the caller re-checks
   [remaining]. *)
let find_work deques wid steals =
  let w = Array.length deques in
  match Deque.pop deques.(wid) with
  | Some _ as cell -> cell
  | None ->
      let stolen = ref None in
      let round = ref 0 in
      while !stolen = None && !round < steal_rounds do
        incr round;
        let v = ref 1 in
        while !stolen = None && !v < w do
          (match Deque.steal deques.((wid + !v) mod w) with
          | Deque.Stolen i ->
              Atomic.incr steals;
              stolen := Some i
          | Deque.Retry | Deque.Empty -> ());
          incr v
        done
      done;
      !stolen

let map_cells_stats ~domains f cells =
  let n = Array.length cells in
  let domains = resolve domains in
  if domains <= 1 || n <= 1 then begin
    (* sequential fast path — same failure contract as the pool: every
       cell still runs, then the lowest-index failure is re-raised, so
       switching [--domains] never changes which cells executed *)
    let results = Array.make n None in
    let failure = ref None in
    for i = 0 to n - 1 do
      match f cells.(i) with
      | v -> results.(i) <- Some v
      | exception e -> (
          match !failure with
          | Some _ -> ()
          | None -> failure := Some (e, Printexc.get_raw_backtrace ()))
    done;
    (match !failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    ( Array.map (function Some v -> v | None -> assert false) results,
      { st_domains = 1; st_cells = n; st_steals = 0 } )
  end
  else begin
    let w = min domains n in
    let deques = Array.init w (fun _ -> Deque.create ~capacity:n) in
    (* Round-robin seeding, pushed high-to-low so each owner pops its
       cells in index order — with no steals the execution order per
       worker matches the sequential runner's. *)
    for i = n - 1 downto 0 do
      Deque.push deques.(i mod w) i
    done;
    let results = Array.make n None in
    let remaining = Atomic.make n in
    let steals = Atomic.make 0 in
    let failures = Atomic.make [] in
    let run_cell i =
      (match f cells.(i) with
      | v -> results.(i) <- Some v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          let rec record () =
            let cur = Atomic.get failures in
            if not (Atomic.compare_and_set failures cur ((i, e, bt) :: cur)) then record ()
          in
          record ());
      ignore (Atomic.fetch_and_add remaining (-1))
    in
    let worker wid =
      let backoff = ref 0 in
      let rec go () =
        match find_work deques wid steals with
        | Some i ->
            backoff := 0;
            run_cell i;
            go ()
        | None ->
            if Atomic.get remaining > 0 then begin
              (* nothing stealable right now: some worker is inside a
                 long cell.  Spin politely, then sleep — on small
                 machines a spinning domain would steal cycles from the
                 one doing the work. *)
              incr backoff;
              if !backoff < 32 then Domain.cpu_relax () else Unix.sleepf 0.0005;
              go ()
            end
      in
      go ()
    in
    let spawned = Array.init (w - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1))) in
    worker 0;
    Array.iter Domain.join spawned;
    (* All cells ran to completion (or failure) — surface the
       lowest-index failure, like the sequential runner would have. *)
    (match List.sort compare (List.map (fun (i, _, _) -> i) (Atomic.get failures)) with
    | [] -> ()
    | first :: _ ->
        let _, e, bt =
          List.find (fun (i, _, _) -> i = first) (Atomic.get failures)
        in
        Printexc.raise_with_backtrace e bt);
    ( Array.map (function Some v -> v | None -> assert false) results,
      { st_domains = w; st_cells = n; st_steals = Atomic.get steals } )
  end

let map_cells ~domains f cells = fst (map_cells_stats ~domains f cells)
