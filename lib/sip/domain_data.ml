(** Per-domain configuration data — home of two injected real bugs.

    {b B2 (initialisation order, §4.1.1):} the reload thread is started
    {e before} the domain table is populated, so its first pass races
    with the main thread's unsynchronised initial population — "a
    thread is started before parts of the data structures it uses are
    initialized".

    {b B4 (returning a reference, §4.1.2, Figure 7):}
    [get_domain_data] takes the mutex, but returns the {e address} of
    the internal map — the OCaml transliteration of

    {[ map<string,DomainData*>& getDomainData() {
         MutexPtr mut(m_pMutex);  // Guard
         return m_DomainData;     // reference escapes the lock!
       } ]}

    Callers then walk the map with no lock held while the reload thread
    mutates it under the lock, so every caller-side read is a genuine
    data race that survives all detector improvements. *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api
module Obj_model = Raceguard_cxxsim.Object_model
module Refstring = Raceguard_cxxsim.Refstring
module Containers = Raceguard_cxxsim.Containers

let lc = Loc.site "domain_data.cpp" "ServerModulesManagerImpl::"

let m_reload_oom =
  Raceguard_obs.Metrics.counter "sip.resilience.reload_alloc_recovered"

(* class ConfigObject { int version; }
   class DomainData : ConfigObject { RefString name; int max_calls; int features; } *)
let config_object_class =
  Obj_model.define ~name:"ConfigObject" ~fields:[ "version" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"domain_data.cpp" ~base_line:28 cls obj ~strings:[]
        ~ints:[ "version" ])
    ()

let domain_data_class =
  Obj_model.define ~parent:config_object_class ~name:"DomainData"
    ~fields:[ "name"; "max_calls"; "features" ]
    ~dtor_body:(fun cls obj ->
      Obj_model.scrub ~file:"domain_data.cpp" ~base_line:36 cls obj ~strings:[ "name" ]
        ~ints:[ "max_calls"; "features" ])
    ()

type t = {
  mutex : Api.Mutex.t;
  map : Containers.Map.t;  (** hash(domain) -> DomainData address *)
  alloc : Raceguard_cxxsim.Allocator.t;
  mutable reload_thread : int;
  stop_flag : int;
  init_racy : bool;  (** B2 toggle: populate after starting the reloader *)
  recover_alloc_failure : bool;  (** survive injected allocation faults *)
  domains : string list;
}

let hash = Registrar.hash_string

let new_domain_data ~loc name gen =
  Obj_model.new_ ~loc domain_data_class ~init:(fun obj ->
      let cls = domain_data_class in
      Obj_model.set ~loc cls obj "version" gen;
      Obj_model.set ~loc cls obj "name" (Refstring.create ~loc name);
      Obj_model.set ~loc cls obj "max_calls" (100 + gen);
      Obj_model.set ~loc cls obj "features" (gen land 0xff))

let populate t gen =
  (* B2: initial population is unsynchronised — the author "knew" the
     map was still private when this code was written *)
  let loc = lc "populate" 58 in
  Api.with_frame loc @@ fun () ->
  List.iter
    (fun d -> Containers.Map.insert t.map (hash d) (new_domain_data ~loc d gen))
    t.domains

let reload t ~annotate gen =
  (* periodic reload: correctly locked replacement of every entry *)
  let loc = lc "reload" 66 in
  Api.with_frame loc @@ fun () ->
  let victims = ref [] in
  Api.Mutex.with_lock ~loc t.mutex (fun () ->
      List.iter
        (fun d ->
          let key = hash d in
          (match Containers.Map.find t.map key with
          | Some old when old <> 0 -> victims := old :: !victims
          | _ -> ());
          Containers.Map.insert t.map key (new_domain_data ~loc d gen))
        t.domains);
  List.iter
    (fun old -> Obj_model.delete_ ~loc:(lc "reload" 79) ~annotate domain_data_class old)
    !victims

let run_reloader t ~annotate () =
  Api.with_frame (lc "reloader" 83) @@ fun () ->
  (* initial sanity pass: touch every domain entry right at thread
     start — this is what races with the main thread's population when
     the thread is started too early (B2) *)
  Api.with_frame (lc "initialCheck" 84) (fun () ->
      Api.Mutex.with_lock ~loc:(lc "initialCheck" 84) t.mutex (fun () ->
          List.iter (fun d -> ignore (Containers.Map.find t.map (hash d))) t.domains));
  let gen = ref 1 in
  while Api.read ~loc:(lc "reloader" 85) t.stop_flag = 0 do
    Api.sleep 25;
    if Api.read ~loc:(lc "reloader" 87) t.stop_flag = 0 then begin
      incr gen;
      try reload t ~annotate !gen
      with Raceguard_faults.Injector.Out_of_memory when t.recover_alloc_failure ->
        (* injected allocation failure mid-reload: skip this generation
           instead of killing the reload thread *)
        Raceguard_obs.Metrics.incr m_reload_oom
    end
  done

(** Create the manager.  With [init_racy = true] (the shipped code) the
    reload thread starts {e before} [populate] runs — bug B2. *)
let create ~alloc ~annotate ~init_racy ?(recover_alloc_failure = false) ~domains () =
  let t =
    {
      mutex = Api.Mutex.create ~loc:(lc "ctor" 98) "domain_data.mutex";
      map = Containers.Map.create alloc;
      alloc;
      reload_thread = -1;
      stop_flag = Api.alloc ~loc:(lc "ctor" 101) 1;
      init_racy;
      recover_alloc_failure;
      domains;
    }
  in
  if init_racy then begin
    t.reload_thread <- Api.spawn ~loc:(lc "ctor" 106) ~name:"domain-reloader" (run_reloader t ~annotate);
    populate t 0
  end
  else begin
    populate t 0;
    t.reload_thread <- Api.spawn ~loc:(lc "ctor" 111) ~name:"domain-reloader" (run_reloader t ~annotate)
  end;
  t

(** Figure 7: returns the address of the internal map.  The lock is
    taken and released inside — protecting nothing. *)
let get_domain_data t =
  let loc = lc "getDomainData" 119 in
  Api.Mutex.lock ~loc t.mutex;
  let m = Containers.Map.address t.map in
  Api.Mutex.unlock ~loc t.mutex;
  m

(** What callers do with the escaped reference: look up a domain with
    no lock held — every node read races with [reload] (bug B4). *)
let unsafe_lookup t ~domain =
  Api.with_frame (lc "callerDeref" 131) @@ fun () ->
  let leaked = get_domain_data t in
  let view = Containers.Map.of_address t.alloc leaked in
  match Containers.Map.find view (hash domain) with
  | Some dd when dd <> 0 ->
      let loc = lc "callerDeref" 132 in
      Some (Obj_model.get ~loc domain_data_class dd "max_calls")
  | _ -> None

(** The correct API (for comparison / fixed builds). *)
let safe_lookup t ~domain =
  let loc = lc "safeLookup" 138 in
  Api.with_frame loc @@ fun () ->
  Api.Mutex.with_lock ~loc t.mutex (fun () ->
      match Containers.Map.find t.map (hash domain) with
      | Some dd when dd <> 0 -> Some (Obj_model.get ~loc domain_data_class dd "max_calls")
      | _ -> None)

let stop t = ignore (Api.atomic_rmw ~loc:(lc "stop" 144) t.stop_flag (fun _ -> 1))
let join t = if t.reload_thread >= 0 then Api.join ~loc:(lc "join" 145) t.reload_thread
