(** What every workload hands the main loop: rounds of completed
    operations, each checked against its expected output. *)

module Obs = Raceguard_obs

type op = {
  o_name : string;
  o_ns : int;  (** host time of the call into the program *)
  o_events : int;
      (** VM events the op executed, or events fed to detectors when
          the op replays a trace *)
  o_words : float;  (** minor words allocated on the executing domain *)
  o_failure : string option;  (** why the op's output is wrong *)
}

type round = {
  ops : op list;
  problems : string list;
      (** failures of the round as a whole, e.g. a chaos pass without
          the resilient/baseline asymmetry *)
}

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type instance = {
  round : unit -> round;  (** one untraced round of the closed loop *)
  traced_round : Spans.t -> round;
      (** the same round with timing wrappers, recording spans *)
  layer_metrics : unit -> metric list * string list;
      (** per-layer numbers from every traced round run so far and
          the workload's own probes, with any wrong probe output *)
}

type workload = {
  w_name : string;
  setup : expected:Expected.t -> seed:int -> instance;
      (** everything before the first timed op, including warm-up *)
}

(** Time [f] on the calling domain: its result, elapsed ns and minor
    words allocated. *)
let measure f =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let v = f () in
  let ns = Clock.now_ns () - t0 in
  (v, ns, Gc.minor_words () -. w0)

let counter snap name = Option.value ~default:0 (Obs.Metrics.find_counter snap name)
let gauge snap name = Option.value ~default:0 (Obs.Metrics.find_gauge snap name)

(** The first failure among checks, in order. *)
let first_failure checks = List.find_map Fun.id checks

(** [ratio a b] is [a / b], or 0 when nothing was measured. *)
let ratio a b = if b = 0. then 0. else a /. b

let fi = float_of_int

(** Shuffle in place from [rng] (Fisher–Yates). *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(** Peak resident set size of this process (Linux [VmHWM]), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                fi kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> failwith "VmHWM not found in /proc/self/status"
      in
      find ())

(** Why each wrong op failed, prefixed with [what]. *)
let failures what ops =
  List.filter_map (fun o -> Option.map (fun r -> what ^ " " ^ o.o_name ^ ": " ^ r) o.o_failure) ops

(** Set-up problems, handed out by the first round only: a wrong
    set-up output fails the run instead of aborting it. *)
let once problems =
  let pending = ref problems in
  fun () ->
    let p = !pending in
    pending := [];
    p

type verdict = { attempted : int; failed : int; correct : bool; reasons : string list }

(** Classify a run: it is correct only when at least one op completed,
    no op failed and no round reported a problem. *)
let verdict ops problems =
  let attempted = List.length ops in
  let failed = failures "op" ops in
  let reasons = (if attempted = 0 then [ "no operation completed" ] else []) @ problems @ failed in
  { attempted; failed = List.length failed; correct = reasons = []; reasons }
