(** VM-core microbenchmarks: tiny [Vm.Api] programs on a tool-less VM,
    each timed from outside as ns per operation (median of runs). *)

module Vm = Raceguard_vm
module Api = Vm.Api
open Work

let loc = Raceguard_util.Loc.v "perfbench" "micro" 0

(** ns per operation of [main n], which performs [n] operations. *)
let per_op ~n main =
  let once () =
    let vm = Vm.Engine.create () in
    let outcome, ns, _ = measure (fun () -> Vm.Engine.run vm (fun () -> main n)) in
    if outcome.Vm.Engine.failures <> [] || outcome.deadlock <> None then
      failwith "micro: program did not complete";
    fi ns /. fi n
  in
  Stats.median (Array.init 5 (fun _ -> once ()))

(** One write then one read of the same word: two accesses. *)
let read_write n =
  let a = Api.alloc ~loc 1 in
  for i = 1 to n / 2 do
    Api.write ~loc a i;
    ignore (Api.read ~loc a)
  done

let lock_unlock n =
  let m = Api.Mutex.create ~loc "m" in
  for _ = 1 to n do
    Api.Mutex.lock ~loc m;
    Api.Mutex.unlock ~loc m
  done

let spawn_join n =
  for _ = 1 to n do
    Api.join ~loc (Api.spawn ~loc ~name:"w" ignore)
  done

let metrics () =
  [
    metric "vm.micro.rw_ns" "ns" (per_op ~n:40_000 read_write);
    metric "vm.micro.lock_ns" "ns" (per_op ~n:20_000 lock_unlock);
    metric "vm.micro.spawn_join_ns" "ns" (per_op ~n:2_000 spawn_join);
  ]
