(* Unit and property tests for raceguard_util. *)

module Rng = Raceguard_util.Rng
module Iss = Raceguard_util.Int_sorted_set
module Growvec = Raceguard_util.Growvec
module Loc = Raceguard_util.Loc
module Table = Raceguard_util.Table

let test_rng_deterministic () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let la = List.init 16 (fun _ -> Rng.next a) in
  let lb = List.init 16 (fun _ -> Rng.next b) in
  Alcotest.(check bool) "different seeds differ" true (la <> lb)

let test_rng_bounds () =
  let r = Rng.create ~seed:99 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in_range r ~lo:(-3) ~hi:4 in
    Alcotest.(check bool) "in [-3,4]" true (v >= -3 && v <= 4)
  done

let test_rng_nonnegative () =
  (* regression: Int64->int truncation used to produce negatives *)
  let r = Rng.create ~seed:42 in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "next >= 0" true (Rng.next r >= 0)
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:5 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle_in_place r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_split_independent () =
  let r = Rng.create ~seed:7 in
  let s = Rng.split r in
  let a = List.init 8 (fun _ -> Rng.next r) in
  let b = List.init 8 (fun _ -> Rng.next s) in
  Alcotest.(check bool) "split streams differ" true (a <> b)

(* The boxed-[int64] splitmix64 that [Rng] used before its state moved
   into bytes: the oracle every stream must still match exactly, since
   recorded schedules and pinned digests depend on it. *)
module Boxed_rng = struct
  type t = { mutable state : int64 }

  let create ~seed = { state = Int64.of_int seed }
  let copy t = { state = t.state }

  let next_int64 t =
    let open Int64 in
    t.state <- add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let next t = Int64.to_int (next_int64 t) land max_int
  let int t bound = next t mod bound
  let bool t = Int64.logand (next_int64 t) 1L = 1L
  let split t = { state = Int64.logxor (next_int64 t) 0xD1B54A32D192ED03L }
end

type rng_op = Next | Int of int | Bool | Split | Copy

let rng_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, pure Next);
        (4, map (fun b -> Int b) (oneof [ int_range 1 1000; int_range 1 max_int ]));
        (2, pure Bool);
        (1, pure Split);
        (1, pure Copy);
      ])

let seed_gen = QCheck2.Gen.(frequency [ (1, oneofl [ 0; -1; min_int; max_int ]); (3, int) ])

(* Run [ops] on a growing pool of (Rng, oracle) pairs: [Split] and
   [Copy] add the derived pair, and op [i] acts on pair [i mod size],
   so parents, children and copies are all exercised after deriving. *)
let qc_rng_oracle =
  QCheck2.Test.make ~name:"rng streams equal the boxed splitmix64 oracle" ~count:300
    QCheck2.Gen.(pair seed_gen (list_size (int_range 1 200) rng_op_gen))
    (fun (seed, ops) ->
      let pool = Growvec.create ~dummy:(Rng.create ~seed:0, Boxed_rng.create ~seed:0) in
      ignore (Growvec.push pool (Rng.create ~seed, Boxed_rng.create ~seed));
      List.iteri
        (fun i op ->
          let r, o = Growvec.get pool (i mod Growvec.length pool) in
          match op with
          | Next -> if Rng.next r <> Boxed_rng.next o then QCheck2.Test.fail_reportf "next, op %d" i
          | Int b ->
              if Rng.int r b <> Boxed_rng.int o b then QCheck2.Test.fail_reportf "int %d, op %d" b i
          | Bool -> if Rng.bool r <> Boxed_rng.bool o then QCheck2.Test.fail_reportf "bool, op %d" i
          | Split -> ignore (Growvec.push pool (Rng.split r, Boxed_rng.split o))
          | Copy -> ignore (Growvec.push pool (Rng.copy r, Boxed_rng.copy o)))
        ops;
      (* every stream, derived or not, still agrees past the script *)
      Growvec.iter
        (fun (r, o) ->
          for _ = 1 to 4 do
            if Rng.next r <> Boxed_rng.next o then QCheck2.Test.fail_report "tail of a stream"
          done)
        pool;
      true)

let test_iss_basics () =
  let s = Iss.of_list [ 3; 1; 2; 3; 1 ] in
  Alcotest.(check int) "dedup" 3 (Iss.cardinal s);
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Iss.to_list s);
  Alcotest.(check bool) "mem" true (Iss.mem 2 s);
  Alcotest.(check bool) "not mem" false (Iss.mem 4 s);
  let s' = Iss.add 0 s in
  Alcotest.(check (list int)) "add front" [ 0; 1; 2; 3 ] (Iss.to_list s');
  let s'' = Iss.remove 2 s' in
  Alcotest.(check (list int)) "remove" [ 0; 1; 3 ] (Iss.to_list s'');
  Alcotest.(check bool) "add existing is same" true (Iss.equal s (Iss.add 2 s))

let test_iss_inter () =
  let a = Iss.of_list [ 1; 2; 3; 5; 8 ] and b = Iss.of_list [ 2; 3; 4; 8; 9 ] in
  Alcotest.(check (list int)) "inter" [ 2; 3; 8 ] (Iss.to_list (Iss.inter a b));
  Alcotest.(check bool) "inter empty" true (Iss.is_empty (Iss.inter a Iss.empty));
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4; 5; 8; 9 ] (Iss.to_list (Iss.union a b))

(* property: Iss behaves like Stdlib Set over small ints *)
module IS = Set.Make (Int)

let ints_gen = QCheck2.Gen.(list_size (int_bound 12) (int_bound 20))

let qc_iss_model =
  QCheck2.Test.make ~name:"Int_sorted_set models Stdlib.Set" ~count:500
    QCheck2.Gen.(pair ints_gen ints_gen)
    (fun (la, lb) ->
      let sa = Iss.of_list la and sb = Iss.of_list lb in
      let ma = IS.of_list la and mb = IS.of_list lb in
      Iss.to_list (Iss.inter sa sb) = IS.elements (IS.inter ma mb)
      && Iss.to_list (Iss.union sa sb) = IS.elements (IS.union ma mb)
      && List.for_all (fun x -> Iss.mem x sa = IS.mem x ma) (la @ lb)
      && Iss.subset sa (Iss.union sa sb))

let qc_iss_inter_laws =
  QCheck2.Test.make ~name:"intersection is commutative/associative/idempotent" ~count:300
    QCheck2.Gen.(triple ints_gen ints_gen ints_gen)
    (fun (la, lb, lc) ->
      let a = Iss.of_list la and b = Iss.of_list lb and c = Iss.of_list lc in
      Iss.equal (Iss.inter a b) (Iss.inter b a)
      && Iss.equal (Iss.inter a (Iss.inter b c)) (Iss.inter (Iss.inter a b) c)
      && Iss.equal (Iss.inter a a) a)

let test_growvec () =
  let v = Growvec.create ~dummy:0 in
  Alcotest.(check int) "empty" 0 (Growvec.length v);
  for i = 0 to 99 do
    Alcotest.(check int) "push index" i (Growvec.push v (i * 2))
  done;
  Alcotest.(check int) "length" 100 (Growvec.length v);
  Alcotest.(check int) "get" 84 (Growvec.get v 42);
  Growvec.set v 42 7;
  Alcotest.(check int) "set" 7 (Growvec.get v 42);
  Alcotest.(check int) "fold" (List.length (Growvec.to_list v))
    (Growvec.fold (fun n _ -> n + 1) 0 v);
  Alcotest.check_raises "oob get" (Invalid_argument "Growvec.get: index out of bounds")
    (fun () -> ignore (Growvec.get v 100));
  Growvec.clear v;
  Alcotest.(check int) "clear" 0 (Growvec.length v)

let test_loc () =
  let a = Loc.v "f.c" "g" 3 and b = Loc.v "f.c" "g" 3 and c = Loc.v "f.c" "g" 4 in
  Alcotest.(check bool) "equal" true (Loc.equal a b);
  Alcotest.(check bool) "not equal" false (Loc.equal a c);
  Alcotest.(check int) "hash stable" (Loc.hash a) (Loc.hash b);
  Alcotest.(check string) "pp" "g (f.c:3)" (Loc.to_string a);
  Alcotest.(check int) "compare refl" 0 (Loc.compare a b);
  Alcotest.(check bool) "ordering antisym" true (Loc.compare a c = -Loc.compare c a)

let test_table () =
  let t =
    Table.create ~headers:[ "name"; "n" ] ~aligns:[ Table.Left; Table.Right ] ()
  in
  let t = Table.add_row t [ "alpha"; "1" ] in
  let t = Table.add_row t [ "b"; "100" ] in
  let rendered = Table.render t in
  Alcotest.(check bool) "contains rows" true
    (String.length rendered > 0
    && List.length (String.split_on_char '\n' rendered) = 4);
  Alcotest.check_raises "row arity" (Invalid_argument "Table.add_row: row length mismatch")
    (fun () -> ignore (Table.add_row t [ "only-one" ]))

let test_stacked_bars () =
  let s =
    Table.render_stacked_bars ~title:"t" ~segments:[ ("a", '#'); ("b", '+') ]
      ~rows:[ ("r1", [ 10; 5 ]); ("r2", [ 0; 20 ]) ]
      ~max_width:40
  in
  Alcotest.(check bool) "mentions legend" true
    (String.length s > 0 && String.index_opt s '#' <> None)

let suite =
  ( "util",
    [
      Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
      Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
      Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
      Alcotest.test_case "rng non-negative" `Quick test_rng_nonnegative;
      Alcotest.test_case "rng shuffle is a permutation" `Quick test_rng_shuffle_permutation;
      Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
      QCheck_alcotest.to_alcotest qc_rng_oracle;
      Alcotest.test_case "sorted set basics" `Quick test_iss_basics;
      Alcotest.test_case "sorted set inter/union" `Quick test_iss_inter;
      QCheck_alcotest.to_alcotest qc_iss_model;
      QCheck_alcotest.to_alcotest qc_iss_inter_laws;
      Alcotest.test_case "growvec" `Quick test_growvec;
      Alcotest.test_case "loc" `Quick test_loc;
      Alcotest.test_case "table rendering" `Quick test_table;
      Alcotest.test_case "stacked bars" `Quick test_stacked_bars;
    ] )
