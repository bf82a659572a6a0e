(* Extension tests: transitive closure (naive vs semi-naive agreement,
   cycles, reachability) and the partition kernel Exchange fragments
   its inputs with. *)

open Mxra_relational
open Mxra_core
open Mxra_ext
module W = Mxra_workload

let edge_schema = Schema.of_list [ ("src", Domain.DInt); ("dst", Domain.DInt) ]
let edge a b = Tuple.of_list [ Value.Int a; Value.Int b ]
let graph edges = Relation.of_list edge_schema (List.map (fun (a, b) -> edge a b) edges)

(* --- closure -------------------------------------------------------------- *)

let test_closure_chain () =
  let r = Closure.closure (graph [ (1, 2); (2, 3); (3, 4) ]) in
  Alcotest.(check int) "all 6 pairs" 6 (Relation.cardinal r);
  Alcotest.(check int) "transitive pair" 1 (Relation.multiplicity (edge 1 4) r);
  Alcotest.(check int) "no reverse pair" 0 (Relation.multiplicity (edge 4 1) r)

let test_closure_cycle_terminates () =
  let r = Closure.closure (graph [ (1, 2); (2, 3); (3, 1) ]) in
  (* On a 3-cycle every ordered pair including self-loops is reachable. *)
  Alcotest.(check int) "9 pairs on a 3-cycle" 9 (Relation.cardinal r);
  Alcotest.(check int) "self loop derived" 1 (Relation.multiplicity (edge 1 1) r)

let test_closure_set_semantics () =
  (* Duplicate edges in the input do not create duplicate pairs. *)
  let input = Relation.of_counted_list edge_schema [ (edge 1 2, 5) ] in
  let r = Closure.closure input in
  Alcotest.(check int) "multiplicity 1" 1 (Relation.multiplicity (edge 1 2) r)

let test_closure_naive_agrees () =
  let rng = W.Rng.make 11 in
  for _ = 1 to 20 do
    let g = W.Synth.chain_relation ~rng ~nodes:12 ~extra_edges:8 in
    Alcotest.(check bool) "naive = semi-naive" true
      (Relation.equal (Closure.closure g) (Closure.closure_naive g))
  done

let test_closure_reachable_and_iterations () =
  let g = graph [ (1, 2); (2, 3); (5, 6) ] in
  Alcotest.(check (list bool)) "reachable from 1"
    [ true; true ]
    (List.map
       (fun v -> List.exists (Value.equal (Value.Int v)) (Closure.reachable g (Value.Int 1)))
       [ 2; 3 ]);
  Alcotest.(check bool) "6 not reachable from 1" false
    (List.exists (Value.equal (Value.Int 6)) (Closure.reachable g (Value.Int 1)));
  Alcotest.(check bool) "chain depth logarithmic-ish rounds" true
    (Closure.iterations (W.Synth.chain_relation ~rng:(W.Rng.make 3) ~nodes:16 ~extra_edges:0) <= 16)

let test_closure_rejects_non_binary () =
  let bad = Relation.empty (Schema.of_list [ ("a", Domain.DInt) ]) in
  Alcotest.(check bool) "unary rejected" true
    (match Closure.closure bad with
    | _ -> false
    | exception Closure.Not_binary _ -> true);
  let mixed = Relation.empty (Schema.of_list [ ("a", Domain.DInt); ("b", Domain.DStr) ]) in
  Alcotest.(check bool) "mixed domains rejected" true
    (match Closure.closure mixed with
    | _ -> false
    | exception Closure.Not_binary _ -> true)

let test_closure_expr () =
  let db = Database.of_relations [ ("g", graph [ (1, 2); (2, 3) ]) ] in
  let r = Closure.closure_expr (Expr.rel "g") db in
  Alcotest.(check int) "closure of expression" 3 (Relation.cardinal r)

(* --- the partition kernel ------------------------------------------------ *)

module Exec = Mxra_engine.Exec

let rng = W.Rng.make 99
let rows_of r = Array.of_seq (Relation.Bag.to_counted_seq (Relation.bag r))

let sorted rows =
  List.sort
    (fun (t1, n1) (t2, n2) ->
      match Tuple.compare t1 t2 with 0 -> Int.compare n1 n2 | c -> c)
    (Array.to_list rows)

(* The bucket index of every row, in bucket order. *)
let bucket_of buckets =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun i b -> List.map (fun (t, _) -> (t, i)) (Array.to_list b))
          buckets))

let test_partition_reconstruction () =
  for parts = 1 to 5 do
    let rows = rows_of (W.Synth.two_column_int ~rng ~size:60 ~distinct:10) in
    List.iter
      (fun keys ->
        let buckets = Exec.partition ~parts ~keys rows in
        Alcotest.(check int) "one bucket per part" parts (Array.length buckets);
        Alcotest.(check bool)
          (Printf.sprintf "buckets are a permutation of the input (p=%d)" parts)
          true
          (sorted (Array.concat (Array.to_list buckets)) = sorted rows))
      [ [ 1 ]; [ 2; 1 ] ]
  done;
  Alcotest.check_raises "no parts"
    (Invalid_argument "Exec.partition: parts <= 0")
    (fun () -> ignore (Exec.partition ~parts:0 ~keys:[ 1 ] [||]))

let test_partition_locality () =
  let rows = rows_of (W.Synth.two_column_int ~rng ~size:200 ~distinct:12) in
  List.iter
    (fun keys ->
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (t, i) ->
          let key = Tuple.project keys t in
          match Hashtbl.find_opt seen key with
          | Some j ->
              Alcotest.(check int) "equal keys share a bucket" j i
          | None -> Hashtbl.add seen key i)
        (bucket_of (Exec.partition ~parts:4 ~keys rows)))
    [ [ 1 ]; [ 2 ]; [ 1; 2 ] ]

(* Co-partitioning: rows of two differently shaped inputs whose key
   values agree get the same bucket index, whatever the key positions. *)
let partition_alignment =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"equal key values, equal bucket across inputs"
       ~count:200
       QCheck.(pair (int_range 1 8) (small_list (pair small_int small_int)))
       (fun (parts, pairs) ->
         let row n vs = (Tuple.of_list (List.map (fun i -> Value.Int i) vs), n) in
         let left =
           Array.of_list (List.map (fun (k, v) -> row 1 [ k; v ]) pairs)
         in
         let right =
           Array.of_list (List.map (fun (k, v) -> row 2 [ 0; v; k ]) pairs)
         in
         let lb = bucket_of (Exec.partition ~parts ~keys:[ 1; 2 ] left) in
         let rb = bucket_of (Exec.partition ~parts ~keys:[ 3; 2 ] right) in
         List.for_all
           (fun (lt, i) ->
             List.for_all
               (fun (rt, j) ->
                 i = j
                 || not
                      (Tuple.equal (Tuple.project [ 1; 2 ] lt)
                         (Tuple.project [ 3; 2 ] rt)))
               rb)
           lb))

let test_partition_skew () =
  (* A single hot key puts every row in one bucket, so the fragments
     allow no speedup at all; balanced keys approach the part count. *)
  let skewed =
    Array.init 40 (fun i -> (Tuple.of_list [ Value.Int 0; Value.Int i ], 1))
  in
  let buckets = Exec.partition ~parts:4 ~keys:[ 1 ] skewed in
  Alcotest.(check int) "one bucket holds every row" 40
    (Array.fold_left (fun acc b -> max acc (Array.length b)) 0 buckets);
  Alcotest.(check (float 1e-9)) "hot key kills parallelism" 1.0
    (Exec.work_balance buckets);
  let balanced =
    rows_of (W.Synth.two_column_int ~rng ~size:4000 ~distinct:64)
  in
  Alcotest.(check bool) "balanced keys parallelise" true
    (Exec.work_balance (Exec.partition ~parts:4 ~keys:[ 1 ] balanced) > 2.0)

let suite =
  ( "ext",
    [
      Alcotest.test_case "closure of a chain" `Quick test_closure_chain;
      Alcotest.test_case "closure terminates on cycles" `Quick
        test_closure_cycle_terminates;
      Alcotest.test_case "closure has set semantics" `Quick test_closure_set_semantics;
      Alcotest.test_case "naive = semi-naive" `Quick test_closure_naive_agrees;
      Alcotest.test_case "reachability and iterations" `Quick
        test_closure_reachable_and_iterations;
      Alcotest.test_case "non-binary inputs rejected" `Quick
        test_closure_rejects_non_binary;
      Alcotest.test_case "closure of an expression" `Quick test_closure_expr;
      Alcotest.test_case "partition reconstruction" `Quick
        test_partition_reconstruction;
      Alcotest.test_case "partition locality" `Quick test_partition_locality;
      partition_alignment;
      Alcotest.test_case "partition skew and work balance" `Quick
        test_partition_skew;
    ] )
