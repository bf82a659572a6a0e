(* The extensions from the paper's conclusions: PRISMA-style parallel
   operators (Exchange plans over hash-partitioned fragments) and the
   transitive closure operator, on a flight-network scenario.

     dune exec examples/parallel_and_closure.exe *)

open Mxra_relational
open Mxra_core
open Mxra_ext
module Engine = Mxra_engine
module W = Mxra_workload

let () =
  let rng = W.Rng.make 99 in

  (* --- parallel operators --------------------------------------------- *)
  let sales = W.Synth.two_column_int ~rng ~size:100_000 ~distinct:512 in
  Format.printf "sales: %d tuples, %d distinct@.@." (Relation.cardinal sales)
    (Relation.support_size sales);
  let rows r = Array.of_seq (Relation.Bag.to_counted_seq (Relation.bag r)) in
  let largest buckets =
    Array.fold_left (fun acc b -> max acc (Array.length b)) 0 buckets
  in

  (* An Exchange partitions Γ's input on the grouping attribute; the
     bucket sizes bound the speedup its fragments allow. *)
  Format.printf "partitioning Γ region → SUM by fragment count:@.";
  List.iter
    (fun parts ->
      let buckets = Engine.Exec.partition ~parts ~keys:[ 1 ] (rows sales) in
      Format.printf
        "  p=%2d  largest bucket=%6d rows  work-balance speedup=%.2fx@." parts
        (largest buckets)
        (Engine.Exec.work_balance buckets))
    [ 1; 2; 4; 8; 16 ];

  (* Skew breaks it: a Zipf-heavy key column concentrates the work.  Each
     row carries its own sequence number, so no two rows collapse into
     one counted tuple and every row is a unit of fragment work. *)
  let zipf = W.Zipf.make ~n:512 ~s:1.3 in
  let skewed =
    Relation.of_list
      (Schema.of_list [ ("k", Domain.DInt); ("seq", Domain.DInt) ])
      (List.init 50_000 (fun i ->
           Tuple.of_list [ Value.Int (W.Zipf.sample zipf rng); Value.Int i ]))
  in
  Format.printf
    "@.same with a Zipf(1.3) key column, p=8: speedup only %.2fx@.@."
    (Engine.Exec.work_balance
       (Engine.Exec.partition ~parts:8 ~keys:[ 1 ] (rows skewed)));

  (* Correctness is never at stake: the plan with an Exchange over every
     eligible operator computes the sequential plan's bag (tested; shown
     here once). *)
  let db = Database.of_relations [ ("skewed", skewed) ] in
  let q = Expr.group_by [ 1 ] [ (Aggregate.Cnt, 1) ] (Expr.rel "skewed") in
  let parallel =
    Engine.Planner.plan ~jobs:8 ~cores:8 ~parallel_threshold:0 db q
  in
  Format.printf "%a@." Engine.Physical.pp parallel;
  Format.printf "Exchange result = sequential result: %b@.@."
    (Relation.equal
       (Engine.Exec.run db (Engine.Planner.plan db q))
       (Engine.Exec.run db parallel));

  (* --- transitive closure ---------------------------------------------- *)
  let flight_schema =
    Schema.of_list [ ("from", Domain.DStr); ("to", Domain.DStr) ]
  in
  let hop a b = Tuple.of_list [ Value.Str a; Value.Str b ] in
  let flights =
    Relation.of_list flight_schema
      [
        hop "AMS" "LHR"; hop "LHR" "JFK"; hop "JFK" "SFO";
        hop "AMS" "CDG"; hop "CDG" "JFK"; hop "SFO" "NRT";
        hop "NRT" "SYD"; hop "BRU" "AMS";
      ]
  in
  Format.printf "direct flights:@.%a@.@." Relation.pp_table flights;
  let reachable = Closure.closure flights in
  Format.printf "reachable city pairs (α, transitive closure): %d@.@."
    (Relation.cardinal reachable);
  Format.printf "reachable from AMS: %s@.@."
    (String.concat ", "
       (List.map Value.to_string (Closure.reachable flights (Value.Str "AMS"))));

  (* Closure composes with the algebra: reachability over a *selected*
     subnetwork (drop transatlantic hops via JFK). *)
  let no_jfk =
    Expr.select
      (Pred.And
         (Pred.ne (Scalar.attr 1) (Scalar.str "JFK"),
          Pred.ne (Scalar.attr 2) (Scalar.str "JFK")))
      (Expr.const flights)
  in
  let reduced = Closure.closure_expr no_jfk Database.empty in
  Format.printf "pairs without JFK connections: %d@.@."
    (Relation.cardinal reduced);

  (* Scaling: semi-naive vs naive on a growing random DAG. *)
  Format.printf "closure scaling (random DAGs):@.";
  List.iter
    (fun nodes ->
      let g = W.Synth.chain_relation ~rng ~nodes ~extra_edges:nodes in
      let t0 = Unix.gettimeofday () in
      let c = Closure.closure g in
      let semi = (Unix.gettimeofday () -. t0) *. 1000.0 in
      let t0 = Unix.gettimeofday () in
      ignore (Closure.closure_naive g);
      let naive = (Unix.gettimeofday () -. t0) *. 1000.0 in
      Format.printf
        "  n=%4d  edges=%5d  closure=%7d pairs  semi-naive %.1f ms  naive %.1f ms@."
        nodes (Relation.cardinal g) (Relation.cardinal c) semi naive)
    [ 50; 100; 200; 400 ]
