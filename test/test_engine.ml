(* Engine tests: statistics, cardinality estimation, planner algorithm
   selection, and the central contract that physical execution equals the
   reference evaluator on arbitrary expressions and databases. *)

open Mxra_relational
open Mxra_core
open Mxra_engine
module W = Mxra_workload

let s_kv = Schema.of_list [ ("k", Domain.DInt); ("v", Domain.DInt) ]
let tup a b = Tuple.of_list [ Value.Int a; Value.Int b ]

let db =
  Database.of_relations
    [
      ("l", Relation.of_counted_list s_kv [ (tup 1 10, 2); (tup 2 20, 1); (tup 3 30, 1) ]);
      ("r", Relation.of_counted_list s_kv [ (tup 1 100, 3); (tup 3 300, 1); (tup 9 900, 1) ]);
    ]

(* --- stats -------------------------------------------------------------- *)

let test_stats () =
  let s = Stats.of_relation (Database.find "l" db) in
  Alcotest.(check int) "cardinality" 4 s.Stats.cardinality;
  Alcotest.(check int) "support" 3 s.Stats.support;
  Alcotest.(check int) "ndv column 1" 3 (Stats.column s 1).Stats.distinct;
  Alcotest.(check bool) "min value" true
    (match (Stats.column s 1).Stats.min_value with
    | Some v -> Value.equal v (Value.Int 1)
    | None -> false);
  Alcotest.(check (float 1e-9)) "dup factor" (4.0 /. 3.0) (Stats.dup_factor s)

let test_histograms () =
  let s = Stats.of_relation (Database.find "l" db) in
  (* l = {(1,10):2, (2,20), (3,30)}: 4 tuples. *)
  Alcotest.(check (option (float 1e-9))) "fraction below 2 on k" (Some 0.5)
    (Stats.fraction_below s 1 2.0);
  Alcotest.(check (option (float 1e-9))) "fraction eq 1 on k" (Some 0.5)
    (Stats.fraction_eq s 1 1.0);
  Alcotest.(check (option (float 1e-9))) "fraction below min" (Some 0.0)
    (Stats.fraction_below s 1 1.0);
  Alcotest.(check (option (float 1e-9))) "fraction below above max" (Some 1.0)
    (Stats.fraction_below s 1 99.0);
  Alcotest.(check (option (float 1e-9))) "eq on absent value" (Some 0.0)
    (Stats.fraction_eq s 1 7.0);
  (* Non-numeric columns have no histogram. *)
  let str_rel =
    Relation.of_list (Schema.of_list [ ("s", Domain.DStr) ])
      [ Tuple.of_list [ Value.Str "x" ] ]
  in
  Alcotest.(check (option (float 1e-9))) "no histogram for strings" None
    (Stats.fraction_below (Stats.of_relation str_rel) 1 0.0)

let test_stats_empty () =
  let s = Stats.of_relation (Relation.empty s_kv) in
  Alcotest.(check int) "cardinality" 0 s.Stats.cardinality;
  Alcotest.(check (float 1e-9)) "dup factor of empty" 1.0 (Stats.dup_factor s);
  Alcotest.(check bool) "no min" true ((Stats.column s 1).Stats.min_value = None)

(* Out-of-range attributes get [Stats.column]'s documented error from
   every accessor, not the stdlib's bare array-bounds message. *)
let test_stats_out_of_range () =
  let s = Stats.of_relation (Database.find "l" db) in
  List.iter
    (fun i ->
      let error = Invalid_argument (Printf.sprintf "Stats.column: index %%%d out of range" i) in
      Alcotest.check_raises "fraction_below" error (fun () ->
          ignore (Stats.fraction_below s i 1.0));
      Alcotest.check_raises "fraction_eq" error (fun () ->
          ignore (Stats.fraction_eq s i 1.0)))
    [ 0; 3 ]

(* The oracle: statistics as a Set of distinct values, two running
   extremes and a Map from value to tuple count per column, tuple by
   tuple -- the formulation [Stats.of_relation] replaced, kept literal. *)
module VSet = Set.Make (Value)
module VMap = Map.Make (Value)

let reference_stats r =
  let arity = Schema.arity (Relation.schema r) in
  let seen = Array.make arity VSet.empty in
  let counts = Array.make arity VMap.empty in
  let lo = Array.make arity None and hi = Array.make arity None in
  let update_extremum slot better v =
    match slot with
    | None -> Some v
    | Some w -> if better (Value.compare v w) then Some v else Some w
  in
  let numeric = Array.map Domain.is_numeric (Array.of_list (Schema.domains (Relation.schema r))) in
  Relation.Bag.iter
    (fun tuple count ->
      for i = 0 to arity - 1 do
        let v = Tuple.attr tuple (i + 1) in
        seen.(i) <- VSet.add v seen.(i);
        lo.(i) <- update_extremum lo.(i) (fun c -> c < 0) v;
        hi.(i) <- update_extremum hi.(i) (fun c -> c > 0) v;
        if numeric.(i) then
          counts.(i) <-
            VMap.update v
              (function None -> Some count | Some n -> Some (n + count))
              counts.(i)
      done)
    (Relation.bag r);
  let cumulative_of i =
    if not numeric.(i) then [||]
    else begin
      let running = ref 0 in
      VMap.bindings counts.(i)
      |> List.map (fun (v, n) ->
             running := !running + n;
             (Value.as_float v, !running))
      |> Array.of_list
    end
  in
  {
    Stats.cardinality = Relation.cardinal r;
    support = Relation.support_size r;
    columns =
      Array.init arity (fun i ->
          {
            Stats.distinct = VSet.cardinal seen.(i);
            min_value = lo.(i);
            max_value = hi.(i);
            cumulative = cumulative_of i;
          });
  }

(* Bit-for-bit: floats are compared by their bits, so -0.0 differs
   from 0.0 and one nan from another. *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> same_float x y
  | _ -> Value.compare a b = 0

let same_stats (a : Stats.t) (b : Stats.t) =
  let same_column (c : Stats.column) (d : Stats.column) =
    c.distinct = d.distinct
    && Option.equal same_value c.min_value d.min_value
    && Option.equal same_value c.max_value d.max_value
    && Array.length c.cumulative = Array.length d.cumulative
    && Array.for_all2
         (fun (x, n) (y, m) -> same_float x y && n = m)
         c.cumulative d.cumulative
  in
  a.cardinality = b.cardinality
  && a.support = b.support
  && Array.length a.columns = Array.length b.columns
  && Array.for_all2 same_column a.columns b.columns

(* Random relations over all four domains, with multiplicities above 1,
   the empty relation, both zeros, nans of different bits and the
   integer extremes. *)
let gen_stats_relation =
  let open QCheck.Gen in
  let nan_payload = Int64.float_of_bits 0x7FF0000000000001L in
  let value = function
    | Domain.DInt ->
        oneof
          [ map (fun n -> Value.Int n) (int_range (-4) 4);
            oneofl [ Value.Int min_int; Value.Int max_int; Value.Int (max_int - 1) ] ]
    | Domain.DFloat ->
        oneof
          [ map (fun n -> Value.Float (float_of_int n /. 2.0)) (int_range (-4) 4);
            oneofl
              (List.map (fun f -> Value.Float f)
                 [ 0.0; -0.0; Float.nan; -.Float.nan; nan_payload; infinity;
                   neg_infinity; Float.max_float; float_of_int max_int ]) ]
    | Domain.DStr -> map (fun s -> Value.Str s) (oneofl [ ""; "a"; "b"; "ab"; "it's" ])
    | Domain.DBool -> map (fun b -> Value.Bool b) bool
  in
  int_range 1 4 >>= fun arity ->
  list_repeat arity (oneofl Domain.[ DInt; DFloat; DStr; DBool ]) >>= fun domains ->
  let schema = Schema.of_list (List.mapi (fun i d -> (Printf.sprintf "a%d" i, d)) domains) in
  let tuple = map Tuple.of_list (flatten_l (List.map value domains)) in
  map
    (Relation.of_counted_list schema)
    (oneof [ return []; small_list (pair tuple (int_range 1 3)) ])

let stats_match_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"statistics = Set/Map reference, bit for bit"
       ~count:500
       (QCheck.make gen_stats_relation ~print:Relation.to_string)
       (fun r -> same_stats (Stats.of_relation r) (reference_stats r)))

let test_stats_retail_reference () =
  let retail =
    W.Retail.generate ~rng:(W.Rng.make 11) ~customers:40 ~orders:300 ()
  in
  List.iter
    (fun db ->
      List.iter
        (fun name ->
          let r = Database.find name db in
          Alcotest.(check bool) name true
            (same_stats (Stats.of_relation r) (reference_stats r)))
        (Database.relation_names db))
    [ retail; W.Beer.tiny ]

(* --- cost model ---------------------------------------------------------- *)

let stats = Stats.env_of_database db
let schemas = Typecheck.env_of_database db

let test_cost_basics () =
  let card e = Cost.estimate_cardinality ~stats ~schemas e in
  Alcotest.(check (float 1e-6)) "base relation exact" 4.0 (card (Expr.rel "l"));
  Alcotest.(check (float 1e-6)) "product multiplies" 20.0
    (card (Expr.product (Expr.rel "l") (Expr.rel "r")));
  let sel =
    card (Expr.select (Pred.eq (Scalar.attr 1) (Scalar.int 1)) (Expr.rel "l"))
  in
  (* (1,10) has multiplicity 2 of 4 tuples: the histogram is exact. *)
  Alcotest.(check (float 1e-6)) "equality uses the histogram (exact)" 2.0 sel;
  let join_card =
    card
      (Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "l")
         (Expr.rel "r"))
  in
  Alcotest.(check bool) "join below product" true (join_card < 20.0)

let test_cost_monotone_in_pipeline () =
  (* Cost of σ(l × r) strictly exceeds cost of the fused join: the
     product materialises 20 tuples the join never produces. *)
  let p = Pred.eq (Scalar.attr 1) (Scalar.attr 3) in
  let product_form = Expr.select p (Expr.product (Expr.rel "l") (Expr.rel "r")) in
  let join_form = Expr.join p (Expr.rel "l") (Expr.rel "r") in
  Alcotest.(check bool) "join cheaper than selected product" true
    (Cost.cost ~stats ~schemas join_form < Cost.cost ~stats ~schemas product_form)

let test_selectivity () =
  let profile = Cost.profile ~stats ~schemas (Expr.rel "l") in
  Alcotest.(check (float 1e-6)) "true" 1.0 (Cost.selectivity profile Pred.True);
  Alcotest.(check (float 1e-6)) "false" 0.0 (Cost.selectivity profile Pred.False);
  let eq = Cost.selectivity profile (Pred.eq (Scalar.attr 1) (Scalar.int 1)) in
  Alcotest.(check (float 1e-6)) "equality histogram-exact" 0.5 eq;
  let range = Cost.selectivity profile (Pred.lt (Scalar.attr 2) (Scalar.int 25)) in
  (* values 10 (x2) and 20 are < 25: 3 of 4 tuples. *)
  Alcotest.(check (float 1e-6)) "range histogram-exact" 0.75 range;
  let flipped = Cost.selectivity profile (Pred.gt (Scalar.int 25) (Scalar.attr 2)) in
  Alcotest.(check (float 1e-6)) "mirrored comparison" 0.75 flipped;
  let conj =
    Cost.selectivity profile
      (Pred.And
         (Pred.eq (Scalar.attr 1) (Scalar.int 1),
          Pred.lt (Scalar.attr 2) (Scalar.int 50)))
  in
  Alcotest.(check (float 1e-6)) "conjunction multiplies" 0.5 conj;
  (* Attribute-vs-attribute comparisons still fall back to heuristics. *)
  let heur = Cost.selectivity profile (Pred.lt (Scalar.attr 1) (Scalar.attr 2)) in
  Alcotest.(check (float 1e-6)) "attr-attr heuristic" (1.0 /. 3.0) heur

(* --- planner -------------------------------------------------------------- *)

let test_join_keys () =
  let p =
    Pred.conj
      [
        Pred.eq (Scalar.attr 1) (Scalar.attr 3);
        Pred.gt (Scalar.attr 2) (Scalar.int 5);
        Pred.eq (Scalar.attr 4) (Scalar.attr 2);
      ]
  in
  let keys, residual = Planner.join_keys ~left_arity:2 p in
  Alcotest.(check (list (pair int int))) "both equi pairs, right renumbered"
    [ (1, 1); (2, 2) ] keys;
  Alcotest.(check bool) "residual keeps the range conjunct" true
    (Pred.equal residual (Pred.gt (Scalar.attr 2) (Scalar.int 5)))

let test_planner_chooses_hash_join () =
  let e =
    Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "l") (Expr.rel "r")
  in
  (match Planner.plan db e with
  | Physical.Hash_join { left_keys = [ 1 ]; right_keys = [ 1 ]; left_arity = 2; _ } -> ()
  | other -> Alcotest.fail ("expected hash join, got " ^ Physical.to_string other));
  let theta =
    Expr.join (Pred.lt (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "l") (Expr.rel "r")
  in
  match Planner.plan db theta with
  | Physical.Nested_loop (_, _, _) -> ()
  | other -> Alcotest.fail ("expected nested loop, got " ^ Physical.to_string other)

let test_planner_fuses_selected_product () =
  let e =
    Expr.select (Pred.eq (Scalar.attr 1) (Scalar.attr 3))
      (Expr.product (Expr.rel "l") (Expr.rel "r"))
  in
  match Planner.plan db e with
  | Physical.Hash_join _ -> ()
  | other -> Alcotest.fail ("expected fused hash join, got " ^ Physical.to_string other)

let test_to_logical_roundtrip () =
  let e =
    Expr.join (Pred.eq (Scalar.attr 2) (Scalar.attr 3)) (Expr.rel "l") (Expr.rel "r")
  in
  let plan = Planner.plan db e in
  let back = Physical.to_logical plan in
  Alcotest.(check bool) "plan's logical image equivalent" true
    (Relation.equal (Eval.eval db e) (Eval.eval db back))

(* --- executor ------------------------------------------------------------- *)

let check_equal_relations msg r1 r2 =
  Alcotest.(check bool)
    (msg ^ ": " ^ Relation.to_string r1 ^ " vs " ^ Relation.to_string r2)
    true (Relation.equal r1 r2)

let test_exec_hash_join () =
  let e =
    Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "l") (Expr.rel "r")
  in
  check_equal_relations "hash join = reference"
    (Eval.eval db e) (Exec.run_expr db e);
  (* Multiplicities multiply across the join: l(1,10):2 × r(1,100):3 = 6. *)
  let joined = Exec.run_expr db e in
  Alcotest.(check int) "count product" 6
    (Relation.multiplicity
       (Tuple.of_list [ Value.Int 1; Value.Int 10; Value.Int 1; Value.Int 100 ])
       joined)

let test_exec_each_operator () =
  let cases =
    [
      ("union", Expr.union (Expr.rel "l") (Expr.rel "r"));
      ("diff", Expr.diff (Expr.rel "l") (Expr.rel "r"));
      ("intersect", Expr.intersect (Expr.rel "l") (Expr.rel "r"));
      ("product", Expr.product (Expr.rel "l") (Expr.rel "r"));
      ("select", Expr.select (Pred.gt (Scalar.attr 2) (Scalar.int 15)) (Expr.rel "l"));
      ("project", Expr.project_attrs [ 2; 1 ] (Expr.rel "l"));
      ( "extended projection",
        Expr.project [ Scalar.add (Scalar.attr 1) (Scalar.attr 2) ] (Expr.rel "l") );
      ("unique", Expr.unique (Expr.rel "l"));
      ( "theta join",
        Expr.join (Pred.lt (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "l") (Expr.rel "r") );
      ( "groupby",
        Expr.group_by [ 1 ] [ (Aggregate.Sum, 2); (Aggregate.Cnt, 1) ] (Expr.rel "l") );
      ("aggregate all", Expr.aggregate Aggregate.Max 2 (Expr.rel "l"));
    ]
  in
  List.iter
    (fun (name, e) ->
      check_equal_relations name (Eval.eval db e) (Exec.run_expr db e))
    cases

let test_exec_empty_aggregate () =
  let empty_db = Database.of_relations [ ("e", Relation.empty s_kv) ] in
  let cnt = Exec.run_expr empty_db (Expr.aggregate Aggregate.Cnt 1 (Expr.rel "e")) in
  Alcotest.(check int) "CNT over empty: one zero tuple" 1
    (Relation.multiplicity (Tuple.of_list [ Value.Int 0 ]) cnt);
  Alcotest.(check bool) "AVG over empty raises" true
    (match Exec.run_expr empty_db (Expr.aggregate Aggregate.Avg 1 (Expr.rel "e")) with
    | _ -> false
    | exception Aggregate.Undefined Aggregate.Avg -> true)

let moved db plan =
  Metrics.count
    (Metrics.counter (Exec.run_instrumented db plan).Exec.totals "tuples-moved")

let test_moved_totals () =
  let scan_moves = moved db (Planner.plan db (Expr.rel "l")) in
  Alcotest.(check int) "scan moves its support" 3 scan_moves;
  let p = Pred.eq (Scalar.attr 1) (Scalar.attr 3) in
  let join_plan = Planner.plan db (Expr.join p (Expr.rel "l") (Expr.rel "r")) in
  let product_plan =
    Physical.Filter
      (p, Physical.Cross_product (Physical.Seq_scan "l", Physical.Seq_scan "r"))
  in
  Alcotest.(check bool) "hash join moves fewer tuples than filtered product"
    true
    (moved db join_plan < moved db product_plan)

(* --- metrics and instrumented execution ----------------------------------- *)

let test_metrics_registry () =
  let c = Metrics.make_counter () in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "counter accumulates" 42 (Metrics.count c);
  let t = Metrics.make_timer () in
  Alcotest.(check int) "record returns the thunk's value" 7
    (Metrics.record t (fun () -> 7));
  Alcotest.(check bool) "time accumulated" true (Metrics.elapsed_ms t >= 0.0);
  Alcotest.(check bool) "record re-raises" true
    (match Metrics.record t (fun () -> failwith "boom") with
    | _ -> false
    | exception Failure _ -> true);
  let reg = Metrics.create () in
  Metrics.add (Metrics.counter reg "a") 3;
  Metrics.add (Metrics.counter reg "a") 4;
  Metrics.add_ms (Metrics.timer reg "b") 5.0;
  Alcotest.(check bool) "counter/timer name clash rejected" true
    (match Metrics.timer reg "a" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "dump in creation order" true
    (Metrics.dump reg = [ ("a", Metrics.Count 7); ("b", Metrics.Duration_ms 5.0) ]);
  let op = Metrics.make_op () in
  Metrics.set_detail op "x" 1;
  Metrics.set_detail op "y" 2;
  Metrics.set_detail op "x" 3;
  Alcotest.(check (list (pair string int))) "details: last write wins, order kept"
    [ ("y", 2); ("x", 3) ] (Metrics.details op)

let test_q_error () =
  Alcotest.(check (float 1e-9)) "overestimate" 2.0
    (Cost.q_error ~estimated:10.0 ~actual:5);
  Alcotest.(check (float 1e-9)) "underestimate" 2.0
    (Cost.q_error ~estimated:5.0 ~actual:10);
  Alcotest.(check (float 1e-9)) "exact" 1.0 (Cost.q_error ~estimated:7.0 ~actual:7);
  Alcotest.(check (float 1e-9)) "empty vs empty" 1.0
    (Cost.q_error ~estimated:0.0 ~actual:0);
  Alcotest.(check (float 1e-9)) "estimated empty, one actual row" 1.0
    (Cost.q_error ~estimated:0.2 ~actual:1)

let rec flatten_report (r : Exec.report) =
  r :: List.concat_map flatten_report r.Exec.inputs

let test_explain_analyze_two_join () =
  (* A 2-join query: every physical operator must carry estimated rows,
     actual rows and a q-error, and the root's actual rows must be the
     result's cardinality. *)
  let e =
    Expr.join
      (Pred.eq (Scalar.attr 3) (Scalar.attr 5))
      (Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "l")
         (Expr.rel "r"))
      (Expr.rel "l")
  in
  let a = Exec.explain_analyze db e in
  check_equal_relations "instrumented result = reference" (Eval.eval db e)
    a.Exec.result;
  let ops = flatten_report a.Exec.root in
  Alcotest.(check bool) "no estimate computed until one is read" true
    (List.for_all
       (fun (r : Exec.report) ->
         not (Lazy.is_val r.Exec.estimated_rows || Lazy.is_val r.Exec.q_error))
       ops);
  Alcotest.(check int) "one report line per operator"
    (Physical.size (Planner.plan db e))
    (List.length ops);
  List.iter
    (fun (r : Exec.report) ->
      Alcotest.(check bool)
        ("estimate positive at " ^ Physical.label r.Exec.node)
        true
        (Lazy.force r.Exec.estimated_rows >= 0.0);
      Alcotest.(check bool)
        ("q-error at least 1 at " ^ Physical.label r.Exec.node)
        true
        (Lazy.force r.Exec.q_error >= 1.0))
    ops;
  Alcotest.(check int) "root actual rows = result cardinality"
    (Relation.cardinal a.Exec.result)
    a.Exec.root.Exec.actual.Exec.out_rows;
  (* Both hash joins report their build-side gauges. *)
  let builds =
    List.filter
      (fun (r : Exec.report) ->
        List.mem_assoc "build" r.Exec.actual.Exec.details)
      ops
  in
  Alcotest.(check int) "two hash joins report build sizes" 2
    (List.length builds);
  (* The rendered report mentions every column of the pinned format. *)
  let text = Exec.analysis_to_string a in
  let contains needle =
    let n = String.length needle and m = String.length text in
    let rec at i = i + n <= m && (String.sub text i n = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report text contains " ^ needle) true
        (contains needle))
    [ "est="; "act="; "q="; "time="; "total:" ]

(* Records belong to plan positions, not to plan values: a subplan
   shared by two positions is two operators, each reporting its own
   rows — in the report tree and in the rendered EXPLAIN ANALYZE. *)
let test_shared_subplan_two_records () =
  let db = W.Beer.tiny in
  let s = Physical.Seq_scan "beer" in
  let a = Exec.run_instrumented db (Physical.Union_all (s, s)) in
  let rows (r : Exec.report) = r.Exec.actual.Exec.out_rows in
  Alcotest.(check (list int)) "each scan reports its own rows" [ 10; 10 ]
    (List.map rows a.Exec.root.Exec.inputs);
  Alcotest.(check int) "the union reports both" 20 (rows a.Exec.root);
  let lines = String.split_on_char '\n' (Exec.analysis_to_string a) in
  let scans =
    List.filter
      (fun l -> String.length l > 10 && String.sub l 0 10 = "  SeqScan ")
      lines
  in
  Alcotest.(check int) "two scan lines" 2 (List.length scans);
  List.iter
    (fun l ->
      Alcotest.(check bool) ("act=10 on " ^ l) true
        (List.exists (String.equal "act=10") (String.split_on_char ' ' l)))
    scans

(* A plan thousands of operators deep runs and reports in one walk per
   concern: every position gets a record, the report is as deep as the
   plan, and each Filter reports the rows that passed it. *)
let test_deep_filter_chain () =
  let db = W.Beer.tiny in
  let n = 20_000 in
  let strong = Pred.gt (Scalar.attr 3) (Scalar.Lit (Value.Float 5.0))
  and weak = Pred.gt (Scalar.attr 3) (Scalar.Lit (Value.Float 0.0)) in
  let rec chain k plan =
    if k = 0 then plan else chain (k - 1) (Physical.Filter (weak, plan))
  in
  let plan = chain (n - 1) (Physical.Filter (strong, Physical.Seq_scan "beer")) in
  let expected =
    Relation.cardinal (Eval.eval db (Expr.select strong (Expr.rel "beer")))
  in
  let a = Exec.run_instrumented db plan in
  Alcotest.(check int) "result" expected (Relation.cardinal a.Exec.result);
  Alcotest.(check int) "operators" (n + 1)
    (Metrics.count (Metrics.counter a.Exec.totals "operators"));
  let rec walk depth filters_ok (r : Exec.report) =
    let ok =
      match r.Exec.node with
      | Physical.Filter _ -> filters_ok && r.Exec.actual.Exec.out_rows = expected
      | _ -> filters_ok
    in
    match r.Exec.inputs with
    | [] -> (depth, ok)
    | [ input ] -> walk (depth + 1) ok input
    | _ -> Alcotest.fail "a chain node with two inputs"
  in
  let depth, filters_ok = walk 1 true a.Exec.root in
  Alcotest.(check int) "report depth" (n + 1) depth;
  Alcotest.(check bool) "every Filter's rows" true filters_ok

(* Satellite: instrumentation must not perturb bag semantics, including
   δ/Γ duplicate handling — for random well-typed expressions the
   instrumented run equals the reference evaluator and the
   uninstrumented engine. *)
let instrumented_matches_reference =
  let test seed =
    let scen = W.Gen_expr.scenario ~seed ~depth:4 in
    let db = scen.W.Gen_expr.db and e = scen.W.Gen_expr.expr in
    let reference = Eval.eval db e in
    let plain = Exec.run_expr db e in
    let a = Exec.run_instrumented db (Planner.plan db e) in
    Relation.equal reference a.Exec.result
    && Relation.equal plain a.Exec.result
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"instrumented run = reference = uninstrumented"
       ~count:300 QCheck.small_nat test)

(* One set of numbers: the report, the operator spans, the
   sys.operators feed, the live-progress counters and the totals all
   read the same per-operator records.  Spans and report rows are
   matched as multisets of (kind, label, rows, elements); the
   [Op_stats] delta of each operator kind must equal that kind's
   operators summed; the root's rows must equal what the ASH slot saw
   leave the plan. *)
let one_set_of_numbers =
  let module Obs = Mxra_obs in
  let test seed =
    let scen = W.Gen_expr.scenario ~seed ~depth:4 in
    let db = scen.W.Gen_expr.db in
    let plan = Planner.plan db scen.W.Gen_expr.expr in
    let observe chunk_size =
      let spans = ref [] in
      Obs.Trace.set_sinks
        [
          {
            Obs.Trace.null_sink with
            on_span = (fun sp -> spans := sp :: !spans);
          };
        ];
      let qid = Printf.sprintf "q-numbers-%d-%d" seed chunk_size in
      let slot = Obs.Ash.register ~qid () in
      let before = Obs.Op_stats.snapshot () in
      Fun.protect
        ~finally:(fun () ->
          Obs.Ash.finish slot;
          Obs.Trace.close ())
        (fun () ->
          let a =
            Obs.Ash.with_slot slot (fun () ->
                Exec.run_instrumented ~chunk_size db plan)
          in
          let progress =
            List.find (fun p -> p.Obs.Ash.p_qid = qid) (Obs.Ash.progress ())
          in
          (a, !spans, progress.Obs.Ash.p_rows, before, Obs.Op_stats.snapshot ()))
    in
    let agrees chunk_size =
      let a, spans, progress_rows, before, after = observe chunk_size in
      let ops = flatten_report a.Exec.root in
      let kind (r : Exec.report) = Physical.kind r.Exec.node in
      let sum f rs = List.fold_left (fun acc r -> acc + f r) 0 rs in
      let elems (r : Exec.report) = r.Exec.actual.Exec.out_elems
      and rows (r : Exec.report) = r.Exec.actual.Exec.out_rows
      and cells (r : Exec.report) = r.Exec.actual.Exec.out_cells in
      let of_report =
        List.map
          (fun r -> (kind r, Physical.label r.Exec.node, rows r, elems r))
          ops
      in
      let of_spans =
        List.filter_map
          (fun (sp : Obs.Trace.span) ->
            match
              ( List.assoc_opt "label" sp.attrs,
                List.assoc_opt "rows" sp.attrs,
                List.assoc_opt "elems" sp.attrs )
            with
            | ( Some (Obs.Trace.Str l),
                Some (Obs.Trace.Int r),
                Some (Obs.Trace.Int e) ) ->
                Some (sp.name, l, r, e)
            | _ -> None)
          spans
      in
      let delta k =
        let entry rows =
          List.find_opt (fun r -> r.Obs.Op_stats.o_op = k) rows
        in
        let d f =
          let get = function Some r -> f r | None -> 0 in
          get (entry after) - get (entry before)
        in
        Obs.Op_stats.
          (d (fun r -> r.o_execs), d (fun r -> r.o_elems),
           d (fun r -> r.o_rows), d (fun r -> r.o_cells))
      in
      let by_kind k =
        let rs = List.filter (fun r -> kind r = k) ops in
        (List.length rs, sum elems rs, sum rows rs, sum cells rs)
      in
      let total key = Metrics.count (Metrics.counter a.Exec.totals key) in
      List.sort compare of_report = List.sort compare of_spans
      && List.for_all
           (fun k -> delta k = by_kind k)
           (List.sort_uniq compare (List.map kind ops))
      && progress_rows = rows a.Exec.root
      && total "tuples-moved" = sum elems ops
      && total "cells-moved" = sum cells ops
      && total "rows-out" = rows a.Exec.root
    in
    List.for_all agrees [ 1; 255 ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"report = spans = sys.operators = progress, totals = sums"
       ~count:200 QCheck.small_nat (fun seed ->
         let stmt_stats = Mxra_obs.Stmt_stats.enabled ()
         and ash = Mxra_obs.Ash.enabled () in
         Mxra_obs.Stmt_stats.set_enabled true;
         Mxra_obs.Ash.set_enabled true;
         Fun.protect
           ~finally:(fun () ->
             Mxra_obs.Stmt_stats.set_enabled stmt_stats;
             Mxra_obs.Ash.set_enabled ash)
           (fun () -> test seed)))

(* [Exec.stream] is the same observed execution as [run]: its elements
   make up the same bag, and it feeds [sys.operators] exactly once, when
   the stream is exhausted — not while a consumer is still pulling. *)
let test_stream_feeds_when_exhausted () =
  let module Obs = Mxra_obs in
  let e =
    Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "l")
      (Expr.rel "r")
  in
  let plan = Planner.plan db e in
  let counts () =
    List.map
      (fun (r : Obs.Op_stats.row) ->
        (r.o_op, r.o_execs, r.o_elems, r.o_rows, r.o_cells))
      (Obs.Op_stats.snapshot ())
  in
  let stmt_stats = Obs.Stmt_stats.enabled () in
  Obs.Stmt_stats.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Op_stats.clear ();
      Obs.Stmt_stats.set_enabled stmt_stats)
    (fun () ->
      Obs.Op_stats.clear ();
      let a = Exec.run_instrumented ~chunk_size:1 db plan in
      let fed_by_run = counts () in
      Alcotest.(check bool) "run feeds sys.operators" true (fed_by_run <> []);
      Obs.Op_stats.clear ();
      let s = Exec.stream ~chunk_size:1 db plan in
      let first, rest =
        match s () with
        | Seq.Cons (x, rest) -> (x, rest)
        | Seq.Nil -> Alcotest.fail "stream of a non-empty join is empty"
      in
      Alcotest.(check int) "nothing fed while pulling" 0
        (List.length (counts ()));
      let elems = first :: List.of_seq rest in
      check_equal_relations "stream = run" a.Exec.result
        (Relation.of_counted_list (Relation.schema a.Exec.result) elems);
      Alcotest.(check bool) "exhausted stream feeds what run fed" true
        (counts () = fed_by_run))

(* Satellite: instrumentation counts physical facts — elements, rows,
   cells — not plumbing, so they must not change with the chunk size
   (and EXPLAIN ANALYZE output stays pinnable in the cram tests even
   under the chunk-size-1 CI leg). *)
let counters_chunk_size_independent =
  let test seed =
    let scen = W.Gen_expr.scenario ~seed ~depth:4 in
    let db = scen.W.Gen_expr.db in
    let plan = Planner.plan db scen.W.Gen_expr.expr in
    let counts chunk_size =
      let a = Exec.run_instrumented ~chunk_size db plan in
      List.map
        (fun (r : Exec.report) ->
          (r.Exec.actual.Exec.out_elems, r.Exec.actual.Exec.out_rows,
           r.Exec.actual.Exec.out_cells))
        (flatten_report a.Exec.root)
    in
    let reference = counts 255 in
    List.for_all (fun cs -> counts cs = reference) [ 1; 7; 64; 1024 ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"instrumented counts independent of chunk size"
       ~count:100 QCheck.small_nat test)

(* --- the central property: engine = reference evaluator -------------------- *)

let engine_matches_reference =
  let test seed =
    let scen = W.Gen_expr.scenario ~seed ~depth:4 in
    let reference = Eval.eval scen.W.Gen_expr.db scen.W.Gen_expr.expr in
    let physical = Exec.run_expr scen.W.Gen_expr.db scen.W.Gen_expr.expr in
    Relation.equal reference physical
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"engine = reference evaluator" ~count:300
       QCheck.small_nat test)

let suite =
  ( "engine",
    [
      Alcotest.test_case "statistics" `Quick test_stats;
      Alcotest.test_case "histograms" `Quick test_histograms;
      Alcotest.test_case "statistics of empty" `Quick test_stats_empty;
      Alcotest.test_case "statistics: out-of-range attribute" `Quick
        test_stats_out_of_range;
      stats_match_reference;
      Alcotest.test_case "statistics of retail and beer = reference" `Quick
        test_stats_retail_reference;
      Alcotest.test_case "cost basics" `Quick test_cost_basics;
      Alcotest.test_case "cost: join vs product" `Quick test_cost_monotone_in_pipeline;
      Alcotest.test_case "selectivity" `Quick test_selectivity;
      Alcotest.test_case "join key extraction" `Quick test_join_keys;
      Alcotest.test_case "planner picks hash join" `Quick test_planner_chooses_hash_join;
      Alcotest.test_case "planner fuses σ∘×" `Quick test_planner_fuses_selected_product;
      Alcotest.test_case "to_logical round trip" `Quick test_to_logical_roundtrip;
      Alcotest.test_case "hash join execution" `Quick test_exec_hash_join;
      Alcotest.test_case "every operator matches reference" `Quick test_exec_each_operator;
      Alcotest.test_case "empty aggregates" `Quick test_exec_empty_aggregate;
      Alcotest.test_case "tuples-moved instrumentation" `Quick test_moved_totals;
      Alcotest.test_case "stream feeds sys.operators when exhausted" `Quick
        test_stream_feeds_when_exhausted;
      Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
      Alcotest.test_case "q-error" `Quick test_q_error;
      Alcotest.test_case "explain analyze on a 2-join query" `Quick
        test_explain_analyze_two_join;
      Alcotest.test_case "a shared subplan is two records" `Quick
        test_shared_subplan_two_records;
      Alcotest.test_case "a 20k-deep σ chain reports every position" `Quick
        test_deep_filter_chain;
      instrumented_matches_reference;
      one_set_of_numbers;
      counters_chunk_size_independent;
      engine_matches_reference;
    ] )
