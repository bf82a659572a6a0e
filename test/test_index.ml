(* Secondary indexes: definition bookkeeping on the database value,
   structure correctness against the reference evaluator, incremental
   maintenance through the write observer (including abort-style
   reversion to earlier states), planner selection of index paths, and
   the differential harness over indexed plans — chunk sizes × jobs,
   every result bag-equal to Eval. *)

open Mxra_relational
open Mxra_core
module Engine = Mxra_engine
module Index = Mxra_ext.Index
module W = Mxra_workload

let relation_t =
  Alcotest.testable (fun ppf r -> Relation.pp ppf r) Relation.equal

let check_rel = Alcotest.check relation_t

let two_int_schema = Schema.of_list [ ("a", Domain.DInt); ("b", Domain.DInt) ]

let random_bag seed =
  let rng = W.Rng.make (seed + 1) in
  W.Synth.two_column_int ~rng
    ~size:(40 + (seed mod 60))
    ~distinct:(1 + (seed mod 12))

let def_hash_a =
  { Database.idx_name = "r_a"; idx_rel = "r"; idx_cols = [ 1 ];
    idx_kind = Database.Hash }

let def_ord_a =
  { Database.idx_name = "r_a_ord"; idx_rel = "r"; idx_cols = [ 1 ];
    idx_kind = Database.Ordered }

(* --- definitions on the database value --------------------------------- *)

let test_def_bookkeeping () =
  let db =
    Database.empty
    |> Database.create "r" two_int_schema
    |> Database.create_index ~name:"r_a" ~rel:"r" ~cols:[ 1 ]
         ~kind:Database.Hash
    |> Database.create_index ~name:"r_ab" ~rel:"r" ~cols:[ 1; 2 ]
         ~kind:Database.Hash
  in
  Alcotest.(check int) "two defs" 2 (List.length (Database.index_defs db));
  Alcotest.(check int) "both on r" 2 (List.length (Database.indexes_on "r" db));
  Alcotest.(check string) "find" "r"
    (Database.find_index "r_a" db).Database.idx_rel;
  let db = Database.drop_index "r_ab" db in
  Alcotest.(check int) "one def after drop" 1
    (List.length (Database.index_defs db));
  (* Dropping the relation cascades to its index definitions. *)
  let db = Database.drop "r" db in
  Alcotest.(check int) "cascade" 0 (List.length (Database.index_defs db))

let test_def_errors () =
  let db = Database.create "r" two_int_schema Database.empty in
  let mk ?(name = "i") ?(rel = "r") ?(cols = [ 1 ]) ?(kind = Database.Hash) db =
    Database.create_index ~name ~rel ~cols ~kind db
  in
  Alcotest.check_raises "unknown relation" (Database.Unknown_relation "nope")
    (fun () -> ignore (mk ~rel:"nope" db));
  let db = mk db in
  Alcotest.check_raises "duplicate" (Database.Duplicate_index "i") (fun () ->
      ignore (mk db));
  Alcotest.check_raises "unknown index" (Database.Unknown_index "j") (fun () ->
      ignore (Database.drop_index "j" db));
  (match mk ~name:"k" ~cols:[ 3 ] db with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "column out of range accepted");
  (match mk ~name:"k" ~cols:[ 1; 2 ] ~kind:Database.Ordered db with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "multi-column ordered accepted");
  let db = Database.assign_temporary "t" (Relation.empty two_int_schema) db in
  match mk ~name:"k" ~rel:"t" db with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "index on temporary accepted"

(* --- probes against the evaluator -------------------------------------- *)

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:100 gen f)

let point_probe_matches =
  prop "point probe = σ[%1 = v]" QCheck.(pair small_nat (int_range 0 12))
    (fun (seed, v) ->
      let r = random_bag seed in
      let expected =
        Relation.bag (Eval.select (Pred.eq (Scalar.attr 1) (Scalar.int v)) r)
      in
      List.for_all
        (fun def ->
          Relation.Bag.equal expected
            (Index.probe_point (Index.build def r) [ Value.Int v ]))
        [ def_hash_a; def_ord_a ])

let range_probe_matches =
  prop "range probe = σ[lo ≤ %1 ≤ hi]"
    QCheck.(
      tup5 small_nat (int_range 0 12) (int_range 0 12) bool bool)
    (fun (seed, lo, hi, lo_incl, hi_incl) ->
      let r = random_bag seed in
      let idx = Index.build def_ord_a r in
      let bound v incl = Some { Index.b_value = Value.Int v; b_incl = incl } in
      let lo_p =
        if lo_incl then Pred.ge (Scalar.attr 1) (Scalar.int lo)
        else Pred.gt (Scalar.attr 1) (Scalar.int lo)
      and hi_p =
        if hi_incl then Pred.le (Scalar.attr 1) (Scalar.int hi)
        else Pred.lt (Scalar.attr 1) (Scalar.int hi)
      in
      let expected =
        Relation.bag (Eval.select (Pred.And (lo_p, hi_p)) r)
      in
      let got =
        Relation.Bag.of_counted_seq
          (Index.probe_range idx (bound lo lo_incl) (bound hi hi_incl))
      in
      Relation.Bag.equal expected got)

let half_open_range_matches =
  prop "one-sided ranges" QCheck.(pair small_nat (int_range 0 12))
    (fun (seed, v) ->
      let r = random_bag seed in
      let idx = Index.build def_ord_a r in
      let bound incl = Some { Index.b_value = Value.Int v; b_incl = incl } in
      let bag_of s = Relation.Bag.of_counted_seq s in
      Relation.Bag.equal
        (Relation.bag (Eval.select (Pred.ge (Scalar.attr 1) (Scalar.int v)) r))
        (bag_of (Index.probe_range idx (bound true) None))
      && Relation.Bag.equal
           (Relation.bag
              (Eval.select (Pred.lt (Scalar.attr 1) (Scalar.int v)) r))
           (bag_of (Index.probe_range idx None (bound false)))
      && Relation.Bag.equal (Relation.bag r)
           (bag_of (Index.probe_range idx None None)))

(* --- incremental maintenance ------------------------------------------- *)

(* Structural agreement of two index structures over a relation: same
   key statistics, and every key of the relation posts the same bag. *)
let same_structure def r i1 i2 =
  let keys =
    Relation.Bag.fold
      (fun t _ acc ->
        let k = List.map (Tuple.attr t) def.Database.idx_cols in
        if List.mem k acc then acc else k :: acc)
      (Relation.bag r) []
  in
  Index.distinct_keys i1 = Index.distinct_keys i2
  && Index.entry_count i1 = Index.entry_count i2
  && List.for_all
       (fun k ->
         Relation.Bag.equal (Index.probe_point i1 k) (Index.probe_point i2 k))
       keys

let apply_matches_rebuild =
  prop "apply Δ = rebuild" QCheck.(pair small_nat small_nat)
    (fun (seed, seed2) ->
      let r = random_bag seed and d = random_bag seed2 in
      List.for_all
        (fun def ->
          let idx = Index.build def r in
          (* Mirror a statement's delta: removals are bounded by what is
             present (monus), additions are unconditional. *)
          let removed = Relation.Bag.inter (Relation.bag r) (Relation.bag d) in
          let after =
            Relation.Bag.sum
              (Relation.Bag.diff (Relation.bag r) removed)
              (Relation.bag d)
          in
          let r' = Relation.of_bag_unchecked two_int_schema after in
          same_structure def r'
            (Index.apply idx ~added:(Relation.bag d) ~removed)
            (Index.build def r'))
        [ def_hash_a; def_ord_a ])

(* Random statement workloads against an indexed relation, with
   abort-style reversion to earlier database values: at every point the
   served structure must agree with a fresh build of the live value. *)
let mutation_consistency =
  prop "cached structure tracks insert/delete/update/abort"
    QCheck.(pair small_nat (list_of_size Gen.(int_range 1 12) (int_range 0 99)))
    (fun (seed, ops) ->
      let r0 = random_bag seed in
      let db0 =
        Database.empty
        |> Database.create "r" two_int_schema
        |> (fun db -> fst (Statement.exec db (Statement.Insert ("r", Expr.const r0))))
        |> Database.create_index ~name:"r_a" ~rel:"r" ~cols:[ 1 ]
             ~kind:Database.Hash
        |> Database.create_index ~name:"r_a_ord" ~rel:"r" ~cols:[ 1 ]
             ~kind:Database.Ordered
      in
      (* Prime the cache so the observer has structures to roll forward. *)
      List.iter
        (fun def -> ignore (Index.get def (Database.find "r" db0)))
        [ def_hash_a; def_ord_a ];
      let step (db, history) op =
        let sel v = Expr.select (Pred.eq (Scalar.attr 1) (Scalar.int v)) (Expr.rel "r") in
        let db' =
          match op mod 4 with
          | 0 ->
              fst (Statement.exec db
                     (Statement.Insert ("r", Expr.const (random_bag (op + seed)))))
          | 1 -> fst (Statement.exec db (Statement.Delete ("r", sel (op mod 13))))
          | 2 ->
              fst (Statement.exec db
                     (Statement.Update
                        ( "r", sel (op mod 13),
                          [ Scalar.add (Scalar.attr 1) (Scalar.int 1);
                            Scalar.attr 2 ] )))
          | _ ->
              (* Abort/undo: re-install an earlier state, exactly what
                 the scheduler's before-image rollback does. *)
              List.nth history (op mod List.length history)
        in
        (db', db' :: history)
      in
      let db, _ = List.fold_left step (db0, [ db0 ]) ops in
      let r = Database.find "r" db in
      List.for_all
        (fun def -> same_structure def r (Index.get def r) (Index.build def r))
        [ def_hash_a; def_ord_a ])

(* --- planner selection -------------------------------------------------- *)

let rec plan_has pred plan =
  pred plan || List.exists (plan_has pred) (Engine.Physical.children plan)

let is_index_scan = function
  | Engine.Physical.Index_scan _ -> true
  | _ -> false

let is_index_join = function
  | Engine.Physical.Index_join _ -> true
  | _ -> false

let big_db () =
  let rng = W.Rng.make 7 in
  let big = W.Synth.two_column_int ~rng ~size:2000 ~distinct:100 in
  Database.empty
  |> Database.create "big" two_int_schema
  |> (fun db -> fst (Statement.exec db (Statement.Insert ("big", Expr.const big))))
  |> Database.create_index ~name:"big_a" ~rel:"big" ~cols:[ 1 ]
       ~kind:Database.Hash
  |> Database.create_index ~name:"big_a_ord" ~rel:"big" ~cols:[ 1 ]
       ~kind:Database.Ordered

let test_planner_picks_index_scan () =
  let db = big_db () in
  let point = Expr.select (Pred.eq (Scalar.attr 1) (Scalar.int 5)) (Expr.rel "big") in
  Alcotest.(check bool) "point chooses IndexScan" true
    (plan_has is_index_scan (Engine.Planner.plan db point));
  let range =
    Expr.select
      (Pred.And
         (Pred.ge (Scalar.attr 1) (Scalar.int 10),
          Pred.lt (Scalar.attr 1) (Scalar.int 20)))
      (Expr.rel "big")
  in
  Alcotest.(check bool) "range chooses IndexScan" true
    (plan_has is_index_scan (Engine.Planner.plan db range));
  (* Without an index definition the same query seq-scans. *)
  let bare =
    Database.of_relations [ ("big", Database.find "big" db) ]
  in
  Alcotest.(check bool) "no def, no IndexScan" false
    (plan_has is_index_scan (Engine.Planner.plan bare point));
  (* Execution agrees with the evaluator on the index path. *)
  check_rel "point result" (Eval.eval db point)
    (Engine.Exec.run db (Engine.Planner.plan db point));
  check_rel "range result" (Eval.eval db range)
    (Engine.Exec.run db (Engine.Planner.plan db range))

let test_planner_picks_index_join () =
  let db = big_db () in
  let outer =
    Relation.of_list (Schema.of_list [ ("k", Domain.DInt) ])
      (List.init 10 (fun i -> Tuple.of_list [ Value.Int (i * 7) ]))
  in
  let join =
    Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 2)) (Expr.const outer)
      (Expr.rel "big")
  in
  let plan = Engine.Planner.plan db join in
  Alcotest.(check bool) "small ⋈ big chooses IndexNestedLoopJoin" true
    (plan_has is_index_join plan);
  check_rel "join result" (Eval.eval db join) (Engine.Exec.run db plan)

(* --- EXPLAIN ANALYZE q-error on index paths ----------------------------- *)

let test_index_q_error () =
  let db = big_db () in
  let queries =
    List.concat_map
      (fun v ->
        [
          Expr.select (Pred.eq (Scalar.attr 1) (Scalar.int v)) (Expr.rel "big");
          Expr.select
            (Pred.And
               (Pred.ge (Scalar.attr 1) (Scalar.int v),
                Pred.lt (Scalar.attr 1) (Scalar.int (v + 10))))
            (Expr.rel "big");
        ])
      [ 5; 37; 80 ]
  in
  let q_errors =
    List.map
      (fun e ->
        let a = Engine.Exec.explain_analyze db e in
        Alcotest.(check bool) "runs on an index path" true
          (plan_has is_index_scan a.Engine.Exec.root.Engine.Exec.node);
        Lazy.force a.Engine.Exec.root.Engine.Exec.q_error)
      queries
  in
  let mean_q =
    exp (List.fold_left (fun acc q -> acc +. log q) 0.0 q_errors
         /. float_of_int (List.length q_errors))
  in
  if mean_q > 2.0 then
    Alcotest.failf "mean q-error %.2f over indexed selections exceeds 2" mean_q

(* --- differential harness over indexed plans ---------------------------- *)

let test_indexed_plans_differential () =
  let rng = W.Rng.make 11 in
  let a = W.Synth.two_column_int ~rng ~size:300 ~distinct:17 in
  let b, _ = W.Synth.join_pair ~rng ~left:60 ~right:40 ~key_range:10 in
  let db =
    Database.of_relations [ ("a", a); ("b", b) ]
    |> Database.create_index ~name:"a_1" ~rel:"a" ~cols:[ 1 ]
         ~kind:Database.Hash
    |> Database.create_index ~name:"a_1_ord" ~rel:"a" ~cols:[ 1 ]
         ~kind:Database.Ordered
    |> Database.create_index ~name:"a_12" ~rel:"a" ~cols:[ 1; 2 ]
         ~kind:Database.Hash
  in
  let queries =
    [
      Expr.select (Pred.eq (Scalar.attr 1) (Scalar.int 5)) (Expr.rel "a");
      Expr.select
        (Pred.And
           (Pred.eq (Scalar.attr 1) (Scalar.int 5),
            Pred.eq (Scalar.attr 2) (Scalar.int 3)))
        (Expr.rel "a");
      Expr.select
        (Pred.And
           (Pred.eq (Scalar.attr 1) (Scalar.int 5),
            Pred.lt (Scalar.attr 2) (Scalar.int 9)))
        (Expr.rel "a");
      Expr.select
        (Pred.And
           (Pred.gt (Scalar.attr 1) (Scalar.int 3),
            Pred.le (Scalar.attr 1) (Scalar.int 12)))
        (Expr.rel "a");
      Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "b")
        (Expr.rel "a");
      Expr.join
        (Pred.And
           (Pred.eq (Scalar.attr 1) (Scalar.attr 3),
            Pred.lt (Scalar.attr 2) (Scalar.attr 4)))
        (Expr.rel "b") (Expr.rel "a");
    ]
  in
  List.iter
    (fun e ->
      let expected = Eval.eval db e in
      List.iter
        (fun jobs ->
          let plan = Engine.Planner.plan ~jobs ~force_index:true db e in
          Alcotest.(check bool)
            (Printf.sprintf "forced plan uses an index (%s)" (Expr.to_string e))
            true
            (plan_has (fun n -> is_index_scan n || is_index_join n) plan);
          List.iter
            (fun chunk_size ->
              check_rel
                (Printf.sprintf "%s [chunk=%d jobs=%d]" (Expr.to_string e)
                   chunk_size jobs)
                expected
                (Engine.Exec.run ~chunk_size db plan))
            [ 1; 7; 64; 1024 ])
        [ 1; 2; 4 ])
    queries

(* Forcing overrides the costing: over the retail store of 300 orders,
   lineitem ⋈ orders hash-joins on cost, but forced it probes the
   orders key index once per lineitem row. *)
let test_forced_index_join_shape () =
  let db =
    W.Retail.generate ~rng:(W.Rng.make 42) ~customers:30 ~orders:300 ()
    |> Database.create_index ~name:"orders_id" ~rel:"orders" ~cols:[ 1 ]
         ~kind:Database.Hash
    |> Database.create_index ~name:"orders_day" ~rel:"orders" ~cols:[ 3 ]
         ~kind:Database.Ordered
    |> Database.create_index ~name:"li_order" ~rel:"lineitem" ~cols:[ 1 ]
         ~kind:Database.Hash
  in
  let join =
    Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 5)) (Expr.rel "lineitem")
      (Expr.rel "orders")
  in
  Alcotest.(check bool) "hash join on cost" true
    (match Engine.Planner.plan db join with
    | Engine.Physical.Hash_join _ -> true
    | _ -> false);
  match Engine.Planner.plan ~force_index:true db join with
  | Engine.Physical.Index_join
      { def; outer_keys; outer = Engine.Physical.Seq_scan outer; _ } ->
      Alcotest.(check string) "via orders_id" "orders_id" def.Database.idx_name;
      Alcotest.(check (list int)) "outer key %1" [ 1 ] outer_keys;
      Alcotest.(check string) "outer scans lineitem" "lineitem" outer
  | p ->
      Alcotest.failf "expected IndexNestedLoopJoin over SeqScan lineitem, got %s"
        (Engine.Physical.to_string p)

(* --- durability of definitions ------------------------------------------ *)

let test_codec_roundtrip () =
  let db =
    big_db ()
    |> Database.create "empty" two_int_schema
  in
  let decoded =
    Mxra_storage.Codec.decode_database (Mxra_storage.Codec.encode_database db)
  in
  Alcotest.(check int) "defs survive the snapshot" 2
    (List.length (Database.index_defs decoded));
  let def = Database.find_index "big_a" decoded in
  Alcotest.(check string) "rel" "big" def.Database.idx_rel;
  check_rel "data survives too" (Database.find "big" db)
    (Database.find "big" decoded)

let suite =
  ( "index",
    [
      Alcotest.test_case "definition bookkeeping" `Quick test_def_bookkeeping;
      Alcotest.test_case "definition errors" `Quick test_def_errors;
      point_probe_matches;
      range_probe_matches;
      half_open_range_matches;
      apply_matches_rebuild;
      mutation_consistency;
      Alcotest.test_case "planner picks IndexScan on cost" `Quick
        test_planner_picks_index_scan;
      Alcotest.test_case "planner picks IndexNestedLoopJoin on cost" `Quick
        test_planner_picks_index_join;
      Alcotest.test_case "q-error ≤ 2 on indexed selections" `Quick
        test_index_q_error;
      Alcotest.test_case "indexed plans: differential vs Eval" `Quick
        test_indexed_plans_differential;
      Alcotest.test_case "forced index: lineitem ⋈ orders probes orders_id"
        `Quick test_forced_index_join_shape;
      Alcotest.test_case "index defs survive codec round-trip" `Quick
        test_codec_roundtrip;
    ] )
