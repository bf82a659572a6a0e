(* Property tests for real-multicore execution: every Exchange-wrapped
   physical plan computes the same bag as the sequential reference
   evaluator, for random inputs and every fragment count in 1..8.
   These are the distribution laws of Theorem 3.2 exercised on actual
   worker domains rather than on a simulated machine. *)

open Mxra_relational
open Mxra_core
module Engine = Mxra_engine
module W = Mxra_workload
module Pool = Mxra_ext.Pool

(* One shared pool for the whole suite — a per-iteration pool would
   spawn thousands of domains across the qcheck runs. *)
let () = Pool.set_default_size 4

let seed_and_parts = QCheck.(pair small_nat (int_range 1 8))

let random_bag seed =
  let rng = W.Rng.make (seed + 1) in
  W.Synth.two_column_int ~rng
    ~size:(40 + (seed mod 60))
    ~distinct:(1 + (seed mod 12))

let prop name f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:100 seed_and_parts f)

(* One law of Theorem 3.2 / Definition 3.4 per property: the operator
   over the whole bag equals the Exchange plan that runs it as [parts]
   fragments on the domain pool (threshold 0, [~cores:parts] so the
   plan shape is host-independent). With more than one fragment the
   plan must really contain an Exchange, or the property would only
   re-check the sequential operator. *)
let pooled_matches expected rels e parts =
  let db = Database.of_relations rels in
  let plan =
    Engine.Planner.parallelize
      ~stats:(Engine.Stats.env_of_database db)
      ~schemas:(Typecheck.env_of_database db)
      ~jobs:parts ~cores:parts ~threshold:0
      (Engine.Planner.plan db e)
  in
  (parts = 1 || Engine.Physical.exchange_count plan > 0)
  && Relation.equal expected (Engine.Exec.run db plan)

let par_select_matches =
  prop "pooled σ = Eval.select" (fun (seed, parts) ->
      let r = random_bag seed in
      let p = Pred.lt (Scalar.attr 1) (Scalar.int 6) in
      pooled_matches (Eval.select p r)
        [ ("r", r) ]
        (Expr.select p (Expr.rel "r"))
        parts)

let par_project_matches =
  prop "pooled π = Eval.project" (fun (seed, parts) ->
      let r = random_bag seed in
      let exprs = [ Scalar.add (Scalar.attr 1) (Scalar.attr 2); Scalar.attr 1 ] in
      pooled_matches (Eval.project exprs r)
        [ ("r", r) ]
        (Expr.project exprs (Expr.rel "r"))
        parts)

let par_join_matches =
  prop "pooled co-partitioned ⋈ = Eval.join" (fun (seed, parts) ->
      let rng = W.Rng.make (seed + 1) in
      let left, right = W.Synth.join_pair ~rng ~left:50 ~right:30 ~key_range:8 in
      let cond = Pred.eq (Scalar.attr 1) (Scalar.attr 3) in
      pooled_matches
        (Eval.join cond left right)
        [ ("l", left); ("r", right) ]
        (Expr.join cond (Expr.rel "l") (Expr.rel "r"))
        parts)

let par_join_multi_key_matches =
  prop "pooled ⋈ on two key attributes = Eval.join" (fun (seed, parts) ->
      let r = random_bag seed in
      let cond =
        Pred.And
          (Pred.eq (Scalar.attr 1) (Scalar.attr 3),
           Pred.eq (Scalar.attr 2) (Scalar.attr 4))
      in
      pooled_matches (Eval.join cond r r)
        [ ("r", r) ]
        (Expr.join cond (Expr.rel "r") (Expr.rel "r"))
        parts)

let par_group_by_matches =
  prop "pooled Γ on keys = Eval.group_by" (fun (seed, parts) ->
      let r = random_bag seed in
      let attrs = [ 1 ] and aggs = [ (Aggregate.Sum, 2); (Aggregate.Cnt, 1) ] in
      pooled_matches
        (Eval.group_by attrs aggs r)
        [ ("r", r) ]
        (Expr.group_by attrs aggs (Expr.rel "r"))
        parts)

let par_group_by_multi_attr_matches =
  prop "pooled Γ on two attributes = Eval.group_by" (fun (seed, parts) ->
      let r = random_bag seed in
      let attrs = [ 1; 2 ] and aggs = [ (Aggregate.Cnt, 1) ] in
      pooled_matches
        (Eval.group_by attrs aggs r)
        [ ("r", r) ]
        (Expr.group_by attrs aggs (Expr.rel "r"))
        parts)

let par_global_aggregate_matches =
  prop "pooled global aggregate = Eval.group_by []" (fun (seed, parts) ->
      let r = random_bag seed in
      let aggs =
        [
          (Aggregate.Cnt, 1);
          (Aggregate.Sum, 2);
          (Aggregate.Avg, 2);
          (Aggregate.Min, 1);
          (Aggregate.Max, 2);
        ]
      in
      pooled_matches
        (Eval.group_by [] aggs r)
        [ ("r", r) ]
        (Expr.group_by [] aggs (Expr.rel "r"))
        parts)

(* The engine path: plan a query, force Exchange above every eligible
   operator (threshold 0), and compare the executed bag against the
   reference evaluator — join, grouped Γ and global aggregate shapes. *)
let exchange_plans_match =
  let queries r_bag =
    let join =
      Expr.join
        (Pred.eq (Scalar.attr 1) (Scalar.attr 3))
        (Expr.rel "a") (Expr.rel "b")
    in
    [
      Expr.select (Pred.lt (Scalar.attr 2) (Scalar.int 8)) (Expr.rel "a");
      Expr.project_attrs [ 2 ] (Expr.rel "a");
      join;
      Expr.group_by [ 1 ] [ (Aggregate.Sum, 2) ] join;
      Expr.group_by []
        [ (Aggregate.Cnt, 1); (Aggregate.Sum, 2); (Aggregate.Avg, 2) ]
        (Expr.rel "a");
      Expr.group_by [] [ (Aggregate.Min, 1); (Aggregate.Max, 2) ] r_bag;
    ]
  in
  prop "Exchange plans = Eval (threshold 0)" (fun (seed, parts) ->
      let rng = W.Rng.make (seed + 1) in
      let a = random_bag seed in
      let b, _ = W.Synth.join_pair ~rng ~left:30 ~right:10 ~key_range:6 in
      let db = Database.of_relations [ ("a", a); ("b", b) ] in
      let stats = Engine.Stats.env_of_database db in
      let schemas = Typecheck.env_of_database db in
      List.for_all
        (fun e ->
          (* [cores:parts] because the planner's 1-core guard would
             otherwise (correctly) refuse to insert Exchange on a
             single-core test host. *)
          let plan =
            Engine.Planner.parallelize ~stats ~schemas ~jobs:parts ~cores:parts
              ~threshold:0
              (Engine.Planner.plan db e)
          in
          Relation.equal (Eval.eval db e) (Engine.Exec.run db plan))
        (queries (Expr.Const a)))

(* --- chunked execution: the differential harness ----------------------- *)

(* The tentpole contract: chunked execution is bag-equal to the
   reference evaluator for {e every} physical operator, at every chunk
   size in {1, 7, 64, 1024} (degenerate, ragged, nursery-sized, beyond
   the minor-heap limit) and every fragment count in {1, 2, 4}. *)

let chunk_sizes = [ 1; 7; 64; 1024 ]
let jobs_list = [ 1; 2; 4 ]

(* Float values that are not dyadic, so a float SUM, AVG or VAR depends
   on the order it adds them in: strict [Relation.equal] against Eval
   holds only because every path, Exchange merges included, finishes
   the buffered column through the same canonical computation. *)
let float_bag seed =
  let rng = W.Rng.make (seed + 7) in
  let schema = Schema.of_list [ ("k", Domain.DInt); ("x", Domain.DFloat) ] in
  Relation.of_list schema
    (List.init
       (30 + (seed mod 40))
       (fun _ ->
         Tuple.of_list
           [
             Value.Int (W.Rng.int rng 5);
             Value.Float (float_of_int (W.Rng.int rng 50) /. 7.0);
           ]))

let diff_db seed =
  let rng = W.Rng.make (seed + 1) in
  let a = random_bag seed in
  let b, c = W.Synth.join_pair ~rng ~left:30 ~right:20 ~key_range:6 in
  ( a,
    Database.of_relations
      [ ("a", a); ("b", b); ("c", c); ("f", float_bag seed) ] )

(* One expression per physical operator (the planner maps the equi-join
   to Hash_join, the non-equi join to Nested_loop); [operator_coverage]
   below pins that this list really does reach every constructor. *)
let operator_exprs a =
  let eq13 = Pred.eq (Scalar.attr 1) (Scalar.attr 3) in
  let j = Expr.join eq13 (Expr.rel "b") (Expr.rel "c") in
  [
    Expr.Const a;
    Expr.rel "a";
    Expr.select (Pred.lt (Scalar.attr 2) (Scalar.int 6)) (Expr.rel "a");
    Expr.project [ Scalar.add (Scalar.attr 1) (Scalar.attr 2) ] (Expr.rel "a");
    j;
    Expr.join (Pred.lt (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "b")
      (Expr.rel "c");
    Expr.product (Expr.rel "a") (Expr.rel "c");
    Expr.union (Expr.rel "a") (Expr.rel "a");
    Expr.diff (Expr.rel "a") (Expr.rel "b");
    Expr.intersect (Expr.rel "a") (Expr.rel "b");
    Expr.unique (Expr.rel "a");
    Expr.group_by [ 1 ] [ (Aggregate.Sum, 2); (Aggregate.Cnt, 1) ] j;
    Expr.group_by []
      [ (Aggregate.Cnt, 1); (Aggregate.Sum, 2); (Aggregate.Avg, 2) ]
      (Expr.rel "a");
  ]

(* Shapes whose Exchange partitions on more than one key or merges
   accumulators across fragments: a two-key equi-join, a two-attribute
   Γ, grouped and global Γ over every accumulator kind, and float
   SUM/AVG/VAR/STDDEV over the non-dyadic relation [f]. *)
let merge_exprs =
  let spread = Aggregate.[ (Min, 2); (Max, 2); (Var, 2); (Stddev, 2) ] in
  let floats = Aggregate.[ (Sum, 2); (Avg, 2); (Var, 2); (Stddev, 2) ] in
  [
    Expr.join
      (Pred.And
         ( Pred.eq (Scalar.attr 1) (Scalar.attr 3),
           Pred.eq (Scalar.attr 2) (Scalar.attr 4) ))
      (Expr.rel "a") (Expr.rel "a");
    Expr.group_by [ 1; 2 ] [ (Aggregate.Cnt, 1) ] (Expr.rel "a");
    Expr.group_by [ 1 ] spread (Expr.rel "a");
    Expr.group_by [] spread (Expr.rel "a");
    Expr.group_by [ 1 ] floats (Expr.rel "f");
    Expr.group_by [] floats (Expr.rel "f");
  ]

let differential_exprs a = operator_exprs a @ merge_exprs

(* [cores:jobs] so the plan shape is host-independent; threshold 0
   forces Exchange above every eligible operator when jobs > 1. *)
let forced_plan ~jobs db e =
  Engine.Planner.plan ~jobs ~cores:jobs ~parallel_threshold:0 db e

let test_operator_coverage () =
  let a, db = diff_db 0 in
  let rec kinds plan acc =
    List.fold_left
      (fun acc child -> kinds child acc)
      (Engine.Physical.kind plan :: acc)
      (Engine.Physical.children plan)
  in
  let reached =
    List.concat_map
      (fun e -> kinds (forced_plan ~jobs:4 db e) [])
      (operator_exprs a)
  in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        ("differential harness reaches " ^ k)
        true (List.mem k reached))
    [
      "ConstScan"; "SeqScan"; "Filter"; "Project"; "HashJoin"; "NestedLoop";
      "CrossProduct"; "UnionAll"; "HashDiff"; "HashIntersect"; "HashDistinct";
      "HashAggregate"; "Exchange";
    ];
  (* Each merge shape really runs under an Exchange, and the two-key
     join really hashes on both keys. *)
  let rec two_key_hash_join = function
    | Engine.Physical.Hash_join { left_keys = [ _; _ ]; _ } -> true
    | p -> List.exists two_key_hash_join (Engine.Physical.children p)
  in
  List.iteri
    (fun i e ->
      let plan = forced_plan ~jobs:4 db e in
      Alcotest.(check bool)
        ("Exchange above " ^ Expr.to_string e)
        true
        (Engine.Physical.exchange_count plan > 0);
      if i = 0 then
        Alcotest.(check bool) "two-key hash join" true (two_key_hash_join plan))
    merge_exprs

let chunked_operators_match_eval =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"chunked exec = Eval, all operators × chunk sizes × jobs"
       ~count:25 QCheck.small_nat (fun seed ->
         let a, db = diff_db seed in
         List.for_all
           (fun e ->
             let expected = Eval.eval db e in
             List.for_all
               (fun jobs ->
                 let plan = forced_plan ~jobs db e in
                 List.for_all
                   (fun chunk_size ->
                     Relation.equal expected
                       (Engine.Exec.run ~chunk_size db plan))
                   chunk_sizes)
               jobs_list)
           (differential_exprs a)))

(* Index paths as a drawn dimension: every generated relation carries a
   hash index on column 1, so a selection [%1 = c] directly over a
   relation, or an equi-join probing column 1 of a base relation, has
   an index path.  This mirrors the planner's candidate search from the
   outside, so a forced plan can be checked for really using one. *)
let with_index_on_1 db =
  List.fold_left
    (fun db name ->
      Database.create_index ~name:(name ^ "_1") ~rel:name ~cols:[ 1 ]
        ~kind:Database.Hash db)
    db (Database.relation_names db)

let index_applies db e =
  let env = Typecheck.env_of_database db in
  let eq_literal_on_1 = function
    | Pred.Cmp (Term.Eq, a, Scalar.Lit _) -> Scalar.is_attr a = Some 1
    | Pred.Cmp (Term.Eq, Scalar.Lit _, b) -> Scalar.is_attr b = Some 1
    | _ -> false
  in
  let rec applies e =
    match e with
    | Expr.Select (p, Expr.Product (e1, (Expr.Rel _ as e2)))
    | Expr.Join (p, e1, (Expr.Rel _ as e2)) ->
        let left_arity = Schema.arity (Typecheck.infer env e1) in
        let keys, _ = Engine.Planner.join_keys ~left_arity p in
        List.exists (fun (_, k) -> k = 1) keys || applies e1 || applies e2
    | Expr.Select (p, Expr.Rel _) ->
        List.exists eq_literal_on_1 (Pred.conjuncts p)
    | _ ->
        let any = ref false in
        ignore (Expr.map_children (fun c -> if applies c then any := true; c) e);
        !any
  in
  applies e

(* The generated expression as the outer of a join that probes column 1
   of a base relation of the same domain — an index path by
   construction — or, when no column's domain fits, a point selection on
   column 1 of the first relation. *)
let index_probe db e =
  let schema = Typecheck.infer_db db e in
  let arity = Schema.arity schema in
  let col1 name = Schema.domain (Database.schema_of name db) 1 in
  let names = Database.relation_names db in
  let fits name i = Domain.equal (Schema.domain schema i) (col1 name) in
  match
    List.find_map
      (fun name ->
        List.find_opt (fits name) (List.init arity (fun i -> i + 1))
        |> Option.map (fun i -> (name, i)))
      names
  with
  | Some (name, i) ->
      Expr.join
        (Pred.eq (Scalar.attr i) (Scalar.attr (arity + 1)))
        e (Expr.rel name)
  | None ->
      let name = List.hd names in
      let literal =
        match col1 name with
        | Domain.DInt -> Value.Int 3
        | Domain.DFloat -> Value.Float 1.5
        | Domain.DStr -> Value.Str "x"
        | Domain.DBool -> Value.Bool true
      in
      Expr.select (Pred.eq (Scalar.attr 1) (Scalar.Lit literal)) (Expr.rel name)

(* Metamorphic and differential at once, on random well-typed
   expressions and their index probes: every (chunk size, jobs) pair —
   the fixed sizes plus one drawn from 1..1024 — must equal the
   reference evaluator, with index paths forced in a drawn half of the
   cases.  A forced plan must hold an index operator wherever one
   applies, so the property fails if the flag stops reaching the
   planner. *)
let metamorphic_chunk_jobs =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"identical results across all (chunk, jobs) pairs"
       ~count:40
       QCheck.(triple small_nat (int_range 1 1024) bool)
       (fun (seed, drawn_chunk, force_index) ->
         let scen = W.Gen_expr.scenario ~seed ~depth:4 in
         let db = with_index_on_1 scen.W.Gen_expr.db in
         let check e =
           match
             let expected = Eval.eval db e in
             List.for_all
               (fun jobs ->
                 let plan =
                   Engine.Planner.plan ~jobs ~cores:jobs ~parallel_threshold:0
                     ~force_index db e
                 in
                 if force_index && index_applies db e then
                   Alcotest.(check bool)
                     ("forced plan uses an index: " ^ Expr.to_string e)
                     true
                     (Test_index.plan_has
                        (fun n ->
                          Test_index.is_index_scan n
                          || Test_index.is_index_join n)
                        plan);
                 List.for_all
                   (fun chunk_size ->
                     Relation.equal expected
                       (Engine.Exec.run ~chunk_size db plan))
                   (drawn_chunk :: chunk_sizes))
               jobs_list
           with
           | ok -> ok
           | exception Aggregate.Undefined _ -> true
         in
         let e = scen.W.Gen_expr.expr in
         check e && check (index_probe db e)))

(* --- chunk-boundary edge cases ----------------------------------------- *)

let s_kv = Schema.of_list [ ("k", Domain.DInt); ("v", Domain.DInt) ]
let kv a b = Tuple.of_list [ Value.Int a; Value.Int b ]

let check_chunked_equals_eval name db e =
  let expected = Eval.eval db e in
  List.iter
    (fun chunk_size ->
      List.iter
        (fun jobs ->
          let plan = forced_plan ~jobs db e in
          Alcotest.(check bool)
            (Printf.sprintf "%s (chunk=%d, jobs=%d)" name chunk_size jobs)
            true
            (Relation.equal expected (Engine.Exec.run ~chunk_size db plan)))
        jobs_list)
    (chunk_sizes @ [ Engine.Exec.default_chunk_size ])

let test_chunk_boundary_empty () =
  let db =
    Database.of_relations
      [
        ("a", Relation.empty s_kv);
        ("b", Relation.empty s_kv);
        ("c", Relation.of_counted_list s_kv [ (kv 1 1, 2) ]);
      ]
  in
  List.iter
    (fun (name, e) -> check_chunked_equals_eval name db e)
    [
      ("σ over empty", Expr.select (Pred.lt (Scalar.attr 1) (Scalar.int 3)) (Expr.rel "a"));
      ("empty ⋈ non-empty", Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "a") (Expr.rel "c"));
      ("non-empty − all", Expr.diff (Expr.rel "c") (Expr.rel "c"));
      ("Γ keys over empty", Expr.group_by [ 1 ] [ (Aggregate.Cnt, 1) ] (Expr.rel "a"));
      ( "global Γ over empty",
        Expr.group_by [] [ (Aggregate.Cnt, 1); (Aggregate.Sum, 2) ]
          (Expr.rel "a") );
    ]

let test_chunk_boundary_exact_multiple () =
  (* Cardinality an exact multiple of the chunk size: 510 = 2 × 255
     distinct rows, so the final chunk is exactly full and no ragged
     tail chunk exists (the lazy chunker must still terminate cleanly,
     not emit a trailing empty chunk). *)
  let rows = List.init 510 (fun i -> (kv (i mod 17) i, 1)) in
  let db = Database.of_relations [ ("a", Relation.of_counted_list s_kv rows) ] in
  List.iter
    (fun (name, e) -> check_chunked_equals_eval name db e)
    [
      ("σ at exact multiple", Expr.select (Pred.lt (Scalar.attr 1) (Scalar.int 9)) (Expr.rel "a"));
      ("δ at exact multiple", Expr.unique (Expr.project_attrs [ 1 ] (Expr.rel "a")));
      ("Γ at exact multiple", Expr.group_by [ 1 ] [ (Aggregate.Sum, 2) ] (Expr.rel "a"));
    ];
  (* ... and with the chunk size equal to the whole cardinality, and to
     exact divisors, the same plans must still agree. *)
  let e = Expr.group_by [ 1 ] [ (Aggregate.Cnt, 1) ] (Expr.rel "a") in
  let expected = Eval.eval db e in
  List.iter
    (fun chunk_size ->
      Alcotest.(check bool)
        (Printf.sprintf "divisor chunk %d" chunk_size)
        true
        (Relation.equal expected
           (Engine.Exec.run ~chunk_size db
              (Engine.Planner.plan db e))))
    [ 2; 3; 5; 6; 10; 17; 30; 51; 85; 102; 170; 255; 510 ]

let test_chunk_boundary_duplicates () =
  (* Duplicate-heavy bags: multiplicities well past any chunk size, and
     a ⊎-chain whose equal tuples arrive in different chunks — at chunk
     size 1, every counted element is its own chunk, so merging equal
     tuples across chunk boundaries is fully exercised. *)
  let heavy =
    Relation.of_counted_list s_kv
      [ (kv 1 1, 1000); (kv 2 2, 997); (kv 3 3, 1) ]
  in
  let db = Database.of_relations [ ("a", heavy) ] in
  let chain =
    Expr.union (Expr.rel "a") (Expr.union (Expr.rel "a") (Expr.rel "a"))
  in
  List.iter
    (fun (name, e) -> check_chunked_equals_eval name db e)
    [
      ("δ over multiplicity 1000", Expr.unique (Expr.rel "a"));
      ("Γ over multiplicity 1000", Expr.group_by [ 1 ] [ (Aggregate.Cnt, 1); (Aggregate.Sum, 2) ] (Expr.rel "a"));
      ("⊎-chain of duplicates", chain);
      ("δ over ⊎-chain", Expr.unique chain);
      ("self-⋈ of duplicates", Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "a") (Expr.rel "a"));
      ("3·bag − 2·bag", Expr.diff chain (Expr.union (Expr.rel "a") (Expr.rel "a")));
    ]

(* --- the adaptive planner's 1-core guarantee --------------------------- *)

let test_one_core_never_exchanges () =
  let a, db = diff_db 3 in
  let exprs = differential_exprs a in
  (* jobs=4 on a 1-core host: every plan must be purely sequential, even
     with the profitability floor forced to zero. *)
  List.iter
    (fun e ->
      let plan = Engine.Planner.plan ~jobs:4 ~cores:1 ~parallel_threshold:0 db e in
      Alcotest.(check int)
        ("no Exchange on one core: " ^ Expr.to_string e)
        0
        (Engine.Physical.exchange_count plan))
    exprs;
  (* Sanity: the same request on a 4-core host does parallelize. *)
  let some_exchange =
    List.exists
      (fun e ->
        Engine.Physical.exchange_count
          (Engine.Planner.plan ~jobs:4 ~cores:4 ~parallel_threshold:0 db e)
        > 0)
      exprs
  in
  Alcotest.(check bool) "four cores do parallelize" true some_exchange;
  (* And parallelize itself honours the guard, not just plan. *)
  let stats = Engine.Stats.env_of_database db in
  let schemas = Typecheck.env_of_database db in
  let seq = Engine.Planner.plan db (List.nth exprs 4) in
  Alcotest.(check int) "parallelize is the identity on one core" 0
    (Engine.Physical.exchange_count
       (Engine.Planner.parallelize ~stats ~schemas ~jobs:8 ~cores:1
          ~threshold:0 seq))

(* Every Exchange shape (σ/π pipeline, join, grouped and global Γ)
   dispatches through the one pool path: one worker span per fragment,
   and one feedback observation per Exchange. *)
let exchange_shapes =
  let eq13 = Pred.eq (Scalar.attr 1) (Scalar.attr 3) in
  [
    ( "scan-worker",
      Expr.select (Pred.lt (Scalar.attr 2) (Scalar.int 6)) (Expr.rel "a") );
    ("join-worker", Expr.join eq13 (Expr.rel "b") (Expr.rel "c"));
    ("agg-worker", Expr.group_by [ 1 ] [ (Aggregate.Cnt, 1) ] (Expr.rel "a"));
    ("agg-worker", Expr.group_by [] [ (Aggregate.Sum, 2) ] (Expr.rel "a"));
  ]

let test_exchange_worker_spans () =
  let _, db = diff_db 5 in
  List.iter
    (fun (worker, e) ->
      let spans = ref [] in
      Mxra_obs.Trace.set_sinks
        [
          {
            Mxra_obs.Trace.null_sink with
            on_span = (fun sp -> spans := sp.Mxra_obs.Trace.name :: !spans);
          };
        ];
      Fun.protect ~finally:Mxra_obs.Trace.close (fun () ->
          ignore (Engine.Exec.run db (forced_plan ~jobs:4 db e)));
      Alcotest.(check int)
        (worker ^ " span per fragment: " ^ Expr.to_string e)
        4
        (List.length (List.filter (String.equal worker) !spans)))
    exchange_shapes

let test_exchange_feeds_back () =
  let _, db = diff_db 5 in
  Engine.Feedback.reset ();
  List.iter
    (fun (_, e) ->
      let plan = forced_plan ~jobs:4 db e in
      let before = Engine.Feedback.observations () in
      ignore (Engine.Exec.run db plan);
      Alcotest.(check int)
        ("one observation per Exchange: " ^ Expr.to_string e)
        (Engine.Physical.exchange_count plan)
        (Engine.Feedback.observations () - before))
    exchange_shapes;
  Engine.Feedback.reset ()

(* Under an Exchange a fused σ/π chain runs stage by stage in every
   fragment; the fragments' tallies are summed, so each stage reports
   the rows and elements it reports in the sequential plan. *)
let fused_stages_count_as_sequential =
  let stages (r : Engine.Exec.report) =
    let rec go (r : Engine.Exec.report) acc =
      let acc =
        List.fold_left (fun acc c -> go c acc) acc r.Engine.Exec.inputs
      in
      match r.Engine.Exec.node with
      | Engine.Physical.Exchange _ -> acc
      | p ->
          ( Engine.Physical.label p,
            r.Engine.Exec.actual.Engine.Exec.out_rows,
            r.Engine.Exec.actual.Engine.Exec.out_elems )
          :: acc
    in
    List.sort compare (go r [])
  in
  let chains =
    let lt = Pred.lt (Scalar.attr 2) (Scalar.int 6) in
    let sum = [ Scalar.attr 2; Scalar.add (Scalar.attr 1) (Scalar.attr 2) ] in
    [
      Expr.project sum (Expr.select lt (Expr.rel "a"));
      Expr.select
        (Pred.lt (Scalar.attr 2) (Scalar.int 9))
        (Expr.project sum (Expr.select lt (Expr.rel "a")));
    ]
  in
  prop "fused σ/π stages under Exchange count as sequential"
    (fun (seed, parts) ->
      let _, db = diff_db seed in
      List.for_all
        (fun e ->
          let seq =
            Engine.Exec.run_instrumented db (forced_plan ~jobs:1 db e)
          in
          let plan = forced_plan ~jobs:parts db e in
          let par = Engine.Exec.run_instrumented db plan in
          (parts = 1 || Engine.Physical.exchange_count plan > 0)
          && Relation.equal seq.Engine.Exec.result par.Engine.Exec.result
          && stages par.Engine.Exec.root = stages seq.Engine.Exec.root)
        chains)

let test_feedback_bar () =
  Engine.Feedback.reset ();
  Alcotest.(check (option int)) "no observations, no bar" None
    (Engine.Feedback.min_profitable_rows ());
  (* A loss at 1000 rows: only inputs past 2000 are worth trying. *)
  Engine.Feedback.note ~rows:1000 ~gain_ms:(-2.0);
  Alcotest.(check (option int)) "loss doubles the bar" (Some 2000)
    (Engine.Feedback.min_profitable_rows ());
  (* A win at 5000 rows cannot lower the bar below the observed loss
     region's ceiling... *)
  Engine.Feedback.note ~rows:5000 ~gain_ms:1.5;
  Alcotest.(check (option int)) "win above the bar keeps it" (Some 2000)
    (Engine.Feedback.min_profitable_rows ());
  (* ...but a win at a smaller size pulls it down. *)
  Engine.Feedback.note ~rows:800 ~gain_ms:0.5;
  Alcotest.(check (option int)) "smaller win lowers the bar" (Some 800)
    (Engine.Feedback.min_profitable_rows ());
  Alcotest.(check int) "observations counted" 3
    (Engine.Feedback.observations ());
  (* Zero-row reports are noise and must be ignored. *)
  Engine.Feedback.note ~rows:0 ~gain_ms:(-1.0);
  Alcotest.(check (option int)) "zero rows ignored" (Some 800)
    (Engine.Feedback.min_profitable_rows ());
  Engine.Feedback.reset ();
  Alcotest.(check (option int)) "reset clears the bar" None
    (Engine.Feedback.min_profitable_rows ());
  Alcotest.(check int) "reset clears the count" 0
    (Engine.Feedback.observations ())

let suite =
  ( "parallel",
    [
      par_select_matches;
      par_project_matches;
      par_join_matches;
      par_join_multi_key_matches;
      par_group_by_matches;
      par_group_by_multi_attr_matches;
      par_global_aggregate_matches;
      exchange_plans_match;
      Alcotest.test_case "differential harness reaches every operator" `Quick
        test_operator_coverage;
      chunked_operators_match_eval;
      metamorphic_chunk_jobs;
      Alcotest.test_case "chunk boundaries: empty inputs" `Quick
        test_chunk_boundary_empty;
      Alcotest.test_case "chunk boundaries: exact multiples" `Quick
        test_chunk_boundary_exact_multiple;
      Alcotest.test_case "chunk boundaries: duplicate-heavy bags" `Quick
        test_chunk_boundary_duplicates;
      Alcotest.test_case "adaptive planner: one core, no Exchange" `Quick
        test_one_core_never_exchanges;
      Alcotest.test_case "Exchange feedback bar" `Quick test_feedback_bar;
      Alcotest.test_case "Exchange worker spans" `Quick
        test_exchange_worker_spans;
      Alcotest.test_case "every Exchange feeds back" `Quick
        test_exchange_feeds_back;
      fused_stages_count_as_sequential;
    ] )
