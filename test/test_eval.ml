(* Tests of the reference evaluator against hand-computed multiplicities
   from the paper's definitions (3.1, 3.2, 3.4), plus the worked examples
   of Sections 3 and 4 on the tiny beer database. *)

open Mxra_relational
open Mxra_core
module W = Mxra_workload

let s_int2 = Schema.of_list [ ("a", Domain.DInt); ("b", Domain.DInt) ]
let tup a b = Tuple.of_list [ Value.Int a; Value.Int b ]

let rel pairs = Relation.of_counted_list s_int2 pairs
let check_rel msg expected actual =
  Alcotest.(check bool)
    (msg ^ " (got " ^ Relation.to_string actual ^ ")")
    true
    (Relation.equal expected actual)

let e r = Expr.const r
let run expr = Eval.eval_closed expr

(* Two overlapping bags used throughout. *)
let r1 = rel [ (tup 1 1, 3); (tup 2 2, 1) ]
let r2 = rel [ (tup 1 1, 1); (tup 3 3, 2) ]

let test_union () =
  check_rel "multiplicities add"
    (rel [ (tup 1 1, 4); (tup 2 2, 1); (tup 3 3, 2) ])
    (run (Expr.union (e r1) (e r2)))

let test_diff () =
  check_rel "monus" (rel [ (tup 1 1, 2); (tup 2 2, 1) ])
    (run (Expr.diff (e r1) (e r2)));
  check_rel "monus other way" (rel [ (tup 3 3, 2) ])
    (run (Expr.diff (e r2) (e r1)))

let test_intersect () =
  check_rel "pointwise min" (rel [ (tup 1 1, 1) ])
    (run (Expr.intersect (e r1) (e r2)))

let test_product () =
  let left = rel [ (tup 1 2, 2) ] in
  let right =
    Relation.of_counted_list (Schema.of_list [ ("c", Domain.DInt) ])
      [ (Tuple.of_list [ Value.Int 9 ], 3) ]
  in
  let result = run (Expr.product (e left) (e right)) in
  Alcotest.(check int) "multiplicities multiply" 6
    (Relation.multiplicity (Tuple.of_list [ Value.Int 1; Value.Int 2; Value.Int 9 ]) result);
  Alcotest.(check int) "schema concatenated" 3
    (Schema.arity (Relation.schema result))

let test_select () =
  let p = Pred.gt (Scalar.attr 1) (Scalar.int 1) in
  check_rel "keeps multiplicities of satisfying tuples"
    (rel [ (tup 2 2, 1) ])
    (run (Expr.select p (e r1)))

let test_project_accumulates () =
  (* π on bags: pre-images accumulate, no duplicate elimination. *)
  let r = rel [ (tup 1 1, 2); (tup 1 2, 3) ] in
  let result = run (Expr.project_attrs [ 1 ] (e r)) in
  Alcotest.(check int) "sum over pre-image" 5
    (Relation.multiplicity (Tuple.of_list [ Value.Int 1 ]) result);
  Alcotest.(check int) "cardinality preserved" 5 (Relation.cardinal result)

let test_extended_projection () =
  let r = rel [ (tup 2 5, 1) ] in
  let exprs = [ Scalar.add (Scalar.attr 1) (Scalar.attr 2); Scalar.attr 1 ] in
  let result = run (Expr.project exprs (e r)) in
  Alcotest.(check int) "arithmetic applied" 1
    (Relation.multiplicity (Tuple.of_list [ Value.Int 7; Value.Int 2 ]) result)

let test_join_is_selected_product () =
  let left = rel [ (tup 1 10, 2); (tup 2 20, 1) ] in
  let right = rel [ (tup 1 99, 3) ] in
  let p = Pred.eq (Scalar.attr 1) (Scalar.attr 3) in
  let joined = run (Expr.join p (e left) (e right)) in
  let via_product = run (Expr.select p (Expr.product (e left) (e right))) in
  Alcotest.(check bool) "join = select of product (Thm 3.1)" true
    (Relation.equal joined via_product);
  Alcotest.(check int) "match multiplicity 2*3" 6
    (Relation.multiplicity
       (Tuple.of_list [ Value.Int 1; Value.Int 10; Value.Int 1; Value.Int 99 ])
       joined)

let test_unique () =
  let result = run (Expr.unique (e r1)) in
  Alcotest.(check int) "all multiplicities 1" 1
    (Relation.multiplicity (tup 1 1) result);
  Alcotest.(check int) "support preserved" 2 (Relation.cardinal result)

let test_groupby () =
  (* Group (a,b) by a, CNT and SUM of b; multiplicities weigh in. *)
  let r = rel [ (tup 1 10, 2); (tup 1 20, 1); (tup 2 5, 1) ] in
  let result =
    run (Expr.group_by [ 1 ] [ (Aggregate.Cnt, 2); (Aggregate.Sum, 2) ] (e r))
  in
  let row a cnt sum =
    Tuple.of_list [ Value.Int a; Value.Int cnt; Value.Int sum ]
  in
  Alcotest.(check int) "group 1" 1 (Relation.multiplicity (row 1 3 40) result);
  Alcotest.(check int) "group 2" 1 (Relation.multiplicity (row 2 1 5) result);
  Alcotest.(check int) "two groups" 2 (Relation.cardinal result)

let test_groupby_empty_alpha () =
  let r = rel [ (tup 1 10, 2); (tup 2 20, 1) ] in
  let result = run (Expr.aggregate Aggregate.Sum 2 (e r)) in
  Alcotest.(check int) "single tuple" 1 (Relation.cardinal result);
  Alcotest.(check int) "sum weighted by multiplicity" 1
    (Relation.multiplicity (Tuple.of_list [ Value.Int 40 ]) result)

let test_groupby_empty_alpha_empty_input () =
  let empty = Relation.empty s_int2 in
  let cnt = run (Expr.aggregate Aggregate.Cnt 1 (e empty)) in
  Alcotest.(check int) "CNT of empty is the tuple (0)" 1
    (Relation.multiplicity (Tuple.of_list [ Value.Int 0 ]) cnt);
  Alcotest.(check bool) "AVG of empty is undefined" true
    (match run (Expr.aggregate Aggregate.Avg 1 (e empty)) with
    | _ -> false
    | exception Aggregate.Undefined Aggregate.Avg -> true)

let test_sum_empty_float_domain () =
  let s = Schema.of_list [ ("x", Domain.DFloat) ] in
  let result = run (Expr.aggregate Aggregate.Sum 1 (e (Relation.empty s))) in
  Alcotest.(check int) "empty float SUM is 0.0 (not int 0)" 1
    (Relation.multiplicity (Tuple.of_list [ Value.Float 0.0 ]) result)

let test_eval_against_db () =
  let db =
    Database.of_relations [ ("r", r1) ]
    |> Database.assign_temporary "t" r2
  in
  check_rel "relation by name" r1 (Eval.eval db (Expr.rel "r"));
  check_rel "temporaries visible" r2 (Eval.eval db (Expr.rel "t"));
  Alcotest.check_raises "unknown relation" (Database.Unknown_relation "zz")
    (fun () -> ignore (Eval.eval db (Expr.rel "zz")))

(* --- the paper's examples on the tiny beer database ------------------- *)

let test_example_3_1 () =
  (* Names of beers brewn in NL; Pilsener appears three times. *)
  let result = Eval.eval W.Beer.tiny W.Beer.example_3_1 in
  let name s = Tuple.of_list [ Value.Str s ] in
  Alcotest.(check int) "Pilsener duplicated" 3
    (Relation.multiplicity (name "Pilsener") result);
  Alcotest.(check int) "Bock twice" 2 (Relation.multiplicity (name "Bock") result);
  Alcotest.(check int) "Belgian beer absent" 0
    (Relation.multiplicity (name "Tripel") result)

let test_example_3_2_equivalence () =
  (* The paper's point: with bag semantics, inserting the reducing
     projection does not change the result. *)
  let full = Eval.eval W.Beer.tiny W.Beer.example_3_2 in
  let reduced = Eval.eval W.Beer.tiny W.Beer.example_3_2_reduced in
  Alcotest.(check bool) "same result with and without inner projection"
    true
    (Relation.equal full reduced)

let test_example_3_2_set_semantics_differs () =
  (* Under set semantics (δ after the projection), the reduced variant
     produces a *different* (wrong) AVG: duplicate (alcperc, country)
     pairs collapse.  We exhibit the discrepancy the paper warns about. *)
  let set_reduced =
    Expr.group_by [ 2 ]
      [ (Aggregate.Avg, 1) ]
      (Expr.unique
         (Expr.project_attrs [ 3; 6 ]
            (Expr.join
               (Pred.eq (Scalar.attr 2) (Scalar.attr 4))
               (Expr.rel "beer") (Expr.rel "brewery"))))
  in
  (* Make two Dutch beers share an alcperc so δ really collapses. *)
  let db =
    Database.set "beer"
      (Relation.of_list W.Beer.beer_schema
         [
           Tuple.of_list [ Value.Str "A"; Value.Str "Guineken"; Value.Float 5.0 ];
           Tuple.of_list [ Value.Str "B"; Value.Str "Grolsch"; Value.Float 5.0 ];
           Tuple.of_list [ Value.Str "C"; Value.Str "Guineken"; Value.Float 8.0 ];
         ])
      W.Beer.tiny
  in
  let bag_avg = Eval.eval db W.Beer.example_3_2 in
  let set_avg = Eval.eval db set_reduced in
  (* Bag: (5+5+8)/3 = 6.0; set: (5+8)/2 = 6.5 for NL. *)
  let nl v = Tuple.of_list [ Value.Str "NL"; Value.Float v ] in
  Alcotest.(check int) "bag semantics correct" 1
    (Relation.multiplicity (nl 6.0) bag_avg);
  Alcotest.(check int) "set semantics wrong" 1
    (Relation.multiplicity (nl 6.5) set_avg)

(* --- aggregates directly ---------------------------------------------- *)

let col vs = List.map (fun (v, n) -> (v, n)) vs

let test_aggregate_functions () =
  let column =
    col [ (Value.Int 10, 2); (Value.Int 20, 1); (Value.Int 0, 1) ]
  in
  Alcotest.(check int) "CNT counts multiplicities" 4 (Aggregate.cnt column);
  Alcotest.(check bool) "SUM weighted" true
    (Value.equal (Aggregate.sum column) (Value.Int 40));
  Alcotest.(check (float 1e-9)) "AVG" 10.0 (Aggregate.avg column);
  Alcotest.(check bool) "MIN" true
    (Value.equal (Aggregate.min_v column) (Value.Int 0));
  Alcotest.(check bool) "MAX" true
    (Value.equal (Aggregate.max_v column) (Value.Int 20))

let test_aggregate_partiality () =
  Alcotest.check_raises "AVG undefined on empty" (Aggregate.Undefined Aggregate.Avg)
    (fun () -> ignore (Aggregate.avg []));
  Alcotest.check_raises "MIN undefined on empty" (Aggregate.Undefined Aggregate.Min)
    (fun () -> ignore (Aggregate.min_v []));
  Alcotest.(check int) "CNT total on empty" 0 (Aggregate.cnt []);
  Alcotest.(check bool) "SUM total on empty" true
    (Value.equal (Aggregate.sum []) (Value.Int 0))

let test_aggregate_domains () =
  Alcotest.(check bool) "CNT always int" true
    (Domain.equal (Aggregate.result_domain Aggregate.Cnt Domain.DStr) Domain.DInt);
  Alcotest.(check bool) "AVG float" true
    (Domain.equal (Aggregate.result_domain Aggregate.Avg Domain.DInt) Domain.DFloat);
  Alcotest.(check bool) "SUM rejects strings" true
    (match Aggregate.result_domain Aggregate.Sum Domain.DStr with
    | _ -> false
    | exception Scalar.Eval_error _ -> true);
  Alcotest.(check bool) "MIN on strings fine" true
    (Domain.equal (Aggregate.result_domain Aggregate.Min Domain.DStr) Domain.DStr);
  Alcotest.(check bool) "MAX rejects bool" true
    (match Aggregate.result_domain Aggregate.Max Domain.DBool with
    | _ -> false
    | exception Scalar.Eval_error _ -> true)

let test_var_stddev () =
  (* Extension aggregates (Definition 3.3's remark): population
     variance and standard deviation, multiplicity-weighted. *)
  let column = [ (Value.Int 2, 1); (Value.Int 4, 3) ] in
  (* mean = 3.5; var = ((2-3.5)^2 + 3*(4-3.5)^2)/4 = (2.25+0.75)/4 *)
  Alcotest.(check (float 1e-9)) "VAR weighted" 0.75 (Aggregate.var column);
  Alcotest.(check bool) "STDDEV = sqrt VAR" true
    (Value.equal
       (Aggregate.compute Aggregate.Stddev column)
       (Value.Float (sqrt 0.75)));
  Alcotest.check_raises "VAR undefined on empty" (Aggregate.Undefined Aggregate.Var)
    (fun () -> ignore (Aggregate.var []));
  Alcotest.(check bool) "VAR result domain is float" true
    (Domain.equal (Aggregate.result_domain Aggregate.Var Domain.DInt) Domain.DFloat);
  Alcotest.(check bool) "VAR rejects strings" true
    (match Aggregate.result_domain Aggregate.Var Domain.DStr with
    | _ -> false
    | exception Scalar.Eval_error _ -> true);
  (* Through the algebra and through the engine. *)
  let r = rel [ (tup 1 2, 1); (tup 1 4, 3) ] in
  let q = Expr.group_by [ 1 ] [ (Aggregate.Var, 2) ] (e r) in
  let expected = Tuple.of_list [ Value.Int 1; Value.Float 0.75 ] in
  Alcotest.(check int) "Γ VAR via reference" 1
    (Relation.multiplicity expected (run q));
  Alcotest.(check int) "Γ VAR via engine" 1
    (Relation.multiplicity expected
       (Mxra_engine.Exec.run_expr Database.empty q))

let test_float_fold_canonicalisation () =
  (* Regression: the same float value with its multiplicity split across
     entries must aggregate identically to the consolidated form —
     engine streams split counts, the reference bag consolidates them,
     and float rounding must not see the difference. *)
  let v = Value.Float 0.37 in
  let split = [ (v, 2); (Value.Float 1.13, 1); (v, 3) ] in
  let merged = [ (v, 5); (Value.Float 1.13, 1) ] in
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        ("split = merged for " ^ Aggregate.name kind)
        true
        (Value.equal
           (Aggregate.compute_for Domain.DFloat kind split)
           (Aggregate.compute_for Domain.DFloat kind merged)))
    Aggregate.all_extended

(* The accumulator law every Γ execution path relies on: fold any split
   of a counted column into separate states, merge them, and the
   finished value is exactly the reference [compute_for] of the whole
   column — bit for bit on floats, and with the same partiality. *)
let acc_split_merge_law =
  let fold kind domain column =
    List.fold_left
      (fun acc (v, n) -> Aggregate.Acc.step acc v n)
      (Aggregate.Acc.init kind domain)
      column
  in
  let outcome f = match f () with v -> Ok v | exception e -> Error e in
  let entries = QCheck.(small_list (pair (int_range 0 40) (int_range 1 4))) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Acc: split, merge, finish = compute_for" ~count:300
       QCheck.(triple bool entries small_nat)
       (fun (floats, entries, cut) ->
         let domain, value =
           if floats then
             (Domain.DFloat, fun x -> Value.Float (float_of_int x /. 7.0))
           else (Domain.DInt, fun x -> Value.Int x)
         in
         let column = List.map (fun (x, n) -> (value x, n)) entries in
         let cut = cut mod (List.length column + 1) in
         let front = List.filteri (fun i _ -> i < cut) column in
         let back = List.filteri (fun i _ -> i >= cut) column in
         List.for_all
           (fun kind ->
             let merged () =
               Aggregate.Acc.finish
                 (Aggregate.Acc.merge (fold kind domain front)
                    (fold kind domain back))
             in
             let whole () = Aggregate.compute_for domain kind column in
             match (outcome merged, outcome whole) with
             | Ok a, Ok b -> Value.equal a b
             | Error a, Error b -> a = b
             | Ok _, Error _ | Error _, Ok _ -> false)
           Aggregate.all_extended))

let test_acc_edges () =
  let finish_empty kind =
    Aggregate.Acc.finish (Aggregate.Acc.init kind Domain.DInt)
  in
  Alcotest.(check bool) "empty CNT is 0" true
    (Value.equal (finish_empty Aggregate.Cnt) (Value.Int 0));
  Alcotest.(check bool) "empty int SUM is 0" true
    (Value.equal (finish_empty Aggregate.Sum) (Value.Int 0));
  Alcotest.(check bool) "empty float SUM is 0." true
    (Value.equal
       (Aggregate.Acc.finish (Aggregate.Acc.init Aggregate.Sum Domain.DFloat))
       (Value.Float 0.0));
  (* STDDEV is the square root of VAR, so it reports VAR's partiality,
     as [compute_for] does. *)
  List.iter
    (fun (kind, undefined) ->
      Alcotest.check_raises
        (Aggregate.name kind ^ " undefined on empty")
        (Aggregate.Undefined undefined)
        (fun () -> ignore (finish_empty kind)))
    Aggregate.[ (Avg, Avg); (Min, Min); (Max, Max); (Var, Var); (Stddev, Var) ];
  Alcotest.(check bool) "merging different aggregates is refused" true
    (match
       Aggregate.Acc.merge
         (Aggregate.Acc.init Aggregate.Cnt Domain.DInt)
         (Aggregate.Acc.init Aggregate.Min Domain.DInt)
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "integer SUM refuses a string" true
    (match
       Aggregate.Acc.step
         (Aggregate.Acc.init Aggregate.Sum Domain.DInt)
         (Value.Str "x") 1
     with
    | _ -> false
    | exception Scalar.Eval_error _ -> true)

let test_aggregate_names () =
  List.iter
    (fun kind ->
      Alcotest.(check (option string))
        ("round trip " ^ Aggregate.name kind)
        (Some (Aggregate.name kind))
        (Option.map Aggregate.name (Aggregate.of_name (Aggregate.name kind))))
    Aggregate.all;
  Alcotest.(check (option string)) "COUNT alias" (Some "CNT")
    (Option.map Aggregate.name (Aggregate.of_name "count"))

(* --- scalar/pred dynamics --------------------------------------------- *)

let test_scalar_eval () =
  let t = Tuple.of_list [ Value.Int 6; Value.Float 1.5 ] in
  let v = Scalar.eval t (Scalar.add (Scalar.attr 1) (Scalar.int 4)) in
  Alcotest.(check bool) "int add" true (Value.equal v (Value.Int 10));
  let v = Scalar.eval t (Scalar.mul (Scalar.attr 2) (Scalar.float 2.0)) in
  Alcotest.(check bool) "float mul" true (Value.equal v (Value.Float 3.0));
  let v = Scalar.eval t (Scalar.Binop (Term.Concat, Scalar.str "a", Scalar.str "b")) in
  Alcotest.(check bool) "concat" true (Value.equal v (Value.Str "ab"));
  Alcotest.(check bool) "mixed int/float promotes" true
    (Value.equal
       (Scalar.eval t (Scalar.add (Scalar.attr 1) (Scalar.attr 2)))
       (Value.Float 7.5))

let test_scalar_division_by_zero () =
  Alcotest.(check bool) "div by zero raises" true
    (match Scalar.eval Tuple.unit (Scalar.div (Scalar.int 1) (Scalar.int 0)) with
    | _ -> false
    | exception Scalar.Eval_error _ -> true)

let test_pred_eval () =
  let t = Tuple.of_list [ Value.Int 5; Value.Str "x" ] in
  Alcotest.(check bool) "lt" true
    (Pred.eval t (Pred.lt (Scalar.attr 1) (Scalar.int 9)));
  Alcotest.(check bool) "and/or/not" true
    (Pred.eval t
       (Pred.And
          ( Pred.Or (Pred.eq (Scalar.attr 2) (Scalar.str "y"),
                     Pred.ne (Scalar.attr 2) (Scalar.str "q")),
            Pred.Not (Pred.gt (Scalar.attr 1) (Scalar.int 5)) )))

let test_pred_simplify () =
  let p = Pred.And (Pred.True, Pred.lt (Scalar.attr 1) (Scalar.int 3)) in
  Alcotest.(check bool) "and true elim" true
    (Pred.equal (Pred.simplify p) (Pred.lt (Scalar.attr 1) (Scalar.int 3)));
  Alcotest.(check bool) "constant fold" true
    (Pred.equal (Pred.simplify (Pred.lt (Scalar.int 1) (Scalar.int 2))) Pred.True);
  Alcotest.(check bool) "or false elim, not not" true
    (Pred.equal
       (Pred.simplify (Pred.Or (Pred.False, Pred.Not (Pred.Not Pred.True))))
       Pred.True)

let test_attrs_used () =
  let e =
    Scalar.If
      ( Pred.eq (Scalar.attr 4) (Scalar.int 0),
        Scalar.add (Scalar.attr 2) (Scalar.attr 2),
        Scalar.attr 7 )
  in
  Alcotest.(check (list int)) "footprint" [ 2; 4; 7 ] (Scalar.attrs_used e);
  Alcotest.(check int) "max" 7 (Scalar.max_attr e);
  Alcotest.(check (list int)) "shifted" [ 5; 7; 10 ]
    (Scalar.attrs_used (Scalar.shift 3 e))

(* --- delete / monus regressions (Definition 3.1) ------------------------ *)

(* delete(R, E) is R ← R − E with − the monus of Definition 3.1:
   (R − E)(t) = max(0, R(t) − E(t)).  Pinned here statement-by-statement
   on the edge cases: empty operands, over-deletion (saturation), exact
   cancellation, and duplicate-heavy bags — through the reference
   evaluator and through the planner + executor. *)

let delete_via_exec db stmt =
  match stmt with
  | Statement.Delete (name, e) ->
      let result =
        Mxra_engine.Exec.run db (Mxra_engine.Planner.plan db e)
      in
      Eval.diff (Database.find name db) result
  | _ -> assert false

let check_delete db stmt expected =
  let name =
    match stmt with Statement.Delete (n, _) -> n | _ -> assert false
  in
  let after_eval = Database.find name (fst (Statement.exec db stmt)) in
  check_rel "via Statement/Eval" expected after_eval;
  check_rel "via Planner/Exec" expected (delete_via_exec db stmt)

let test_delete_monus_edges () =
  let db = Database.of_relations [ ("r", rel [ (tup 1 1, 3); (tup 2 2, 1) ]) ] in
  let del bag = Statement.Delete ("r", Expr.const (rel bag)) in
  check_delete db
    (del [ (tup 9 9, 5) ])
    (rel [ (tup 1 1, 3); (tup 2 2, 1) ]);
  (* absent tuples: no-op *)
  check_delete db (del []) (rel [ (tup 1 1, 3); (tup 2 2, 1) ]);
  (* empty E: identity *)
  check_delete db
    (del [ (tup 1 1, 7) ])
    (rel [ (tup 2 2, 1) ]);
  (* over-deletion saturates at 0, never negative *)
  check_delete db
    (del [ (tup 1 1, 3) ])
    (rel [ (tup 2 2, 1) ]);
  (* exact cancellation leaves the support *)
  check_delete db
    (del [ (tup 1 1, 2) ])
    (rel [ (tup 1 1, 1); (tup 2 2, 1) ])
(* partial deletion decrements *)

let test_delete_from_empty () =
  let db = Database.of_relations [ ("r", rel []) ] in
  check_delete db
    (Statement.Delete ("r", Expr.const (rel [ (tup 1 1, 2) ])))
    (rel []);
  check_delete db (Statement.Delete ("r", Expr.const (rel []))) (rel [])

let test_delete_self_empties () =
  (* Duplicate-heavy self-delete: delete(R, R) must empty R exactly,
     whatever the multiplicities. *)
  let heavy = rel [ (tup 1 1, 17); (tup 2 2, 1); (tup 3 3, 400) ] in
  let db = Database.of_relations [ ("r", heavy) ] in
  check_delete db (Statement.Delete ("r", Expr.rel "r")) (rel []);
  (* And via a selection of R: only the selected part goes. *)
  check_delete db
    (Statement.Delete
       ("r", Expr.select (Pred.eq (Scalar.attr 1) (Scalar.int 3)) (Expr.rel "r")))
    (rel [ (tup 1 1, 17); (tup 2 2, 1) ])

let test_zero_multiplicity_literal () =
  (* Definition 2.1: a multiplicity of 0 denotes absence.  Building a
     bag from a counted list containing a 0 entry used to raise a bare
     Invalid_argument; it must simply contribute nothing. *)
  check_rel "zero multiplicity means absent"
    (rel [ (tup 1 1, 2) ])
    (rel [ (tup 1 1, 2); (tup 5 5, 0) ]);
  Alcotest.(check bool) "absent from support" false
    (Relation.mem (tup 5 5) (rel [ (tup 5 5, 0) ]));
  Alcotest.check_raises "negative multiplicity still rejected"
    (Invalid_argument "Multiset.of_counted: count -1 < 0") (fun () ->
      ignore (rel [ (tup 1 1, -1) ]))

let suite =
  ( "eval",
    [
      Alcotest.test_case "union" `Quick test_union;
      Alcotest.test_case "difference (monus)" `Quick test_diff;
      Alcotest.test_case "intersection (min)" `Quick test_intersect;
      Alcotest.test_case "product multiplies" `Quick test_product;
      Alcotest.test_case "selection" `Quick test_select;
      Alcotest.test_case "projection accumulates" `Quick test_project_accumulates;
      Alcotest.test_case "extended projection" `Quick test_extended_projection;
      Alcotest.test_case "join = σ∘× (Thm 3.1)" `Quick test_join_is_selected_product;
      Alcotest.test_case "unique" `Quick test_unique;
      Alcotest.test_case "groupby" `Quick test_groupby;
      Alcotest.test_case "groupby empty α" `Quick test_groupby_empty_alpha;
      Alcotest.test_case "groupby empty α, empty input" `Quick
        test_groupby_empty_alpha_empty_input;
      Alcotest.test_case "empty SUM stays in float domain" `Quick
        test_sum_empty_float_domain;
      Alcotest.test_case "evaluation against a database" `Quick test_eval_against_db;
      Alcotest.test_case "Example 3.1" `Quick test_example_3_1;
      Alcotest.test_case "Example 3.2: bag equivalence" `Quick
        test_example_3_2_equivalence;
      Alcotest.test_case "Example 3.2: set semantics differs" `Quick
        test_example_3_2_set_semantics_differs;
      Alcotest.test_case "aggregate functions" `Quick test_aggregate_functions;
      Alcotest.test_case "aggregate partiality" `Quick test_aggregate_partiality;
      Alcotest.test_case "aggregate result domains" `Quick test_aggregate_domains;
      Alcotest.test_case "VAR and STDDEV extensions" `Quick test_var_stddev;
      Alcotest.test_case "float fold canonicalisation" `Quick
        test_float_fold_canonicalisation;
      acc_split_merge_law;
      Alcotest.test_case "accumulator edge cases" `Quick test_acc_edges;
      Alcotest.test_case "aggregate names" `Quick test_aggregate_names;
      Alcotest.test_case "scalar evaluation" `Quick test_scalar_eval;
      Alcotest.test_case "division by zero" `Quick test_scalar_division_by_zero;
      Alcotest.test_case "condition evaluation" `Quick test_pred_eval;
      Alcotest.test_case "condition simplification" `Quick test_pred_simplify;
      Alcotest.test_case "attribute footprints" `Quick test_attrs_used;
      Alcotest.test_case "delete monus edge cases" `Quick test_delete_monus_edges;
      Alcotest.test_case "delete from/of empty bags" `Quick test_delete_from_empty;
      Alcotest.test_case "duplicate-heavy self-delete" `Quick
        test_delete_self_empties;
      Alcotest.test_case "zero-multiplicity literal" `Quick
        test_zero_multiplicity_literal;
    ] )
