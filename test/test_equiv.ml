(* Section 3.3: every rewrite rule is semantics-preserving, checked both
   on the paper's concrete expressions and property-style over random
   well-typed expressions and random database states.  Also exhibits the
   paper's explicit *non*-law for δ over ⊎. *)

open Mxra_relational
open Mxra_core
module W = Mxra_workload

let s_int = Schema.of_list [ ("a", Domain.DInt); ("b", Domain.DInt) ]
let tup a b = Tuple.of_list [ Value.Int a; Value.Int b ]

let db_small =
  Database.of_relations
    [
      ("e1", Relation.of_counted_list s_int [ (tup 1 1, 2); (tup 2 2, 1) ]);
      ("e2", Relation.of_counted_list s_int [ (tup 1 1, 1); (tup 3 3, 3) ]);
      ("e3", Relation.of_counted_list s_int [ (tup 2 2, 2) ]);
    ]

let equiv e1 e2 = Equiv.equivalent_on db_small e1 e2

(* --- Theorem 3.1 ------------------------------------------------------- *)

let test_thm31_intersect () =
  let lhs = Expr.intersect (Expr.rel "e1") (Expr.rel "e2") in
  match Equiv.derive_intersect lhs with
  | Some rhs ->
      Alcotest.(check bool) "E1∩E2 = E1−(E1−E2)" true (equiv lhs rhs);
      Alcotest.(check bool) "round trip" true
        (match Equiv.underive_intersect rhs with
        | Some back -> Expr.equal back lhs
        | None -> false)
  | None -> Alcotest.fail "rule did not match"

let test_thm31_join () =
  let p = Pred.eq (Scalar.attr 1) (Scalar.attr 3) in
  let lhs = Expr.join p (Expr.rel "e1") (Expr.rel "e2") in
  match Equiv.derive_join lhs with
  | Some rhs ->
      Alcotest.(check bool) "E1⋈E2 = σ(E1×E2)" true (equiv lhs rhs);
      Alcotest.(check bool) "join introduction inverts" true
        (match Equiv.underive_join rhs with
        | Some back -> Expr.equal back lhs
        | None -> false)
  | None -> Alcotest.fail "rule did not match"

(* --- Theorem 3.2 ------------------------------------------------------- *)

let test_thm32_select_union () =
  let p = Pred.gt (Scalar.attr 1) (Scalar.int 1) in
  let lhs = Expr.select p (Expr.union (Expr.rel "e1") (Expr.rel "e2")) in
  match Equiv.distribute_select_union lhs with
  | Some rhs -> Alcotest.(check bool) "σ distributes over ⊎" true (equiv lhs rhs)
  | None -> Alcotest.fail "rule did not match"

let test_thm32_project_union () =
  let lhs =
    Expr.project_attrs [ 1 ] (Expr.union (Expr.rel "e1") (Expr.rel "e2"))
  in
  match Equiv.distribute_project_union lhs with
  | Some rhs -> Alcotest.(check bool) "π distributes over ⊎" true (equiv lhs rhs)
  | None -> Alcotest.fail "rule did not match"

let test_unique_does_not_distribute () =
  (* The paper: δ(E1 ⊎ E2) ≠ δE1 ⊎ δE2 in general; the correct relation
     is δ(E1 ⊎ E2) = δ(δE1 ⊎ δE2).  e1 and e2 share the tuple (1,1). *)
  let u = Expr.union (Expr.rel "e1") (Expr.rel "e2") in
  let wrong = Expr.union (Expr.unique (Expr.rel "e1")) (Expr.unique (Expr.rel "e2")) in
  Alcotest.(check bool) "naive distribution is false" false
    (equiv (Expr.unique u) wrong);
  match Equiv.unique_union (Expr.unique u) with
  | Some rhs ->
      Alcotest.(check bool) "δ(E1⊎E2) = δ(δE1⊎δE2)" true
        (equiv (Expr.unique u) rhs)
  | None -> Alcotest.fail "rule did not match"

(* --- Theorem 3.3 ------------------------------------------------------- *)

let test_thm33_associativity () =
  let assoc_ok rule build =
    let lhs = build () in
    match rule lhs with
    | Some rhs -> equiv lhs rhs
    | None -> false
  in
  Alcotest.(check bool) "× associativity" true
    (assoc_ok Equiv.assoc_left_product (fun () ->
         Expr.product (Expr.rel "e1")
           (Expr.product (Expr.rel "e2") (Expr.rel "e3"))));
  Alcotest.(check bool) "⊎ associativity" true
    (assoc_ok Equiv.assoc_left_union (fun () ->
         Expr.union (Expr.rel "e1")
           (Expr.union (Expr.rel "e2") (Expr.rel "e3"))));
  Alcotest.(check bool) "∩ associativity" true
    (assoc_ok Equiv.assoc_left_intersect (fun () ->
         Expr.intersect (Expr.rel "e1")
           (Expr.intersect (Expr.rel "e2") (Expr.rel "e3"))))

let test_thm33_join_associativity () =
  let env = Typecheck.env_of_database db_small in
  (* e1 ⋈_{%1=%3} (e2 ⋈_{%1=%3} e3): inner condition relative to e2⊕e3. *)
  let inner = Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "e2") (Expr.rel "e3") in
  let lhs = Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "e1") inner in
  (match Equiv.assoc_left_join env lhs with
  | Some rhs ->
      Alcotest.(check bool) "⋈ reassociates left" true (equiv lhs rhs)
  | None -> Alcotest.fail "assoc_left_join did not match");
  let inner' = Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "e1") (Expr.rel "e2") in
  let lhs' = Expr.join (Pred.eq (Scalar.attr 3) (Scalar.attr 5)) inner' (Expr.rel "e3") in
  match Equiv.assoc_right_join env lhs' with
  | Some rhs ->
      Alcotest.(check bool) "⋈ reassociates right" true (equiv lhs' rhs)
  | None -> Alcotest.fail "assoc_right_join did not match"

(* --- classical extras on concrete inputs ------------------------------- *)

let test_select_cascade_and_commute () =
  let p = Pred.gt (Scalar.attr 1) (Scalar.int 0) in
  let q = Pred.lt (Scalar.attr 2) (Scalar.int 3) in
  let merged = Expr.select (Pred.And (p, q)) (Expr.rel "e1") in
  (match Equiv.cascade_select merged with
  | Some cascaded ->
      Alcotest.(check bool) "cascade" true (equiv merged cascaded);
      (match Equiv.commute_select cascaded with
      | Some commuted -> Alcotest.(check bool) "commute" true (equiv cascaded commuted)
      | None -> Alcotest.fail "commute did not match");
      (match Equiv.merge_select cascaded with
      | Some merged' -> Alcotest.(check bool) "merge back" true (equiv merged merged')
      | None -> Alcotest.fail "merge did not match")
  | None -> Alcotest.fail "cascade did not match")

let test_commute_product_join () =
  let env = Typecheck.env_of_database db_small in
  let prod = Expr.product (Expr.rel "e1") (Expr.rel "e2") in
  (match Equiv.commute_product env prod with
  | Some rhs -> Alcotest.(check bool) "× commutes via π" true (equiv prod rhs)
  | None -> Alcotest.fail "commute_product did not match");
  let j =
    Expr.join (Pred.eq (Scalar.attr 2) (Scalar.attr 3)) (Expr.rel "e1") (Expr.rel "e2")
  in
  match Equiv.commute_join env j with
  | Some rhs -> Alcotest.(check bool) "⋈ commutes via π" true (equiv j rhs)
  | None -> Alcotest.fail "commute_join did not match"

(* --- property: every rule in the table preserves semantics ------------- *)

(* For each rule, walk random expressions top-down and try to apply it at
   every node; whenever it fires, both whole expressions must agree. *)
let rec rewrite_somewhere apply env e =
  match apply env e with
  | Some e' -> Some e'
  | None ->
      let children_rewritten = ref false in
      let e' =
        Expr.map_children
          (fun child ->
            if !children_rewritten then child
            else
              match rewrite_somewhere apply env child with
              | Some child' ->
                  children_rewritten := true;
                  child'
              | None -> child)
          e
      in
      if !children_rewritten then Some e' else None

let rule_property (rule : Equiv.rule) =
  let name = "rule preserves semantics: " ^ rule.Equiv.rule_name in
  let test seed =
    let scen = W.Gen_expr.scenario ~seed ~depth:4 in
    let env = Typecheck.env_of_database scen.W.Gen_expr.db in
    match rewrite_somewhere rule.Equiv.apply env scen.W.Gen_expr.expr with
    | None -> true (* rule did not fire on this expression *)
    | Some rewritten -> (
        match
          Equiv.equivalent_on scen.W.Gen_expr.db scen.W.Gen_expr.expr rewritten
        with
        | ok -> ok
        | exception Aggregate.Undefined _ -> true)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:120 QCheck.small_nat test)

let rule_properties = List.map rule_property Equiv.all_rules

(* --- differential: laws through the planner and executor --------------- *)

(* [Equiv.equivalent_on] checks the laws against the reference
   evaluator; these properties check them against what actually runs:
   both sides of each fired rule are planned and executed at every
   (chunk size, fragment count) combination of the differential matrix
   — chunk sizes {1, 7, 64, 1024} × jobs {1, 2, 4} — and all results
   must be the same bag.  A law that held in Eval but broke in a
   physical operator, in its parallel split, or only at a particular
   chunk boundary surfaces here. *)
let chunk_sizes = [ 1; 7; 64; 1024 ]
let jobs_list = [ 1; 2; 4 ]

(* All twelve (chunk, jobs) executions of [e]; [cores:jobs] because on
   a single-core host the adaptive planner would otherwise — correctly
   — refuse to insert Exchange at all. *)
let exec_matrix db e =
  List.concat_map
    (fun jobs ->
      let plan =
        Mxra_engine.Planner.plan ~jobs ~cores:jobs ~parallel_threshold:0 db e
      in
      List.map
        (fun chunk_size -> Mxra_engine.Exec.run ~chunk_size db plan)
        chunk_sizes)
    jobs_list

let differential_property (rule : Equiv.rule) =
  let name = "planner/exec differential: " ^ rule.Equiv.rule_name in
  let test seed =
    let scen = W.Gen_expr.scenario ~seed ~depth:4 in
    let env = Typecheck.env_of_database scen.W.Gen_expr.db in
    match rewrite_somewhere rule.Equiv.apply env scen.W.Gen_expr.expr with
    | None -> true (* rule did not fire on this expression *)
    | Some rewritten -> (
        match
          let db = scen.W.Gen_expr.db in
          let lhs = exec_matrix db scen.W.Gen_expr.expr in
          let rhs = exec_matrix db rewritten in
          let reference = List.hd lhs in
          List.for_all (Relation.equal reference) (List.tl lhs @ rhs)
        with
        | ok -> ok
        | exception Aggregate.Undefined _ -> true)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:20 QCheck.small_nat test)

let differential_properties = List.map differential_property Equiv.all_rules

let suite =
  ( "equiv",
    [
      Alcotest.test_case "Thm 3.1: intersection derived" `Quick test_thm31_intersect;
      Alcotest.test_case "Thm 3.1: join derived" `Quick test_thm31_join;
      Alcotest.test_case "Thm 3.2: σ over ⊎" `Quick test_thm32_select_union;
      Alcotest.test_case "Thm 3.2: π over ⊎" `Quick test_thm32_project_union;
      Alcotest.test_case "δ does not distribute over ⊎" `Quick
        test_unique_does_not_distribute;
      Alcotest.test_case "Thm 3.3: ×,⊎,∩ associativity" `Quick
        test_thm33_associativity;
      Alcotest.test_case "Thm 3.3: ⋈ associativity" `Quick
        test_thm33_join_associativity;
      Alcotest.test_case "select cascade/commute/merge" `Quick
        test_select_cascade_and_commute;
      Alcotest.test_case "product/join commutation" `Quick
        test_commute_product_join;
    ]
    @ rule_properties @ differential_properties )
