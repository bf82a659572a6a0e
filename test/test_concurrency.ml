(* Isolation tests: scheduler batches are equivalent to serial
   execution (the paper's isolation semantics) and aborted victims
   leave no trace.  Expectations that hold under either engine run
   under both, through [each_isolation]; the lock-protocol tests pin
   [~isolation:Scheduler.Two_pl] because blocking and deadlocks only
   exist there.  SI-specific anomalies live in test_mvcc.ml. *)

open Mxra_relational
open Mxra_core
open Mxra_concurrency
module W = Mxra_workload

let s_acct = Schema.of_list [ ("id", Domain.DInt); ("bal", Domain.DInt) ]
let acct i b = Tuple.of_list [ Value.Int i; Value.Int b ]

let bank accounts =
  Database.of_relations
    [ ("acct", Relation.of_list s_acct (List.init accounts (fun i -> acct i 100))) ]

let update_balance id delta =
  Statement.Update
    ( "acct",
      Expr.select (Pred.eq (Scalar.attr 1) (Scalar.int id)) (Expr.rel "acct"),
      [ Scalar.attr 1; Scalar.add (Scalar.attr 2) (Scalar.int delta) ] )

let transfer src dst amount =
  Transaction.make
    ~name:(Printf.sprintf "%d->%d" src dst)
    [ update_balance src (-amount); update_balance dst amount ]

let total db =
  match
    Relation.to_list
      (Eval.eval db (Expr.aggregate Aggregate.Sum 2 (Expr.rel "acct")))
  with
  | [ t ] -> ( match Tuple.attr t 1 with Value.Int n -> n | _ -> -1)
  | _ -> -1

(* Isolation-invariant expectations hold under both engines: a test
   body takes a [run] pinned to one mode at a time, and afterwards the
   batches it ran must have covered both — a body that drops a mode, or
   bypasses [run], fails instead of silently losing that engine. *)
let each_isolation f () =
  let ran = ref [] in
  List.iter
    (fun isolation ->
      f (fun ~seed db txns ->
          ran := Scheduler.isolation_name isolation :: !ran;
          Scheduler.run ~isolation ~seed db txns))
    [ Scheduler.Si; Scheduler.Two_pl ];
  Alcotest.(check (list string)) "ran under 2pl and si" [ "2pl"; "si" ]
    (List.sort_uniq String.compare !ran)

(* --- basic ---------------------------------------------------------------- *)

let test_single_transaction run =
  let db = bank 4 in
  let result = run ~seed:1 db [ transfer 0 1 10 ] in
  Alcotest.(check bool) "committed" true (result.Scheduler.outcomes = [ Scheduler.Committed ]);
  Alcotest.(check int) "effect applied" 90
    (match Relation.to_list
             (Eval.eval result.Scheduler.final
                (Expr.project_attrs [ 2 ]
                   (Expr.select (Pred.eq (Scalar.attr 1) (Scalar.int 0))
                      (Expr.rel "acct"))))
     with
    | [ t ] -> ( match Tuple.attr t 1 with Value.Int n -> n | _ -> -1)
    | _ -> -1);
  Alcotest.(check bool) "serial-equivalent" true
    (Scheduler.equivalent_serial db [ transfer 0 1 10 ] result)

let test_interleaving_conserves run =
  let db = bank 8 in
  let rng = W.Rng.make 5 in
  let txns =
    List.init 30 (fun _ ->
        transfer (W.Rng.int rng 8) (W.Rng.int rng 8) (1 + W.Rng.int rng 20))
  in
  List.iter
    (fun seed ->
      let result = run ~seed db txns in
      Alcotest.(check int)
        (Printf.sprintf "balance conserved (seed %d)" seed)
        (total db) (total result.Scheduler.final);
      Alcotest.(check bool)
        (Printf.sprintf "serial-equivalent (seed %d)" seed)
        true
        (Scheduler.equivalent_serial db txns result))
    [ 1; 2; 3; 4; 5 ]

let test_statement_failure_aborts run =
  let db = bank 2 in
  let poisoned =
    Transaction.make
      [
        update_balance 0 (-10);
        Statement.Insert ("missing", Expr.rel "acct");
        update_balance 1 10;
      ]
  in
  let result = run ~seed:3 db [ poisoned; transfer 0 1 5 ] in
  (match result.Scheduler.outcomes with
  | [ Scheduler.Aborted _; Scheduler.Committed ] -> ()
  | _ -> Alcotest.fail "expected abort then commit");
  Alcotest.(check int) "undo restored the debit" (total db)
    (total result.Scheduler.final);
  Alcotest.(check bool) "serial-equivalent" true
    (Scheduler.equivalent_serial db [ poisoned; transfer 0 1 5 ] result)

let test_abort_if_guard run =
  let db = bank 2 in
  let guarded =
    Transaction.make
      ~abort_if:(fun db ->
        Relation.mem (acct 0 50)
          (Database.find "acct" db))
      [ update_balance 0 (-50) ]
  in
  let result = run ~seed:1 db [ guarded ] in
  (match result.Scheduler.outcomes with
  | [ Scheduler.Aborted _ ] -> ()
  | _ -> Alcotest.fail "guard should fire");
  Alcotest.(check bool) "undone" true
    (Database.equal_states db result.Scheduler.final)

(* --- locking behaviour ------------------------------------------------------ *)

let test_conflicting_writers_serialize () =
  (* Two transactions writing the same relation must not interleave
     between each other's statements: with relation-level X locks the
     second blocks until the first finishes.  (2PL-specific: under SI
     the second writer aborts instead — see test_mvcc.ml.) *)
  let db = bank 2 in
  let t1 = transfer 0 1 10 and t2 = transfer 1 0 25 in
  List.iter
    (fun seed ->
      let result =
        Scheduler.run ~isolation:Scheduler.Two_pl ~seed db [ t1; t2 ]
      in
      Alcotest.(check (list bool)) "both committed" [ true; true ]
        (List.map
           (function Scheduler.Committed -> true | Scheduler.Aborted _ -> false)
           result.Scheduler.outcomes);
      Alcotest.(check bool) "serial-equivalent" true
        (Scheduler.equivalent_serial db [ t1; t2 ] result))
    (List.init 8 (fun i -> i))

let test_readers_share run =
  (* Pure readers on the same relation never block each other. *)
  let db = bank 2 in
  let reader = Transaction.make [ Statement.Query (Expr.rel "acct") ] in
  let result = run ~seed:7 db [ reader; reader; reader ] in
  Alcotest.(check int) "no blocking among readers" 0
    result.Scheduler.stats.Scheduler.blocks

let test_deadlock_broken () =
  (* Writers on two relations in opposite orders: a classic deadlock.
     The scheduler must abort a victim and finish the other.
     (2PL-specific: SI takes no locks, so deadlock cannot arise.) *)
  let schema = Schema.of_list [ ("x", Domain.DInt) ] in
  let one = Relation.of_list schema [ Tuple.of_list [ Value.Int 1 ] ] in
  let db = Database.of_relations [ ("r", one); ("s", one) ] in
  let bump name = Statement.Insert (name, Expr.rel name) in
  let t_rs = Transaction.make [ bump "r"; bump "s" ] in
  let t_sr = Transaction.make [ bump "s"; bump "r" ] in
  let saw_deadlock = ref false in
  List.iter
    (fun seed ->
      let result =
        Scheduler.run ~isolation:Scheduler.Two_pl ~seed db [ t_rs; t_sr ]
      in
      if result.Scheduler.stats.Scheduler.deadlocks > 0 then begin
        saw_deadlock := true;
        (* Exactly one victim; the survivor's effects are intact. *)
        let committed =
          List.filter
            (function Scheduler.Committed -> true | Scheduler.Aborted _ -> false)
            result.Scheduler.outcomes
        in
        Alcotest.(check int) "one survivor" 1 (List.length committed)
      end;
      Alcotest.(check bool)
        (Printf.sprintf "serial-equivalent (seed %d)" seed)
        true
        (Scheduler.equivalent_serial db [ t_rs; t_sr ] result))
    (List.init 20 (fun i -> i));
  Alcotest.(check bool) "deadlock exercised at least once" true !saw_deadlock

let test_temporaries_are_private run =
  (* Two transactions using the same temporary name must not clash. *)
  let db = bank 2 in
  let via_temp delta =
    Transaction.make
      [
        Statement.Assign ("t", Expr.rel "acct");
        Statement.Delete ("acct", Expr.rel "acct");
        Statement.Insert
          ("acct",
           Expr.project
             [ Scalar.attr 1; Scalar.add (Scalar.attr 2) (Scalar.int delta) ]
             (Expr.rel "t"));
      ]
  in
  List.iter
    (fun seed ->
      (* Under 2PL both transactions S-lock acct via the assign and then
         want the X lock — some seeds deadlock with one victim, which is
         correct; under SI a concurrent second committer aborts.  In
         every case the schedule must be equivalent to the serial run of
         the committed subset. *)
      let txns = [ via_temp 1; via_temp 2 ] in
      let result = run ~seed db txns in
      let expected_delta =
        List.fold_left
          (fun acc i -> acc + (2 * (i + 1)))
          0 result.Scheduler.commit_order
      in
      Alcotest.(check int) "committed deltas applied" (total db + expected_delta)
        (total result.Scheduler.final);
      Alcotest.(check bool) "serial-equivalent" true
        (Scheduler.equivalent_serial db txns result);
      Alcotest.(check bool) "no temp leaked" false
        (Database.mem "t" result.Scheduler.final))
    (List.init 10 (fun i -> i))

(* --- property: random batches are serializable ------------------------------ *)

(* --- one abort-reason table ------------------------------------------- *)

(* Each of the seven failure classes a statement can end in, as a
   one-statement transaction over [r = {(1)}], with the reason its abort
   reports.  No statement reaches a schema mismatch — the statement
   layer checks schemas before any write — so that class is injected
   through the write observer on a relation of its own. *)
let abort_cases =
  let stmt src = Mxra_xra.Parser.statement_of_string src in
  [
    ("statement error", stmt "insert(missing, r)", "unknown relation missing");
    ( "type error",
      stmt "insert(r, union(r, rel[(b:str)]{('x')}))",
      "union of incompatible schemas (a:int) and (b:str)" );
    ("evaluation error", stmt "?project[%1 / 0](r)", "division by zero");
    ( "empty aggregate",
      stmt "?groupby[; MIN(%1)](select[%1 > 100](r))",
      "MIN applied to an empty multi-set" );
    ("unknown relation", stmt "?missing", "unknown relation missing");
    ( "duplicate relation",
      stmt "r := r",
      "assignment shadows persistent relation r" );
    ("schema mismatch", stmt "insert(poison, r)", "poisoned");
  ]

let test_one_abort_reason () =
  let one =
    Relation.of_list
      (Schema.of_list [ ("a", Domain.DInt) ])
      [ Tuple.of_list [ Value.Int 1 ] ]
  in
  let db = Database.of_relations [ ("r", one); ("poison", one) ] in
  let previous = Statement.write_observer () in
  Statement.set_write_observer
    (Some
       (fun w ->
         if w.Statement.w_name = "poison" then
           raise (Relation.Schema_mismatch "poisoned");
         Option.iter (fun f -> f w) previous));
  Fun.protect ~finally:(fun () -> Statement.set_write_observer previous)
  @@ fun () ->
  List.iter
    (fun (what, stmt, expected) ->
      let txn = Transaction.make [ stmt ] in
      let serial =
        match Transaction.run db txn with
        | Transaction.Aborted { reason; _ } -> reason
        | Transaction.Committed _ -> "committed"
      in
      Alcotest.(check string) (what ^ ": Transaction.run") expected serial;
      List.iter
        (fun isolation ->
          let r = Scheduler.run ~isolation ~seed:1 db [ txn ] in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s" what (Scheduler.isolation_name isolation))
            true
            (r.Scheduler.outcomes = [ Scheduler.Aborted expected ]))
        [ Scheduler.Si; Scheduler.Two_pl ])
    abort_cases

let serializability_property =
  let test seed =
    let rng = W.Rng.make seed in
    let accounts = 4 + W.Rng.int rng 4 in
    let db = bank accounts in
    let txns =
      List.init
        (3 + W.Rng.int rng 6)
        (fun _ ->
          transfer (W.Rng.int rng accounts) (W.Rng.int rng accounts)
            (1 + W.Rng.int rng 30))
    in
    let ok = ref true in
    each_isolation
      (fun run ->
        let result = run ~seed db txns in
        ok :=
          !ok
          && Scheduler.equivalent_serial db txns result
          && total result.Scheduler.final = total db)
      ();
    !ok
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"schedules are serializable" ~count:200
       QCheck.small_nat test)

let suite =
  ( "concurrency",
    [
      Alcotest.test_case "single transaction" `Quick
        (each_isolation test_single_transaction);
      Alcotest.test_case "interleaving conserves balances" `Quick
        (each_isolation test_interleaving_conserves);
      Alcotest.test_case "statement failure aborts" `Quick
        (each_isolation test_statement_failure_aborts);
      Alcotest.test_case "abort_if guard" `Quick
        (each_isolation test_abort_if_guard);
      Alcotest.test_case "conflicting writers serialize" `Quick
        test_conflicting_writers_serialize;
      Alcotest.test_case "readers share" `Quick
        (each_isolation test_readers_share);
      Alcotest.test_case "deadlock broken" `Quick test_deadlock_broken;
      Alcotest.test_case "temporaries are private" `Quick
        (each_isolation test_temporaries_are_private);
      Alcotest.test_case "one abort reason, serial or interleaved" `Quick
        test_one_abort_reason;
      serializability_property;
    ] )
