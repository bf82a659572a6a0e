(* The MVCC anomaly battery: scripted interleavings with exact expected
   bags (Definitions 2.1/3.1 fix what each query must return) pin which
   anomalies snapshot isolation forbids — dirty reads, non-repeatable
   reads, lost updates — and which one it famously admits: write skew,
   where strict 2PL is the contrast.  A qcheck differential closes the
   file: random workloads whose reads are covered by their write sets
   are explainable by the serial commit-timestamp order under either
   isolation mode, via the same [Scheduler.equivalent_serial] oracle.

   The [~schedule] argument scripts the interleaving as a prefix of
   transaction indices, one per scheduling step (a transaction with k
   statements takes k steps plus one commit step).  Entries naming
   finished transactions are skipped and the seeded rng takes over when
   the script runs out, so each scenario below is deterministic exactly
   as far as it needs to be. *)

open Mxra_relational
open Mxra_core
open Mxra_concurrency
module W = Mxra_workload

let s_acct = Schema.of_list [ ("id", Domain.DInt); ("bal", Domain.DInt) ]
let acct i b = Tuple.of_list [ Value.Int i; Value.Int b ]

let bank balances =
  Database.of_relations
    [ ("acct", Relation.of_list s_acct (List.mapi acct balances)) ]

let update_balance id delta =
  Statement.Update
    ( "acct",
      Expr.select (Pred.eq (Scalar.attr 1) (Scalar.int id)) (Expr.rel "acct"),
      [ Scalar.attr 1; Scalar.add (Scalar.attr 2) (Scalar.int delta) ] )

let read_acct = Statement.Query (Expr.rel "acct")

let balance_of db id =
  match
    Relation.to_list
      (Eval.eval db
         (Expr.project_attrs [ 2 ]
            (Expr.select (Pred.eq (Scalar.attr 1) (Scalar.int id))
               (Expr.rel "acct"))))
  with
  | [ t ] -> ( match Tuple.attr t 1 with Value.Int n -> n | _ -> min_int)
  | _ -> min_int

let committed = function
  | Scheduler.Committed -> true
  | Scheduler.Aborted _ -> false

(* --- anomalies SI forbids ------------------------------------------------- *)

let test_no_dirty_read () =
  (* W1(acct) R2(acct) C2 A1: the reader runs between the writer's
     update and its abort.  Under SI the reader's snapshot is the
     pre-state D^t, so the uncommitted debit is invisible — the exact
     bag of Definition 2.1, not the writer's overlay. *)
  let db = bank [ 100; 100 ] in
  let before = Database.find "acct" db in
  let dirty_writer =
    Transaction.make ~name:"dirty"
      [ update_balance 0 (-50); Statement.Insert ("missing", Expr.rel "acct") ]
  in
  let reader = Transaction.make ~name:"reader" [ read_acct ] in
  let result =
    Scheduler.run ~isolation:Scheduler.Si ~schedule:[ 0; 1; 1; 0 ] ~seed:1 db
      [ dirty_writer; reader ]
  in
  (match result.Scheduler.outcomes with
  | [ Scheduler.Aborted _; Scheduler.Committed ] -> ()
  | _ -> Alcotest.fail "expected writer abort, reader commit");
  (match result.Scheduler.outputs with
  | [ []; [ seen ] ] ->
      Alcotest.(check bool) "reader saw the pre-state bag, not the dirty write"
        true
        (Relation.equal before seen)
  | _ -> Alcotest.fail "expected exactly the reader's one output");
  Alcotest.(check bool) "abort left no trace" true
    (Database.equal_states db result.Scheduler.final)

let test_no_non_repeatable_read () =
  (* R1(acct) W2 C2 R1(acct) C1: a transfer commits between the two
     reads of the same transaction.  Both reads answer from the same
     snapshot, so they return the same bag — and it is the pre-transfer
     one. *)
  let db = bank [ 100; 100 ] in
  let before = Database.find "acct" db in
  let double_reader =
    Transaction.make ~name:"rr" [ read_acct; read_acct ]
  in
  let transfer =
    Transaction.make ~name:"xfer" [ update_balance 0 (-30); update_balance 1 30 ]
  in
  let result =
    Scheduler.run ~isolation:Scheduler.Si
      ~schedule:[ 0; 1; 1; 1; 0; 0 ] ~seed:1 db
      [ double_reader; transfer ]
  in
  Alcotest.(check (list bool)) "both committed" [ true; true ]
    (List.map committed result.Scheduler.outcomes);
  (match result.Scheduler.outputs with
  | [ [ first; second ]; [] ] ->
      Alcotest.(check bool) "reads repeat" true (Relation.equal first second);
      Alcotest.(check bool) "both equal the snapshot" true
        (Relation.equal before first)
  | _ -> Alcotest.fail "expected two reader outputs");
  Alcotest.(check int) "transfer applied after the reader" 70
    (balance_of result.Scheduler.final 0)

let test_no_lost_update () =
  (* W1(acct) W2(acct) C1 C2: both increments read balance 100 from
     their snapshots; without validation the second commit would
     overwrite the first (the lost update).  First-committer-wins
     aborts the second instead: final balance is 110, never 120. *)
  let db = bank [ 100 ] in
  let t0 = Transaction.make ~name:"add10" [ update_balance 0 10 ] in
  let t1 = Transaction.make ~name:"add20" [ update_balance 0 20 ] in
  let result =
    Scheduler.run ~isolation:Scheduler.Si ~schedule:[ 0; 1; 0; 1 ] ~seed:1 db
      [ t0; t1 ]
  in
  (match result.Scheduler.outcomes with
  | [ Scheduler.Committed; Scheduler.Aborted reason ] ->
      Alcotest.(check string) "conflict names the relation"
        "write-write conflict on acct" reason
  | _ -> Alcotest.fail "expected first committer to win");
  Alcotest.(check int) "first update survives intact" 110
    (balance_of result.Scheduler.final 0);
  Alcotest.(check int) "one conflict counted" 1
    result.Scheduler.stats.Scheduler.conflicts;
  Alcotest.(check bool) "no blocking under SI" true
    (result.Scheduler.stats.Scheduler.blocks = 0);
  Alcotest.(check bool) "explained by serial commit order" true
    (Scheduler.check db [ t0; t1 ] result)

let test_conflict_is_first_committer_wins () =
  (* Same race, opposite commit order: whoever validates first wins,
     regardless of who wrote first. *)
  let db = bank [ 100 ] in
  let t0 = Transaction.make ~name:"add10" [ update_balance 0 10 ] in
  let t1 = Transaction.make ~name:"add20" [ update_balance 0 20 ] in
  let result =
    Scheduler.run ~isolation:Scheduler.Si ~schedule:[ 0; 1; 1; 0 ] ~seed:1 db
      [ t0; t1 ]
  in
  (match result.Scheduler.outcomes with
  | [ Scheduler.Aborted _; Scheduler.Committed ] -> ()
  | _ -> Alcotest.fail "expected second writer to commit first and win");
  Alcotest.(check int) "second update survives intact" 120
    (balance_of result.Scheduler.final 0)

(* --- the anomaly SI admits ------------------------------------------------ *)

(* Write skew: the constraint "d1 and d2 are never both empty" holds in
   every serial execution of [drain d1] and [drain d2] (each transaction
   checks the other relation before committing its delete).  SI lets
   both commit from disjoint write sets over the same stale snapshots,
   so the constraint breaks — pinned here as the documented boundary of
   what first-committer-wins at relation granularity validates. *)

let skew_db () =
  let schema = Schema.of_list [ ("x", Domain.DInt) ] in
  let one = Relation.of_list schema [ Tuple.of_list [ Value.Int 1 ] ] in
  Database.of_relations [ ("d1", one); ("d2", one) ]

let drain mine other =
  Transaction.make
    ~name:("drain-" ^ mine)
    ~abort_if:(fun db -> Relation.cardinal (Database.find other db) = 0)
    [ Statement.Delete (mine, Expr.rel mine) ]

let test_write_skew_admitted_under_si () =
  let db = skew_db () in
  let txns = [ drain "d1" "d2"; drain "d2" "d1" ] in
  let result =
    Scheduler.run ~isolation:Scheduler.Si ~schedule:[ 0; 1; 0; 1 ] ~seed:1 db
      txns
  in
  Alcotest.(check (list bool)) "disjoint write sets both pass validation"
    [ true; true ]
    (List.map committed result.Scheduler.outcomes);
  let final = result.Scheduler.final in
  Alcotest.(check int) "d1 drained" 0
    (Relation.cardinal (Database.find "d1" final));
  Alcotest.(check int) "d2 drained" 0
    (Relation.cardinal (Database.find "d2" final));
  (* And precisely because of the skew, no serial order explains it:
     the oracle must reject this schedule. *)
  Alcotest.(check bool) "not serially explainable" false
    (Scheduler.check db txns result)

let test_write_skew_prevented_under_2pl () =
  (* The contrast: under strict 2PL the commit-time guard reads the
     live, lock-serialized state, so at least one drain always sees the
     other's empty relation and aborts — across every interleaving. *)
  let txns () = [ drain "d1" "d2"; drain "d2" "d1" ] in
  List.iter
    (fun seed ->
      let db = skew_db () in
      let result =
        Scheduler.run ~isolation:Scheduler.Two_pl ~seed db (txns ())
      in
      let final = result.Scheduler.final in
      let both_empty =
        Relation.cardinal (Database.find "d1" final) = 0
        && Relation.cardinal (Database.find "d2" final) = 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "constraint holds (seed %d)" seed)
        false both_empty)
    (List.init 12 (fun i -> i))

(* Without [~isolation] the scheduler runs SI, whatever the process
   environment holds: the pinned write skew — a schedule strict 2PL
   never lets both drains commit — commits both. *)
let test_default_isolation_is_si () =
  let db = skew_db () in
  let result =
    Scheduler.run ~schedule:[ 0; 1; 0; 1 ] ~seed:1 db
      [ drain "d1" "d2"; drain "d2" "d1" ]
  in
  Alcotest.(check (list bool)) "both drains commit, as under SI"
    [ true; true ]
    (List.map committed result.Scheduler.outcomes)

(* --- SI mechanics --------------------------------------------------------- *)

let test_readers_never_block () =
  (* A hot writer plus pure readers: SI readers take no locks, so
     whatever the interleaving, blocks stay zero and every reader
     commits. *)
  let db = bank [ 100; 100; 100; 100 ] in
  let writer =
    Transaction.make ~name:"w" [ update_balance 0 1; update_balance 1 1 ]
  in
  let reader = Transaction.make [ read_acct; read_acct ] in
  List.iter
    (fun seed ->
      let result =
        Scheduler.run ~isolation:Scheduler.Si ~seed db
          [ writer; reader; reader; reader ]
      in
      Alcotest.(check int)
        (Printf.sprintf "no blocks (seed %d)" seed)
        0 result.Scheduler.stats.Scheduler.blocks;
      List.iteri
        (fun i ok ->
          if i > 0 then
            Alcotest.(check bool)
              (Printf.sprintf "reader %d committed (seed %d)" i seed)
              true ok)
        (List.map committed result.Scheduler.outcomes))
    (List.init 10 (fun i -> i))

let test_snapshot_taken_at_first_step () =
  (* D^t is captured at the transaction's first scheduled step, not at
     batch submission: a reader scheduled only after a writer committed
     sees the writer's effect. *)
  let db = bank [ 100 ] in
  let writer = Transaction.make [ update_balance 0 10 ] in
  let reader = Transaction.make [ read_acct ] in
  let result =
    Scheduler.run ~isolation:Scheduler.Si ~schedule:[ 0; 0; 1; 1 ] ~seed:1 db
      [ writer; reader ]
  in
  Alcotest.(check (list bool)) "both committed" [ true; true ]
    (List.map committed result.Scheduler.outcomes);
  match result.Scheduler.outputs with
  | [ []; [ seen ] ] ->
      Alcotest.(check bool) "reader's snapshot includes the commit" true
        (Relation.mem (acct 0 110) seen)
  | _ -> Alcotest.fail "expected the reader's one output"

let test_conflict_attribution_reaches_stmt_stats () =
  (* The conflict abort lands on the statement registry under the
     transaction's qid — the SI counterpart of lock-wait attribution,
     surfaced by sys.statements' conflicts column. *)
  let was_enabled = Mxra_obs.Stmt_stats.enabled () in
  Mxra_obs.Stmt_stats.set_enabled true;
  Mxra_obs.Stmt_stats.clear ();
  Fun.protect
    ~finally:(fun () -> Mxra_obs.Stmt_stats.set_enabled was_enabled)
    (fun () ->
      let db = bank [ 100 ] in
      let t0 = Transaction.make [ update_balance 0 10 ] in
      let t1 = Transaction.make [ update_balance 0 20 ] in
      let result =
        Scheduler.run ~isolation:Scheduler.Si ~schedule:[ 0; 1; 0; 1 ]
          ~seed:1 db [ t0; t1 ]
      in
      Alcotest.(check int) "one conflict in the batch" 1
        result.Scheduler.stats.Scheduler.conflicts;
      let total =
        List.fold_left
          (fun acc r -> acc + r.Mxra_obs.Stmt_stats.r_conflicts)
          0
          (Mxra_obs.Stmt_stats.snapshot ())
      in
      Alcotest.(check int) "registry charged exactly one conflict" 1 total)

(* --- differential oracle -------------------------------------------------- *)

(* Random transfer workloads, the same generator under both modes.  A
   transfer's reads are covered by its write set (it only reads acct,
   which it writes), so under SI every committed schedule is explainable
   by the serial commit-timestamp order — the write-skew gap cannot
   arise — and under 2PL by conflict-serializability.  The oracle and
   the balance invariant must hold for every seed in both worlds. *)
let differential_property =
  let total db =
    match
      Relation.to_list
        (Eval.eval db (Expr.aggregate Aggregate.Sum 2 (Expr.rel "acct")))
    with
    | [ t ] -> ( match Tuple.attr t 1 with Value.Int n -> n | _ -> min_int)
    | _ -> min_int
  in
  let transfer src dst amount =
    Transaction.make
      ~name:(Printf.sprintf "%d->%d" src dst)
      [ update_balance src (-amount); update_balance dst amount ]
  in
  let test seed =
    let rng = W.Rng.make seed in
    let accounts = 3 + W.Rng.int rng 5 in
    let db = bank (List.init accounts (fun _ -> 100)) in
    let txns =
      List.init
        (2 + W.Rng.int rng 7)
        (fun _ ->
          transfer (W.Rng.int rng accounts) (W.Rng.int rng accounts)
            (1 + W.Rng.int rng 40))
    in
    List.for_all
      (fun isolation ->
        let result = Scheduler.run ~isolation ~seed db txns in
        Scheduler.equivalent_serial db txns result
        && total result.Scheduler.final = total db
        && (isolation <> Scheduler.Si
            || result.Scheduler.stats.Scheduler.blocks = 0))
      [ Scheduler.Si; Scheduler.Two_pl ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"SI and 2PL schedules explained by serial commit order"
       ~count:200 QCheck.small_nat test)

let suite =
  ( "mvcc",
    [
      Alcotest.test_case "dirty read forbidden" `Quick test_no_dirty_read;
      Alcotest.test_case "non-repeatable read forbidden" `Quick
        test_no_non_repeatable_read;
      Alcotest.test_case "lost update forbidden" `Quick test_no_lost_update;
      Alcotest.test_case "first committer wins" `Quick
        test_conflict_is_first_committer_wins;
      Alcotest.test_case "write skew admitted under SI" `Quick
        test_write_skew_admitted_under_si;
      Alcotest.test_case "write skew prevented under 2PL" `Quick
        test_write_skew_prevented_under_2pl;
      Alcotest.test_case "isolation defaults to SI" `Quick
        test_default_isolation_is_si;
      Alcotest.test_case "readers never block" `Quick test_readers_never_block;
      Alcotest.test_case "snapshot taken at first step" `Quick
        test_snapshot_taken_at_first_step;
      Alcotest.test_case "conflict attribution reaches stmt stats" `Quick
        test_conflict_attribution_reaches_stmt_stats;
      differential_property;
    ] )
