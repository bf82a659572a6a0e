(* Session tests: the one statement lifecycle both front ends call.
   Queries through it are bag-equal to the reference evaluator, the
   sys.* write guard fires before any transaction machinery (database
   and store untouched), every query and data statement is recorded
   exactly once under its front-end language, a transaction bracket is
   the same one-transaction batch under either isolation as the serial
   [Transaction.run], [describe] covers every documented error and
   nothing else, the session's chunk size and core count reach the
   executor and planner, and its jobs size the domain pool. *)

open Mxra_relational
open Mxra_core
module Obs = Mxra_obs
module Session = Mxra_session.Session
module Scheduler = Mxra_concurrency.Scheduler
module Store = Mxra_storage.Store
module Syscat = Mxra_engine.Syscat
module W = Mxra_workload

let xra src = Mxra_xra.Parser.statement_of_string src

let test_paper_examples () =
  List.iter
    (fun (name, e) ->
      let expected = Eval.eval W.Beer.tiny e in
      List.iter
        (fun optimize ->
          let s = Session.make ~optimize () in
          let a = Session.query s W.Beer.tiny e in
          Alcotest.(check bool)
            (Printf.sprintf "%s (optimize=%b)" name optimize)
            true
            (Relation.equal a.Mxra_engine.Exec.result expected))
        [ true; false ])
    [ ("Example 3.1", W.Beer.example_3_1); ("Example 3.2", W.Beer.example_3_2) ]

let test_sys_write_refused () =
  let store = Store.open_dir ~vfs:(Mxra_storage.Vfs.memory ()) "db" in
  Store.absorb_batch store [] W.Beer.tiny;
  let before = Store.database store in
  let records = Store.log_records store in
  let s = Session.make ~store () in
  List.iter
    (fun src ->
      match Session.statement s before (xra src) with
      | _ -> Alcotest.failf "%s: not refused" src
      | exception Syscat.Reserved name ->
          Alcotest.(check string) src "sys.statements" name)
    [
      "insert(sys.statements, sys.statements)";
      "delete(sys.statements, sys.statements)";
      "sys.statements := beer";
    ];
  Alcotest.(check bool) "store state unchanged" true
    (Database.equal_states before (Store.database store));
  Alcotest.(check int) "nothing logged" records (Store.log_records store);
  Alcotest.(check bool) "database unchanged" true
    (Database.equal_states W.Beer.tiny before);
  Store.close store

(* Total calls recorded under [lang], across every fingerprint. *)
let calls lang =
  List.fold_left
    (fun n (r : Obs.Stmt_stats.row) ->
      if r.r_lang = lang then n + r.r_calls else n)
    0
    (Obs.Stmt_stats.snapshot ())

let test_one_record_per_statement () =
  Obs.Stmt_stats.set_enabled true;
  Obs.Stmt_stats.clear ();
  let s = Session.make () in
  let db = W.Beer.tiny in
  let step ~lang ~xra_calls ~sql_calls f =
    f ();
    Alcotest.(check int) (lang ^ ": xra calls") xra_calls (calls "xra");
    Alcotest.(check int) (lang ^ ": sql calls") sql_calls (calls "sql")
  in
  step ~lang:"xra query" ~xra_calls:1 ~sql_calls:0 (fun () ->
      ignore (Session.query s db W.Beer.example_3_1));
  step ~lang:"sql query" ~xra_calls:1 ~sql_calls:1 (fun () ->
      ignore
        (Session.sql s db
           (Mxra_sql.Sql_parser.parse "SELECT name FROM beer")));
  step ~lang:"data statement" ~xra_calls:2 ~sql_calls:1 (fun () ->
      ignore (Session.statement s db W.Beer.example_4_1));
  step ~lang:"second query" ~xra_calls:3 ~sql_calls:1 (fun () ->
      ignore (Session.query s db W.Beer.example_3_2))

(* A plain query — no print flag, no tracing — feeds sys.operators one
   row per operator kind and records its tuple traffic. *)
let test_plain_query_observed () =
  Obs.Stmt_stats.set_enabled true;
  Obs.Stmt_stats.clear ();
  Obs.Op_stats.clear ();
  let s = Session.make ~optimize:false () in
  let a =
    Session.query s W.Beer.tiny
      (Mxra_xra.Parser.expr_of_string "select[%3 > 5.0](beer)")
  in
  let kinds =
    let rec go (r : Mxra_engine.Exec.report) =
      Mxra_engine.Physical.kind r.node :: List.concat_map go r.inputs
    in
    List.sort_uniq compare (go a.root)
  in
  Alcotest.(check (list string)) "one sys.operators row per operator kind"
    kinds
    (List.map (fun (r : Obs.Op_stats.row) -> r.o_op) (Obs.Op_stats.snapshot ()));
  Alcotest.(check (list int)) "sys.statements.tuples = tuples-moved"
    [ Mxra_engine.Metrics.(count (counter a.totals "tuples-moved")) ]
    (List.map (fun (r : Obs.Stmt_stats.row) -> r.r_tuples)
       (Obs.Stmt_stats.snapshot ()))

let test_batch_of_one () =
  List.iter
    (fun (what, program) ->
      let serial =
        Transaction.state_of
          (Transaction.run W.Beer.tiny (Transaction.make program))
      in
      List.iter
        (fun isolation ->
          let s = Session.make ~isolation () in
          let db, outcome =
            Session.command s W.Beer.tiny
              (Mxra_xra.Parser.Cmd_transaction program)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s = Transaction.run" what
               (Scheduler.isolation_name isolation))
            true
            (Database.equal_states serial db);
          match outcome with
          | Session.Batch r ->
              Alcotest.(check int) "one transaction" 1
                (List.length r.Scheduler.outcomes)
          | _ -> Alcotest.fail "a bracket is a batch")
        [ Scheduler.Si; Scheduler.Two_pl ])
    [
      ( "Example 4.1",
        [ W.Beer.example_4_1; Statement.Query W.Beer.example_3_1 ] );
      ("aborted", [ W.Beer.example_4_1; xra "insert(missing, beer)" ]);
    ]

(* Every documented error, with the line both front ends print for it. *)
let test_describe () =
  List.iter
    (fun (e, expected) ->
      Alcotest.(check (option string))
        (Printexc.to_string e) (Some expected) (Session.describe e))
    [
      (Mxra_xra.Lexer.Lex_error ("illegal character '!'", 3),
       "lex error at 3: illegal character '!'");
      (Mxra_xra.Parser.Parse_error ("expected expression, found <eof>", 8),
       "parse error at 8: expected expression, found <eof>");
      (Mxra_sql.Sql_lexer.Lex_error ("illegal character '@'", 7),
       "sql lex error at 7: illegal character '@'");
      (Mxra_sql.Sql_parser.Parse_error ("expected FROM", 12),
       "sql parse error at 12: expected FROM");
      (Mxra_sql.Translate.Translate_error "unknown column x",
       "sql error: unknown column x");
      (Typecheck.Type_error "bad union", "type error: bad union");
      (Scalar.Eval_error "division by zero", "eval error: division by zero");
      (Aggregate.Undefined Aggregate.Min,
       "eval error: MIN undefined on an empty group");
      (Statement.Exec_error "unknown relation r", "error: unknown relation r");
      (Database.Unknown_relation "r", "unknown relation: r");
      (Database.Duplicate_relation "r", "relation exists: r");
      (Database.Unknown_index "i", "unknown index: i");
      (Database.Duplicate_index "i", "index exists: i");
      (Syscat.Reserved "sys.x",
       "reserved name: sys.x is a system catalog relation");
      (Invalid_argument "--jobs must be at least 1",
       "error: --jobs must be at least 1");
      (W.Csv.Csv_error ("bad quote", 3), "csv error at line 3: bad quote");
      (Sys_error "x: No such file", "i/o error: x: No such file");
      (Unix.Unix_error (Unix.ECONNREFUSED, "connect", ""),
       "connect: Connection refused");
    ];
  List.iter
    (fun e ->
      Alcotest.(check (option string)) (Printexc.to_string e) None
        (Session.describe e))
    [ Not_found; Failure "x" ]

(* The session's chunk size and core count reach the engine.  Bag
   equality cannot see chunking, but the root's chunk count in
   sys.progress can: it is read when the executor's span closes, while
   the query's slot is still live. *)
let big_db =
  Database.of_relations
    [
      ( "big",
        Relation.of_list
          (Schema.of_list [ ("k", Domain.DInt) ])
          (List.init 5000 (fun i -> Tuple.of_list [ Value.Int i ])) );
    ]

let scan_big =
  Expr.select (Pred.ge (Scalar.attr 1) (Scalar.int 0)) (Expr.rel "big")

let test_config_reaches_engine () =
  Obs.Ash.set_enabled true;
  let db = big_db and e = scan_big in
  let text = Expr.to_string e in
  let root_chunks chunk_size =
    let chunks = ref 0 in
    let on_span (sp : Obs.Trace.span) =
      if sp.name = "execute" then
        List.iter
          (fun (p : Obs.Ash.progress) ->
            if p.p_text = text then chunks := p.p_chunks)
          (Obs.Ash.progress ())
    in
    Obs.Trace.set_sinks [ { Obs.Trace.null_sink with on_span } ];
    Fun.protect ~finally:Obs.Trace.close (fun () ->
        ignore (Session.query (Session.make ~chunk_size ()) db e));
    !chunks
  in
  Alcotest.(check int) "chunk size 1: a chunk per row" 5000 (root_chunks 1);
  Alcotest.(check int) "chunk size 255" 20 (root_chunks 255);
  (* 5000 rows clear the static Exchange floor at four fragments; one
     core never fragments. *)
  let exchanges cores =
    let a = Session.query (Session.make ~jobs:4 ~cores ()) db e in
    Mxra_engine.Physical.exchange_count a.Mxra_engine.Exec.root.node
  in
  Alcotest.(check bool) "4 cores: Exchange" true (exchanges 4 > 0);
  Alcotest.(check int) "1 core: sequential" 0 (exchanges 1)

(* The session's jobs reach the executor: an Exchange plan of four
   fragments runs on at least four pool lanes, with no pool set-up by
   the caller. *)
let test_jobs_size_the_pool () =
  let s = Session.make ~jobs:4 ~cores:4 () in
  let a = Session.query s big_db scan_big in
  Alcotest.(check bool) "an Exchange plan" true
    (Mxra_engine.Physical.exchange_count a.Mxra_engine.Exec.root.node > 0);
  let lanes =
    Relation.to_list (Session.query s big_db (Expr.rel "sys.pool")).result
    |> List.find_map (fun t ->
           match Tuple.to_list t with
           | [ Value.Str "pool.lanes"; Value.Float v ] -> Some v
           | _ -> None)
  in
  Alcotest.(check bool) "pool.lanes >= 4" true
    (match lanes with Some v -> v >= 4.0 | None -> false)

(* Defaults are fixed values, not ambient ones: snapshot isolation,
   the executor's default chunk size, the host's cores.  A session's
   chunk size travels with its statements; the process-wide default
   that callers without a session fall back on stays as it was. *)
let test_defaults () =
  let s = Session.make () in
  Alcotest.(check string) "isolation" "si"
    (Mxra_concurrency.Scheduler.isolation_name s.Session.isolation);
  Alcotest.(check int) "chunk size" Mxra_engine.Exec.default_chunk_size
    s.Session.chunk_size;
  Alcotest.(check int) "cores" (Session.host_cores ()) s.Session.cores;
  let before = Mxra_engine.Exec.chunk_size () in
  ignore
    (Session.query (Session.make ~chunk_size:1 ()) W.Beer.tiny
       W.Beer.example_3_1);
  Alcotest.(check int) "process-wide default untouched" before
    (Mxra_engine.Exec.chunk_size ())

let suite =
  ( "session",
    [
      Alcotest.test_case "queries = Eval on Examples 3.1/3.2" `Quick
        test_paper_examples;
      Alcotest.test_case "sys.* writes refused, state and store untouched"
        `Quick test_sys_write_refused;
      Alcotest.test_case "one Stmt_stats call per statement, by lang" `Quick
        test_one_record_per_statement;
      Alcotest.test_case "a plain query feeds sys.operators and tuples"
        `Quick test_plain_query_observed;
      Alcotest.test_case "batch of one = Transaction.run under SI and 2PL"
        `Quick test_batch_of_one;
      Alcotest.test_case "describe covers every documented error" `Quick
        test_describe;
      Alcotest.test_case "chunk size and cores reach the engine" `Quick
        test_config_reaches_engine;
      Alcotest.test_case "a session's jobs size the domain pool" `Quick
        test_jobs_size_the_pool;
      Alcotest.test_case "defaults: SI, default chunk size, host cores"
        `Quick test_defaults;
    ] )
