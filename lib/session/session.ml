open Mxra_relational
open Mxra_core
module Obs = Mxra_obs
module Trace = Mxra_obs.Trace
module Engine = Mxra_engine
module Syscat = Mxra_engine.Syscat
module Optimizer = Mxra_optimizer.Optimizer
module Store = Mxra_storage.Store
module Scheduler = Mxra_concurrency.Scheduler
module Xra = Mxra_xra
module Sql = Mxra_sql

type t = {
  optimize : bool;
  jobs : int;
  cores : int;
  chunk_size : int;
  isolation : Scheduler.isolation;
  seed : int;
  store : Store.t option;
}

(* The one place the engine's configuration comes from the environment:
   MXRA_CORES is a deployment setting, and it lets tests pin plan shapes
   on hosts with any number of cores. *)
let host_cores () =
  match Sys.getenv_opt "MXRA_CORES" with
  | None -> Stdlib.Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf "MXRA_CORES must be a positive integer, not %S" s))

let make ?(optimize = true) ?(jobs = 1) ?(cores = host_cores ())
    ?(chunk_size = Engine.Exec.default_chunk_size)
    ?(isolation = Scheduler.Si) ?(seed = 42) ?store () =
  (* sys.locks materializes from the scheduler's process counters; the
     engine cannot name the scheduler (layering), so the session wires
     the probe — the same inversion the sampler uses. *)
  Syscat.set_probe "sys.locks" Scheduler.telemetry;
  { optimize; jobs; cores; chunk_size; isolation; seed; store }

let plan t db e = Engine.Planner.plan ~jobs:t.jobs ~cores:t.cores db e

type outcome =
  | Rows of Engine.Exec.analysis
  | Committed
  | Aborted of string
  | Created of string * Schema.t
  | Created_index of Database.index_def
  | Dropped_index of string
  | Batch of Scheduler.result

(* Every statement gets a process-unique id, carried as ambient trace
   context: its span, every operator span and every Exchange lane span
   end up stamped with the same query_id, so one grep correlates the
   JSONL query log, the Chrome trace, the WAL record and EXPLAIN
   ANALYZE output.  From here to [finish] the statement is visible in
   sys.progress, and ASH samples attribute to its qid and fingerprint;
   with ASH switched off the slot is inert and nothing below pays for
   it. *)
let with_statement ~lang ~text ~span ~attrs f =
  let qid = Obs.Qid.mint () in
  let slot = Obs.Ash.register ~lang ~text ~qid () in
  Fun.protect ~finally:(fun () -> Obs.Ash.finish slot) @@ fun () ->
  Trace.with_context [ (Obs.Qid.attr_key, Trace.Str qid) ] @@ fun () ->
  Trace.with_span span
    ~attrs:(attrs @ [ ("text", Trace.Str text) ])
    (fun () -> f qid slot)

let query ?(lang = "xra") t db e =
  let text = Expr.to_string e in
  with_statement ~lang ~text ~span:"query"
    ~attrs:[ ("lang", Trace.Str lang) ]
  @@ fun qid slot ->
  (* Queries over sys.* see the catalog snapshot taken here — the
     in-flight query itself is recorded only after it finishes, but its
     slot is already registered, so sys.progress sees it live. *)
  let db = Syscat.attach_for db e in
  let e = if t.optimize then Optimizer.optimize_db db e else e in
  let plan = plan t db e in
  if Obs.Ash.live slot then begin
    (* Root-cardinality estimate, so sys.progress can report rows
       against the planner's expectation. *)
    try
      Obs.Ash.set_estimate slot
        (Engine.Cost.estimate_cardinality
           ~stats:(Engine.Stats.env_of_database db)
           ~schemas:(Typecheck.env_of_database db)
           e)
    with _ -> ()
  end;
  Obs.Ash.with_slot slot @@ fun () ->
  (* One run yields the result, the timing and the tuple traffic — the
     same figures whatever the front end chooses to print. *)
  let a = Engine.Exec.run_instrumented ~chunk_size:t.chunk_size db plan in
  let rows = Relation.cardinal a.Engine.Exec.result in
  Obs.Stmt_stats.record ~lang ~qid ~rows
    ~tuples:
      (Engine.Metrics.count (Engine.Metrics.counter a.totals "tuples-moved"))
    ~wall_ms:a.total_ms text;
  Trace.add_attr "rows" (Trace.Int rows);
  a

let statement t db stmt =
  match stmt with
  | Statement.Query e -> (db, Rows (query t db e))
  | Statement.Insert (name, _) | Statement.Delete (name, _)
  | Statement.Update (name, _, _) | Statement.Assign (name, _) -> (
      (* The catalog is read-only: writing a sys.* name is refused
         before any transaction machinery sees it. *)
      Syscat.check_not_reserved name;
      let text = Statement.to_string stmt in
      with_statement ~lang:"xra" ~text ~span:"statement" ~attrs:[]
      @@ fun qid _ ->
      let t0 = Trace.now_us () in
      let txn = Transaction.make [ stmt ] in
      let outcome =
        match t.store with
        | Some s -> Store.commit ~qid s txn
        | None -> Transaction.run db txn
      in
      (* Recorded after the commit so the WAL bytes appended under this
         qid drain straight into the entry. *)
      Obs.Stmt_stats.record ~qid
        ~wall_ms:((Trace.now_us () -. t0) /. 1000.0)
        text;
      match outcome with
      | Transaction.Committed { state; _ } -> (state, Committed)
      | Transaction.Aborted { state; reason } -> (state, Aborted reason))

(* Committed transactions reach the log in commit order — the serial
   order the schedule is equivalent to — each record stamped with the
   qid of the transaction whose statements it holds. *)
let batch t db programs =
  let txns =
    List.mapi
      (fun i p -> Transaction.make ~name:(Printf.sprintf "txn-%d" (i + 1)) p)
      programs
  in
  let r = Scheduler.run ~isolation:t.isolation ~seed:t.seed db txns in
  Option.iter
    (fun s ->
      let pick l =
        List.map (Array.get (Array.of_list l)) r.Scheduler.commit_order
      in
      Store.absorb_batch s ~qids:(pick r.Scheduler.query_ids) (pick txns)
        r.Scheduler.final)
    t.store;
  r

(* A schema change is not a loggable statement: install the new state
   and checkpoint, so every later record replays against the snapshot
   it follows.  Index definitions live in the snapshot too. *)
let ddl t db =
  Option.iter
    (fun s ->
      Store.absorb_batch s [] db;
      Store.checkpoint s)
    t.store;
  db

let command t db = function
  | Xra.Parser.Cmd_statement stmt -> statement t db stmt
  | Xra.Parser.Cmd_transaction program ->
      let r = batch t db [ program ] in
      (r.Scheduler.final, Batch r)
  | Xra.Parser.Cmd_create (name, schema) ->
      Syscat.check_not_reserved name;
      (ddl t (Database.create name schema db), Created (name, schema))
  | Xra.Parser.Cmd_create_index d ->
      Syscat.check_not_reserved d.idx_name;
      Syscat.check_not_reserved d.idx_rel;
      ( ddl t
          (Database.create_index ~name:d.idx_name ~rel:d.idx_rel
             ~cols:d.idx_cols ~kind:d.idx_kind db),
        Created_index d )
  | Xra.Parser.Cmd_drop_index name ->
      (ddl t (Database.drop_index name db), Dropped_index name)

let sql t db ast =
  match Sql.Translate.translate (Syscat.env db) ast with
  | Sql.Translate.Query e -> (db, Rows (query ~lang:"sql" t db e))
  | Sql.Translate.Statement stmt -> statement t db stmt
  | Sql.Translate.Create (name, schema) ->
      command t db (Xra.Parser.Cmd_create (name, schema))
  | Sql.Translate.Create_index d -> command t db (Xra.Parser.Cmd_create_index d)
  | Sql.Translate.Drop_index name ->
      command t db (Xra.Parser.Cmd_drop_index name)

type explained = {
  db : Database.t;
  input : Expr.t;
  optimized : Expr.t;
  report : Optimizer.report;
}

let explain ?(realize = false) db e =
  let db = Syscat.attach_for db e in
  let optimized, report =
    if realize then Optimizer.explain_db db e
    else
      Optimizer.explain
        ~stats:(Engine.Stats.env_of_database db)
        ~schemas:(Typecheck.env_of_database db)
        e
  in
  { db; input = e; optimized; report }

let analyze t x =
  let qid = Obs.Qid.mint () in
  ( qid,
    Trace.with_context [ (Obs.Qid.attr_key, Trace.Str qid) ] (fun () ->
        Engine.Exec.run_instrumented ~chunk_size:t.chunk_size x.db
          (plan t x.db x.optimized)) )

let describe e =
  let at kind (msg, pos) = Some (Printf.sprintf "%s at %d: %s" kind pos msg) in
  match e with
  | Xra.Parser.Parse_error (msg, pos) -> at "parse error" (msg, pos)
  | Xra.Lexer.Lex_error (msg, pos) -> at "lex error" (msg, pos)
  | Sql.Sql_parser.Parse_error (msg, pos) -> at "sql parse error" (msg, pos)
  | Sql.Sql_lexer.Lex_error (msg, pos) -> at "sql lex error" (msg, pos)
  | Sql.Translate.Translate_error msg -> Some ("sql error: " ^ msg)
  | Typecheck.Type_error msg -> Some ("type error: " ^ msg)
  | Statement.Exec_error msg | Invalid_argument msg -> Some ("error: " ^ msg)
  | Scalar.Eval_error msg -> Some ("eval error: " ^ msg)
  | Aggregate.Undefined kind ->
      Some
        (Format.asprintf "eval error: %a undefined on an empty group"
           Aggregate.pp kind)
  | Database.Unknown_relation name -> Some ("unknown relation: " ^ name)
  | Database.Duplicate_relation name -> Some ("relation exists: " ^ name)
  | Database.Unknown_index name -> Some ("unknown index: " ^ name)
  | Database.Duplicate_index name -> Some ("index exists: " ^ name)
  | Syscat.Reserved name ->
      Some ("reserved name: " ^ name ^ " is a system catalog relation")
  | Mxra_workload.Csv.Csv_error (msg, line) ->
      Some (Printf.sprintf "csv error at line %d: %s" line msg)
  | Sys_error msg -> Some ("i/o error: " ^ msg)
  | Unix.Unix_error (e, fn, _) ->
      Some (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | _ -> None
