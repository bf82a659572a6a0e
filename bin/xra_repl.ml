(* Interactive XRA shell: the multi-set extended relational algebra as a
   database language, the way PRISMA/DB exposed it.

   Statements auto-commit (each runs as a single-statement transaction);
   a begin ... end bracket runs atomically.  Queries are optimized and
   executed by the physical engine.  Meta commands start with a dot:

     .help               this text
     .quit               leave
     .tables             list relations
     .show NAME          print a relation
     .schema NAME        print a schema
     .beer               load the paper's beer database
     .sql STMT           run one SQL statement instead of XRA
     .plan EXPR          show the optimized physical plan of an expression
     .load FILE          run an XRA script file
     .trace on [FILE]    start tracing to a Chrome trace-event file
     .trace off          stop tracing and finish the file *)

open Mxra_relational
open Mxra_core
module Xra = Mxra_xra
module Sql = Mxra_sql
module Obs = Mxra_obs
module Trace = Mxra_obs.Trace
module Store = Mxra_storage.Store
module Scheduler = Mxra_concurrency.Scheduler
module Session = Mxra_session.Session

let print_relation r = Format.printf "%a@." Relation.pp_table r

(* .trace on/off: one Chrome sink at a time, channel owned here. *)
let trace_channel : out_channel option ref = ref None

let trace_off () =
  if Trace.enabled () then Trace.close ();
  Option.iter close_out !trace_channel;
  trace_channel := None

let trace_on path =
  trace_off ();
  let oc = open_out path in
  trace_channel := Some oc;
  Trace.set_sinks [ Mxra_obs.Chrome_sink.sink oc ];
  Format.printf "tracing to %s (load in Perfetto); .trace off to finish@."
    path

(* Statements run with the shell's engine settings: optimizer on, one
   job, the default isolation, seed 42, no store. *)
let session = Session.make ()

(* Print what a command did; the shell continues from the new state. *)
let show (db, outcome) =
  (match outcome with
  | Session.Rows a -> print_relation a.Mxra_engine.Exec.result
  | Session.Committed -> Format.printf "ok@."
  | Session.Aborted reason -> Format.printf "aborted: %s@." reason
  | Session.Created (name, schema) ->
      Format.printf "created %s %s@." name (Schema.to_string schema)
  | Session.Created_index d ->
      Format.printf "created index %s on %s@." d.idx_name d.idx_rel
  | Session.Dropped_index name -> Format.printf "dropped index %s@." name
  | Session.Batch r ->
      List.iter2
        (fun outcome outputs ->
          match outcome with
          | Scheduler.Committed ->
              List.iter print_relation outputs;
              Format.printf "committed (t=%d)@."
                (Database.logical_time r.Scheduler.final)
          | Scheduler.Aborted reason -> Format.printf "aborted: %s@." reason)
        r.Scheduler.outcomes r.Scheduler.outputs);
  db

let exec_command db cmd = show (Session.command session db cmd)

(* .plan E: the optimized logical expression and its physical plan.
   explain E: the plan, each operator annotated with its estimated
   output rows.  explain analyze E: additionally execute, annotating
   estimated vs actual rows, per-operator q-error and wall time. *)
let explained db src = Session.explain db (Xra.Parser.expr_of_string src)

let show_plan db src =
  let x = explained db src in
  Format.printf "logical (optimized):@.  %s@."
    (Expr.to_string x.Session.optimized);
  Format.printf "physical:@.%s@."
    (Mxra_engine.Physical.to_string
       (Mxra_engine.Planner.plan x.Session.db x.Session.optimized))

let explain_query db ~analyze src =
  let x = explained db src in
  if analyze then
    Format.printf "%a@." Mxra_engine.Exec.pp_analysis
      (snd (Session.analyze session x))
  else
    print_endline (Mxra_engine.Exec.explain x.Session.db x.Session.optimized)

let help () =
  print_string
    "XRA shell.  Statements: insert(R,E)  delete(R,E)  update(R,E,[a,...])\n\
    \  R := E   ?E   begin s1; s2 end   create R (a:int, b:str)\n\
    \  create index I on R (%i, ...) using hash|ordered   drop index I\n\
     Expressions: union diff product intersect join[p] select[p]\n\
    \  project[a,...] unique groupby[keys; AGG(%i),...] rel[(..)]{..}\n\
     Meta: .help .quit .tables .show R .schema R .beer .sql STMT .plan E\n\
    \  .load FILE .save DIR .open DIR .import FILE R .export R FILE\n\
    \  .trace on [FILE] / .trace off   Chrome trace of query execution\n\
    \  .stats   cumulative per-statement stats (also: ? sys.statements)\n\
     Catalog: sys.statements sys.operators sys.relations sys.indexes\n\
    \  sys.locks sys.pool sys.series are queryable read-only relations\n\
     Profiling: explain E (estimated rows per operator)\n\
    \  explain analyze E (estimated vs actual rows, q-error, time)\n"

let run_script db path =
  let source = In_channel.with_open_text path In_channel.input_all in
  List.fold_left exec_command db (Xra.Parser.script_of_string source)

(* Saving goes through the store's own checkpoint: the state becomes the
   new snapshot (temporary file, then rename) covering every logged
   record, and the log is truncated behind it. *)
let save db dir =
  let store = Store.open_dir dir in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      Store.absorb_batch store [] db;
      Store.checkpoint store)

let dispatch db line =
  let trimmed = String.trim line in
  (* The issue-tracker spelling of the toggle is ":trace"; accept both. *)
  let trimmed =
    if String.length trimmed >= 6 && String.sub trimmed 0 6 = ":trace" then
      "." ^ String.sub trimmed 1 (String.length trimmed - 1)
    else trimmed
  in
  if trimmed = "" then db
  else if String.length trimmed > 0 && trimmed.[0] = '.' then
    match String.split_on_char ' ' trimmed with
    | ".help" :: _ -> help (); db
    | ".tables" :: _ ->
        List.iter print_endline (Database.relation_names db);
        db
    | [ ".show"; name ] ->
        print_relation (Database.find name db);
        db
    | [ ".schema"; name ] ->
        Format.printf "%a@." Schema.pp (Database.schema_of name db);
        db
    | ".beer" :: _ ->
        Format.printf "loaded beer database@.";
        Mxra_workload.Beer.tiny
    | ".sql" :: rest ->
        let ast = Sql.Sql_parser.parse (String.concat " " rest) in
        show (Session.sql session db ast)
    | ".stats" :: _ ->
        print_string (Obs.Stmt_stats.render_top ());
        db
    | ".plan" :: rest -> show_plan db (String.concat " " rest); db
    | [ ".load"; path ] -> run_script db path
    | [ ".save"; dir ] ->
        save db dir;
        Format.printf "saved to %s@." dir;
        db
    | [ ".open"; dir ] ->
        let recovered = Store.recover_dir dir in
        Format.printf "opened %s (%d relations, t=%d)@." dir
          (List.length (Database.relation_names recovered))
          (Database.logical_time recovered);
        recovered
    | [ ".import"; path; name ] ->
        let r = Mxra_workload.Csv.read_file path in
        let db = Database.create_with name r db in
        Format.printf "imported %d tuples into %s@." (Relation.cardinal r) name;
        db
    | [ ".export"; name; path ] ->
        Mxra_workload.Csv.write_file path (Database.find name db);
        Format.printf "exported %s to %s@." name path;
        db
    | ".trace" :: args -> (
        match args with
        | [ "off" ] ->
            trace_off ();
            Format.printf "tracing off@.";
            db
        | [ "on" ] -> trace_on "trace.json"; db
        | [ "on"; path ] -> trace_on path; db
        | _ ->
            Format.printf "usage: .trace on [FILE] | .trace off@.";
            db)
    | _ ->
        Format.printf "unknown meta command; try .help@.";
        db
  else
    let prefixed prefix =
      let n = String.length prefix in
      if String.length trimmed > n && String.sub trimmed 0 n = prefix then
        Some (String.sub trimmed n (String.length trimmed - n))
      else None
    in
    match prefixed "explain analyze " with
    | Some src -> explain_query db ~analyze:true src; db
    | None -> (
        match prefixed "explain " with
        | Some src -> explain_query db ~analyze:false src; db
        | None -> exec_command db (Xra.Parser.command_of_string trimmed))

let safely f db =
  match f db with
  | db -> db
  | exception e -> (
      match Session.describe e with
      | Some msg ->
          Format.printf "%s@." msg;
          db
      | None -> raise e)

let () =
  print_endline "mxra :: multi-set extended relational algebra shell (.help)";
  let rec loop db =
    print_string "xra> ";
    match In_channel.input_line stdin with
    | None -> print_newline ()
    | Some ".quit" | Some ".q" -> ()
    | Some line -> loop (safely (fun db -> dispatch db line) db)
  in
  loop Database.empty;
  (* An open trace file gets its closing bracket even on .quit/EOF. *)
  trace_off ()
