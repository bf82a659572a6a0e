(* bagdb: non-interactive runner for XRA and SQL scripts.

     bagdb run script.xra            execute an XRA script
     bagdb sql script.sql            execute a SQL script
     bagdb explain 'EXPR'            optimize an XRA expression, show plans
     bagdb metrics script.xra        run quietly, dump Prometheus metrics

   Both runners can preload the paper's beer database (--beer), a
   generated one (--gen-beers N) or the retail workload (--retail N),
   and report per-query timings and engine statistics (--stats).

   Observability: --trace FILE writes a Chrome trace-event file (load
   in Perfetto) with spans for parsing, planning, optimization, every
   physical operator, scheduler transactions and storage I/O;
   --query-log FILE appends one JSONL record per query, filtered by
   --slow-query-ms.  Consecutive transaction brackets in a script run
   as one interleaved batch under the scheduler (--seed picks the
   interleaving; --isolation si|2pl picks snapshot isolation — the
   default — or strict 2PL), and --db DIR makes the run durable:
   recover on open, log commits in one group-committed append,
   checkpoint on exit. *)

open Mxra_relational
open Mxra_core
module Xra = Mxra_xra
module Sql = Mxra_sql
module Obs = Mxra_obs
module Trace = Mxra_obs.Trace
module Store = Mxra_storage.Store
module Torture = Mxra_storage.Torture
module Scheduler = Mxra_concurrency.Scheduler
module Session = Mxra_session.Session

let preload beer gen_beers retail =
  if retail > 0 then
    Mxra_workload.Retail.generate
      ~rng:(Mxra_workload.Rng.make 42)
      ~customers:(max 4 (retail / 10))
      ~orders:retail ()
  else if gen_beers > 0 then
    Mxra_workload.Beer.generate
      ~rng:(Mxra_workload.Rng.make 42)
      ~breweries:(max 4 (gen_beers / 50))
      ~beers:gen_beers ()
  else if beer then Mxra_workload.Beer.tiny
  else Database.empty

(* What a runner prints; the engine side of a run is its session. *)
type out = {
  stats : bool;  (** per-query timing and scheduler statistics *)
  quiet : bool;  (** suppress result tables ([metrics] mode) *)
  totals : Mxra_engine.Metrics.t option;
      (** merged engine registry ([metrics] mode) *)
}

(* [--jobs N]: size the shared domain pool and plan with Exchange
   nodes.  The pool is created lazily on first parallel execution. *)
let set_jobs jobs =
  if jobs < 1 then invalid_arg "--jobs must be at least 1";
  Mxra_ext.Pool.set_default_size jobs;
  jobs

let merge_totals master src =
  List.iter
    (fun (name, v) ->
      match v with
      | Mxra_engine.Metrics.Count n ->
          Mxra_engine.Metrics.add (Mxra_engine.Metrics.counter master name) n
      | Mxra_engine.Metrics.Duration_ms ms ->
          Mxra_engine.Metrics.add_ms (Mxra_engine.Metrics.timer master name) ms)
    (Mxra_engine.Metrics.dump src)

let show out = function
  | Session.Rows a ->
      if not out.quiet then Format.printf "%a@." Relation.pp_table a.result;
      Option.iter (fun m -> merge_totals m a.totals) out.totals;
      if out.stats then
        Format.printf "-- %.3f ms, %d tuples moved@." a.total_ms
          (Mxra_engine.Metrics.count
             (Mxra_engine.Metrics.counter a.totals "tuples-moved"))
  | Session.Aborted reason -> Format.eprintf "aborted: %s@." reason
  | Session.Batch r ->
      (* Outputs per transaction in input order, empty for aborted
         ones. *)
      List.iter2
        (fun outcome outputs ->
          match outcome with
          | Scheduler.Committed ->
              if not out.quiet then
                List.iter (Format.printf "%a@." Relation.pp_table) outputs
          | Scheduler.Aborted reason -> Format.eprintf "aborted: %s@." reason)
        r.Scheduler.outcomes r.Scheduler.outputs;
      if out.stats then begin
        let st = r.Scheduler.stats in
        Format.printf
          "-- scheduler: %d txns, %d committed, %d steps, %d blocks, %d \
           conflicts, %d deadlocks@."
          (List.length r.Scheduler.outcomes)
          (List.length r.Scheduler.commit_order)
          st.Scheduler.steps st.Scheduler.blocks st.Scheduler.conflicts
          st.Scheduler.deadlocks
      end
  | Session.Committed | Session.Created _ | Session.Created_index _
  | Session.Dropped_index _ ->
      ()

(* [on_step] sees the database after every command — `bagdb serve` uses
   it to keep the sampler's relation-cardinality probe pointed at the
   live state while a script runs, instead of the preload snapshot.
   Consecutive transaction brackets run as one scheduler batch. *)
let run_xra ?(on_step = ignore) out session db path =
  let source = In_channel.with_open_text path In_channel.input_all in
  let rec go db = function
    | [] -> db
    | Xra.Parser.Cmd_transaction _ :: _ as cmds ->
        let rec split acc = function
          | Xra.Parser.Cmd_transaction p :: rest -> split (p :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let programs, rest = split [] cmds in
        let r = Session.batch session db programs in
        show out (Session.Batch r);
        next r.Scheduler.final rest
    | cmd :: rest ->
        let db, outcome = Session.command session db cmd in
        show out outcome;
        next db rest
  and next db rest =
    on_step db;
    go db rest
  in
  go db (Xra.Parser.script_of_string source)

let run_sql ?(on_step = ignore) out session db path =
  let source = In_channel.with_open_text path In_channel.input_all in
  let step db ast =
    let db, outcome = Session.sql session db ast in
    show out outcome;
    on_step db;
    db
  in
  List.fold_left step db (Sql.Sql_parser.parse_script source)

(* metrics, stats and serve pick the language by file suffix. *)
let run_script ?on_step out session db path =
  if Filename.check_suffix path ".sql" then run_sql ?on_step out session db path
  else run_xra ?on_step out session db path

let explain ~analyze session db src =
  let x = Session.explain ~realize:analyze db (Xra.Parser.expr_of_string src) in
  let (r : Mxra_optimizer.Optimizer.report) = x.report in
  Format.printf "input:      %s@." (Expr.to_string x.input);
  Format.printf "optimized:  %s@." (Expr.to_string x.optimized);
  Format.printf "est. cost:  %.0f -> %.0f tuples@." r.input_cost r.output_cost;
  (match (r.input_moved, r.output_moved) with
  | Some before, Some after ->
      Format.printf "realized:   %d -> %d tuples moved@." before after
  | _ -> ());
  if analyze then begin
    (* The operator spans carry this id — the same key a served query
       would put in the query log and the WAL. *)
    let qid, analysis = Session.analyze session x in
    Format.printf "query id:   %s@." qid;
    Format.printf "explain analyze:@.%a@." Mxra_engine.Exec.pp_analysis analysis
  end
  else
    Format.printf "physical:@.%s@."
      (Format.asprintf "%a"
         (Mxra_engine.Exec.pp_estimates x.db)
         (Session.plan session x.db x.optimized))

(* --- observability plumbing ------------------------------------------- *)

(* Install the requested sinks, run the thunk, and tear everything down
   — Trace.close first (Chrome sink writes its closing bracket there),
   channels after. *)
let with_tracing ~trace ~query_log ~slow_ms ?agg f =
  let channels = ref [] in
  let file path =
    let oc = open_out path in
    channels := oc :: !channels;
    oc
  in
  let sinks =
    List.concat
      [
        (match trace with
        | Some p -> [ Obs.Chrome_sink.sink (file p) ]
        | None -> []);
        (match query_log with
        | Some p -> [ Obs.Query_log_sink.sink ~slow_ms (file p) ]
        | None -> []);
        (match agg with Some a -> [ Obs.Agg_sink.sink a ] | None -> []);
      ]
  in
  Trace.set_sinks sinks;
  Fun.protect
    ~finally:(fun () ->
      Trace.close ();
      List.iter close_out !channels)
    f

(* Open the store (recovering), seed it with the preload when it is
   empty, hand the runner the store's state, checkpoint on the way out.
   Preloaded relations are installed without log records — they become
   durable at the final checkpoint, like any other uncommitted-to-log
   state would not, so the preload path is only for fresh stores. *)
let with_store ?(checkpoint = true) db_dir preloaded f =
  match db_dir with
  | None -> f None preloaded
  | Some dir ->
      let s = Store.open_dir dir in
      Fun.protect
        ~finally:(fun () -> Store.close s)
        (fun () ->
          if
            Database.persistent_names (Store.database s) = []
            && Database.persistent_names preloaded <> []
          then Store.absorb_batch s [] preloaded;
          f (Some s) (Store.database s);
          if checkpoint then Store.checkpoint s)

(* --- command line ----------------------------------------------------- *)

open Cmdliner

let beer_flag =
  Arg.(value & flag & info [ "beer" ] ~doc:"Preload the paper's beer database.")

let gen_flag =
  Arg.(value & opt int 0 & info [ "gen-beers" ] ~doc:"Preload a generated beer database of $(docv) rows." ~docv:"N")

let retail_flag =
  Arg.(value & opt int 0 & info [ "retail" ] ~doc:"Preload a generated retail database of $(docv) orders." ~docv:"N")

let stats_flag =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print per-query timing, tuple traffic and scheduler statistics.")

let no_optimize_flag =
  Arg.(value & flag & info [ "no-optimize" ] ~doc:"Skip the logical optimizer.")

let trace_flag =
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc:"Write a Chrome trace-event file to $(docv); load it in Perfetto or chrome://tracing." ~docv:"FILE")

let query_log_flag =
  Arg.(value & opt (some string) None & info [ "query-log" ] ~doc:"Append one JSONL record per query span to $(docv)." ~docv:"FILE")

let slow_flag =
  Arg.(value & opt float 0.0 & info [ "slow-query-ms" ] ~doc:"Only log queries that took at least $(docv) milliseconds." ~docv:"MS")

let db_flag =
  Arg.(value & opt (some string) None & info [ "db" ] ~doc:"Durable store directory: recover on open, log commits, checkpoint on exit." ~docv:"DIR")

let no_checkpoint_flag =
  Arg.(value & flag & info [ "no-checkpoint" ] ~doc:"Skip the checkpoint on exit, leaving committed transactions in the write-ahead log (recovery demos and tests).")

let seed_flag =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Scheduler interleaving seed for transaction batches." ~docv:"N")

(* [--isolation si|2pl]: concurrency control for transaction batches.
   Snapshot isolation unless given — the old strict-2PL scheduler stays
   selectable for differential runs. *)
let isolation_flag =
  let mode = Arg.enum [ ("si", Scheduler.Si); ("2pl", Scheduler.Two_pl) ] in
  Arg.(
    value
    & opt (some mode) None
    & info [ "isolation" ]
        ~doc:
          "Concurrency control for transaction batches: $(b,si) \
           (multi-version snapshot isolation with first-committer-wins, \
           the default) or $(b,2pl) (strict two-phase locking, kept \
           selectable for differential testing)."
        ~docv:"MODE")

let jobs_flag =
  Arg.(value & opt int 1 & info [ "jobs" ] ~doc:"Execute plans on $(docv) domains: the planner inserts Exchange operators above large scans, joins and aggregates when profitable on this host's cores, and fragments run on a shared domain pool." ~docv:"N")

(* [--chunk-size N]: morsel size of the chunked executor, carried by
   the session; the default is nursery-sized.  Results are bag-equal at
   every size — this knob exists for experiments and for degenerate-size
   testing. *)
let chunk_size_flag =
  Arg.(value & opt (some int) None & info [ "chunk-size" ] ~doc:"Execute with $(docv)-tuple chunks instead of the default (255). Results are identical at every size." ~docv:"N")

let check_chunk_size = function
  | Some n when n < 1 -> invalid_arg "--chunk-size must be at least 1"
  | chunk -> chunk

let path_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"SCRIPT")
let expr_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPR")

(* The engine flags every script runner shares, folded into its session
   once the store (if any) is open — inside [guarded], so a bad --jobs
   or --chunk-size is a reported error. *)
let session_term =
  let make no_opt seed isolation jobs chunk store =
    Session.make ~optimize:(not no_opt) ~seed ?isolation ~jobs:(set_jobs jobs)
      ?chunk_size:(check_chunk_size chunk) ?store ()
  in
  Term.(
    const make $ no_optimize_flag $ seed_flag $ isolation_flag $ jobs_flag
    $ chunk_size_flag)

let guarded f =
  match f () with
  | () -> 0
  | exception e -> (
      match Session.describe e with
      | Some msg ->
          Format.eprintf "%s@." msg;
          1
      | None -> raise e)

let script_cmd name ~doc runner =
  let action beer gen retail stats trace qlog slow db_dir no_ckpt session path
      =
    guarded (fun () ->
        with_tracing ~trace ~query_log:qlog ~slow_ms:slow (fun () ->
            with_store ~checkpoint:(not no_ckpt) db_dir
              (preload beer gen retail) (fun store db ->
                let out = { stats; quiet = false; totals = None } in
                ignore (runner out (session store) db path))))
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const action $ beer_flag $ gen_flag $ retail_flag $ stats_flag
      $ trace_flag $ query_log_flag $ slow_flag $ db_flag $ no_checkpoint_flag
      $ session_term $ path_arg)

let run_cmd =
  script_cmd "run" ~doc:"Execute an XRA script." (fun out s db path ->
      run_xra out s db path)

let sql_cmd =
  script_cmd "sql" ~doc:"Execute a SQL script." (fun out s db path ->
      run_sql out s db path)

let metrics_cmd =
  let action beer gen retail session path =
    guarded (fun () ->
        let agg = Obs.Agg_sink.create () in
        let totals = Mxra_engine.Metrics.create () in
        let out = { stats = false; quiet = true; totals = Some totals } in
        let session = session None in
        with_tracing ~trace:None ~query_log:None ~slow_ms:0.0 ~agg (fun () ->
            ignore (run_script out session (preload beer gen retail) path));
        print_string (Obs.Prometheus.of_aggregate agg);
        print_string (Mxra_engine.Metrics.prometheus totals))
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a script with result output suppressed and dump the \
          aggregated span latencies, operator traffic and engine counters \
          in Prometheus text format.")
    Term.(
      const action $ beer_flag $ gen_flag $ retail_flag $ session_term
      $ path_arg)

(* [bagdb stats]: run a script quietly (if given), then render the
   cumulative fingerprinted statement statistics — the same registry
   sys.statements materializes and /stmtz serves. *)
let stats_cmd =
  let action beer gen retail session json limit path =
    guarded (fun () ->
        let out = { stats = false; quiet = true; totals = None } in
        let session = session None in
        Option.iter
          (fun path ->
            ignore (run_script out session (preload beer gen retail) path))
          path;
        if json then print_string (Obs.Stmt_stats.to_json ())
        else print_string (Obs.Stmt_stats.render_top ~limit ()))
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Dump the registry as JSON.")
  and limit =
    Arg.(value & opt int 20
         & info [ "limit" ] ~doc:"Show the top $(docv) statements." ~docv:"N")
  and path =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"SCRIPT")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a script with output suppressed and print cumulative \
          per-statement statistics keyed by fingerprint: calls, wall-time \
          quantiles, rows, WAL bytes and lock waits.")
    Term.(
      const action $ beer_flag $ gen_flag $ retail_flag $ session_term $ json
      $ limit $ path)

let analyze_flag =
  Arg.(
    value & flag
    & info [ "analyze" ]
        ~doc:
          "Execute the optimized plan with instrumentation and report \
           estimated vs actual rows, per-operator q-error and wall time.")

let explain_cmd =
  let action beer gen retail analyze jobs chunk db_dir expr =
    guarded (fun () ->
        (* --db opens an existing store read-only (no checkpoint): the
           plan is explained against its recovered relations and index
           definitions — how index-path selection is pinned in tests. *)
        with_store ~checkpoint:false db_dir (preload beer gen retail)
          (fun _ db ->
            let session =
              Session.make ~jobs:(set_jobs jobs)
                ?chunk_size:(check_chunk_size chunk) ()
            in
            explain ~analyze session db expr))
  in
  Cmd.v (Cmd.info "explain" ~doc:"Optimize an XRA expression and show plans.")
    Term.(
      const action $ beer_flag $ gen_flag $ retail_flag $ analyze_flag
      $ jobs_flag $ chunk_size_flag $ db_flag $ expr_arg)

(* Crash-recovery torture sweep over the in-memory fault-injecting VFS.
   On an oracle violation the reproduction command line (with the
   failing seed and crash point) is written to --failure-file so CI can
   upload it as an artifact. *)
let torture_cmd =
  let action txns seed crash_points checkpoint_every fail_every group
      no_continue failure_file =
    let cfg =
      {
        Torture.txns;
        seed;
        crash_points;
        checkpoint_every;
        fail_every;
        continue_after = not no_continue;
        group_commit = group;
      }
    in
    let progress d t =
      if d mod 100 = 0 || d = t then
        Format.eprintf "-- torture: %d/%d crash points@." d t
    in
    match Torture.run ~progress cfg with
    | Ok r ->
        Format.printf
          "torture ok: %d syscalls, %d crashes recovered, %d transient \
           faults retried@."
          r.Torture.syscalls r.Torture.recoveries r.Torture.transients;
        0
    | Error f ->
        let repro =
          Printf.sprintf
            "bagdb torture --txns %d --seed %d --crash-points %d \
             --checkpoint-every %d --fail-every %d --group %d"
            txns f.Torture.fail_seed crash_points checkpoint_every fail_every
            group
        in
        Format.eprintf
          "torture FAILED at crash point %d (seed %d): %s@.reproduce with: \
           %s@."
          f.Torture.crash_point f.Torture.fail_seed f.Torture.detail repro;
        Out_channel.with_open_text failure_file (fun oc ->
            Printf.fprintf oc
              "crash_point=%d\nseed=%d\ndetail=%s\nreproduce=%s\n"
              f.Torture.crash_point f.Torture.fail_seed f.Torture.detail repro);
        1
  in
  let txns =
    Arg.(value & opt int Torture.default.Torture.txns
         & info [ "txns" ] ~doc:"Transactions in the random workload." ~docv:"N")
  and seed =
    Arg.(value & opt int Torture.default.Torture.seed
         & info [ "seed" ] ~doc:"Workload and fault-injection seed." ~docv:"N")
  and crash_points =
    Arg.(value & opt int 0
         & info [ "crash-points" ]
             ~doc:"Crash points to exercise, sampled evenly over the run's \
                   syscalls; 0 means every reachable one." ~docv:"N")
  and checkpoint_every =
    Arg.(value & opt int Torture.default.Torture.checkpoint_every
         & info [ "checkpoint-every" ]
             ~doc:"Checkpoint after every $(docv) transactions; 0 disables."
             ~docv:"N")
  and fail_every =
    Arg.(value & opt int Torture.default.Torture.fail_every
         & info [ "fail-every" ]
             ~doc:"Transient-fault cadence for the retry sweep; 0 skips it."
             ~docv:"N")
  and group =
    Arg.(value & opt int Torture.default.Torture.group_commit
         & info [ "group" ]
             ~doc:"Coalesce up to $(docv) transactions per group commit \
                   (one WAL append + fsync per group); 1 disables grouping."
             ~docv:"N")
  and no_continue =
    Arg.(value & flag
         & info [ "no-continue" ]
             ~doc:"Skip replaying the remaining workload after each recovery.")
  and failure_file =
    Arg.(value & opt string "torture-failure.txt"
         & info [ "failure-file" ]
             ~doc:"Where to write the reproduction seed on failure."
             ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:
         "Crash the store at every reachable syscall of a random \
          transaction workload, recover, and check prefix consistency \
          against an in-memory shadow.")
    Term.(
      const action $ txns $ seed $ crash_points $ checkpoint_every
      $ fail_every $ group $ no_continue $ failure_file)

(* --- live telemetry: bagdb serve / bagdb top --------------------------- *)

(* [bagdb serve]: run an optional script, then keep serving live
   telemetry over HTTP — /metrics (Prometheus), /healthz, /statz (raw
   time series as JSON), /topz (the table bagdb top renders) and
   /quitz (clean remote shutdown, so scripted runs never hang).  A
   background sampler feeds a ring-buffer store from probes owned by
   each layer: GC, the domain pool, the 2PL scheduler, the WAL and the
   live relation cardinalities. *)
let serve_cmd =
  let action beer gen retail trace qlog slow db_dir no_ckpt session port
      port_file interval_ms duration_ms script =
    guarded (fun () ->
        let agg = Obs.Agg_sink.create () in
        with_tracing ~trace ~query_log:qlog ~slow_ms:slow ~agg (fun () ->
            with_store ~checkpoint:(not no_ckpt) db_dir
              (preload beer gen retail) (fun store db ->
                let session = session store in
                let db_ref = ref db in
                let rel_probe () =
                  let db = !db_ref in
                  List.map
                    (fun n ->
                      ( "rel." ^ n,
                        float_of_int (Relation.cardinal (Database.find n db))
                      ))
                    (Database.persistent_names db)
                in
                let probes =
                  [
                    Obs.Sampler.gc_probe;
                    Obs.Sampler.uptime_probe;
                    Mxra_ext.Pool.telemetry;
                    Mxra_ext.Index.telemetry;
                    Scheduler.telemetry;
                    Obs.Wait.telemetry;
                    (* The ASH cadence rides the sampler: every tick
                       snapshots the activity registry into the ring. *)
                    Obs.Ash.probe;
                    rel_probe;
                  ]
                  @ (match store with
                    | Some s -> [ Store.telemetry s ]
                    | None -> [])
                in
                let sampler =
                  Obs.Sampler.start ~interval_ms:(float_of_int interval_ms)
                    ~probes ()
                in
                let ts = Obs.Sampler.store sampler in
                (* sys.series materializes from the live sampler store
                   while this server runs. *)
                Mxra_engine.Syscat.set_series_store (Some ts);
                let quit = Atomic.make false in
                let handler path =
                  match path with
                  | "/metrics" ->
                      Some
                        (Obs.Http_server.text
                           (Obs.Prometheus.of_aggregate agg
                           ^ Obs.Timeseries.to_prometheus ts
                           ^ Obs.Stmt_stats.to_prometheus ()
                           ^ Obs.Wait.to_prometheus ()))
                  | "/healthz" -> Some (Obs.Http_server.text "ok\n")
                  | "/statz" ->
                      Some (Obs.Http_server.json (Obs.Timeseries.to_json ts))
                  | "/topz" ->
                      Some (Obs.Http_server.text (Obs.Timeseries.render_top ts))
                  | "/stmtz" ->
                      Some (Obs.Http_server.text (Obs.Stmt_stats.render_top ()))
                  | "/stmtz.json" ->
                      Some (Obs.Http_server.json (Obs.Stmt_stats.to_json ()))
                  | "/ashz" ->
                      Some (Obs.Http_server.text (Obs.Ash.render_ash ()))
                  | "/progressz" ->
                      Some (Obs.Http_server.text (Obs.Ash.render_progress ()))
                  | "/quitz" ->
                      Atomic.set quit true;
                      Some (Obs.Http_server.text "bye\n")
                  | _ -> None
                in
                let server = Obs.Http_server.start ~port handler in
                Format.eprintf "-- serving telemetry on 127.0.0.1:%d@."
                  (Obs.Http_server.port server);
                Option.iter
                  (fun pf ->
                    Out_channel.with_open_text pf (fun oc ->
                        Printf.fprintf oc "%d\n" (Obs.Http_server.port server)))
                  port_file;
                Fun.protect
                  ~finally:(fun () ->
                    Obs.Http_server.stop server;
                    Obs.Sampler.stop sampler)
                  (fun () ->
                    Option.iter
                      (fun path ->
                        (* Publish the state after every statement so
                           the sampler's cardinality series track the
                           script as it runs, not just its end. *)
                        db_ref :=
                          run_script
                            ~on_step:(fun db -> db_ref := db)
                            { stats = false; quiet = false; totals = None }
                            session !db_ref path)
                      script;
                    (* Make sure the series reflect the script's final
                       state even if no interval tick has fired yet. *)
                    Obs.Sampler.sample_now sampler;
                    let deadline =
                      if duration_ms <= 0 then Float.infinity
                      else
                        Unix.gettimeofday ()
                        +. (float_of_int duration_ms /. 1000.0)
                    in
                    while
                      (not (Atomic.get quit))
                      && Unix.gettimeofday () < deadline
                    do
                      Unix.sleepf 0.05
                    done))))
  in
  let port =
    Arg.(value & opt int 9090
         & info [ "port" ] ~doc:"Listen port; 0 picks a free one (see --port-file)." ~docv:"PORT")
  and port_file =
    Arg.(value & opt (some string) None
         & info [ "port-file" ]
             ~doc:"Write the actually bound port to $(docv) once listening — \
                   the handshake for scripts using --port 0." ~docv:"FILE")
  and interval_ms =
    Arg.(value & opt int 1000
         & info [ "interval-ms" ] ~doc:"Resource sampling interval." ~docv:"MS")
  and duration_ms =
    Arg.(value & opt int 0
         & info [ "duration-ms" ]
             ~doc:"Stop after $(docv) milliseconds; 0 serves until /quitz or \
                   interrupt." ~docv:"MS")
  and script =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"SCRIPT")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run an optional script, then serve live telemetry over HTTP: \
          /metrics (Prometheus), /healthz, /statz (JSON time series), /topz, \
          /stmtz, /ashz (Active Session History), /progressz (live query \
          progress) and /quitz.")
    Term.(
      const action $ beer_flag $ gen_flag $ retail_flag $ trace_flag
      $ query_log_flag $ slow_flag $ db_flag $ no_checkpoint_flag
      $ session_term $ port $ port_file $ interval_ms $ duration_ms $ script)

(* [bagdb top]: the client side — fetch /topz from a running serve and
   render it, refreshing until interrupted; --once prints a single
   frame for scripts, --statz dumps the raw JSON, --quit asks the
   server to shut down. *)
let top_cmd =
  let action host port once statz stmtz ash progress quit interval_ms =
    guarded (fun () ->
        if quit then ignore (Obs.Http_server.get ~host ~port "/quitz")
        else if statz then
          let _, body = Obs.Http_server.get ~host ~port "/statz" in
          print_string body
        else if stmtz then
          let _, body = Obs.Http_server.get ~host ~port "/stmtz" in
          print_string body
        else if ash then
          let _, body = Obs.Http_server.get ~host ~port "/ashz" in
          print_string body
        else if progress then
          let _, body = Obs.Http_server.get ~host ~port "/progressz" in
          print_string body
        else if once then
          let _, body = Obs.Http_server.get ~host ~port "/topz" in
          print_string body
        else
          let rec loop () =
            let _, body = Obs.Http_server.get ~host ~port "/topz" in
            (* Top statements ride below the series table on the live
               refresh; --once keeps the bare /topz frame for scripts. *)
            let statements =
              match Obs.Http_server.get ~host ~port "/stmtz" with
              | _, s when String.trim s <> "" -> "\n-- statements --\n" ^ s
              | _ -> ""
              | exception _ -> ""
            in
            (* Clear screen, home cursor, redraw. *)
            print_string "\027[2J\027[H";
            print_string body;
            print_string statements;
            flush stdout;
            Unix.sleepf (float_of_int (max 50 interval_ms) /. 1000.0);
            loop ()
          in
          loop ())
  in
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~doc:"Server to poll." ~docv:"HOST")
  and port =
    Arg.(value & opt int 9090 & info [ "port" ] ~doc:"Server port." ~docv:"PORT")
  and once =
    Arg.(value & flag
         & info [ "once" ] ~doc:"Print one frame and exit (for scripts).")
  and statz =
    Arg.(value & flag
         & info [ "statz" ] ~doc:"Dump the raw /statz JSON instead of the table.")
  and stmtz =
    Arg.(value & flag
         & info [ "stmtz" ]
             ~doc:"Print the fingerprinted statement table (/stmtz) and exit.")
  and ash =
    Arg.(value & flag
         & info [ "ash" ]
             ~doc:"Print the Active Session History (/ashz) and exit.")
  and progress =
    Arg.(value & flag
         & info [ "progress" ]
             ~doc:"Print live query progress (/progressz) and exit.")
  and quit =
    Arg.(value & flag
         & info [ "quit" ] ~doc:"Ask the server to shut down (/quitz) and exit.")
  and interval_ms =
    Arg.(value & opt int 1000
         & info [ "interval-ms" ] ~doc:"Refresh interval." ~docv:"MS")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Watch a running $(b,bagdb serve): fetch its /topz table and \
          refresh in place.")
    Term.(
      const action $ host $ port $ once $ statz $ stmtz $ ash $ progress
      $ quit $ interval_ms)

let () =
  let doc = "a multi-set extended relational algebra database (ICDE 1994)" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "bagdb" ~doc)
          [
            run_cmd; sql_cmd; explain_cmd; metrics_cmd; stats_cmd; torture_cmd;
            serve_cmd; top_cmd;
          ]))
