(** The statement lifecycle, once, for every front end.

    The paper's §4 gives one database language: a query [?E] reads
    [D^t]; a data statement, transaction bracket or schema change moves
    the database to [D^{t+1}], and an abort re-installs [D^t].  Each
    entry point here runs one such command with its whole lifecycle —
    query id, activity-registry slot, trace context and span, [sys.*]
    attachment and write guard, optimize, plan, execute, statement
    statistics, durability — and returns the new state and what
    happened.  [bagdb] and the shell only parse and print. *)

open Mxra_relational
open Mxra_core

type t = {
  optimize : bool;  (** Run the logical optimizer before planning. *)
  jobs : int;  (** Domains for parallel plans. *)
  cores : int;  (** Cores the planner may assume ({!host_cores}). *)
  chunk_size : int;  (** Executor chunk size; results do not depend on it. *)
  isolation : Mxra_concurrency.Scheduler.isolation;
  seed : int;  (** Scheduler interleaving seed. *)
  store : Mxra_storage.Store.t option;  (** Durability, when given. *)
}
(** A front end's engine configuration.  Everything a statement's
    planning and execution depend on is here, passed explicitly; none
    of it is read from the environment later. *)

val host_cores : unit -> int
(** The cores plans may assume: the [MXRA_CORES] environment variable
    when set (a deployment setting, and how tests pin plan shapes on any
    host), otherwise [Stdlib.Domain.recommended_domain_count ()].  The
    only environment read in the engine.
    @raise Invalid_argument if [MXRA_CORES] is not a positive integer. *)

val make :
  ?optimize:bool ->
  ?jobs:int ->
  ?cores:int ->
  ?chunk_size:int ->
  ?isolation:Mxra_concurrency.Scheduler.isolation ->
  ?seed:int ->
  ?store:Mxra_storage.Store.t ->
  unit ->
  t
(** Defaults: optimizer on, one job, {!host_cores},
    {!Mxra_engine.Exec.default_chunk_size}, snapshot isolation, seed 42,
    no store.  Also wires the scheduler's counters as the [sys.locks]
    probe.
    @raise Invalid_argument from {!host_cores} when [cores] is absent. *)

val plan : t -> Database.t -> Expr.t -> Mxra_engine.Physical.t
(** The physical plan of an (already optimized) expression under the
    session's [jobs] and [cores] — the plan {!query} and {!analyze}
    run, and the one a front end shows for EXPLAIN. *)

type outcome =
  | Rows of Mxra_engine.Exec.analysis
      (** A query's result, with its per-operator report and totals. *)
  | Committed  (** A data statement committed. *)
  | Aborted of string  (** A data statement aborted, with the reason. *)
  | Created of string * Schema.t
  | Created_index of Database.index_def
  | Dropped_index of string
  | Batch of Mxra_concurrency.Scheduler.result
      (** Transaction brackets; the new state is its [final]. *)

val query :
  ?lang:string -> t -> Database.t -> Expr.t -> Mxra_engine.Exec.analysis
(** Run a query under a fresh query id, in a [query] span tagged with
    [lang] (default ["xra"]), with [sys.*] attached, and record it in
    the statement statistics — its rows, wall time and [tuples-moved]
    total, and one [sys.operators] entry per operator.  The result is
    the analysis' [result]; what to print is the front end's choice. *)

val statement : t -> Database.t -> Statement.t -> Database.t * outcome
(** A query runs as {!query}.  A data statement writing a [sys.*] name
    raises {!Mxra_engine.Syscat.Reserved} before any transaction
    machinery sees it; otherwise it runs as a one-statement transaction
    in a [statement] span, committed through the store if there is
    one. *)

val batch :
  t -> Database.t -> Program.t list -> Mxra_concurrency.Scheduler.result
(** Transaction brackets as one scheduler batch; with a store, the
    committed ones are logged in commit order as one group commit. *)

val command : t -> Database.t -> Mxra_xra.Parser.command -> Database.t * outcome
(** One XRA command: a {!statement}, a bracket as a {!batch} of one, or
    a schema change with [sys.*] names reserved.  With a store a schema
    change checkpoints at once, since the log cannot record it. *)

val sql : t -> Database.t -> Mxra_sql.Sql_ast.stmt -> Database.t * outcome
(** Translate (with the [sys.*] schemas in scope) and run as the
    matching {!command}; a [SELECT] is a query tagged ["sql"]. *)

type explained = {
  db : Database.t;  (** The state with the mentioned [sys.*] attached. *)
  input : Expr.t;
  optimized : Expr.t;
  report : Mxra_optimizer.Optimizer.report;
}

val explain : ?realize:bool -> Database.t -> Expr.t -> explained
(** Attach [sys.*], optimize and estimate costs; [realize] also runs
    both plans to measure their tuple traffic. *)

val analyze : t -> explained -> string * Mxra_engine.Exec.analysis
(** Run the session's {!plan} of the optimized expression, at its chunk
    size, under a fresh query id (returned). *)

val describe : exn -> string option
(** The one-line message for every documented error: XRA and SQL lex
    and parse errors, translation, type, statement, evaluation and
    empty-aggregate errors, unknown or duplicate relations and indexes,
    reserved names, invalid arguments, CSV errors, [Sys_error] and
    [Unix_error].  [None] for anything else. *)
