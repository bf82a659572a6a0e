(** Physical plan execution.

    Operators exchange {e counted tuples} [(tuple, multiplicity)]: a
    relation holding one tuple a million times flows as a single element,
    which is the executable form of the paper's representation of
    multi-sets as [(x, E(x))] pairs.  Counted tuples flow in {e chunks}
    — non-empty arrays of up to {!chunk_size} elements — so pipelined
    operators (scan, filter, project, the probe side of a hash join)
    process morsels in tight loops instead of paying a closure per
    element; blocking operators (hash join build, aggregation, distinct,
    difference, intersection) materialise hash tables as before.
    Chunking is pure plumbing: results are bag-equal at every chunk
    size, including the degenerate size 1.

    Correctness contract: for every plan [p] and database [db],
    [run db p] equals [Eval.eval db (Physical.to_logical p)] — checked
    property-style by the test suite, differentially across chunk sizes
    and fragment counts. *)

open Mxra_relational
open Mxra_core

(** {1 Chunk size}

    Every entry point takes [?chunk_size]; without it, one process-wide
    default applies, initially {!default_chunk_size}.  Front ends pass
    their session's size explicitly. *)

val default_chunk_size : int
(** 255: with its header, the largest array the OCaml runtime still
    allocates on the minor heap, which keeps chunks (and the tuples
    they carry) from being promoted to the major heap mid-pipeline. *)

val chunk_size : unit -> int
(** The current process-wide default chunk size. *)

val set_chunk_size : int -> unit
(** Set the process-wide default; values below 1 are clamped to 1. *)

(** {1 Execution}

    There is one way to run a plan.  Every operator's output passes
    through one observation point that, chunk by chunk, tallies the
    counted-tuple elements, tuples (with multiplicity) and cells it
    emits and its inclusive wall time into that operator's record.
    Because the engine runs on the paper's counted representation
    [(x, E(x))], the accounting is exact, not sampled.  The same records
    feed everything that reports on an execution: the EXPLAIN ANALYZE
    {!report}, the per-operator trace spans (when tracing is on), the
    cumulative [sys.operators] registry ({!Mxra_obs.Op_stats}, gated by
    {!Mxra_obs.Stmt_stats.enabled}), the live progress of the ambient
    activity-registry slot ({!Mxra_obs.Ash.with_slot}: the producing
    operator, and the rows leaving the root) and the plan-wide totals.
    {!run}, {!stream} and {!run_instrumented} differ only in what they
    return. *)

val run : ?chunk_size:int -> Database.t -> Physical.t -> Relation.t
(** Execute a plan to a materialised relation: the [result] of
    {!run_instrumented}.
    @raise Database.Unknown_relation on a scan of an absent name.
    @raise Typecheck.Type_error if the plan's logical image is ill-typed.
    @raise Scalar.Eval_error / [Aggregate.Undefined] on dynamic failure. *)

val run_expr : ?chunk_size:int -> Database.t -> Expr.t -> Relation.t
(** Plan (with {!Planner.plan}) and execute a logical expression — the
    engine's one-call entry point. *)

val stream : ?chunk_size:int -> Database.t -> Physical.t -> (Tuple.t * int) Seq.t
(** The raw counted-tuple stream of a plan (chunks flattened), without
    final materialisation; multiplicities of equal tuples may be split
    across several elements.  [sys.operators] is fed once the stream is
    exhausted. *)

(** {1 Partitioning}

    The partition kernel every [Exchange] fragments its input with. *)

val partition :
  parts:int ->
  keys:int list ->
  (Tuple.t * int) array ->
  (Tuple.t * int) array array
(** [partition ~parts ~keys rows] hash-partitions counted rows into
    [parts] buckets on the listed attributes (1-based).  A row's bucket
    combines the {!Value.hash} of each key attribute, so equal key
    values always share a bucket, and two inputs partitioned on
    equal-length key lists are co-partitioned wherever their key values
    agree.  Every row lands in exactly one bucket, in input order.
    @raise Invalid_argument if [parts <= 0] or a key is out of range. *)

val work_balance : (Tuple.t * int) array array -> float
(** The work-balance bound of a fragmentation: total rows over the
    largest bucket's rows (1.0 when every bucket is empty).  It is the
    speedup the fragments allow on enough cores — [parts] when
    balanced, 1.0 when one hot key owns every row. *)

(** {1 Instrumented execution — EXPLAIN ANALYZE}

    The per-operator records of one execution, as a tree, with the
    optimizer's estimate next to each operator's actual rows.  Estimates
    cost a statistics pass over the database, so they are lazy: the pass
    runs once, when the first estimate or q-error is forced (rendering
    with {!pp_analysis} forces them), and never when nothing reads
    them. *)

type op_metrics = {
  out_elems : int;  (** counted-tuple elements emitted *)
  out_rows : int;  (** tuples emitted, weighted by multiplicity *)
  out_cells : int;  (** elements weighted by tuple arity *)
  wall_ms : float;
      (** inclusive wall time: pulling from children counts towards the
          parent too, as in EXPLAIN ANALYZE's actual time *)
  details : (string * int) list;  (** operator-specific gauges *)
}

type report = {
  node : Physical.t;
  estimated_rows : float Lazy.t;
      (** the optimizer's estimate ({!Cost.estimate_cardinality}) for
          this operator's logical image, from the database's statistics *)
  actual : op_metrics;
  q_error : float Lazy.t;  (** {!Cost.q_error} of estimated vs actual rows *)
  inputs : report list;
}

type analysis = {
  result : Relation.t;
  total_ms : float;
  root : report;
  totals : Metrics.t;
      (** plan-wide aggregates: [tuples-moved] (the elements every
          operator emitted — the measured counterpart of {!Cost.cost}'s
          estimate), [cells-moved] (the same weighted by arity: the data
          volume Example 3.2's early projection reduces), [rows-out],
          [operators], [wall] *)
}

val run_instrumented : ?chunk_size:int -> Database.t -> Physical.t -> analysis
(** Execute and return the result with its per-operator report and
    totals.  Same raising behaviour as {!run}; element/row/cell counts
    are independent of the chunk size.  Under an Exchange, the stages of
    a fused σ/π chain are counted per fragment and summed on the
    coordinating domain. *)

val explain_analyze : ?chunk_size:int -> ?jobs:int -> Database.t -> Expr.t -> analysis
(** Plan (with {!Planner.plan}, forwarding [jobs]) and
    {!run_instrumented} — the engine's one-call EXPLAIN ANALYZE.
    Callers wanting the optimizer's plan should optimize the
    expression first. *)

val pp_analysis : Format.formatter -> analysis -> unit
(** The physical tree, each operator annotated with
    [(est=… act=… q=… time=…ms gauges…)], then a total line. *)

val analysis_to_string : analysis -> string

val pp_estimates : Database.t -> Format.formatter -> Physical.t -> unit
(** The physical tree annotated with estimated rows only — EXPLAIN
    without execution. *)

