(** Cumulative per-statement statistics keyed by {!Fingerprint}.

    A process-wide mutex-guarded registry in the pg_stat_statements
    mold: each executed statement folds its wall time (exact
    count/sum/min/max plus p50/p99 from a {!Histogram}), row and tuple
    counts into the entry for its fingerprint, while the storage and
    concurrency layers attribute WAL bytes and lock-wait time to the
    same entry through the query id every span, log record and WAL
    marker already carries.  The registry is what the engine
    materializes as the [sys.statements] virtual relation. *)

val enabled : unit -> bool
(** The registry switch; starts true. *)

val set_enabled : bool -> unit
(** Flip the switch; when off, every call below is a single atomic
    load (bench E17's disabled baseline). *)

val record :
  ?lang:string ->
  ?qid:string ->
  ?rows:int ->
  ?tuples:int ->
  wall_ms:float ->
  string ->
  unit
(** [record ~wall_ms text] folds one execution of [text] into its
    fingerprint's entry.  [lang] tags the front-end (["xra"] /
    ["sql"], default ["xra"]); [rows] is the result cardinality;
    [tuples] the executor's tuples-moved total.
    [qid], when given, is stamped as the entry's [last_qid], drains
    any WAL-byte / lock-wait attribution that arrived under that qid
    before the statement finished, and keeps the qid resolvable for
    late attribution (bounded, FIFO eviction). *)

val add_wal_bytes : qid:string -> int -> unit
(** Attribute WAL payload bytes to the statement executing as [qid];
    buffered if that statement has not been {!record}ed yet. *)

val add_lock_wait : qid:string -> float -> unit
(** Attribute milliseconds spent blocked on locks to [qid]; buffered
    like {!add_wal_bytes}. *)

val add_conflict : qid:string -> unit
(** Attribute one snapshot-isolation write-write conflict abort
    (first-committer-wins validation failure) to the transaction
    executing as [qid]; buffered like {!add_wal_bytes}.  The SI
    counterpart of {!add_lock_wait}: where 2PL statements pay in lock
    waits, SI transactions pay in conflict aborts. *)

(** One statement's cumulative figures, as materialized into
    [sys.statements]. *)
type row = {
  r_fingerprint : string;
  r_text : string;  (** normalized exemplar text *)
  r_lang : string;
  r_calls : int;
  r_rows : int;
  r_tuples : int;
  r_wal_bytes : int;
  r_lock_wait_ms : float;
  r_conflicts : int;  (** SI write-write conflict aborts *)
  r_total_ms : float;
  r_min_ms : float;
  r_max_ms : float;
  r_p50_ms : float;
  r_p99_ms : float;
  r_last_qid : string;
}

val snapshot : unit -> row list
(** All entries, sorted by cumulative wall time descending (ties by
    fingerprint, so the order is deterministic). *)

val cardinality : unit -> int
(** Number of distinct fingerprints. *)

val truncate_text : ?width:int -> string -> string
(** Statement text clipped to [width] (default 48) with an ellipsis —
    the one-line form the fixed-width tables print. *)

val render_top : ?limit:int -> unit -> string
(** Fixed-width text table of the top [limit] (default 20) statements
    by cumulative wall time — the [/stmtz] and [bagdb stats] view. *)

val to_json : unit -> string
(** [{"statements":[...]}], same order as {!snapshot}. *)

val to_prometheus : ?prefix:string -> unit -> string
(** Labeled counter families ([<prefix>calls_total],
    [<prefix>ms_total], [<prefix>rows_total],
    [<prefix>wal_bytes_total], [<prefix>lock_wait_ms_total],
    [<prefix>conflicts_total]) with [fingerprint] and [lang] labels;
    [prefix] defaults to ["mxra_stmt_"]. *)

val clear : unit -> unit
(** Drop everything (tests and bench baselines). *)
