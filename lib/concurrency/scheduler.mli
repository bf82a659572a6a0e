(** Interleaved transaction execution: multi-version snapshot isolation
    (the default) or strict two-phase locking.

    The paper's §2 models database evolution as logical-time transitions
    [D^t → D^{t+1}], which is exactly the abstraction MVCC needs: states
    are persistent values, so a transaction can hold an immutable
    snapshot [D^t] for free while writers prepare [D^{t+1}].  Two
    isolation engines share one scheduling loop (transactions execute
    one statement at a time in an arbitrary — seeded or scripted —
    interleaving):

    {2 Snapshot isolation ([Si], the default)}

    - a transaction captures an immutable snapshot of the shared state
      at its first step (its {e begin}); every read — including reads of
      relations other transactions are busy writing — is served from
      that snapshot.  Readers take no locks and never block;
    - writes (insert / delete / update targets) accumulate in a private
      per-transaction overlay, invisible to everyone else until commit;
    - the end bracket validates {e first-committer-wins}: the
      transaction aborts iff a relation in its write set was committed
      by a concurrent transaction after its snapshot was taken
      ([Aborted "write-write conflict on R"]).  Otherwise its written
      relations are installed as the next shared state and it receives
      the next commit timestamp.

    SI forbids dirty reads, non-repeatable reads and lost updates, but
    {e admits write skew} (disjoint write sets, intersecting read sets)
    — see [test/test_mvcc.ml] for executable witnesses of all four and
    [docs/CONCURRENCY.md] for the anomaly table.  Schedules are
    equivalent to the serial execution of the committed transactions in
    commit order whenever every read dependency is covered by the write
    set (e.g. transfer-style workloads), which is what the property
    tests check via {!equivalent_serial}.

    {2 Strict 2PL ([Two_pl])}

    The original engine, kept selectable ([bagdb --isolation 2pl],
    [Session.make ~isolation:Two_pl]) as the differential-testing
    contrast case: relation-granularity shared/exclusive locks held to
    commit, blocked transactions wait, wait-for cycles abort a victim.
    Serializable, but one hot writer stalls every reader of that
    relation. *)

open Mxra_relational
open Mxra_core

(** Concurrency-control engine for a batch. *)
type isolation =
  | Si  (** Multi-version snapshot isolation, first-committer-wins. *)
  | Two_pl  (** Strict two-phase locking at relation granularity. *)

val isolation_name : isolation -> string

type outcome =
  | Committed
  | Aborted of string
      (** Reason: a statement failure, the [abort_if] guard,
          [deadlock victim] (2PL) or [write-write conflict on R]
          (SI first-committer-wins). *)

type stats = {
  steps : int;  (** Statements executed (including undone ones). *)
  blocks : int;  (** Times a transaction had to wait for a lock (2PL). *)
  deadlocks : int;  (** Wait-for cycles broken by aborting a victim (2PL). *)
  conflicts : int;
      (** First-committer-wins validation failures (SI): transactions
          aborted because a write-set relation was committed by a
          concurrent transaction after their snapshot. *)
}

type result = {
  final : Database.t;
  outcomes : outcome list;  (** Per input transaction, in input order. *)
  commit_order : int list;
      (** Indices of committed transactions in commit order — under SI
          this is commit-timestamp order, the serial order schedules
          with write-covered reads are equivalent to. *)
  outputs : Relation.t list list;
      (** Per input transaction, the results of its [?E] statements in
          statement order; [[]] for aborted transactions — atomicity
          extends to the user channel.  What the CLI prints after a
          batch. *)
  query_ids : string list;
      (** Per input transaction, in input order: the query id minted at
          batch start ({!Mxra_obs.Qid}).  The same id is stamped on the
          transaction's trace spans and, by the CLI, into the WAL's
          begin/commit markers — the end-to-end correlation key. *)
  latencies_ms : float list;
      (** Per input transaction, in input order: wall milliseconds from
          its first scheduled step to its finish (0 when it never
          started).  Under 2PL this includes lock-wait time; the E19
          reader/writer bench is built on it. *)
  stats : stats;
}

val run :
  ?isolation:isolation ->
  ?schedule:int list ->
  ?on_step:(unit -> unit) ->
  seed:int ->
  Database.t ->
  Transaction.t list ->
  result
(** Execute the batch under an interleaving.  [seed] fully determines
    the schedule, so failures reproduce.  [schedule], when given, is a
    scripted prefix: each entry names the transaction to step next
    (entries naming finished — or, under 2PL, still-blocked —
    transactions are skipped); once exhausted, the seeded pseudo-random
    interleaving takes over.  The anomaly battery uses it to pin exact
    interleavings.  [isolation] defaults to [Si].

    [on_step], when given, runs after every scheduling step — the
    deterministic stand-in for the wall-clock sampler cadence: a bench
    or test passes [fun () -> ignore (Mxra_obs.Ash.sample_now ())] and
    gets an ASH row per live transaction per step, independent of
    timing.  Each transaction also registers in the activity registry
    for the batch, so blocked transactions sample as [lock] waits,
    conflict aborts and settled lock waits push event rows, and the
    process-wide wait-class counters advance whether or not anyone
    samples. *)

val equivalent_serial : Database.t -> Transaction.t list -> result -> bool
(** The serialization check (the replay oracle the qcheck differential
    reuses): replaying the committed transactions serially in
    [commit_order] from the same initial state yields a state equal to
    [final].  Always true under 2PL; true under SI whenever read
    dependencies are covered by write sets (write skew is the
    documented exception — see [docs/CONCURRENCY.md]). *)

val check : Database.t -> Transaction.t list -> result -> bool
(** Alias of {!equivalent_serial}. *)

val telemetry : unit -> (string * float) list
(** Sampler probe over process-lifetime counters: [sched.steps],
    [sched.blocks], [sched.deadlocks], [sched.conflicts],
    [sched.commits], [sched.batches], [sched.lock_wait_ms] (2PL wait
    time), [txn.conflicts] (= sched.conflicts, the SI abort counter
    named from the transaction's point of view) and [txn.snapshot_age]
    (mean commits that landed between a committed SI transaction's
    snapshot and its own commit), summed across every batch run so
    far. *)
