(** Transactions (Definition 4.3).

    A transaction is a program enclosed in transaction brackets,
    executed against a database state [D] at logical time [t].  During
    execution the database passes through intermediate states [D^{t.i}]
    that may contain temporary relations and are invisible outside the
    transaction.  The end bracket:

    - on {e commit}: removes temporary relations from [D^{t.n}] and
      installs the result as [D^{t+1}];
    - on {e abort}: installs [D^t] as [D^{t+1}] — the pre-state, with
      only the logical clock advanced.

    Thus a transaction is an operator transforming a database state into
    another ([D →^T T(D)], a single-step transition, Definition 2.6),
    and atomicity holds by construction: either all effects are
    installed or none ("(T(D) = D^{t.n+1}) ∨ (T(D) = D)").

    Aborts arise from failures during execution (evaluation errors,
    statement errors) or from an explicit {!Statement} sequence guarded
    by [abort_if] — a minimal programmatic abort facility; the paper
    leaves the abort trigger to the environment. *)

open Mxra_relational

type t = {
  name : string;  (** For reporting; not semantically significant. *)
  body : Program.t;
  abort_if : (Database.t -> bool) option;
      (** Evaluated on the final intermediate state [D^{t.n}] (before
          the end bracket); [true] forces an abort.  [None] never
          aborts programmatically. *)
}

val make : ?name:string -> ?abort_if:(Database.t -> bool) -> Program.t -> t

type outcome =
  | Committed of {
      state : Database.t;  (** [D^{t+1}], temporaries dropped. *)
      outputs : Relation.t list;  (** Results of [?E] statements. *)
    }
  | Aborted of {
      state : Database.t;  (** [D^t] re-installed (time advanced). *)
      reason : string;
    }

val abort_reason : exn -> string option
(** The reason an abort reports for a failure inside a transaction:
    statement, type, evaluation and schema errors, an aggregate over an
    empty multi-set, an unknown relation, or an assignment shadowing a
    persistent relation.  [None] for anything else — a programming
    error, which propagates.  Shared by {!run} and the interleaving
    scheduler, so both abort with the same words. *)

val run : Database.t -> t -> outcome
(** Execute the transaction.  Never raises for failures inside the
    transaction — those abort it; programming errors outside the model
    ([Invalid_argument] etc.) still propagate. *)

val state_of : outcome -> Database.t
val committed : outcome -> bool

val run_all : Database.t -> t list -> Database.t * outcome list
(** Serial execution of a batch, each transaction seeing the previous
    one's post-state — the paper's isolation property realised by
    serial scheduling. *)

val transition : Database.t -> outcome -> Database.t * Database.t
(** The database transition [(D_t, D_{t+1})] (Definition 2.6) induced
    by running the transaction from the given pre-state. *)
