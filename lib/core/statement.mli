(** Extended relational algebra statements (Definition 4.1).

    Statements query and update a multi-set relational database:

    - [insert(R, E)]: [R ← R ⊎ E];
    - [delete(R, E)]: [R ← R − E];
    - [update(R, E, α)]: [R ← (R − E) ⊎ π_α(R ∩ E)] where [π_α] is a
      {e structure-preserving} extended projection (result schema equals
      the operand schema);
    - [R := E]: assignment to "a new and implicitly defined relational
      variable" — a temporary relation dropped at transaction end;
    - [?E]: send the value of [E] to the user; no effect on the state.

    [exec] performs one statement on a database state and returns the new
    state plus the query output, if any.  It is the small-step semantics
    used by {!Program} and {!Transaction}. *)

open Mxra_relational

type t =
  | Insert of string * Expr.t
  | Delete of string * Expr.t
  | Update of string * Expr.t * Scalar.t list
  | Assign of string * Expr.t
  | Query of Expr.t

exception Exec_error of string
(** A statement-level failure: unknown target relation, schema mismatch
    between target and expression, or a non-structure-preserving update
    list.  Expression-level failures propagate from {!Eval}. *)

val exec : Database.t -> t -> Database.t * Relation.t option
(** Execute one statement.  The relation is [Some] exactly for [Query].
    @raise Exec_error on statement-level failure, and whatever {!Eval}
    raises on expression-level failure. *)

(** {1 Write observation}

    Layers above core (secondary index maintenance, change capture) can
    register a hook that sees every update statement's exact delta.
    The invariant, with bags over the target relation:
    [bag w_before − w_removed ⊎ w_added = bag w_after].  Multiplicities
    are exact: a delete of a tuple present 3 times removes it with
    count 3 (or less, by monus, if the deleted bag carries fewer). *)
type write = {
  w_db : Database.t;  (** State the statement executed against. *)
  w_name : string;  (** Target relation name. *)
  w_before : Relation.t;
  w_after : Relation.t;
  w_added : Relation.Bag.t;
  w_removed : Relation.Bag.t;
}

val set_write_observer : (write -> unit) option -> unit
(** Install (or clear) the process-wide write observer.  When [None]
    (the default) updates pay a single ref read; deltas are computed
    only while an observer is installed. *)

val write_observer : unit -> (write -> unit) option
(** The installed observer, so a caller can chain to it or restore it. *)

val infer : Database.t -> t -> unit
(** Statically check the statement against the database schema without
    executing it (the [Assign] case cannot extend the environment here;
    {!Program.infer} threads that).
    @raise Exec_error / [Typecheck.Type_error] as appropriate. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
