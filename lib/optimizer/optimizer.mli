(** The query optimizer.

    Section 3.3's purpose statement made executable: because the
    set-algebra equivalences survive the move to multi-sets, the classic
    rewriting optimizer applies unchanged.  The pipeline is:

    + {!Rules.normalize} — simplify, push selections, fuse σ∘× into
      joins, compose and narrow projections, collapse empties;
    + greedy join ordering over maximal ⋈/× chains (justified by
      Theorem 3.3's associativity and the commutation-via-projection
      law), driven by {!Mxra_engine.Cost} estimates;
    + a final normalization pass to clean up what reordering exposed.

    The optimizer is purely logical; handing the result to
    {!Mxra_engine.Planner} yields the physical plan.  Preservation of
    semantics is property-tested against the reference evaluator. *)

open Mxra_relational
open Mxra_core
open Mxra_engine

val optimize :
  ?stats:Stats.env -> schemas:Typecheck.env -> Expr.t -> Expr.t
(** Optimize a well-typed expression.  Without [stats], base relations
    get default profiles, so pushdowns still happen but join ordering is
    blind to data skew.
    @raise Typecheck.Type_error on ill-typed input. *)

val optimize_db : Database.t -> Expr.t -> Expr.t
(** {!optimize} with statistics computed from the database. *)

val reorder_joins :
  stats:Stats.env -> schemas:Typecheck.env -> Expr.t -> Expr.t
(** Only the join-ordering phase — exposed for the Theorem 3.3
    experiment and ablation benches. *)

type report = {
  input_cost : float;
  output_cost : float;
  input_size : int;  (** Operator count before. *)
  output_size : int;
  input_moved : int option;
      (** Realized cost: counted-tuple traffic measured by executing the
          unoptimized plan (the [tuples-moved] total of
          {!Mxra_engine.Exec.run_instrumented}); [None]
          when the report is purely static ({!explain}). *)
  output_moved : int option;  (** Same, for the optimized plan. *)
}

val explain :
  ?stats:Stats.env -> schemas:Typecheck.env -> Expr.t -> Expr.t * report
(** Optimize and report estimated costs before/after.  Purely static:
    the realized fields are [None]. *)

val explain_db : Database.t -> Expr.t -> Expr.t * report
(** {!explain} with the database's statistics, plus realized costs:
    both the input and the optimized plan are executed and their
    measured tuple traffic recorded — the ground truth the estimates
    are judged against. *)
