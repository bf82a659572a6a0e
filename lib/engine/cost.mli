(** Cardinality estimation and plan costing.

    The cost model is the classic tuple-flow model: the estimated cost of
    an expression is the sum of the estimated cardinalities of every
    intermediate result it materialises or streams.  That is exactly the
    quantity Example 3.2 reasons about when it inserts a projection "to
    reduce the size of intermediate results", and it suffices to rank the
    join orders of the Theorem 3.3 experiment.

    Estimation walks the {e logical} expression; the planner's physical
    choices do not change cardinalities, only constants.  Selectivity
    heuristics are the textbook ones (equality [1/ndv], ranges [1/3],
    conjunction multiplies, disjunction adds with cap), seeded by
    {!Stats} on base relations and propagated structurally above them. *)

open Mxra_core

type profile = {
  card : float;  (** Estimated bag cardinality. *)
  ndv : float array;  (** Estimated distinct values per column. *)
  source : Stats.t option;
      (** Exact statistics when the profile belongs to a base relation;
          range and equality conditions on such profiles use the
          histogram ({!Stats.fraction_below}) instead of heuristics. *)
}

val profile :
  stats:Stats.env -> schemas:Typecheck.env -> Expr.t -> profile
(** Estimated output profile of an expression.
    @raise Typecheck.Type_error when the expression is ill-formed. *)

val estimate_cardinality :
  stats:Stats.env -> schemas:Typecheck.env -> Expr.t -> float

val cost : stats:Stats.env -> schemas:Typecheck.env -> Expr.t -> float
(** Estimated data volume: the sum over all operator outputs (leaf scans
    included) of estimated cardinality × output arity — the objective
    the optimizer minimises.  Weighting by arity is what makes
    Example 3.2's narrowing projections profitable in the model, as they
    are in the measured cell traffic (the [cells-moved] total of
    {!Exec.run_instrumented}). *)

val selectivity : profile -> Pred.t -> float
(** Estimated fraction of tuples satisfying the condition, in [0, 1]. *)

val q_error : estimated:float -> actual:int -> float
(** The standard misestimation factor [max(est/act, act/est)], with both
    sides clamped to at least one tuple so that exact hits — including
    the empty/empty case — score 1.0 and the measure is always finite.
    A q-error of [q] means the estimate is off by a factor of [q] in one
    direction or the other; join-order quality degrades roughly with the
    product of the q-errors along the join tree. *)

val index_probe_cost : keys:float -> matching:float -> float
(** Rows touched by one index probe: [log2 keys] tree nodes plus the
    [matching] postings — the quantity compared against a scan's
    cardinality.  [keys] is the distinct-key estimate
    ({!Stats.distinct_keys}); [matching] comes from the histogram
    selectivity of the access predicate. *)

val index_scan_wins : keys:float -> matching:float -> total:float -> bool
(** Whether answering a selection through an index beats scanning all
    [total] rows. *)

val index_join_wins : keys:float -> outer:float -> inner:float -> bool
(** Whether an index nested-loop join — one probe per [outer] row — is
    predicted to beat a hash join's full build over [inner] rows. *)

val exchange_floor : parts:int -> threshold:int -> float
(** Minimum estimated input cardinality at which inserting an
    [Exchange] with [parts] fragments is predicted to pay:
    [max threshold (threshold * parts / 2)], the static [threshold]
    scaled with the fragment count so each fragment still clears half
    of it on its own. *)
