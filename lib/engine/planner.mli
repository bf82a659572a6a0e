(** Logical-to-physical translation.

    The planner performs algorithm selection only — logical rewrites
    (pushdowns, join ordering) belong to {!Mxra_optimizer}.  Its one
    non-trivial decision is join implementation: a join condition is
    split into conjuncts, the equi-join conjuncts of shape [%i = %j]
    spanning the operand boundary become hash-join keys, the remainder
    becomes the residual; with no usable key the join falls back to
    nested loops.  A selection directly above a product is likewise
    fused into a join before translation (Theorem 3.1 read right to
    left), so even unoptimized [σ(E1 × E2)] queries execute hashed when
    possible. *)

open Mxra_relational
open Mxra_core

val plan :
  ?jobs:int ->
  ?cores:int ->
  ?parallel_threshold:int ->
  ?force_index:bool ->
  Database.t ->
  Expr.t ->
  Physical.t
(** Translate a well-typed expression.  With [jobs > 1] the result is
    additionally run through {!parallelize} (the default, [jobs = 1],
    plans purely sequentially); [cores] and [parallel_threshold] are
    forwarded to it.  [force_index] (default false) takes an index path
    wherever one applies, regardless of estimated cost — how tests
    drag plans across the index operators.
    @raise Typecheck.Type_error on an ill-typed expression. *)

val default_parallel_threshold : int
(** Estimated input cardinality below which {!parallelize} leaves an
    operator sequential (512). *)

val parallelize :
  stats:Stats.env ->
  schemas:Typecheck.env ->
  jobs:int ->
  ?cores:int ->
  ?threshold:int ->
  Physical.t ->
  Physical.t
(** Insert {!Physical.Exchange} nodes above the fragmentable operators —
    maximal σ/π pipelines, hash joins and hash aggregates — whose
    estimated input cardinality ({!Cost.estimate_cardinality} of the
    logical image; for a join, the sum over both operands) reaches the
    profitability floor ({!Cost.exchange_floor}).

    Adaptive: the fragment count is [min jobs cores] with [cores]
    defaulting to [Stdlib.Domain.recommended_domain_count ()] — on one
    core the plan is returned unchanged, parallelizing there is a
    planner bug.  [threshold] defaults to
    {!default_parallel_threshold}; tests pass 0 to force Exchange
    everywhere.  The result depends on nothing but the arguments. *)

val plan_with :
  ?stats:Stats.env ->
  ?indexes:(string -> Database.index_def list) ->
  Typecheck.env ->
  Expr.t ->
  Physical.t
(** Translation against an explicit schema environment, without a live
    database (bench E18 plans its join-order candidates this way).
    [indexes] lists the secondary-index definitions available on a named
    relation (default: none, so index paths are never chosen); [stats]
    feeds the index-vs-scan cost comparison (default: no statistics,
    heuristic estimates). *)

val join_keys :
  left_arity:int -> Pred.t -> (int * int) list * Pred.t
(** Split a join condition: [(left_key, right_key)] pairs usable by a
    hash join — with the right key renumbered into the right operand's
    own schema — plus the residual conjunction.  Exposed for tests. *)
