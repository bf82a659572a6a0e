(** Physical query plans.

    A physical plan fixes, for each logical operator, the algorithm that
    implements it: hash join vs. nested loops, hash-based aggregation,
    hash-based duplicate elimination and bag difference/intersection.
    The planner ({!Planner}) chooses the algorithms; the executor
    ({!Exec}) runs them.

    [to_logical] recovers the logical expression a plan computes; the
    engine's correctness contract — checked property-style in the test
    suite — is that executing a plan equals {!Mxra_core.Eval} on its
    logical image. *)

open Mxra_relational
open Mxra_core

type t =
  | Const_scan of Relation.t
  | Seq_scan of string  (** Scan a named database relation. *)
  | Index_scan of {
      def : Database.index_def;
      access : Mxra_ext.Index.access;
          (** Key conditions consumed by the index probe. *)
      residual : Pred.t;
          (** Remaining conjuncts, evaluated on each posted tuple;
              [Pred.True] when the index covers the whole predicate. *)
    }
      (** Selection over a named relation answered by a secondary index:
          probe the index, filter postings by the residual. *)
  | Index_join of {
      def : Database.index_def;
      outer_keys : int list;
          (** Outer-schema attributes supplying the key values, aligned
              position-for-position with [def.idx_cols]. *)
      left_arity : int;
      residual : Pred.t;
      outer : t;
    }
      (** Index nested-loop join: for each outer row, probe the inner
          relation's index with the outer key values and emit matches —
          the inner side is the indexed relation itself, never a
          subplan. *)
  | Filter of Pred.t * t
  | Project_op of Scalar.t list * t
  | Hash_join of {
      left_keys : int list;  (** Key attributes in the left schema. *)
      right_keys : int list;
          (** Matching key attributes, numbered in the {e right} operand's
              own schema. *)
      left_arity : int;
          (** Arity of the left operand's schema; recorded by the planner
              so plans stay self-describing (a [Seq_scan]'s arity is not
              structural). *)
      residual : Pred.t;
          (** Evaluated on the concatenated tuple after key match;
              [Pred.True] for pure equi-joins. *)
      left : t;
      right : t;
    }
  | Nested_loop of Pred.t * t * t
      (** General θ-join: condition over the concatenated schema. *)
  | Cross_product of t * t
  | Union_all of t * t
  | Hash_diff of t * t  (** Bag monus via count tables. *)
  | Hash_intersect of t * t  (** Pointwise minimum via count tables. *)
  | Hash_distinct of t
  | Hash_aggregate of int list * (Aggregate.kind * int) list * t
  | Exchange of { parts : int; child : t }
      (** Parallel execution marker: the child computes the same bag,
          but the executor partitions its work into [parts] fragments
          and runs them on the domain pool ({!Mxra_ext.Pool}), merging
          by bag union — sound by the distribution laws of Theorem 3.2
          and key-aligned partitioning (docs/PARALLELISM.md).  The
          planner inserts it above filters, projections, hash joins and
          hash aggregates whose estimated input exceeds a threshold. *)

val access_pred : Database.index_def -> Mxra_ext.Index.access -> Pred.t list
(** The conjuncts an index access stands for, over the indexed
    relation's own schema — what the probe answers, residual excluded.
    [to_logical] conjoins them back; the planner estimates matching rows
    from them. *)

val to_logical : t -> Expr.t
(** The logical expression this plan computes.  A [Hash_join] maps to a
    [Join] whose condition conjoins the key equalities with the
    residual. *)

val size : t -> int
(** Operator count. *)

val children : t -> t list
(** Direct operands, left to right. *)

val exchange_count : t -> int
(** Number of [Exchange] nodes anywhere in the plan — zero exactly when
    the plan is purely sequential.  The adaptive planner's 1-core
    guarantee ([parallelize] never parallelizes with one core) is pinned
    against this. *)

val label : t -> string
(** One-line description of the operator itself, without children —
    what {!pp} prints on the operator's own line. *)

val kind : t -> string
(** The operator's constructor name alone ([label] without keys or
    predicates) — the stable aggregation key tracing and metrics group
    by. *)

val pp : Format.formatter -> t -> unit
(** One operator per line, children indented — an EXPLAIN-style tree. *)

val pp_annotated :
  annot:(int -> t -> string) -> Format.formatter -> t -> unit
(** Like {!pp} but appending [annot i node] to each line (column-aligned
    when non-empty), where [i] is the node's position in preorder —
    [0] for the root, children left to right — so a caller holding
    per-position figures (EXPLAIN ANALYZE's report tree) indexes them
    without comparing nodes.  How EXPLAIN and EXPLAIN ANALYZE attach
    estimated and measured figures to the tree. *)

val to_string : t -> string
