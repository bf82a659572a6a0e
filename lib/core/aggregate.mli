(** Multi-set aggregate functions (Definition 3.3).

    An aggregate function computes a value over a specified attribute
    [p] of a multi-set expression:

    - [CNT_p E = Σ_{x ∈ dom(ℰ)} E(x)] — multiplicities counted; [p] is a
      dummy parameter kept for syntactic uniformity;
    - [SUM_p E = Σ_{x ∈ dom(ℰ)} E(x) · x.p] — numeric [p];
    - [AVG_p E = SUM_p E / CNT_p E] — numeric [p];
    - [MIN_p E], [MAX_p E] — over the support [{x | E(x) > 0}].

    AVG, MIN and MAX are {e partial}: they are undefined on the empty
    multi-set (the paper notes this explicitly), surfaced here as
    {!Undefined}.  CNT and SUM of an empty bag are 0.

    Aggregation happens over bags of {e values} (the [p]-column of a
    relation with multiplicities intact); the groupby operator of
    Definition 3.4 builds those bags per group. *)

open Mxra_relational

type kind =
  | Cnt
  | Sum
  | Avg
  | Min
  | Max
  | Var  (** Population variance — a "statistical aggregate function",
             the extension family Definition 3.3's remark invites. *)
  | Stddev  (** Square root of {!Var}. *)

exception Undefined of kind
(** AVG/MIN/MAX applied to an empty multi-set. *)

val all : kind list
(** The paper's five functions, in definition order. *)

val all_extended : kind list
(** {!all} plus the statistical extensions VAR and STDDEV. *)

val name : kind -> string
(** [CNT], [SUM], [AVG], [MIN], [MAX], [VAR], [STDDEV]. *)

val of_name : string -> kind option
(** Case-insensitive inverse of {!name}; also accepts SQL spellings
    [COUNT] and [AVERAGE]. *)

val result_domain : kind -> Domain.t -> Domain.t
(** [result_domain f d] is [ran(f)] when aggregating an attribute of
    domain [d]: CNT is always [int]; SUM preserves [d]; AVG is always
    [float]; MIN/MAX preserve [d].
    @raise Scalar.Eval_error if [f] requires a numeric domain and [d] is
    not numeric (SUM, AVG), or if MIN/MAX is applied to [bool] (the
    boolean domain is unordered in the model). *)

val applicable : kind -> Domain.t -> bool
(** Whether {!result_domain} would succeed. *)

(** {1 Computation}

    The input is the counted [p]-column: a list of [(value, multiplicity)]
    pairs with positive multiplicities.  Order is irrelevant. *)

val compute : kind -> (Value.t * int) list -> Value.t
(** @raise Undefined on an empty input for AVG/MIN/MAX.
    @raise Scalar.Eval_error on non-numeric input to SUM/AVG. *)

val compute_for : Domain.t -> kind -> (Value.t * int) list -> Value.t
(** Like {!compute}, but the attribute domain is supplied so that the
    result lands in [result_domain kind domain] even on the empty bag:
    the empty SUM over a [float] column is [Float 0.], not [Int 0].
    This is the variant evaluators must use. *)

val cnt : (Value.t * int) list -> int
val sum : (Value.t * int) list -> Value.t
val avg : (Value.t * int) list -> float
(** @raise Undefined on empty input. *)

val var : (Value.t * int) list -> float
(** Population variance, multiplicity-weighted.
    @raise Undefined on empty input. *)

val min_v : (Value.t * int) list -> Value.t
(** @raise Undefined on empty input. *)

val max_v : (Value.t * int) list -> Value.t
(** @raise Undefined on empty input. *)

val pp : Format.formatter -> kind -> unit

(** {1 Incremental accumulation}

    The one accumulator every Γ execution path folds rows into:
    sequential, per fragment, and partial-then-merged for a global
    aggregate split across fragments.  CNT and integer SUM fold, MIN
    and MAX keep the extremum, and float SUM, AVG, VAR and STDDEV
    buffer the counted column and {!finish} through {!compute_for}, so
    every result is bit-identical to the reference evaluator however
    the input was split. *)
module Acc : sig
  type t
  (** An immutable accumulator state. *)

  val init : kind -> Domain.t -> t
  (** The empty state of an aggregate over an attribute of the domain. *)

  val step : t -> Value.t -> int -> t
  (** [step acc v n] folds in value [v] with multiplicity [n].
      @raise Scalar.Eval_error on a non-integer value under integer
      SUM. *)

  val merge : t -> t -> t
  (** Combine two states of the same aggregate, built over disjoint
      parts of one input.
      @raise Invalid_argument on states of different aggregates. *)

  val finish : t -> Value.t
  (** The aggregate's value.
      @raise Undefined on an empty input for AVG/MIN/MAX/VAR/STDDEV. *)
end
