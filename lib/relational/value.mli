(** Atomic values (Definition 2.1).

    A value is an element of one of the four atomic domains of the model:
    integers, reals, booleans, and strings.  Values are {e atomic}: no
    operator of the relational model looks inside them; only the scalar
    expression language of the extended projection (Definition 3.4)
    computes with them.

    Comparison between values of different domains is a type error in the
    algebra; it is surfaced here as the {!Incomparable} exception so that
    the type checker (which prevents it statically) and the evaluator
    (which would otherwise mask bugs) can both rely on it. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

exception Incomparable of t * t
(** Raised by {!compare_same_domain} on values from different domains. *)

val compare : t -> t -> int
(** Total order across all domains (domain-major, then value order).
    Used to store heterogeneous tuples in ordered containers; never
    observable from the algebra, which is well-typed. *)

val compare_same_domain : t -> t -> int
(** Order of two values of the same domain, as used by selection
    predicates and MIN/MAX aggregates.
    @raise Incomparable if the domains differ. *)

val equal : t -> t -> bool
(** Equality; values of different domains are unequal. *)

val hash : t -> int
(** Hash compatible with {!equal} (both zeros alike, every nan alike),
    well mixed in its low bits and allocation-free. *)

val pp : Format.formatter -> t -> unit
(** [42], [3.14], ['abc'] (single-quoted, quotes doubled), [true]. *)

val to_string : t -> string

val to_display_string : t -> string
(** Like {!to_string} but floats are shortened to 6 significant digits —
    for tables shown to humans, not for syntax that must re-parse. *)

val is_numeric : t -> bool
(** True for [Int] and [Float]; the domains accepted by SUM and AVG. *)

val as_float : t -> float
(** Numeric value as a float.
    @raise Invalid_argument on non-numeric values. *)
