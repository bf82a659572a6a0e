(** Lightweight execution metrics.

    Monotonic counters and wall-clock duration accumulators, plus the
    per-operator record the executor fills in.  The only
    dependency is [Unix.gettimeofday]; there is no background thread,
    no sampling — every figure is an exact count or a measured
    accumulation, in the spirit of the counted-tuple representation
    where cardinality accounting is exact rather than estimated. *)

type counter
(** A monotonically increasing integer. *)

val make_counter : unit -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

type timer
(** A wall-clock duration accumulator. *)

val make_timer : unit -> timer

val record : timer -> (unit -> 'a) -> 'a
(** Run the thunk, adding its wall time to the accumulator.  An
    exception propagates unchanged, after the time is recorded. *)

val add_ms : timer -> float -> unit
val elapsed_ms : timer -> float

(** {1 Registry}

    Named counters and timers, created on first use and listed in
    creation order — the aggregate view a bench or server loop exports. *)

type t

type value =
  | Count of int
  | Duration_ms of float

val create : unit -> t

val counter : t -> string -> counter
(** Find or create the counter of that name.
    @raise Invalid_argument if the name is registered as a timer. *)

val timer : t -> string -> timer
(** Find or create the timer of that name.
    @raise Invalid_argument if the name is registered as a counter. *)

val dump : t -> (string * value) list
(** Every metric in creation order. *)

val prometheus : ?prefix:string -> t -> string
(** The registry in Prometheus text format: counters as
    [<prefix><name>_total] counter families, timers as
    [<prefix><name>_ms] gauges, names sanitised, in creation order.
    [prefix] defaults to ["mxra_"]. *)

(** {1 Per-operator accounting}

    What the executor records at every physical operator, on every
    execution. *)

type op = {
  elems : counter;  (** counted-tuple elements emitted *)
  rows : counter;  (** tuples emitted, weighted by multiplicity *)
  cells : counter;  (** elements weighted by tuple arity *)
  wall : timer;  (** inclusive wall time — children included *)
  mutable details : (string * int) list;
      (** operator-specific gauges: hash-build sizes, group counts,
          materialised inner sizes; insertion order, last write wins *)
}

val make_op : unit -> op
val set_detail : op -> string -> int -> unit
val details : op -> (string * int) list
(** [details] in insertion order. *)
