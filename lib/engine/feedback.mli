(** Measured Exchange profitability, fed back into the planner.

    The executor reports every Exchange it runs: input rows and the
    measured gain [busy − wall] (summed fragment time minus the
    partition→pool→merge wall time around them).  The observations
    collapse into one number — the smallest input size at which an
    Exchange has actually paid on this host — which
    {!Planner.parallelize} folds into its insertion threshold on
    subsequent plans.  Process-global and monotone in the obvious
    directions: losses raise the bar, wins lower it. *)

val note : rows:int -> gain_ms:float -> unit
(** Record one Exchange execution over [rows] input tuples.
    [gain_ms <= 0] marks it unprofitable at that size. *)

val min_profitable_rows : unit -> int option
(** Current bar: [None] until the first observation. *)

val observations : unit -> int
(** How many Exchange executions have been recorded. *)

val reset : unit -> unit
(** Forget all observations (tests and benchmarks). *)
