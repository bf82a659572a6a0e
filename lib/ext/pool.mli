(** A domain pool for real multicore execution.

    OCaml 5 gives the runtime true parallelism through domains; this
    module keeps a set of them alive behind a mutex/condition work
    queue so that query execution can fan work out without paying a
    [Domain.spawn] (~100µs and a fresh minor heap) per operator.  No
    external dependency is used — the pool is raw [Stdlib.Domain] plus
    [Mutex]/[Condition]/[Atomic].

    A pool of size [n] owns [n - 1] worker domains; the caller of
    {!map_array} enlists itself as the [n]th lane, so [create 1] spawns
    nothing and degrades to ordinary sequential iteration.  Work is
    distributed morsel-style: lanes repeatedly claim the next chunk of
    indices from an atomic cursor, so a skewed fragment occupies one
    lane while the others drain the rest — the scheduling of
    morsel-driven parallelism (Leis et al.), scaled down to arrays.

    Relations and bags are immutable balanced maps, so fragments handed
    to workers are shared across domains with zero copying; tasks must
    only avoid mutating shared state of their own. *)

type t

val create : int -> t
(** [create n] is a pool of [n] compute lanes ([n - 1] spawned domains;
    values [< 1] are clamped to 1).  Shut it down with {!shutdown} or
    use {!with_pool}. *)

val size : t -> int
(** Number of compute lanes (including the caller's). *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Must not be called while a
    {!map_array} is in flight; subsequent {!map_array} calls run
    sequentially on the caller. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool n f] runs [f] over a fresh pool and shuts it down
    afterwards, exception or not. *)

val map_array : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array pool f arr] applies [f] to every element on the pool's
    lanes and returns the results in order.  [chunk] is the morsel size
    — how many consecutive elements a lane claims at a time (default
    [max 1 (length / (4 * size))], i.e. about four morsels per lane so
    imbalanced elements rebalance; pass [~chunk:1] when each element is
    already a coarse fragment).

    If any application raises, the first exception (by completion
    order) is re-raised in the caller with its backtrace once the other
    lanes have drained; remaining unstarted morsels are skipped. *)

val mapi_array : ?chunk:int -> t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** {!map_array} with the element index, for labelling fragments. *)

(** {1 The shared pool}

    Engine operators ({!Mxra_engine.Exec} executing an [Exchange] node)
    need a pool but must not spawn one per query.  The shared pool is
    created on first use and sized by its callers: each asks for the
    lanes it is about to use, and the pool grows to the largest request
    seen and never shrinks, so alternating sizes never respawn
    domains.  An [at_exit] hook joins its domains so the process always
    terminates cleanly. *)

val shared : int -> t
(** [shared n] is the shared pool, first grown to at least [n] lanes.
    Call it on the domain that dispatches the work, before
    {!map_array}. *)

(** {1 Telemetry} *)

type stats = {
  s_lanes : int;  (** compute lanes, including the caller's *)
  s_queued : int;  (** jobs waiting in the work queue right now *)
  s_busy : int;  (** lanes currently running morsels *)
  s_maps : int;  (** {!map_array} calls since the pool was created *)
}

val stats : t -> stats
(** A cheap, deliberately racy glance at the pool — single-field reads
    only, safe from any domain, no lock taken. *)

val telemetry : unit -> (string * float) list
(** Sampler probe over the shared pool: series [pool.lanes],
    [pool.queued], [pool.busy] and [pool.maps].  Never creates the
    pool — before the first {!shared} call it reports the caller's one
    lane and zeros. *)
