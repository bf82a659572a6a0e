(** Cumulative per-operator statistics — the [sys.operators] source.

    Fed by every plan execution ([Exec.run], [Exec.stream],
    [Exec.run_instrumented]): one {!record} per physical operator per
    execution, keyed by operator kind.  Gated by
    {!Stmt_stats.enabled} so one switch controls both registries. *)

type row = {
  o_op : string;  (** physical operator kind, e.g. ["HashJoin"] *)
  o_execs : int;  (** operator instances executed *)
  o_elems : int;  (** counted tuples consumed *)
  o_rows : int;  (** counted tuples produced *)
  o_cells : int;  (** cells moved *)
  o_wall_ms : float;  (** cumulative wall ms (inclusive of children) *)
}

val record : op:string -> elems:int -> rows:int -> cells:int -> wall_ms:float -> unit
val snapshot : unit -> row list
(** Sorted by operator kind. *)

val clear : unit -> unit
