(* Cumulative per-operator statistics: every plan execution folds each
   physical operator's figures into a process-wide registry keyed by
   operator kind ("HashJoin", "Filter", ...).  This is the
   materialization source for the [sys.operators] virtual relation and
   shares {!Stmt_stats}'s enabled switch so E17's disabled baseline
   turns both registries off with one flag. *)

type row = {
  o_op : string;
  o_execs : int;
  o_elems : int;
  o_rows : int;
  o_cells : int;
  o_wall_ms : float;
}

type entry = {
  mutable execs : int;
  mutable elems : int;
  mutable rows : int;
  mutable cells : int;
  mutable wall_ms : float;
}

let lock = Mutex.create ()
let entries : (string, entry) Hashtbl.t = Hashtbl.create 32

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let record ~op ~elems ~rows ~cells ~wall_ms =
  if Stmt_stats.enabled () then
    with_lock (fun () ->
        let e =
          match Hashtbl.find_opt entries op with
          | Some e -> e
          | None ->
              let e = { execs = 0; elems = 0; rows = 0; cells = 0; wall_ms = 0.0 } in
              Hashtbl.add entries op e;
              e
        in
        e.execs <- e.execs + 1;
        e.elems <- e.elems + elems;
        e.rows <- e.rows + rows;
        e.cells <- e.cells + cells;
        e.wall_ms <- e.wall_ms +. wall_ms)

let snapshot () =
  let rows =
    with_lock (fun () ->
        Hashtbl.fold
          (fun op e acc ->
            {
              o_op = op;
              o_execs = e.execs;
              o_elems = e.elems;
              o_rows = e.rows;
              o_cells = e.cells;
              o_wall_ms = e.wall_ms;
            }
            :: acc)
          entries [])
  in
  List.sort (fun a b -> compare a.o_op b.o_op) rows

let clear () = with_lock (fun () -> Hashtbl.reset entries)
