open Mxra_relational
open Mxra_core
module Trace = Mxra_obs.Trace
module Ash = Mxra_obs.Ash
module Pool = Mxra_ext.Pool
module Index = Mxra_ext.Index

module TH = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

(* --- chunked streams --------------------------------------------------- *)

(* The executor's unit of data flow is a [chunk]: a non-empty array of
   counted tuples.  Operators process a chunk in a tight loop, so the
   per-element cost of a lazy [Seq] — one closure and one [Cons] cell
   per tuple — is paid once per chunk instead.  On the spine of a
   pipeline chunks hold at most [chunk_size] elements, but operators
   that naturally produce bigger batches (a probe chunk fanning out
   against a hash table, an Exchange fragment's whole output) may emit
   longer ones: the only invariant is that chunks are non-empty.

   A chunk stream is consumed at most once per materialisation; the
   probe-side operators reuse one scratch buffer across chunks, so
   interleaving two traversals of the same stream is not supported
   (materialise instead). *)

type chunk = (Tuple.t * int) array

(* 255 elements + header = 256 words, the largest array the OCaml
   runtime still allocates on the minor heap (Max_young_wosize).  Bigger
   chunks go straight to the major heap, every store into them pays the
   slow write-barrier path, and the tuples they hold get promoted at the
   next minor collection — measured on E15 as twice the major-heap
   allocation and a ~20% slowdown at 1024. *)
let default_chunk_size = 255
let chunk_ref = ref default_chunk_size
let set_chunk_size n = chunk_ref := max 1 n
let chunk_size () = !chunk_ref

(* A growable row buffer (OCaml 5.1 has no Stdlib.Dynarray yet): the
   expanding operators fill one of these per input chunk and flush it as
   an output chunk, reusing the backing store across chunks. *)
module Vec = struct
  type t = { mutable arr : chunk; mutable len : int }

  let dummy = (Tuple.unit, 0)
  let create n = { arr = Array.make (max 1 n) dummy; len = 0 }

  let push v x =
    (if v.len = Array.length v.arr then begin
       let bigger = Array.make (2 * v.len) dummy in
       Array.blit v.arr 0 bigger 0 v.len;
       v.arr <- bigger
     end);
    v.arr.(v.len) <- x;
    v.len <- v.len + 1

  (* Contents as a chunk; the vector resets for reuse.  An exactly-full
     vector hands over its backing array instead of copying. *)
  let flush v =
    let c =
      if v.len = Array.length v.arr then begin
        let a = v.arr in
        v.arr <- Array.make (Array.length a) dummy;
        a
      end
      else Array.sub v.arr 0 v.len
    in
    v.len <- 0;
    c
end

(* Cut a counted-tuple sequence into chunks of [size] (the last may be
   shorter), pulling lazily: used above the table-driven operators whose
   outputs are hashtable traversals. *)
let chunks_of_seq size s =
  let rec next s () =
    match s () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (x, rest) ->
        let buf = Array.make size x in
        let n = ref 1 in
        let rec fill s =
          if !n = size then s
          else
            match s () with
            | Seq.Nil -> Seq.empty
            | Seq.Cons (x, rest) ->
                buf.(!n) <- x;
                incr n;
                fill rest
        in
        let rest = fill rest in
        let c = if !n = size then buf else Array.sub buf 0 !n in
        Seq.Cons (c, next rest)
  in
  next s

(* Scans chunk lazily: materialising a scan's chunk list up front would
   keep every chunk live for the whole query, promoting its tuples out
   of the nursery at each minor collection (measured on E15 as double
   the promoted words). *)
let chunks_of_bag size bag =
  chunks_of_seq size (Relation.Bag.to_counted_seq bag)

let concat_chunks cs = Array.concat (List.of_seq cs)

(* An expanding operator (join, product) pushes zero or more output rows
   per input row with [f push c]; the outputs are re-chunked at [size],
   reusing one buffer across input chunks, so large fan-outs stay
   nursery-sized. *)
let expand_chunks size f chunks =
  let out = Vec.create size in
  Seq.concat_map
    (fun c ->
      let outs = ref [] in
      let push x =
        Vec.push out x;
        if out.Vec.len >= size then outs := Vec.flush out :: !outs
      in
      f push c;
      if out.Vec.len > 0 then outs := Vec.flush out :: !outs;
      List.to_seq (List.rev !outs))
    chunks

(* --- the kernels shared by sequential and Exchange execution ---------- *)

(* Hash join.  The build side maps each key to its matching rows; a
   probe projects its key, looks it up once and walks the match list
   in place.  The sequential operator builds over a chunk stream, an
   Exchange fragment over one co-partitioned bucket. *)
let join_build keys table c =
  Array.iter
    (fun ((tuple, _) as row) ->
      let key = Tuple.project keys tuple in
      let existing = Option.value ~default:[] (TH.find_opt table key) in
      TH.replace table key (row :: existing))
    c

let join_probe table ~keys ~residual push c =
  Array.iter
    (fun (ltuple, ln) ->
      match TH.find_opt table (Tuple.project keys ltuple) with
      | None -> ()
      | Some matches ->
          List.iter
            (fun (rtuple, rn) ->
              let combined = Tuple.concat ltuple rtuple in
              if Pred.eval combined residual then push (combined, ln * rn))
            matches)
    c

(* Hash partitioning: a row's bucket combines the per-attribute
   [Value.hash] of its key attributes with the usual 31x mix, so no key
   tuple is projected.  All copies of a key land in one bucket, and two
   inputs partitioned on equal-length key lists agree on the bucket of
   every key value they share — the co-partitioning a distributed
   equi-join or grouped Γ needs (Theorem 3.2).  Buckets keep input
   order. *)
let slot ~parts keys t =
  let rec mix h = function
    | [] -> h
    | k :: ks -> mix ((h * 31) + Value.hash (Tuple.attr t k)) ks
  in
  mix 0 keys land max_int mod parts

let partition ~parts ~keys rows =
  if parts <= 0 then invalid_arg "Exec.partition: parts <= 0";
  let slots = Array.map (fun (t, _) -> slot ~parts keys t) rows in
  let sizes = Array.make parts 0 in
  Array.iter (fun i -> sizes.(i) <- sizes.(i) + 1) slots;
  let buckets = Array.map (fun n -> Array.make n Vec.dummy) sizes in
  let filled = Array.make parts 0 in
  Array.iteri
    (fun r i ->
      buckets.(i).(filled.(i)) <- rows.(r);
      filled.(i) <- filled.(i) + 1)
    slots;
  buckets

let work_balance buckets =
  let sizes = Array.map Array.length buckets in
  let total = Array.fold_left ( + ) 0 sizes in
  let busiest = Array.fold_left max 0 sizes in
  if busiest = 0 then 1.0 else float_of_int total /. float_of_int busiest

(* Contiguous slices are a valid fragmentation for per-tuple operators
   and global aggregates: σ and π distribute over any ⊎-decomposition
   (Theorem 3.2), and accumulators merge. *)
let slices parts arr =
  let n = Array.length arr in
  Array.init parts (fun i ->
      let lo = i * n / parts and hi = (i + 1) * n / parts in
      Array.sub arr lo (hi - lo))

(* Grouped aggregation (Definition 3.4).  A [grouping] carries the
   grouping attributes, the aggregated positions and each aggregate's
   empty accumulator, typed from the input schema. *)
type grouping = {
  attrs : int list;
  positions : int array;
  init : Aggregate.Acc.t array;
}

let grouping db src attrs aggs =
  let schema = Typecheck.infer_db db (Physical.to_logical src) in
  {
    attrs;
    positions = Array.of_list (List.map snd aggs);
    init =
      Array.of_list
        (List.map
           (fun (kind, p) -> Aggregate.Acc.init kind (Schema.domain schema p))
           aggs);
  }

(* The group-table loop: fold one chunk of counted rows into per-group
   accumulators. *)
let group_rows g groups c =
  Array.iter
    (fun (tuple, n) ->
      let key = Tuple.project g.attrs tuple in
      let accs =
        match TH.find_opt groups key with
        | Some accs -> accs
        | None ->
            let accs = Array.copy g.init in
            TH.add groups key accs;
            accs
      in
      for i = 0 to Array.length accs - 1 do
        let v = Tuple.attr tuple g.positions.(i) in
        accs.(i) <- Aggregate.Acc.step accs.(i) v n
      done)
    c

(* Fold a partial group table, built over a disjoint part of the same
   input, into [into]. *)
let merge_groups into groups =
  TH.iter
    (fun key accs ->
      match TH.find_opt into key with
      | Some mine ->
          TH.replace into key (Array.map2 Aggregate.Acc.merge mine accs)
      | None -> TH.add into key accs)
    groups

let finish_groups g groups =
  (* Definition 3.4: with an empty grouping list the result is one tuple
     even over the empty input. *)
  if g.attrs = [] && TH.length groups = 0 then
    TH.add groups Tuple.unit (Array.copy g.init);
  Seq.map
    (fun (key, accs) ->
      let values = Array.to_list (Array.map Aggregate.Acc.finish accs) in
      (Tuple.concat key (Tuple.of_list values), 1))
    (TH.to_seq groups)

(* A fragment's result, produced on a pool lane.  The lane id and the
   measured interval become a per-worker span in the trace (emitted from
   the coordinating domain — sinks are not required to be thread-safe),
   so Chrome/Perfetto shows one lane per domain. *)
type 'a fragment_out = {
  frag_out : 'a;
  frag_lane : int;
  frag_start : float;
  frag_dur : float;
}

(* Run one thunk per fragment on the shared pool, grown first to one
   lane per fragment (each fragment is one morsel), emit the worker
   spans, and return the results in fragment order. *)
let on_pool ~name ~out_rows tasks =
  let outs =
    Pool.map_array ~chunk:1 (Pool.shared (Array.length tasks))
      (fun task ->
        let start = Trace.now_us () in
        let out = task () in
        {
          frag_out = out;
          frag_lane = (Stdlib.Domain.self () :> int);
          frag_start = start;
          frag_dur = Trace.now_us () -. start;
        })
      tasks
  in
  if Trace.enabled () then
    Array.iteri
      (fun i o ->
        Trace.complete name ~tid:o.frag_lane ~start_us:o.frag_start
          ~dur_us:o.frag_dur
          ~attrs:
            [
              ("fragment", Trace.Int i);
              ("rows", Trace.Int (out_rows o.frag_out));
            ])
      outs;
  Array.map (fun o -> o.frag_out) outs

(* σ and π over one chunk: the per-stage kernels the sequential
   operators and the Exchange scan-worker share.  [filter_chunk] may
   return an empty array. *)
let filter_chunk p c =
  let n = Array.length c in
  if n = 0 then c
  else begin
    let out = Array.make n c.(0) in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let (tuple, _) as x = c.(i) in
      if Pred.eval tuple p then begin
        out.(!k) <- x;
        incr k
      end
    done;
    if !k = n then out else Array.sub out 0 !k
  end

let project_chunk exprs c =
  Array.map
    (fun (tuple, n) -> (Tuple.of_list (List.map (Scalar.eval tuple) exprs), n))
    c

(* --- the observation point ---------------------------------------------- *)

(* Add a chunk's elements, rows (weighted by multiplicity) and cells
   (weighted by arity) to an operator's record; returns the rows.
   Because the engine runs on the counted representation [(x, E(x))],
   the accounting is exact and costs one pass over the chunk. *)
let tally (m : Metrics.op) c =
  let rows = ref 0 and cells = ref 0 in
  Array.iter
    (fun (t, n) ->
      rows := !rows + n;
      cells := !cells + Tuple.arity t)
    c;
  Metrics.add m.Metrics.elems (Array.length c);
  Metrics.add m.Metrics.rows !rows;
  Metrics.add m.Metrics.cells !cells;
  !rows

(* One execution.  [context] builds the run's operator tree once: one
   [node] per plan position, holding that position's operator, its
   record and its input nodes, so every walk below — execution, the
   report, the [sys.operators] feed, the totals — follows the tree and
   never searches for an operator.  Structurally equal or physically
   shared subplans at two positions get two records.  [slot] is the
   statement's activity-registry slot, if it registered one
   ({!Mxra_obs.Ash.with_slot}). *)
type node = { plan : Physical.t; m : Metrics.op; inputs : node list }

type ctx = {
  db : Database.t;
  size : int;
  root : node;
  slot : Ash.slot option;
  traced : bool;
}

let rec node_of plan =
  {
    plan;
    m = Metrics.make_op ();
    inputs = List.map node_of (Physical.children plan);
  }

let context ?chunk_size db plan =
  {
    db;
    size = (match chunk_size with Some n -> max 1 n | None -> !chunk_ref);
    root = node_of plan;
    slot = Ash.current ();
    traced = Trace.enabled ();
  }

(* Every node of the tree, parents before children. *)
let rec fold_nodes f acc n = List.fold_left (fold_nodes f) (f acc n) n.inputs

(* A maximal σ/π chain: its source and its stages, bottom first. *)
let rec chain n stages =
  match (n.plan, n.inputs) with
  | Physical.Filter (p, _), [ t ] -> chain t ((n, filter_chunk p) :: stages)
  | Physical.Project_op (exprs, _), [ t ] ->
      chain t ((n, project_chunk exprs) :: stages)
  | _ -> (n, stages)

(* An operator-specific gauge: hash-build size, group count,
   materialised inner cardinality. *)
let gauge n key v = Metrics.set_detail n.m key v

(* A traced operator's span runs from stream construction to stream
   exhaustion — its lifetime in the pipeline, which in a lazy engine
   contains the lifetimes of its children, so viewers nest the spans
   correctly.  The span links to the operator's exact counters: emitted
   rows/elements, the measured inclusive wall time, and the gauges. *)
let op_span_attrs p (m : Metrics.op) =
  ("label", Trace.Str (Physical.label p))
  :: ("rows", Trace.Int (Metrics.count m.Metrics.rows))
  :: ("elems", Trace.Int (Metrics.count m.Metrics.elems))
  :: ("wall_ms", Trace.Float (Metrics.elapsed_ms m.Metrics.wall))
  :: List.map (fun (k, v) -> (k, Trace.Int v)) (Metrics.details m)

(* The one observation point: [observed cx n thunk] builds node [n]'s
   output stream (eager work — hash builds, sorts, scan chunking —
   happens inside the thunk) and wraps it once.  Each pull is timed,
   inclusive of child pulls as in EXPLAIN ANALYZE's actual time, and
   each chunk is tallied into [n]'s record.  Inside a live ASH slot
   every chunk stamps [n]'s operator as the one currently producing,
   and chunks leaving the root ([~root:true]) advance the statement's
   rows, so sys.progress moves while the query runs.  Under tracing the
   operator's span is emitted at the first exhaustion. *)
let observed ?(root = false) cx n thunk =
  let p = n.plan and m = n.m in
  let stamp =
    match cx.slot with
    | None -> ignore
    | Some slot ->
        let kind = Physical.kind p in
        if root then fun rows ->
          Ash.set_operator slot kind;
          Ash.advance slot ~rows
        else fun _ -> Ash.set_operator slot kind
  in
  let on_end =
    if cx.traced then begin
      let start_us = Trace.now_us () in
      let ended = ref false in
      fun () ->
        if not !ended then begin
          ended := true;
          Trace.complete (Physical.kind p) ~start_us
            ~dur_us:(Trace.now_us () -. start_us)
            ~attrs:(op_span_attrs p m)
        end
    end
    else ignore
  in
  let rec go s () =
    match Metrics.record m.Metrics.wall s with
    | Seq.Nil ->
        on_end ();
        Seq.Nil
    | Seq.Cons (c, rest) ->
        stamp (tally m c);
        Seq.Cons (c, go rest)
  in
  go (Metrics.record m.Metrics.wall thunk)

(* --- plan execution ---------------------------------------------------- *)

(* Collapse a chunk stream into a per-tuple count table. *)
let count_table chunks =
  let table = TH.create 64 in
  Seq.iter
    (Array.iter (fun (t, n) ->
         match TH.find_opt table t with
         | Some c -> TH.replace table t (c + n)
         | None -> TH.add table t n))
    chunks;
  table

let rec exec ?root cx n : chunk Seq.t =
  observed ?root cx n (fun () -> exec_node cx n)

and exec_node cx n : chunk Seq.t =
  let size = cx.size and db = cx.db in
  (* The observed stream of the [i]th input. *)
  let input i = exec cx (List.nth n.inputs i) in
  match n.plan with
  | Physical.Const_scan r -> chunks_of_bag size (Relation.bag r)
  | Physical.Seq_scan name ->
      chunks_of_bag size (Relation.bag (Database.find name db))
  | Physical.Index_scan { def; access; residual } ->
      let idx = Index.get def (Database.find def.idx_rel db) in
      gauge n "keys" (Index.distinct_keys idx);
      let matches = Index.probe idx access in
      let matches =
        match residual with
        | Pred.True -> matches
        | p -> Seq.filter (fun (t, _) -> Pred.eval t p) matches
      in
      chunks_of_seq size matches
  | Physical.Index_join { def; outer_keys; residual; _ } ->
      (* Probe the inner relation's index once per outer row — no build
         phase; the structure is shared via the index cache. *)
      let idx = Index.get def (Database.find def.idx_rel db) in
      gauge n "keys" (Index.distinct_keys idx);
      expand_chunks size
        (fun push ->
          Array.iter (fun (ltuple, ln) ->
              let key = List.map (fun i -> Tuple.attr ltuple i) outer_keys in
              Relation.Bag.iter
                (fun rtuple rn ->
                  let combined = Tuple.concat ltuple rtuple in
                  if Pred.eval combined residual then push (combined, ln * rn))
                (Index.probe_point idx key)))
        (input 0)
  | Physical.Filter (p, _) ->
      Seq.filter
        (fun c -> Array.length c > 0)
        (Seq.map (filter_chunk p) (input 0))
  | Physical.Project_op (exprs, _) -> Seq.map (project_chunk exprs) (input 0)
  | Physical.Hash_join { left_keys; right_keys; residual; _ } ->
      (* Build on the right, probe (pipelined, chunk at a time) from the
         left. *)
      let table = TH.create 256 in
      let entries = ref 0 in
      Seq.iter
        (fun c ->
          entries := !entries + Array.length c;
          join_build right_keys table c)
        (input 1);
      gauge n "build" !entries;
      gauge n "keys" (TH.length table);
      expand_chunks size
        (join_probe table ~keys:left_keys ~residual)
        (input 0)
  | Physical.Nested_loop (p, _, _) ->
      let right_rows = concat_chunks (input 1) in
      gauge n "inner" (Array.length right_rows);
      expand_chunks size
        (fun push ->
          Array.iter (fun (ltuple, ln) ->
              Array.iter
                (fun (rtuple, rn) ->
                  let combined = Tuple.concat ltuple rtuple in
                  if Pred.eval combined p then push (combined, ln * rn))
                right_rows))
        (input 0)
  | Physical.Cross_product _ ->
      let right_rows = concat_chunks (input 1) in
      gauge n "inner" (Array.length right_rows);
      expand_chunks size
        (fun push ->
          Array.iter (fun (ltuple, ln) ->
              Array.iter
                (fun (rtuple, rn) -> push (Tuple.concat ltuple rtuple, ln * rn))
                right_rows))
        (input 0)
  | Physical.Union_all _ -> Seq.append (input 0) (input 1)
  | Physical.Hash_diff _ ->
      let left_counts = count_table (input 0) in
      let right_counts = count_table (input 1) in
      gauge n "left-keys" (TH.length left_counts);
      gauge n "right-keys" (TH.length right_counts);
      let monus (t, ln) =
        let rn = Option.value ~default:0 (TH.find_opt right_counts t) in
        if ln > rn then Some (t, ln - rn) else None
      in
      chunks_of_seq size (Seq.filter_map monus (TH.to_seq left_counts))
  | Physical.Hash_intersect _ ->
      let left_counts = count_table (input 0) in
      let right_counts = count_table (input 1) in
      gauge n "left-keys" (TH.length left_counts);
      gauge n "right-keys" (TH.length right_counts);
      let pointwise_min (t, ln) =
        match TH.find_opt right_counts t with
        | Some rn -> Some (t, min ln rn)
        | None -> None
      in
      chunks_of_seq size (Seq.filter_map pointwise_min (TH.to_seq left_counts))
  | Physical.Hash_distinct _ ->
      let seen = TH.create 64 in
      Seq.iter
        (Array.iter (fun (tuple, _) -> TH.replace seen tuple ()))
        (input 0);
      gauge n "distinct" (TH.length seen);
      chunks_of_seq size (Seq.map (fun (tuple, ()) -> (tuple, 1)) (TH.to_seq seen))
  | Physical.Hash_aggregate (attrs, aggs, t) ->
      let g = grouping db t attrs aggs in
      let groups = TH.create 64 in
      Seq.iter (group_rows g groups) (input 0);
      let out = finish_groups g groups in
      gauge n "groups" (TH.length groups);
      chunks_of_seq size out
  | Physical.Exchange { parts; _ } ->
      exec_exchange cx n parts (List.hd n.inputs)

(* --- parallel execution of an Exchange node ---------------------------- *)

and exec_exchange cx n parts child =
  (* The fused child never runs as a standalone stream, so the merged
     fragment output goes through its observation point — its EXPLAIN
     ANALYZE row then shows the rows its fragments produced.  Each
     fragment's whole output is one chunk. *)
  let emit outs =
    gauge n "parts" parts;
    observed cx child (fun () ->
        Seq.filter (fun c -> Array.length c > 0) (Array.to_seq outs))
  in
  let input i = exec cx (List.nth child.inputs i) in
  match child.plan with
  | Physical.Hash_join { left_keys; right_keys; residual; _ } ->
      let lrows = concat_chunks (input 0) in
      let rrows = concat_chunks (input 1) in
      let lb = partition ~parts ~keys:left_keys lrows in
      let rb = partition ~parts ~keys:right_keys rrows in
      emit
        (on_pool ~name:"join-worker" ~out_rows:Array.length
           (Array.init parts (fun i () ->
                let table = TH.create 64 in
                join_build right_keys table rb.(i);
                let out = Vec.create 64 in
                join_probe table ~keys:left_keys ~residual (Vec.push out)
                  lb.(i);
                Vec.flush out)))
  | Physical.Hash_aggregate (attrs, aggs, src) ->
      let g = grouping cx.db src attrs aggs in
      let rows = concat_chunks (input 0) in
      let fragments =
        match attrs with
        | [] -> slices parts rows
        | _ :: _ -> partition ~parts ~keys:attrs rows
      in
      let grouped fragment =
        let groups = TH.create 64 in
        group_rows g groups fragment;
        groups
      in
      let on_pool ~out_rows finish =
        on_pool ~name:"agg-worker" ~out_rows
          (Array.map (fun fragment () -> finish (grouped fragment)) fragments)
      in
      if attrs = [] then begin
        (* Global aggregate: per-slice partial accumulators, merged on
           the coordinating domain and finished into the single output
           tuple. *)
        let groups = TH.create 1 in
        Array.iter (merge_groups groups) (on_pool ~out_rows:TH.length Fun.id);
        emit [| Array.of_seq (finish_groups g groups) |]
      end
      else
        (* Groups never span buckets partitioned on every grouping
           attribute, so each fragment finishes its own groups. *)
        emit
          (on_pool ~out_rows:Array.length (fun groups ->
               Array.of_seq (finish_groups g groups)))
  | Physical.Filter _ | Physical.Project_op _ ->
      (* Each fragment runs the chain's stage kernels over its slice, a
         chunk at a time, and tallies every stage's output in records of
         its own; the coordinating domain adds them into the stages'
         records, so no counter is shared across domains.  The top
         stage is observed on the merged output by [emit]. *)
      let src, stages = chain child [] in
      let rows = concat_chunks (exec cx src) in
      let fragment slice () =
        let tallies = List.map (fun _ -> Metrics.make_op ()) stages in
        let out = Vec.create 64 in
        let len = Array.length slice in
        let rec go lo =
          if lo < len then begin
            let c = Array.sub slice lo (min cx.size (len - lo)) in
            let c =
              List.fold_left2
                (fun c (_, kernel) m ->
                  let c = kernel c in
                  ignore (tally m c);
                  c)
                c stages tallies
            in
            Array.iter (Vec.push out) c;
            go (lo + cx.size)
          end
        in
        go 0;
        (Vec.flush out, tallies)
      in
      let outs =
        on_pool ~name:"scan-worker" ~out_rows:(fun (c, _) -> Array.length c)
          (Array.map fragment (slices parts rows))
      in
      Array.iter
        (fun (_, tallies) ->
          List.iter2
            (fun (stage, _) (m : Metrics.op) ->
              if stage != child then begin
                let into = stage.m in
                Metrics.add into.Metrics.elems (Metrics.count m.Metrics.elems);
                Metrics.add into.Metrics.rows (Metrics.count m.Metrics.rows);
                Metrics.add into.Metrics.cells (Metrics.count m.Metrics.cells)
              end)
            stages tallies)
        outs;
      emit (Array.map fst outs)
  | _ ->
      (* The planner only wraps the shapes above; anything else is
         executed sequentially — Exchange is then a no-op. *)
      exec cx child

let materialize db plan chunks =
  let schema = Typecheck.infer_db db (Physical.to_logical plan) in
  let bag =
    Seq.fold_left
      (fun bag c ->
        Array.fold_left
          (fun bag (t, n) -> Relation.Bag.add ~count:n t bag)
          bag c)
      Relation.Bag.empty chunks
  in
  Relation.of_bag_unchecked schema bag

(* Fold an execution into the cumulative per-operator registry that
   [sys.operators] materializes.  Wall time is inclusive of children,
   same convention as the EXPLAIN ANALYZE report rows. *)
let feed_op_stats cx =
  if Mxra_obs.Stmt_stats.enabled () then
    fold_nodes
      (fun () { plan; m; _ } ->
        Mxra_obs.Op_stats.record ~op:(Physical.kind plan)
          ~elems:(Metrics.count m.Metrics.elems)
          ~rows:(Metrics.count m.Metrics.rows)
          ~cells:(Metrics.count m.Metrics.cells)
          ~wall_ms:(Metrics.elapsed_ms m.Metrics.wall))
      () cx.root

(* --- instrumented execution ------------------------------------------- *)

type op_metrics = {
  out_elems : int;
  out_rows : int;
  out_cells : int;
  wall_ms : float;
  details : (string * int) list;
}

type report = {
  node : Physical.t;
  estimated_rows : float Lazy.t;
  actual : op_metrics;
  q_error : float Lazy.t;
  inputs : report list;
}

type analysis = {
  result : Relation.t;
  total_ms : float;
  root : report;
  totals : Metrics.t;
}

let run_instrumented ?chunk_size db plan =
  let cx = context ?chunk_size db plan in
  let total = Metrics.make_timer () in
  let result =
    Metrics.record total (fun () ->
        Trace.with_span "execute"
          ~attrs:[ ("operators", Trace.Int (Physical.size plan)) ]
          (fun () ->
            let r = materialize db plan (exec ~root:true cx cx.root) in
            Trace.add_attr "rows" (Trace.Int (Relation.cardinal r));
            r))
  in
  feed_op_stats cx;
  (* Estimates cost a statistics pass over the database: it runs once,
     when the first estimate is read. *)
  let env = lazy (Stats.env_of_database db, Typecheck.env_of_database db) in
  let rec report_of ({ plan; m; inputs } : node) =
    let actual =
      {
        out_elems = Metrics.count m.Metrics.elems;
        out_rows = Metrics.count m.Metrics.rows;
        out_cells = Metrics.count m.Metrics.cells;
        wall_ms = Metrics.elapsed_ms m.Metrics.wall;
        details = Metrics.details m;
      }
    in
    let estimated_rows =
      lazy
        (let stats, schemas = Lazy.force env in
         Cost.estimate_cardinality ~stats ~schemas (Physical.to_logical plan))
    in
    {
      node = plan;
      estimated_rows;
      actual;
      q_error =
        lazy
          (Cost.q_error ~estimated:(Lazy.force estimated_rows)
             ~actual:actual.out_rows);
      inputs = List.map report_of inputs;
    }
  in
  let root = report_of cx.root in
  let totals = Metrics.create () in
  let sum f =
    fold_nodes (fun acc (n : node) -> acc + Metrics.count (f n.m)) 0 cx.root
  in
  Metrics.add (Metrics.counter totals "tuples-moved")
    (sum (fun m -> m.Metrics.elems));
  Metrics.add (Metrics.counter totals "cells-moved")
    (sum (fun m -> m.Metrics.cells));
  Metrics.add (Metrics.counter totals "rows-out") root.actual.out_rows;
  Metrics.add (Metrics.counter totals "operators") (Physical.size plan);
  Metrics.add_ms (Metrics.timer totals "wall") (Metrics.elapsed_ms total);
  { result; total_ms = Metrics.elapsed_ms total; root; totals }

let run ?chunk_size db plan = (run_instrumented ?chunk_size db plan).result

let stream ?chunk_size db plan =
  let cx = context ?chunk_size db plan in
  Seq.append
    (Seq.concat_map Array.to_seq (exec ~root:true cx cx.root))
    (fun () ->
      feed_op_stats cx;
      Seq.Nil)

let run_expr ?chunk_size db e = run ?chunk_size db (Planner.plan db e)

let explain_analyze ?chunk_size ?jobs db e =
  run_instrumented ?chunk_size db (Planner.plan ?jobs db e)

(* --- report rendering --------------------------------------------------- *)

let pp_details ppf details =
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) details

(* The report tree mirrors the plan, so its preorder numbering is the
   plan's: the [i]th line {!Physical.pp_annotated} prints is
   [reports.(i)]. *)
let pp_analysis ppf a =
  let rec preorder acc r = List.fold_left preorder (r :: acc) r.inputs in
  let reports = Array.of_list (List.rev (preorder [] a.root)) in
  let annot i _ =
    let r = reports.(i) in
    Format.asprintf "(est=%.0f act=%d q=%.2f time=%.2fms%a)"
      (Lazy.force r.estimated_rows) r.actual.out_rows (Lazy.force r.q_error)
      r.actual.wall_ms pp_details
      r.actual.details
  in
  Format.fprintf ppf "@[<v>%a@]total: %.2f ms, %d rows"
    (Physical.pp_annotated ~annot)
    a.root.node a.total_ms
    (Relation.cardinal a.result)

let analysis_to_string a = Format.asprintf "%a" pp_analysis a

let pp_estimates db ppf plan =
  let stats = Stats.env_of_database db in
  let schemas = Typecheck.env_of_database db in
  let annot _ p =
    Format.asprintf "(est=%.0f)"
      (Cost.estimate_cardinality ~stats ~schemas (Physical.to_logical p))
  in
  Physical.pp_annotated ~annot ppf plan
