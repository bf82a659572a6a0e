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

let () =
  (* MXRA_CHUNK_SIZE=1 degrades every chunk to a single element — the CI
     leg that drags all tests across the chunk-boundary edge cases. *)
  match Option.bind (Sys.getenv_opt "MXRA_CHUNK_SIZE") int_of_string_opt with
  | Some n when n >= 1 -> chunk_ref := n
  | Some _ | None -> ()

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

(* Run one thunk per fragment on the global pool (each fragment is one
   morsel), emit the worker spans, and return the results in fragment
   order.  The Exchange started at [t0] over [rows] materialised input
   rows; [wall] covers exactly its own machinery — partition, pool
   dispatch, fragments — while [busy] is the summed fragment work
   alone.  [busy - wall], the time the pool saved over running the
   fragments inline, goes to {!Feedback}: negative means this Exchange
   should not have been inserted at this input size. *)
let on_pool ~name ~t0 ~rows ~out_rows tasks =
  let outs =
    Pool.map_array ~chunk:1 (Pool.global ())
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
  let wall_ms = (Trace.now_us () -. t0) /. 1000.0 in
  let busy_ms =
    Array.fold_left (fun acc o -> acc +. o.frag_dur) 0.0 outs /. 1000.0
  in
  Feedback.note ~rows ~gain_ms:(busy_ms -. wall_ms);
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

(* The maximal σ/π pipeline above a source, as one per-tuple function. *)
let rec pipeline_stages plan =
  match plan with
  | Physical.Filter (p, t) ->
      let src, f = pipeline_stages t in
      ( src,
        fun tn ->
          match f tn with
          | Some (tup, _) as r when Pred.eval tup p -> r
          | Some _ | None -> None )
  | Physical.Project_op (exprs, t) ->
      let src, f = pipeline_stages t in
      ( src,
        fun tn ->
          Option.map
            (fun (tup, n) ->
              (Tuple.of_list (List.map (Scalar.eval tup) exprs), n))
            (f tn) )
  | src -> (src, Option.some)

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

(* Instrumentation hooks.  [around node thunk] wraps the construction of
   an operator's output chunk stream (eager work — hash builds, sorts,
   scan chunking — happens inside the thunk) and may wrap the stream
   itself, seeing every chunk the operator emits; summing the chunk
   contents over operators measures the tuple traffic of the plan, and
   weighting by arity measures the data volume.  [observe node key
   value] reports an operator-specific gauge (hash-build size, group
   count, materialised inner cardinality). *)
type hooks = {
  around : Physical.t -> (unit -> chunk Seq.t) -> chunk Seq.t;
  observe : Physical.t -> string -> int -> unit;
}

let no_hooks = { around = (fun _ f -> f ()); observe = (fun _ _ _ -> ()) }

(* Live-progress hooks, composed over whatever instrumentation is
   already in place: when a statement registered itself in the activity
   registry ({!Mxra_obs.Ash.with_slot} around the execution), every
   chunk any operator emits stamps that operator as the one currently
   producing, and chunks leaving the plan [root] advance the
   statement's row/chunk counters — sys.progress moves while the query
   runs, at chunk granularity.  With no ambient slot (registry off, or
   a bare [run]) the hooks are returned untouched: the hot path pays
   nothing. *)
let with_progress root base =
  match Ash.current () with
  | None -> base
  | Some slot ->
      {
        base with
        around =
          (fun p thunk ->
            let s = base.around p thunk in
            let kind = Physical.kind p in
            if p == root then
              Seq.map
                (fun c ->
                  Ash.set_operator slot kind;
                  Ash.advance slot
                    ~rows:(Array.fold_left (fun acc (_, n) -> acc + n) 0 c);
                  c)
                s
            else
              Seq.map
                (fun c ->
                  Ash.set_operator slot kind;
                  c)
                s);
      }

let rec exec ~hooks ~size db plan : chunk Seq.t =
  hooks.around plan (fun () -> exec_node ~hooks ~size db plan)

and exec_node ~hooks ~size db plan : chunk Seq.t =
  match plan with
  | Physical.Const_scan r -> chunks_of_bag size (Relation.bag r)
  | Physical.Seq_scan name ->
      chunks_of_bag size (Relation.bag (Database.find name db))
  | Physical.Index_scan { def; access; residual } ->
      let idx = Index.get def (Database.find def.idx_rel db) in
      hooks.observe plan "keys" (Index.distinct_keys idx);
      let matches = Index.probe idx access in
      let matches =
        match residual with
        | Pred.True -> matches
        | p -> Seq.filter (fun (t, _) -> Pred.eval t p) matches
      in
      chunks_of_seq size matches
  | Physical.Index_join { def; outer_keys; residual; outer; _ } ->
      (* Probe the inner relation's index once per outer row — no build
         phase; the structure is shared via the index cache. *)
      let idx = Index.get def (Database.find def.idx_rel db) in
      hooks.observe plan "keys" (Index.distinct_keys idx);
      expand_chunks size
        (fun push ->
          Array.iter (fun (ltuple, ln) ->
              let key = List.map (fun i -> Tuple.attr ltuple i) outer_keys in
              Relation.Bag.iter
                (fun rtuple rn ->
                  let combined = Tuple.concat ltuple rtuple in
                  if Pred.eval combined residual then push (combined, ln * rn))
                (Index.probe_point idx key)))
        (exec ~hooks ~size db outer)
  | Physical.Filter (p, t) ->
      Seq.filter_map
        (fun c ->
          let n = Array.length c in
          let out = Array.make n c.(0) in
          let k = ref 0 in
          for i = 0 to n - 1 do
            let (tuple, _) as x = c.(i) in
            if Pred.eval tuple p then begin
              out.(!k) <- x;
              incr k
            end
          done;
          if !k = 0 then None
          else if !k = n then Some out
          else Some (Array.sub out 0 !k))
        (exec ~hooks ~size db t)
  | Physical.Project_op (exprs, t) ->
      let image tuple = Tuple.of_list (List.map (Scalar.eval tuple) exprs) in
      Seq.map
        (fun c -> Array.map (fun (tuple, n) -> (image tuple, n)) c)
        (exec ~hooks ~size db t)
  | Physical.Hash_join { left_keys; right_keys; residual; left; right; _ } ->
      (* Build on the right, probe (pipelined, chunk at a time) from the
         left. *)
      let table = TH.create 256 in
      let entries = ref 0 in
      Seq.iter
        (fun c ->
          entries := !entries + Array.length c;
          join_build right_keys table c)
        (exec ~hooks ~size db right);
      hooks.observe plan "build" !entries;
      hooks.observe plan "keys" (TH.length table);
      expand_chunks size
        (join_probe table ~keys:left_keys ~residual)
        (exec ~hooks ~size db left)
  | Physical.Merge_join { left_keys; right_keys; residual; left; right; _ } ->
      (* Sort both inputs by their key projections and merge key groups.
         Both sides materialise; output is emitted lazily per group
         pair. *)
      let keyed keys chunks =
        let rows = concat_chunks chunks in
        let arr = Array.map (fun (t, n) -> (Tuple.project keys t, t, n)) rows in
        Array.sort (fun (k1, _, _) (k2, _, _) -> Tuple.compare k1 k2) arr;
        arr
      in
      let ls = keyed left_keys (exec ~hooks ~size db left) in
      let rs = keyed right_keys (exec ~hooks ~size db right) in
      hooks.observe plan "sorted-left" (Array.length ls);
      hooks.observe plan "sorted-right" (Array.length rs);
      let group arr i =
        let key, _, _ = arr.(i) in
        let rec last j =
          if j + 1 < Array.length arr
             && Tuple.compare key (let k, _, _ = arr.(j + 1) in k) = 0
          then last (j + 1)
          else j
        in
        (key, last i)
      in
      let out = Vec.create size in
      let rec merge i j () =
        if i >= Array.length ls || j >= Array.length rs then Seq.Nil
        else
          let lk, li = group ls i in
          let rk, rj = group rs j in
          let c = Tuple.compare lk rk in
          if c < 0 then merge (li + 1) j ()
          else if c > 0 then merge i (rj + 1) ()
          else begin
            (* Output chunks per matching group pair, re-chunked at
               [size] so large groups stay nursery-sized. *)
            let outs = ref [] in
            let push x =
              Vec.push out x;
              if out.Vec.len >= size then outs := Vec.flush out :: !outs
            in
            for a = i to li do
              for b = j to rj do
                let _, lt, ln = ls.(a) and _, rt, rn = rs.(b) in
                let combined = Tuple.concat lt rt in
                if Pred.eval combined residual then push (combined, ln * rn)
              done
            done;
            if out.Vec.len > 0 then outs := Vec.flush out :: !outs;
            match List.rev !outs with
            | [] -> merge (li + 1) (rj + 1) ()
            | cs -> Seq.append (List.to_seq cs) (merge (li + 1) (rj + 1)) ()
          end
      in
      merge 0 0
  | Physical.Nested_loop (p, l, r) ->
      let right_rows = concat_chunks (exec ~hooks ~size db r) in
      hooks.observe plan "inner" (Array.length right_rows);
      expand_chunks size
        (fun push ->
          Array.iter (fun (ltuple, ln) ->
              Array.iter
                (fun (rtuple, rn) ->
                  let combined = Tuple.concat ltuple rtuple in
                  if Pred.eval combined p then push (combined, ln * rn))
                right_rows))
        (exec ~hooks ~size db l)
  | Physical.Cross_product (l, r) ->
      let right_rows = concat_chunks (exec ~hooks ~size db r) in
      hooks.observe plan "inner" (Array.length right_rows);
      expand_chunks size
        (fun push ->
          Array.iter (fun (ltuple, ln) ->
              Array.iter
                (fun (rtuple, rn) -> push (Tuple.concat ltuple rtuple, ln * rn))
                right_rows))
        (exec ~hooks ~size db l)
  | Physical.Union_all (l, r) ->
      Seq.append (exec ~hooks ~size db l) (exec ~hooks ~size db r)
  | Physical.Hash_diff (l, r) ->
      let left_counts = count_table (exec ~hooks ~size db l) in
      let right_counts = count_table (exec ~hooks ~size db r) in
      hooks.observe plan "left-keys" (TH.length left_counts);
      hooks.observe plan "right-keys" (TH.length right_counts);
      let monus (t, ln) =
        let rn = Option.value ~default:0 (TH.find_opt right_counts t) in
        if ln > rn then Some (t, ln - rn) else None
      in
      chunks_of_seq size (Seq.filter_map monus (TH.to_seq left_counts))
  | Physical.Hash_intersect (l, r) ->
      let left_counts = count_table (exec ~hooks ~size db l) in
      let right_counts = count_table (exec ~hooks ~size db r) in
      hooks.observe plan "left-keys" (TH.length left_counts);
      hooks.observe plan "right-keys" (TH.length right_counts);
      let pointwise_min (t, ln) =
        match TH.find_opt right_counts t with
        | Some rn -> Some (t, min ln rn)
        | None -> None
      in
      chunks_of_seq size (Seq.filter_map pointwise_min (TH.to_seq left_counts))
  | Physical.Hash_distinct t ->
      let seen = TH.create 64 in
      Seq.iter
        (Array.iter (fun (tuple, _) -> TH.replace seen tuple ()))
        (exec ~hooks ~size db t);
      hooks.observe plan "distinct" (TH.length seen);
      chunks_of_seq size (Seq.map (fun (tuple, ()) -> (tuple, 1)) (TH.to_seq seen))
  | Physical.Hash_aggregate (attrs, aggs, t) ->
      let g = grouping db t attrs aggs in
      let groups = TH.create 64 in
      Seq.iter (group_rows g groups) (exec ~hooks ~size db t);
      let out = finish_groups g groups in
      hooks.observe plan "groups" (TH.length groups);
      chunks_of_seq size out
  | Physical.Exchange { parts; child } ->
      exec_exchange ~hooks ~size db plan parts child

(* --- parallel execution of an Exchange node ---------------------------- *)

and exec_exchange ~hooks ~size db plan parts child =
  (* The fused child never runs as a standalone stream, so route the
     merged fragment output through its instrumentation hook — its
     EXPLAIN ANALYZE row then shows the rows its fragments produced
     (operators deeper inside a fused σ/π chain still read zero).  Each
     fragment's whole output is one chunk.  Inputs are materialised
     before [t0], which starts the Exchange's own wall time. *)
  let emit outs =
    hooks.observe plan "parts" parts;
    hooks.around child (fun () ->
        Seq.filter (fun c -> Array.length c > 0) (Array.to_seq outs))
  in
  match child with
  | Physical.Hash_join { left_keys; right_keys; residual; left; right; _ } ->
      let lrows = concat_chunks (exec ~hooks ~size db left) in
      let rrows = concat_chunks (exec ~hooks ~size db right) in
      let t0 = Trace.now_us () in
      let lb = partition ~parts ~keys:left_keys lrows in
      let rb = partition ~parts ~keys:right_keys rrows in
      emit
        (on_pool ~name:"join-worker" ~t0
           ~rows:(Array.length lrows + Array.length rrows)
           ~out_rows:Array.length
           (Array.init parts (fun i () ->
                let table = TH.create 64 in
                join_build right_keys table rb.(i);
                let out = Vec.create 64 in
                join_probe table ~keys:left_keys ~residual (Vec.push out)
                  lb.(i);
                Vec.flush out)))
  | Physical.Hash_aggregate (attrs, aggs, src) ->
      let g = grouping db src attrs aggs in
      let rows = concat_chunks (exec ~hooks ~size db src) in
      let t0 = Trace.now_us () in
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
        on_pool ~name:"agg-worker" ~t0 ~rows:(Array.length rows) ~out_rows
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
      let src, f = pipeline_stages child in
      let rows = concat_chunks (exec ~hooks ~size db src) in
      let t0 = Trace.now_us () in
      emit
        (on_pool ~name:"scan-worker" ~t0 ~rows:(Array.length rows)
           ~out_rows:Array.length
           (Array.map
              (fun slice () ->
                let out = Vec.create 64 in
                Array.iter (fun tn -> Option.iter (Vec.push out) (f tn)) slice;
                Vec.flush out)
              (slices parts rows)))
  | child ->
      (* The planner only wraps the shapes above; anything else is
         executed sequentially — Exchange is then a no-op. *)
      exec ~hooks ~size db child

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

let resolve_size = function Some n -> max 1 n | None -> !chunk_ref

let run ?chunk_size db plan =
  let size = resolve_size chunk_size in
  materialize db plan (exec ~hooks:(with_progress plan no_hooks) ~size db plan)

let stream ?chunk_size db plan =
  let size = resolve_size chunk_size in
  Seq.concat_map Array.to_seq
    (exec ~hooks:(with_progress plan no_hooks) ~size db plan)

(* Hooks that invoke [tick] with every counted-tuple element every
   operator emits, regardless of which operator it is. *)
let tick_hooks tick =
  { no_hooks with
    around = (fun _ f -> Seq.map (fun c -> Array.iter tick c; c) (f ())) }

let tuples_moved db plan =
  let moved = ref 0 in
  let s =
    exec ~hooks:(tick_hooks (fun _ -> incr moved)) ~size:!chunk_ref db plan
  in
  Seq.iter (fun _ -> ()) s;
  !moved

let cells_moved db plan =
  let moved = ref 0 in
  let s =
    exec
      ~hooks:(tick_hooks (fun (t, _) -> moved := !moved + Tuple.arity t))
      ~size:!chunk_ref db plan
  in
  Seq.iter (fun _ -> ()) s;
  !moved

let run_expr ?chunk_size db e = run ?chunk_size db (Planner.plan db e)

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
  estimated_rows : float;
  actual : op_metrics;
  q_error : float;
  inputs : report list;
}

type analysis = {
  result : Relation.t;
  total_ms : float;
  root : report;
  totals : Metrics.t;
}

(* Per-node accounting keyed by physical identity: the planner allocates
   a fresh node per tree position, so [==] distinguishes structurally
   equal siblings.  (If a caller builds a plan with a physically shared
   subtree, its uses merge into one record — the report then shows the
   combined figures at each occurrence.) *)
let op_table plan =
  let table = ref [] in
  let rec register p =
    table := (p, Metrics.make_op ()) :: !table;
    List.iter register (Physical.children p)
  in
  register plan;
  let entries = !table in
  fun p -> snd (List.find (fun (q, _) -> q == p) entries)

(* Wrap a chunk stream so each pull is timed (inclusive of child pulls,
   as in EXPLAIN ANALYZE's actual time) and each chunk's contents are
   counted — element, row and cell totals are identical to what the
   tuple-at-a-time engine reported, only the accounting granularity
   changed.  [on_end] fires once, at the first exhaustion. *)
let instrument_stream ?on_end (m : Metrics.op) s =
  let ended = ref false in
  let rec go s () =
    match Metrics.record m.Metrics.wall s with
    | Seq.Nil ->
        (match on_end with
        | Some f when not !ended ->
            ended := true;
            f ()
        | Some _ | None -> ());
        Seq.Nil
    | Seq.Cons (c, rest) ->
        Array.iter
          (fun (t, n) ->
            Metrics.incr m.Metrics.elems;
            Metrics.add m.Metrics.rows n;
            Metrics.add m.Metrics.cells (Tuple.arity t))
          c;
        Seq.Cons (c, go rest)
  in
  go s

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

let run_instrumented ?chunk_size db plan =
  let size = resolve_size chunk_size in
  let find = op_table plan in
  let traced = Trace.enabled () in
  let hooks =
    {
      around =
        (fun p thunk ->
          let m = find p in
          if traced then begin
            let start_us = Trace.now_us () in
            let on_end () =
              Trace.complete (Physical.kind p) ~start_us
                ~dur_us:(Trace.now_us () -. start_us)
                ~attrs:(op_span_attrs p m)
            in
            instrument_stream ~on_end m (Metrics.record m.Metrics.wall thunk)
          end
          else instrument_stream m (Metrics.record m.Metrics.wall thunk));
      observe = (fun p key v -> Metrics.set_detail (find p) key v);
    }
  in
  let hooks = with_progress plan hooks in
  let total = Metrics.make_timer () in
  let result =
    Metrics.record total (fun () ->
        Trace.with_span "execute"
          ~attrs:[ ("operators", Trace.Int (Physical.size plan)) ]
          (fun () ->
            let r = materialize db plan (exec ~hooks ~size db plan) in
            Trace.add_attr "rows" (Trace.Int (Relation.cardinal r));
            r))
  in
  let stats = Stats.env_of_database db in
  let schemas = Typecheck.env_of_database db in
  let rec report_of p =
    let m = find p in
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
      Cost.estimate_cardinality ~stats ~schemas (Physical.to_logical p)
    in
    {
      node = p;
      estimated_rows;
      actual;
      q_error = Cost.q_error ~estimated:estimated_rows ~actual:actual.out_rows;
      inputs = List.map report_of (Physical.children p);
    }
  in
  let root = report_of plan in
  let totals = Metrics.create () in
  let rec accumulate r =
    Metrics.add (Metrics.counter totals "tuples-moved") r.actual.out_elems;
    Metrics.add (Metrics.counter totals "cells-moved") r.actual.out_cells;
    List.iter accumulate r.inputs
  in
  accumulate root;
  Metrics.add (Metrics.counter totals "rows-out") root.actual.out_rows;
  Metrics.add (Metrics.counter totals "operators") (Physical.size plan);
  Metrics.add_ms (Metrics.timer totals "wall") (Metrics.elapsed_ms total);
  (* Fold this execution into the cumulative per-operator registry
     that [sys.operators] materializes.  Wall time is inclusive of
     children, same convention as the EXPLAIN ANALYZE report rows. *)
  if Mxra_obs.Stmt_stats.enabled () then begin
    let rec feed r =
      Mxra_obs.Op_stats.record ~op:(Physical.kind r.node)
        ~elems:r.actual.out_elems ~rows:r.actual.out_rows
        ~cells:r.actual.out_cells ~wall_ms:r.actual.wall_ms;
      List.iter feed r.inputs
    in
    feed root
  end;
  { result; total_ms = Metrics.elapsed_ms total; root; totals }

let explain_analyze ?chunk_size ?jobs db e =
  run_instrumented ?chunk_size db (Planner.plan ?jobs db e)

(* --- report rendering --------------------------------------------------- *)

let pp_details ppf details =
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) details

let annot_table root =
  let entries = ref [] in
  let rec collect r =
    entries := (r.node, r) :: !entries;
    List.iter collect r.inputs
  in
  collect root;
  let entries = !entries in
  fun p ->
    match List.find_opt (fun (q, _) -> q == p) entries with
    | Some (_, r) -> r
    | None -> invalid_arg "Exec.annot_table: node not in report"

let pp_analysis ppf a =
  let lookup = annot_table a.root in
  let annot p =
    let r = lookup p in
    Format.asprintf "(est=%.0f act=%d q=%.2f time=%.2fms%a)" r.estimated_rows
      r.actual.out_rows r.q_error r.actual.wall_ms pp_details
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
  let annot p =
    Format.asprintf "(est=%.0f)"
      (Cost.estimate_cardinality ~stats ~schemas (Physical.to_logical p))
  in
  Physical.pp_annotated ~annot ppf plan

let explain ?jobs db e =
  Format.asprintf "%a" (pp_estimates db) (Planner.plan ?jobs db e)
