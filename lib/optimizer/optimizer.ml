open Mxra_core
open Mxra_engine

(* --- join-chain flattening ---------------------------------------------- *)

type factor = {
  f_expr : Expr.t;
  f_arity : int;
}

(* Flatten a maximal ⋈/× chain into factors plus a conjunct pool indexed
   in the chain's flat (original) column order. *)
let rec flatten schemas e =
  match e with
  | Expr.Join (p, e1, e2) ->
      let fs1, cs1, a1 = flatten schemas e1 in
      let fs2, cs2, a2 = flatten schemas e2 in
      let shifted = List.map (Pred.shift a1) cs2 in
      (fs1 @ fs2, cs1 @ shifted @ Pred.conjuncts p, a1 + a2)
  | Expr.Product (e1, e2) ->
      let fs1, cs1, a1 = flatten schemas e1 in
      let fs2, cs2, a2 = flatten schemas e2 in
      (fs1 @ fs2, cs1 @ List.map (Pred.shift a1) cs2, a1 + a2)
  | Expr.Rel _ | Expr.Const _ | Expr.Union _ | Expr.Diff _ | Expr.Select _
  | Expr.Project _ | Expr.Intersect _ | Expr.Unique _ | Expr.GroupBy _ ->
      let arity = Mxra_relational.Schema.arity (Typecheck.infer schemas e) in
      ([ { f_expr = e; f_arity = arity } ], [], arity)

(* --- greedy reordering --------------------------------------------------- *)

(* State of a partially built left-deep join: the expression so far, its
   arity, the set of placed factors, the original→current column map, and
   the conjuncts not yet attached. *)
type build = {
  b_expr : Expr.t;
  b_arity : int;
  b_placed : int list;
  b_map : (int * int) list;  (* original global index -> current index *)
  b_pending : (int list * Pred.t) list;  (* footprint, conjunct *)
}

let offsets factors =
  let rec go acc off = function
    | [] -> List.rev acc
    | f :: rest -> go (off :: acc) (off + f.f_arity) rest
  in
  go [] 0 factors

let extend_map b ~offset ~arity b_arity =
  List.init arity (fun l -> (offset + l + 1, b_arity + l + 1)) @ b.b_map

let remap_pred mapping p =
  Pred.rename
    (fun i ->
      match List.assoc_opt i mapping with
      | Some j -> j
      | None -> invalid_arg "Optimizer.remap_pred: unplaced column")
    p

(* Attach a factor to the build, taking along every pending conjunct
   whose footprint becomes fully placed. *)
let attach factors offs b j =
  let f = List.nth factors j in
  let offset = List.nth offs j in
  let mapping = extend_map b ~offset ~arity:f.f_arity b.b_arity in
  let placed = j :: b.b_placed in
  let available fp = List.for_all (fun i -> List.mem_assoc i mapping) fp in
  let ready, pending = List.partition (fun (fp, _) -> available fp) b.b_pending in
  let cond =
    Pred.simplify (Pred.conj (List.map (fun (_, c) -> remap_pred mapping c) ready))
  in
  let expr =
    match b.b_expr with
    | e when Pred.equal cond Pred.True -> Expr.Product (e, f.f_expr)
    | e -> Expr.Join (cond, e, f.f_expr)
  in
  {
    b_expr = expr;
    b_arity = b.b_arity + f.f_arity;
    b_placed = placed;
    b_map = mapping;
    b_pending = pending;
  }

let initial factors offs j =
  let f = List.nth factors j in
  let offset = List.nth offs j in
  {
    b_expr = f.f_expr;
    b_arity = f.f_arity;
    b_placed = [ j ];
    b_map = List.init f.f_arity (fun l -> (offset + l + 1, l + 1));
    b_pending = [];
  }

let greedy ~stats ~schemas factors conjuncts =
  let offs = offsets factors in
  let n = List.length factors in
  let card e = Cost.estimate_cardinality ~stats ~schemas e in
  let pending = List.map (fun c -> (Pred.attrs_used c, c)) conjuncts in
  (* Start from the smallest factor. *)
  let start =
    List.mapi (fun j f -> (card f.f_expr, j)) factors
    |> List.sort compare |> List.hd |> snd
  in
  let b0 = { (initial factors offs start) with b_pending = pending } in
  let rec grow b =
    if List.length b.b_placed = n then b
    else
      let candidates =
        List.init n (fun j -> j)
        |> List.filter (fun j -> not (List.mem j b.b_placed))
        |> List.map (fun j ->
               let b' = attach factors offs b j in
               (card b'.b_expr, b'))
      in
      let _, best = List.sort compare candidates |> List.hd in
      grow best
  in
  let b = grow b0 in
  (* Restore the original column order. *)
  let total = List.fold_left (fun acc f -> acc + f.f_arity) 0 factors in
  let restore =
    List.init total (fun g ->
        match List.assoc_opt (g + 1) b.b_map with
        | Some j -> j
        | None -> invalid_arg "Optimizer.greedy: unplaced column")
  in
  let identity = List.for_all2 ( = ) restore (List.init total (fun i -> i + 1)) in
  if identity then b.b_expr else Expr.project_attrs restore b.b_expr

(* sort + hd on (float, _) pairs uses polymorphic compare on the float
   key first, which is the intent; builds are never compared because
   cardinalities of distinct candidates tie only rarely — still, make
   ties deterministic by pairing with the candidate index. *)

let rec reorder ~stats ~schemas e =
  match e with
  | Expr.Join _ | Expr.Product _ ->
      let factors, conjuncts, _ = flatten schemas e in
      let factors =
        List.map
          (fun f -> { f with f_expr = reorder_children ~stats ~schemas f.f_expr })
          factors
      in
      if List.length factors < 3 then
        rebuild_flat factors conjuncts
      else
        let candidate = greedy ~stats ~schemas factors conjuncts in
        let original = rebuild_flat factors conjuncts in
        if
          Cost.cost ~stats ~schemas candidate
          < Cost.cost ~stats ~schemas original
        then candidate
        else original
  | Expr.Rel _ | Expr.Const _ | Expr.Union _ | Expr.Diff _ | Expr.Select _
  | Expr.Project _ | Expr.Intersect _ | Expr.Unique _ | Expr.GroupBy _ ->
      reorder_children ~stats ~schemas e

and reorder_children ~stats ~schemas e =
  Expr.map_children (reorder ~stats ~schemas) e

(* Rebuild a flattened chain in its original factor order (used when the
   chain is too short to reorder, and as the baseline the greedy result
   must beat). *)
and rebuild_flat factors conjuncts =
  match factors with
  | [] -> invalid_arg "Optimizer.rebuild_flat: no factors"
  | first :: rest ->
      let offs = offsets factors in
      let b0 =
        {
          (initial factors offs 0) with
          b_pending = List.map (fun c -> (Pred.attrs_used c, c)) conjuncts;
        }
      in
      ignore first;
      let b =
        List.fold_left
          (fun b j -> attach factors offs b j)
          b0
          (List.init (List.length rest) (fun i -> i + 1))
      in
      (* Original order: the column map is the identity. *)
      b.b_expr

let reorder_joins ~stats ~schemas e = reorder ~stats ~schemas e

type report = {
  input_cost : float;
  output_cost : float;
  input_size : int;
  output_size : int;
  input_moved : int option;
  output_moved : int option;
}

let default_stats : Stats.env = fun _ -> None

module Trace = Mxra_obs.Trace

let optimize ?(stats = default_stats) ~schemas e =
  Trace.with_span "optimize"
    ~attrs:[ ("input_ops", Trace.Int (Expr.size e)) ]
    (fun () ->
      ignore (Typecheck.infer schemas e);
      let normalized =
        Trace.with_span "optimize.normalize" (fun () ->
            Rules.normalize schemas e)
      in
      let reordered =
        Trace.with_span "optimize.reorder" (fun () ->
            reorder_joins ~stats ~schemas normalized)
      in
      let result = Rules.normalize schemas reordered in
      Trace.add_attr "output_ops" (Trace.Int (Expr.size result));
      result)

let optimize_db db e =
  optimize
    ~stats:(Stats.env_of_database db)
    ~schemas:(Typecheck.env_of_database db)
    e

let explain ?(stats = default_stats) ~schemas e =
  let optimized = optimize ~stats ~schemas e in
  {
    input_cost = Cost.cost ~stats ~schemas e;
    output_cost = Cost.cost ~stats ~schemas optimized;
    input_size = Expr.size e;
    output_size = Expr.size optimized;
    input_moved = None;
    output_moved = None;
  }
  |> fun report -> (optimized, report)

let explain_db db e =
  let stats = Stats.env_of_database db in
  let schemas = Typecheck.env_of_database db in
  let optimized, report = explain ~stats ~schemas e in
  let moved e =
    let a = Exec.run_instrumented db (Planner.plan db e) in
    Metrics.count (Metrics.counter a.Exec.totals "tuples-moved")
  in
  ( optimized,
    { report with
      input_moved = Some (moved e);
      output_moved = Some (moved optimized) } )
