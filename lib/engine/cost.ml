open Mxra_relational
open Mxra_core

type profile = {
  card : float;
  ndv : float array;
  source : Stats.t option;
      (* Exact base-relation statistics, available only at leaves (and
         what the pushdown rules make valuable: selections sitting
         directly on scans get histogram-exact selectivity). *)
}

let default_ndv card = Float.max 1.0 (Float.min card 32.0)

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

(* Column referenced by a bare-attribute side of a comparison, if any. *)
let attr_of = Scalar.is_attr

let ndv_of p i =
  if i >= 1 && i <= Array.length p.ndv then p.ndv.(i - 1)
  else default_ndv p.card

(* A comparison of a bare attribute against a numeric literal, in
   either order ([flipped] marks literal-on-the-left). *)
let attr_vs_literal a b =
  match (attr_of a, b) with
  | Some i, Scalar.Lit v when Value.is_numeric v ->
      Some (i, Value.as_float v, false)
  | _ -> (
      match (a, attr_of b) with
      | Scalar.Lit v, Some i when Value.is_numeric v ->
          Some (i, Value.as_float v, true)
      | _ -> None)

let mirror op =
  match op with
  | Term.Lt -> Term.Gt
  | Term.Le -> Term.Ge
  | Term.Gt -> Term.Lt
  | Term.Ge -> Term.Le
  | (Term.Eq | Term.Ne) as op -> op

let histogram_sel stats op a b =
  match attr_vs_literal a b with
  | None -> None
  | Some (i, x, flipped) -> (
      let op = if flipped then mirror op else op in
      let below () = Stats.fraction_below stats i x in
      let eq () = Stats.fraction_eq stats i x in
      match op with
      | Term.Eq -> eq ()
      | Term.Ne -> Option.map (fun f -> 1.0 -. f) (eq ())
      | Term.Lt -> below ()
      | Term.Le -> (
          match (below (), eq ()) with
          | Some b, Some e -> Some (b +. e)
          | _ -> None)
      | Term.Ge -> Option.map (fun f -> 1.0 -. f) (below ())
      | Term.Gt -> (
          match (below (), eq ()) with
          | Some b, Some e -> Some (1.0 -. b -. e)
          | _ -> None))

let rec selectivity p = function
  | Pred.True -> 1.0
  | Pred.False -> 0.0
  | Pred.Cmp (op, a, b) -> (
      let eq_sel () =
        match (attr_of a, attr_of b) with
        | Some i, None | None, Some i -> 1.0 /. Float.max 1.0 (ndv_of p i)
        | Some i, Some j ->
            1.0 /. Float.max 1.0 (Float.max (ndv_of p i) (ndv_of p j))
        | None, None -> 0.5
      in
      let from_histogram =
        match p.source with
        | Some stats -> histogram_sel stats op a b
        | None -> None
      in
      match from_histogram with
      | Some f -> clamp01 f
      | None -> (
          match op with
          | Term.Eq -> eq_sel ()
          | Term.Ne -> clamp01 (1.0 -. eq_sel ())
          | Term.Lt | Term.Le | Term.Gt | Term.Ge -> 1.0 /. 3.0))
  | Pred.And (q, r) -> selectivity p q *. selectivity p r
  | Pred.Or (q, r) ->
      let sq = selectivity p q and sr = selectivity p r in
      clamp01 (sq +. sr -. (sq *. sr))
  | Pred.Not q -> clamp01 (1.0 -. selectivity p q)

let leaf_profile stats name schema =
  match stats name with
  | Some (s : Stats.t) ->
      {
        card = float_of_int s.Stats.cardinality;
        ndv =
          Array.map (fun (c : Stats.column) -> float_of_int c.Stats.distinct)
            s.Stats.columns;
        source = Some s;
      }
  | None ->
      let card = 1000.0 in
      { card;
        ndv = Array.make (Schema.arity schema) (default_ndv card);
        source = None }

let const_profile r =
  let s = Stats.of_relation r in
  {
    card = float_of_int s.Stats.cardinality;
    ndv =
      Array.map (fun (c : Stats.column) -> float_of_int c.Stats.distinct)
        s.Stats.columns;
    source = Some s;
  }

(* NDVs under filtering: distinct values cannot exceed the cardinality,
   nor grow. *)
let scale_ndv p card' =
  Array.map (fun d -> Float.max 1.0 (Float.min d card')) p.ndv

let rec profile ~stats ~schemas e =
  let recur e = profile ~stats ~schemas e in
  match e with
  | Expr.Rel name -> leaf_profile stats name (Typecheck.infer schemas e)
  | Expr.Const r -> const_profile r
  | Expr.Union (e1, e2) ->
      let p1 = recur e1 and p2 = recur e2 in
      let card = p1.card +. p2.card in
      {
        card;
        ndv =
          Array.init (Array.length p1.ndv) (fun i ->
              Float.min card (p1.ndv.(i) +. p2.ndv.(i)));
        source = None;
      }
  | Expr.Diff (e1, e2) ->
      let p1 = recur e1 and p2 = recur e2 in
      (* Monus removes at most min(card1, card2); assume half overlap. *)
      let card = Float.max 0.0 (p1.card -. (0.5 *. Float.min p1.card p2.card)) in
      { card; ndv = scale_ndv p1 card; source = None }
  | Expr.Intersect (e1, e2) ->
      let p1 = recur e1 and p2 = recur e2 in
      let card = 0.5 *. Float.min p1.card p2.card in
      { card; ndv = scale_ndv p1 card; source = None }
  | Expr.Product (e1, e2) ->
      let p1 = recur e1 and p2 = recur e2 in
      { card = p1.card *. p2.card; ndv = Array.append p1.ndv p2.ndv;
        source = None }
  | Expr.Join (p, e1, e2) ->
      let p1 = recur e1 and p2 = recur e2 in
      let combined =
        { card = p1.card *. p2.card; ndv = Array.append p1.ndv p2.ndv;
          source = None }
      in
      let card = combined.card *. selectivity combined p in
      { combined with card }
  | Expr.Select (p, e) ->
      let pe = recur e in
      let card = pe.card *. selectivity pe p in
      { card; ndv = scale_ndv pe card; source = None }
  | Expr.Project (exprs, e) ->
      let pe = recur e in
      let ndv =
        Array.of_list
          (List.map
             (fun expr ->
               match attr_of expr with
               | Some i -> ndv_of pe i
               | None -> default_ndv pe.card)
             exprs)
      in
      (* π preserves cardinality on bags (no duplicate elimination). *)
      { card = pe.card; ndv; source = None }
  | Expr.Unique e ->
      let pe = recur e in
      let distinct_bound =
        Array.fold_left (fun acc d -> acc *. d) 1.0 pe.ndv
      in
      let card = Float.min pe.card distinct_bound in
      { card; ndv = scale_ndv pe card; source = None }
  | Expr.GroupBy (attrs, aggs, e) ->
      let pe = recur e in
      let groups =
        if attrs = [] then 1.0
        else
          Float.min pe.card
            (List.fold_left (fun acc i -> acc *. ndv_of pe i) 1.0 attrs)
      in
      let key_ndv = List.map (fun i -> Float.min groups (ndv_of pe i)) attrs in
      let agg_ndv = List.map (fun _ -> groups) aggs in
      { card = groups; ndv = Array.of_list (key_ndv @ agg_ndv); source = None }

let estimate_cardinality ~stats ~schemas e = (profile ~stats ~schemas e).card

let q_error ~estimated ~actual =
  let est = Float.max 1.0 estimated in
  let act = Float.max 1.0 (float_of_int actual) in
  Float.max (est /. act) (act /. est)

(* Cost is data volume, not tuple count: each operator's output charged
   as estimated cardinality x output arity, so a narrowing projection
   (Example 3.2) is rewarded for shrinking rows, not punished for being
   an extra operator. *)
let rec cost ~stats ~schemas e =
  let arity = float_of_int (Schema.arity (Typecheck.infer schemas e)) in
  let own = (profile ~stats ~schemas e).card *. arity in
  let children =
    match e with
    | Expr.Rel _ | Expr.Const _ -> 0.0
    | Expr.Select (_, e1) | Expr.Project (_, e1) | Expr.Unique e1
    | Expr.GroupBy (_, _, e1) ->
        cost ~stats ~schemas e1
    | Expr.Union (e1, e2)
    | Expr.Diff (e1, e2)
    | Expr.Product (e1, e2)
    | Expr.Intersect (e1, e2)
    | Expr.Join (_, e1, e2) ->
        cost ~stats ~schemas e1 +. cost ~stats ~schemas e2
  in
  own +. children

(* --- index access paths -------------------------------------------------

   The units are "rows touched", comparable with the tuple-flow model
   above: a sequential scan touches the whole relation, an index probe
   touches log(keys) tree nodes plus the matching postings, and an index
   nested-loop join pays one probe per outer row where a hash join pays
   a full build of the inner. *)

let index_probe_cost ~keys ~matching =
  Float.log2 (Float.max 2.0 keys) +. Float.max 0.0 matching

let index_scan_wins ~keys ~matching ~total =
  index_probe_cost ~keys ~matching < total

let index_join_wins ~keys ~outer ~inner =
  Float.max 1.0 outer *. Float.log2 (Float.max 2.0 keys) < inner

(* An Exchange's overhead — partition, pool dispatch, merge — is paid
   per input tuple and per fragment, so the break-even input size grows
   with the fragment count: splitting 600 rows four ways leaves
   fragments too small to amortise a dispatch even though 600 clears a
   512-row bar for two-way splitting. *)
let exchange_floor ~parts ~threshold =
  Float.max (float_of_int threshold) (float_of_int (threshold * parts) /. 2.0)
