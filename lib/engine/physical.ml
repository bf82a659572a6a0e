open Mxra_core
module Index = Mxra_ext.Index

type t =
  | Const_scan of Mxra_relational.Relation.t
  | Seq_scan of string
  | Index_scan of {
      def : Mxra_relational.Database.index_def;
      access : Index.access;
      residual : Pred.t;
    }
  | Index_join of {
      (* Index nested-loop join: probe [def]'s index on the inner
         relation once per outer row, key values taken from the outer
         row's [outer_keys] (aligned with [def.idx_cols]). *)
      def : Mxra_relational.Database.index_def;
      outer_keys : int list;
      left_arity : int;
      residual : Pred.t;
      outer : t;
    }
  | Filter of Pred.t * t
  | Project_op of Scalar.t list * t
  | Hash_join of {
      left_keys : int list;
      right_keys : int list;
      left_arity : int;
      residual : Pred.t;
      left : t;
      right : t;
    }
  | Nested_loop of Pred.t * t * t
  | Cross_product of t * t
  | Union_all of t * t
  | Hash_diff of t * t
  | Hash_intersect of t * t
  | Hash_distinct of t
  | Hash_aggregate of int list * (Aggregate.kind * int) list * t
  | Exchange of { parts : int; child : t }

(* The logical join condition of a hash join: key equalities (right keys
   reindexed past the left arity) conjoined with the residual. *)
(* The predicate an index access path stands for, over the indexed
   relation's own schema: one condition per consumed conjunct. *)
let access_pred (def : Mxra_relational.Database.index_def)
    (access : Index.access) =
  match access with
  | Index.Point vals ->
      List.map2
        (fun c v -> Pred.eq (Scalar.attr c) (Scalar.Lit v))
        def.idx_cols vals
  | Index.Range (lo, hi) ->
      let col = List.hd def.idx_cols in
      List.filter_map Fun.id
        [
          Option.map
            (fun { Index.b_value; b_incl } ->
              (if b_incl then Pred.ge else Pred.gt)
                (Scalar.attr col) (Scalar.Lit b_value))
            lo;
          Option.map
            (fun { Index.b_value; b_incl } ->
              (if b_incl then Pred.le else Pred.lt)
                (Scalar.attr col) (Scalar.Lit b_value))
            hi;
        ]

let rec to_logical plan =
  match plan with
  | Const_scan r -> Expr.Const r
  | Seq_scan name -> Expr.Rel name
  | Index_scan { def; access; residual } ->
      Expr.Select
        ( Pred.simplify (Pred.conj (access_pred def access @ [ residual ])),
          Expr.Rel def.idx_rel )
  | Index_join { def; outer_keys; left_arity; residual; outer } ->
      let key_conds =
        List.map2
          (fun i c -> Pred.eq (Scalar.attr i) (Scalar.attr (c + left_arity)))
          outer_keys def.idx_cols
      in
      Expr.Join
        ( Pred.simplify (Pred.conj (key_conds @ [ residual ])),
          to_logical outer, Expr.Rel def.idx_rel )
  | Filter (p, t) -> Expr.Select (p, to_logical t)
  | Project_op (exprs, t) -> Expr.Project (exprs, to_logical t)
  | Hash_join { left_keys; right_keys; left_arity; residual; left; right } ->
      let key_conds =
        List.map2
          (fun i j -> Pred.eq (Scalar.attr i) (Scalar.attr (j + left_arity)))
          left_keys right_keys
      in
      Expr.Join
        (Pred.conj (key_conds @ [ residual ]), to_logical left,
         to_logical right)
  | Nested_loop (p, l, r) -> Expr.Join (p, to_logical l, to_logical r)
  | Cross_product (l, r) -> Expr.Product (to_logical l, to_logical r)
  | Union_all (l, r) -> Expr.Union (to_logical l, to_logical r)
  | Hash_diff (l, r) -> Expr.Diff (to_logical l, to_logical r)
  | Hash_intersect (l, r) -> Expr.Intersect (to_logical l, to_logical r)
  | Hash_distinct t -> Expr.Unique (to_logical t)
  | Hash_aggregate (attrs, aggs, t) ->
      Expr.GroupBy (attrs, aggs, to_logical t)
  | Exchange { child; _ } -> to_logical child

let children = function
  | Const_scan _ | Seq_scan _ | Index_scan _ -> []
  | Index_join { outer; _ } -> [ outer ]
  | Filter (_, t) | Project_op (_, t) | Hash_distinct t
  | Hash_aggregate (_, _, t)
  | Exchange { child = t; _ } ->
      [ t ]
  | Hash_join { left; right; _ } ->
      [ left; right ]
  | Nested_loop (_, l, r)
  | Cross_product (l, r)
  | Union_all (l, r)
  | Hash_diff (l, r)
  | Hash_intersect (l, r) ->
      [ l; r ]

let rec size plan =
  List.fold_left (fun n child -> n + size child) 1 (children plan)

let rec exchange_count plan =
  List.fold_left
    (fun n child -> n + exchange_count child)
    (match plan with Exchange _ -> 1 | _ -> 0)
    (children plan)

let kind = function
  | Const_scan _ -> "ConstScan"
  | Seq_scan _ -> "SeqScan"
  | Index_scan _ -> "IndexScan"
  | Index_join _ -> "IndexNestedLoopJoin"
  | Filter _ -> "Filter"
  | Project_op _ -> "Project"
  | Hash_join _ -> "HashJoin"
  | Nested_loop _ -> "NestedLoop"
  | Cross_product _ -> "CrossProduct"
  | Union_all _ -> "UnionAll"
  | Hash_diff _ -> "HashDiff"
  | Hash_intersect _ -> "HashIntersect"
  | Hash_distinct _ -> "HashDistinct"
  | Hash_aggregate _ -> "HashAggregate"
  | Exchange _ -> "Exchange"

let pp_keys ppf keys =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
    (fun ppf i -> Format.fprintf ppf "%%%d" i)
    ppf keys

let label plan =
  match plan with
  | Const_scan r ->
      Format.asprintf "ConstScan (%d tuples)"
        (Mxra_relational.Relation.cardinal r)
  | Seq_scan name -> "SeqScan " ^ name
  | Index_scan { def; access; residual } ->
      Format.asprintf "IndexScan %s via %s [%a]%s" def.idx_rel def.idx_name
        Index.pp_access access
        (match residual with
        | Pred.True -> ""
        | p -> Format.asprintf " residual=[%a]" Pred.pp p)
  | Index_join { def; outer_keys; residual; _ } ->
      Format.asprintf "IndexNestedLoopJoin %s via %s keys=%a=%a%s" def.idx_rel
        def.idx_name pp_keys outer_keys pp_keys def.idx_cols
        (match residual with
        | Pred.True -> ""
        | p -> Format.asprintf " residual=[%a]" Pred.pp p)
  | Filter (p, _) -> Format.asprintf "Filter [%a]" Pred.pp p
  | Project_op (exprs, _) ->
      Format.asprintf "Project [%a]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           Scalar.pp)
        exprs
  | Hash_join { left_keys; right_keys; residual; _ } ->
      Format.asprintf "HashJoin keys=%a=%a residual=[%a]" pp_keys left_keys
        pp_keys right_keys Pred.pp residual
  | Nested_loop (p, _, _) -> Format.asprintf "NestedLoop [%a]" Pred.pp p
  | Cross_product _ -> "CrossProduct"
  | Union_all _ -> "UnionAll"
  | Hash_diff _ -> "HashDiff"
  | Hash_intersect _ -> "HashIntersect"
  | Hash_distinct _ -> "HashDistinct"
  | Exchange { parts; _ } -> Format.asprintf "Exchange parts=%d" parts
  | Hash_aggregate (attrs, aggs, _) ->
      Format.asprintf "HashAggregate keys=[%a] aggs=[%a]" pp_keys attrs
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
           (fun ppf (k, p) -> Format.fprintf ppf "%a(%%%d)" Aggregate.pp k p))
        aggs

let pp_annotated ~annot ppf plan =
  let next = ref 0 in
  let rec go indent plan =
    let pad = String.make indent ' ' in
    let position = !next in
    incr next;
    (match annot position plan with
    | "" -> Format.fprintf ppf "%s%s@," pad (label plan)
    | a ->
        Format.fprintf ppf "%s%-*s %s@," pad
          (max 0 (46 - indent))
          (label plan) a);
    List.iter (go (indent + 2)) (children plan)
  in
  Format.fprintf ppf "@[<v>";
  go 0 plan;
  Format.fprintf ppf "@]"

let pp ppf plan = pp_annotated ~annot:(fun _ _ -> "") ppf plan
let to_string plan = Format.asprintf "%a" pp plan
