open Mxra_relational
open Mxra_core
module Index = Mxra_ext.Index

let join_keys ~left_arity p =
  let classify (keys, residual) conjunct =
    match Pred.equi_join_pair ~left_arity conjunct with
    | Some (i, j) -> ((i, j - left_arity) :: keys, residual)
    | None -> (keys, conjunct :: residual)
  in
  let keys, residual =
    List.fold_left classify ([], []) (Pred.conjuncts p)
  in
  (List.rev keys, Pred.simplify (Pred.conj (List.rev residual)))

(* --- index access-path extraction --------------------------------------- *)

(* [%i = lit] in either orientation. *)
let eq_literal = function
  | Pred.Cmp (Term.Eq, a, b) -> (
      match (Scalar.is_attr a, b) with
      | Some i, Scalar.Lit v -> Some (i, v)
      | _ -> (
          match (a, Scalar.is_attr b) with
          | Scalar.Lit v, Some i -> Some (i, v)
          | _ -> None))
  | _ -> None

let mirror = function
  | Term.Lt -> Term.Gt
  | Term.Le -> Term.Ge
  | Term.Gt -> Term.Lt
  | Term.Ge -> Term.Le
  | (Term.Eq | Term.Ne) as op -> op

(* [%i op lit] for a range comparison, op oriented attribute-first. *)
let range_literal = function
  | Pred.Cmp (op, a, b) -> (
      let oriented =
        match (Scalar.is_attr a, b) with
        | Some i, Scalar.Lit v -> Some (i, op, v)
        | _ -> (
            match (a, Scalar.is_attr b) with
            | Scalar.Lit v, Some i -> Some (i, mirror op, v)
            | _ -> None)
      in
      match oriented with
      | Some (_, (Term.Lt | Term.Le | Term.Gt | Term.Ge), _) -> oriented
      | Some (_, (Term.Eq | Term.Ne), _) | None -> None)
  | _ -> None

(* Find an equality on column [c]; returns the literal and the other
   conjuncts. *)
let find_eq_on c conjs =
  let rec go seen = function
    | [] -> None
    | conj :: more -> (
        match eq_literal conj with
        | Some (i, v) when i = c -> Some (v, List.rev_append seen more)
        | Some _ | None -> go (conj :: seen) more)
  in
  go [] conjs

(* Split [p] into an access for [def] plus residual conjuncts: a full
   key's worth of equalities for a hash index; an equality or a bound
   combination for an ordered one.  [None] when the index cannot answer
   any part of the condition. *)
let extract_access (def : Database.index_def) p =
  let conjs = Pred.conjuncts p in
  match def.idx_kind with
  | Database.Hash ->
      let rec take cols conjs_left acc =
        match cols with
        | [] -> Some (Index.Point (List.rev acc), conjs_left)
        | c :: rest -> (
            match find_eq_on c conjs_left with
            | None -> None
            | Some (v, remaining) -> take rest remaining (v :: acc))
      in
      take def.idx_cols conjs []
  | Database.Ordered -> (
      let c = List.hd def.idx_cols in
      match find_eq_on c conjs with
      | Some (v, rest) -> Some (Index.Point [ v ], rest)
      | None ->
          let bounds, others =
            List.partition_map
              (fun conj ->
                match range_literal conj with
                | Some (i, op, v) when i = c -> Either.Left (op, v)
                | Some _ | None -> Either.Right conj)
              conjs
          in
          if bounds = [] then None
          else
            (* Keep the strictest bound on each side; on a tie the
               exclusive bound is stricter. *)
            let tighter flip cur (v, incl) =
              match cur with
              | None -> Some { Index.b_value = v; b_incl = incl }
              | Some b ->
                  let cmp = flip (Value.compare v b.Index.b_value) in
                  if cmp > 0 then Some { Index.b_value = v; b_incl = incl }
                  else if cmp = 0 then
                    Some { b with Index.b_incl = b.Index.b_incl && incl }
                  else Some b
            in
            let lo, hi =
              List.fold_left
                (fun (lo, hi) (op, v) ->
                  match op with
                  | Term.Gt -> (tighter Fun.id lo (v, false), hi)
                  | Term.Ge -> (tighter Fun.id lo (v, true), hi)
                  | Term.Lt -> (lo, tighter Int.neg hi (v, false))
                  | Term.Le -> (lo, tighter Int.neg hi (v, true))
                  | Term.Eq | Term.Ne -> (lo, hi))
                (None, None) bounds
            in
            Some (Index.Range (lo, hi), others))

let index_keys_estimate ~stats name (def : Database.index_def) =
  match stats name with
  | Some s -> float_of_int (Stats.distinct_keys s def.idx_cols)
  | None -> 32.0

(* The cheapest index access path for σ_p(name), if any beats a scan
   (every candidate qualifies when [force_index]). *)
let choose_index_scan ~force_index ~stats ~schemas ~indexes name p =
  let scored =
    List.filter_map
      (fun (def : Database.index_def) ->
        Option.map
          (fun (access, residual_conjs) ->
            let matching =
              Cost.estimate_cardinality ~stats ~schemas
                (Expr.Select
                   (Pred.conj (Physical.access_pred def access), Expr.Rel name))
            in
            let keys = index_keys_estimate ~stats name def in
            ((def, access, residual_conjs, matching, keys),
             Cost.index_probe_cost ~keys ~matching))
          (extract_access def p))
      (indexes name)
  in
  match scored with
  | [] -> None
  | first :: rest ->
      let (def, access, residual_conjs, matching, keys), _ =
        List.fold_left
          (fun ((_, cb) as best) ((_, c) as cand) ->
            if c < cb then cand else best)
          first rest
      in
      let total =
        Cost.estimate_cardinality ~stats ~schemas (Expr.Rel name)
      in
      if force_index || Cost.index_scan_wins ~keys ~matching ~total then
        Some
          (Physical.Index_scan
             { def; access; residual = Pred.simplify (Pred.conj residual_conjs) })
      else None

let rec translate ~force_index ~stats ~indexes env e =
  let recur = translate ~force_index ~stats ~indexes env in
  match e with
  | Expr.Rel name -> Physical.Seq_scan name
  | Expr.Const r -> Physical.Const_scan r
  | Expr.Select (p, Expr.Product (e1, e2)) ->
      (* σ(E1 × E2) = E1 ⋈ E2 (Theorem 3.1): give the selection a chance
         to become join keys. *)
      translate_join ~force_index ~stats ~indexes env p e1 e2
  | Expr.Select (p, (Expr.Rel name as e1)) -> (
      match
        choose_index_scan ~force_index ~stats ~schemas:env ~indexes name p
      with
      | Some node -> node
      | None -> Physical.Filter (p, recur e1))
  | Expr.Select (p, e1) -> Physical.Filter (p, recur e1)
  | Expr.Project (exprs, e1) -> Physical.Project_op (exprs, recur e1)
  | Expr.Union (e1, e2) -> Physical.Union_all (recur e1, recur e2)
  | Expr.Diff (e1, e2) -> Physical.Hash_diff (recur e1, recur e2)
  | Expr.Intersect (e1, e2) -> Physical.Hash_intersect (recur e1, recur e2)
  | Expr.Product (e1, e2) -> Physical.Cross_product (recur e1, recur e2)
  | Expr.Join (p, e1, e2) ->
      translate_join ~force_index ~stats ~indexes env p e1 e2
  | Expr.Unique e1 -> Physical.Hash_distinct (recur e1)
  | Expr.GroupBy (attrs, aggs, e1) ->
      Physical.Hash_aggregate (attrs, aggs, recur e1)

and translate_join ~force_index ~stats ~indexes env p e1 e2 =
  let left_arity = Schema.arity (Typecheck.infer env e1) in
  let keys, residual = join_keys ~left_arity p in
  let left = translate ~force_index ~stats ~indexes env e1 in
  (* An index nested-loop candidate: the inner operand is a base
     relation with an index whose every column is equated (by [keys])
     with some outer attribute.  Unconsumed key equalities rejoin the
     residual over the concatenated schema. *)
  let index_join_candidate () =
    match (keys, e2) with
    | _ :: _, Expr.Rel name ->
        let candidate (def : Database.index_def) =
          let rec collect cols outer consumed =
            match cols with
            | [] -> Some (List.rev outer, consumed)
            | c :: rest -> (
                match List.find_opt (fun (_, rk) -> rk = c) keys with
                | Some ((i, _) as pair) ->
                    collect rest (i :: outer) (pair :: consumed)
                | None -> None)
          in
          match collect def.idx_cols [] [] with
          | None -> None
          | Some (outer_keys, consumed) ->
              let leftover =
                List.filter (fun kp -> not (List.mem kp consumed)) keys
              in
              let leftover_conds =
                List.map
                  (fun (i, rk) ->
                    Pred.eq (Scalar.attr i) (Scalar.attr (rk + left_arity)))
                  leftover
              in
              Some
                (Physical.Index_join
                   {
                     def;
                     outer_keys;
                     left_arity;
                     residual =
                       Pred.simplify (Pred.conj (leftover_conds @ [ residual ]));
                     outer = left;
                   })
        in
        List.find_map
          (fun def ->
            match candidate def with
            | None -> None
            | Some node ->
                let outer_est =
                  Cost.estimate_cardinality ~stats ~schemas:env e1
                in
                let inner_est =
                  Cost.estimate_cardinality ~stats ~schemas:env e2
                in
                let keys_est = index_keys_estimate ~stats name def in
                if
                  force_index
                  || Cost.index_join_wins ~keys:keys_est ~outer:outer_est
                       ~inner:inner_est
                then Some node
                else None)
          (indexes name)
    | _ -> None
  in
  match index_join_candidate () with
  | Some node -> node
  | None -> (
      let right = translate ~force_index ~stats ~indexes env e2 in
      match keys with
      | [] -> Physical.Nested_loop (p, left, right)
      | _ :: _ ->
          let left_keys = List.map fst keys
          and right_keys = List.map snd keys in
          Physical.Hash_join
            { left_keys; right_keys; left_arity; residual; left; right })

let checked_translate ~force_index ~stats ~indexes env e =
  (* Full static check up front so translation can trust schemas. *)
  ignore (Typecheck.infer env e);
  translate ~force_index ~stats ~indexes env e

let plan_with ?(stats = fun _ -> None) ?(indexes = fun _ -> []) env e =
  checked_translate ~force_index:false ~stats ~indexes env e

(* --- parallelization pass ----------------------------------------------- *)

let default_parallel_threshold = 512

(* Insert Exchange nodes above the operators the executor knows how to
   fragment — maximal σ/π pipelines, hash joins, hash aggregates — when
   the estimated input cardinality clears the profitability floor.
   Below it the partition/merge overhead dominates any per-tuple win.

   The pass is adaptive on three inputs: the host's core count caps the
   fragment count (one core ⇒ no Exchange at all — fragments would just
   queue behind each other plus pay partition/merge); the cost model
   turns the threshold into a per-fragment floor ({!Cost.exchange_floor});
   and measured Exchange outcomes ({!Feedback}) raise
   or lower that floor as the process learns what actually pays here.
   An explicit [threshold] disables the feedback term so forced-parallel
   tests stay deterministic. *)
let parallelize ~stats ~schemas ~jobs ?cores ?threshold plan =
  let cores =
    match cores with
    | Some c -> max 1 c
    | None -> Stdlib.Domain.recommended_domain_count ()
  in
  let parts = min jobs cores in
  if parts <= 1 then plan
  else
    let feedback_rows =
      match threshold with
      | Some _ -> None
      | None -> Feedback.min_profitable_rows ()
    in
    let threshold =
      Option.value ~default:default_parallel_threshold threshold
    in
    let est p =
      Cost.estimate_cardinality ~stats ~schemas (Physical.to_logical p)
    in
    let thr = Cost.exchange_floor ~parts ~threshold ~feedback_rows in
    let exchange child = Physical.Exchange { parts; child } in
    (* A σ/π chain split into its source and a rebuilding context, so
       the whole pipeline lands under one Exchange. *)
    let rec split_pipeline = function
      | Physical.Filter (p, t) ->
          let src, rebuild = split_pipeline t in
          (src, fun s -> Physical.Filter (p, rebuild s))
      | Physical.Project_op (exprs, t) ->
          let src, rebuild = split_pipeline t in
          (src, fun s -> Physical.Project_op (exprs, rebuild s))
      | src -> (src, Fun.id)
    in
    let rec go plan =
      match plan with
      | Physical.Const_scan _ | Physical.Seq_scan _ | Physical.Index_scan _ ->
          plan
      | Physical.Index_join ({ outer; _ } as j) ->
          (* The probe side streams; only the outer subplan can
             fragment. *)
          Physical.Index_join { j with outer = go outer }
      | Physical.Filter _ | Physical.Project_op _ -> (
          let src, rebuild = split_pipeline plan in
          let src' = go src in
          let node = rebuild src' in
          match src' with
          | Physical.Exchange _ ->
              (* The source already runs fragmented; the pipeline
                 streams over its merged output rather than paying a
                 second partition/merge round. *)
              node
          | _ -> if est src >= thr then exchange node else node)
      | Physical.Hash_join ({ left; right; _ } as j) ->
          let node =
            Physical.Hash_join { j with left = go left; right = go right }
          in
          if est left +. est right >= thr then exchange node else node
      | Physical.Hash_aggregate (attrs, aggs, src) ->
          let node = Physical.Hash_aggregate (attrs, aggs, go src) in
          if est src >= thr then exchange node else node
      | Physical.Nested_loop (p, l, r) -> Physical.Nested_loop (p, go l, go r)
      | Physical.Cross_product (l, r) -> Physical.Cross_product (go l, go r)
      | Physical.Union_all (l, r) -> Physical.Union_all (go l, go r)
      | Physical.Hash_diff (l, r) -> Physical.Hash_diff (go l, go r)
      | Physical.Hash_intersect (l, r) -> Physical.Hash_intersect (go l, go r)
      | Physical.Hash_distinct t -> Physical.Hash_distinct (go t)
      | Physical.Exchange { parts; child } ->
          Physical.Exchange { parts; child = go child }
    in
    go plan

let plan ?(jobs = 1) ?cores ?parallel_threshold ?(force_index = false) db e =
  Mxra_obs.Trace.with_span "plan" (fun () ->
      let schemas = Typecheck.env_of_database db in
      let stats = Stats.env_of_database db in
      let p =
        checked_translate ~force_index ~stats
          ~indexes:(fun name -> Database.indexes_on name db)
          schemas e
      in
      let p =
        if jobs <= 1 then p
        else
          parallelize ~stats ~schemas ~jobs ?cores ?threshold:parallel_threshold
            p
      in
      Mxra_obs.Trace.add_attr "operators"
        (Mxra_obs.Trace.Int (Physical.size p));
      p)
