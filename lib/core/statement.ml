open Mxra_relational

type t =
  | Insert of string * Expr.t
  | Delete of string * Expr.t
  | Update of string * Expr.t * Scalar.t list
  | Assign of string * Expr.t
  | Query of Expr.t

exception Exec_error of string

let error fmt = Format.kasprintf (fun s -> raise (Exec_error s)) fmt

(* Write observation: an inversion-of-control hook so layers above core
   (secondary index maintenance in [Mxra_ext.Index]) can see each
   update's exact delta without core depending on them.  The deltas are
   the *effective* bags: what the statement actually added to / removed
   from the target, multiplicities included, so that
   [bag before − removed ⊎ added = bag after] always holds. *)
type write = {
  w_db : Database.t;  (* state the statement executed against *)
  w_name : string;
  w_before : Relation.t;
  w_after : Relation.t;
  w_added : Relation.Bag.t;
  w_removed : Relation.Bag.t;
}

let observer : (write -> unit) option ref = ref None
let set_write_observer f = observer := f
let write_observer () = !observer

(* Deltas are only computed when someone is listening: the no-observer
   fast path is a single ref read. *)
let observe_write db name ~before ~after ~added ~removed =
  match !observer with
  | None -> ()
  | Some f ->
      f
        {
          w_db = db;
          w_name = name;
          w_before = before;
          w_after = after;
          w_added = added ();
          w_removed = removed ();
        }

let target_relation db name =
  match Database.find_opt name db with
  | Some r -> r
  | None -> error "unknown relation %s" name

let require_same_schema op name target value =
  if not (Schema.compatible (Relation.schema target) (Relation.schema value))
  then
    error "%s(%s, E): E has schema %a, %s has schema %a" op name Schema.pp
      (Relation.schema value) name Schema.pp (Relation.schema target)

(* update(R, E, α) requires π_α structure-preserving: the projected
   schema must be compatible with R's schema. *)
let check_update_list db name exprs =
  let schema = Relation.schema (target_relation db name) in
  if List.length exprs <> Schema.arity schema then
    error "update(%s): attribute expression list has length %d, schema %a"
      name (List.length exprs) Schema.pp schema;
  List.iteri
    (fun i e ->
      let d =
        try Scalar.infer schema e
        with Scalar.Eval_error msg -> error "update(%s): %s" name msg
      in
      let expected = Schema.domain schema (i + 1) in
      if not (Domain.equal d expected) then
        error
          "update(%s): expression %a for attribute %%%d has domain %a, \
           expected %a"
          name Scalar.pp e (i + 1) Domain.pp d Domain.pp expected)
    exprs

let exec db = function
  | Insert (name, e) ->
      let target = target_relation db name in
      let value = Eval.eval db e in
      require_same_schema "insert" name target value;
      let after = Eval.union target value in
      observe_write db name ~before:target ~after
        ~added:(fun () -> Relation.bag value)
        ~removed:(fun () -> Relation.Bag.empty);
      (Database.set name after db, None)
  | Delete (name, e) ->
      let target = target_relation db name in
      let value = Eval.eval db e in
      require_same_schema "delete" name target value;
      let after = Eval.diff target value in
      observe_write db name ~before:target ~after
        ~added:(fun () -> Relation.Bag.empty)
          (* Monus: only what was actually present leaves the bag. *)
        ~removed:(fun () -> Relation.bag (Eval.intersect target value));
      (Database.set name after db, None)
  | Update (name, e, exprs) ->
      let target = target_relation db name in
      let value = Eval.eval db e in
      require_same_schema "update" name target value;
      check_update_list db name exprs;
      (* R ← (R − E) ⊎ π_α(R ∩ E) *)
      let untouched = Eval.diff target value in
      let touched = Eval.intersect target value in
      let modified =
        (* The projected bag keeps R's schema: structure preserving. *)
        Relation.of_bag_unchecked (Relation.schema target)
          (Relation.bag (Eval.project exprs touched))
      in
      let after = Eval.union untouched modified in
      observe_write db name ~before:target ~after
        ~added:(fun () -> Relation.bag modified)
        ~removed:(fun () -> Relation.bag touched);
      (Database.set name after db, None)
  | Assign (name, e) ->
      let value = Eval.eval db e in
      (Database.assign_temporary name value db, None)
  | Query e -> (db, Some (Eval.eval db e))

let infer db = function
  | Insert (name, e) | Delete (name, e) ->
      let target = target_relation db name in
      let schema = Typecheck.infer_db db e in
      if not (Schema.compatible (Relation.schema target) schema) then
        error "statement on %s: schema mismatch" name
  | Update (name, e, exprs) ->
      let target = target_relation db name in
      let schema = Typecheck.infer_db db e in
      if not (Schema.compatible (Relation.schema target) schema) then
        error "update(%s): schema mismatch" name;
      check_update_list db name exprs
  | Assign (_, e) | Query e -> ignore (Typecheck.infer_db db e)

let pp ppf = function
  | Insert (name, e) ->
      Format.fprintf ppf "insert(%s,@ @[%a@])" name Expr.pp e
  | Delete (name, e) ->
      Format.fprintf ppf "delete(%s,@ @[%a@])" name Expr.pp e
  | Update (name, e, exprs) ->
      Format.fprintf ppf "update(%s,@ @[%a@],@ [@[%a@]])" name Expr.pp e
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           Scalar.pp)
        exprs
  | Assign (name, e) -> Format.fprintf ppf "%s := @[%a@]" name Expr.pp e
  | Query e -> Format.fprintf ppf "?@[%a@]" Expr.pp e

let to_string s = Format.asprintf "%a" pp s
