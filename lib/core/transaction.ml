open Mxra_relational

type t = {
  name : string;
  body : Program.t;
  abort_if : (Database.t -> bool) option;
}

let make ?(name = "txn") ?abort_if body = { name; body; abort_if }

type outcome =
  | Committed of {
      state : Database.t;
      outputs : Relation.t list;
    }
  | Aborted of {
      state : Database.t;
      reason : string;
    }

(* The one table from a failure inside a transaction to the reason its
   abort reports — shared with the scheduler, so a statement fails with
   the same words whether it ran serially or interleaved. *)
let abort_reason = function
  | Statement.Exec_error msg | Typecheck.Type_error msg | Scalar.Eval_error msg
  | Relation.Schema_mismatch msg ->
      Some msg
  | Aggregate.Undefined kind ->
      Some (Aggregate.name kind ^ " applied to an empty multi-set")
  | Database.Unknown_relation name -> Some ("unknown relation " ^ name)
  | Database.Duplicate_relation name ->
      Some ("assignment shadows persistent relation " ^ name)
  | _ -> None

(* The pre-state D^t is a value; abort simply re-installs it.  Commit
   drops temporaries and advances the logical clock, yielding D^{t+1}. *)
let run db txn =
  let abort reason = Aborted { state = Database.tick db; reason } in
  match Program.exec db txn.body with
  | exception e -> (
      match abort_reason e with Some reason -> abort reason | None -> raise e)
  | final, outputs ->
      let must_abort =
        match txn.abort_if with None -> false | Some cond -> cond final
      in
      if must_abort then abort (txn.name ^ ": abort_if condition held")
      else
        Committed
          {
            state = Database.tick (Database.drop_temporaries final);
            outputs;
          }

let state_of = function
  | Committed { state; _ } | Aborted { state; _ } -> state

let committed = function Committed _ -> true | Aborted _ -> false

let run_all db txns =
  let step (db, outcomes) txn =
    let outcome = run db txn in
    (state_of outcome, outcome :: outcomes)
  in
  let final, outcomes = List.fold_left step (db, []) txns in
  (final, List.rev outcomes)

let transition pre outcome = (pre, state_of outcome)
