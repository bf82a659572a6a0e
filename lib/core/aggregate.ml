open Mxra_relational

type kind =
  | Cnt
  | Sum
  | Avg
  | Min
  | Max
  | Var
  | Stddev

exception Undefined of kind

let all = [ Cnt; Sum; Avg; Min; Max ]
let all_extended = all @ [ Var; Stddev ]

let name = function
  | Cnt -> "CNT"
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"
  | Var -> "VAR"
  | Stddev -> "STDDEV"

let of_name s =
  match String.uppercase_ascii s with
  | "CNT" | "COUNT" -> Some Cnt
  | "SUM" -> Some Sum
  | "AVG" | "AVERAGE" -> Some Avg
  | "MIN" -> Some Min
  | "MAX" -> Some Max
  | "VAR" | "VARIANCE" -> Some Var
  | "STDDEV" | "STDEV" -> Some Stddev
  | _ -> None

let error fmt = Format.kasprintf (fun s -> raise (Scalar.Eval_error s)) fmt

let result_domain kind d =
  match kind with
  | Cnt -> Domain.DInt
  | Sum ->
      if Domain.is_numeric d then d
      else error "SUM requires a numeric domain, got %a" Domain.pp d
  | Avg ->
      if Domain.is_numeric d then Domain.DFloat
      else error "AVG requires a numeric domain, got %a" Domain.pp d
  | Min | Max -> (
      match d with
      | Domain.DInt | Domain.DFloat | Domain.DStr -> d
      | Domain.DBool -> error "MIN/MAX undefined on the boolean domain")
  | Var | Stddev ->
      if Domain.is_numeric d then Domain.DFloat
      else error "%s requires a numeric domain, got %a" (name kind) Domain.pp d

let applicable kind d =
  match result_domain kind d with
  | _ -> true
  | exception Scalar.Eval_error _ -> false

let cnt column = List.fold_left (fun acc (_, n) -> acc + n) 0 column

(* Floating-point folds are canonicalised by sorting the column and
   merging equal values (integer count addition is exact), so the result
   is independent of both the order operators deliver entries in and how
   a value's multiplicity is split across entries — the reference
   evaluator and the engine must agree bit for bit. *)
let canonical column =
  let sorted =
    List.sort (fun (v1, _) (v2, _) -> Value.compare v1 v2) column
  in
  let rec merge = function
    | (v1, n1) :: (v2, n2) :: rest when Value.equal v1 v2 ->
        merge ((v1, n1 + n2) :: rest)
    | entry :: rest -> entry :: merge rest
    | [] -> []
  in
  merge sorted

let sum column =
  (* Sums stay in the integer domain when every input is an integer;
     any float promotes the whole sum, matching [result_domain]. *)
  let exception Promote in
  let int_sum () =
    List.fold_left
      (fun acc (v, n) ->
        match v with
        | Value.Int x -> acc + (x * n)
        | Value.Float _ -> raise Promote
        | Value.Str _ | Value.Bool _ ->
            error "SUM applied to non-numeric value %a" Value.pp v)
      0 column
  in
  match int_sum () with
  | total -> Value.Int total
  | exception Promote ->
      let total =
        List.fold_left
          (fun acc (v, n) ->
            if Value.is_numeric v then
              acc +. (Value.as_float v *. float_of_int n)
            else error "SUM applied to non-numeric value %a" Value.pp v)
          0.0 (canonical column)
      in
      Value.Float total

let avg column =
  let n = cnt column in
  if n = 0 then raise (Undefined Avg)
  else
    let total =
      List.fold_left
        (fun acc (v, k) ->
          if Value.is_numeric v then
            acc +. (Value.as_float v *. float_of_int k)
          else error "AVG applied to non-numeric value %a" Value.pp v)
        0.0 (canonical column)
    in
    total /. float_of_int n

let extremum kind better column =
  match column with
  | [] -> raise (Undefined kind)
  | (v0, _) :: rest ->
      List.fold_left
        (fun acc (v, _) ->
          if better (Value.compare_same_domain v acc) then v else acc)
        v0 rest

let min_v column = extremum Min (fun c -> c < 0) column
let max_v column = extremum Max (fun c -> c > 0) column

let var column =
  let n = cnt column in
  if n = 0 then raise (Undefined Var)
  else
    let mean = avg column in
    let sq_sum =
      List.fold_left
        (fun acc (v, k) ->
          let d = Value.as_float v -. mean in
          acc +. (d *. d *. float_of_int k))
        0.0 (canonical column)
    in
    sq_sum /. float_of_int n

let compute kind column =
  match kind with
  | Cnt -> Value.Int (cnt column)
  | Sum -> sum column
  | Avg -> Value.Float (avg column)
  | Min -> min_v column
  | Max -> max_v column
  | Var -> Value.Float (var column)
  | Stddev -> Value.Float (sqrt (var column))

let compute_for domain kind column =
  match (kind, column, domain) with
  | Sum, [], Domain.DFloat -> Value.Float 0.0
  | Sum, [], (Domain.DInt | Domain.DStr | Domain.DBool) -> Value.Int 0
  | Sum, _ :: _, Domain.DFloat -> (
      (* An all-integer column under a float schema must still yield a
         float, or the result tuple would escape the inferred schema. *)
      match sum column with
      | Value.Int n -> Value.Float (float_of_int n)
      | (Value.Float _ | Value.Str _ | Value.Bool _) as v -> v)
  | (Cnt | Sum | Avg | Min | Max | Var | Stddev), _, _ -> compute kind column

let pp ppf kind = Format.pp_print_string ppf (name kind)

module Acc = struct
  type t =
    | Count of int
    | Int_sum of int
    | Least of Value.t option
    | Greatest of Value.t option
    | Column of kind * Domain.t * (Value.t * int) list
        (* Buffered fallback finished by [compute_for], used wherever
           incremental folding could disagree with the formal semantics
           in the last float ulp (AVG, float SUM, VAR, STDDEV);
           [canonical] orders the column, so the result is bit-identical
           however the rows were split or merged. *)

  let init kind domain =
    match (kind, domain) with
    | Cnt, _ -> Count 0
    | Sum, (Domain.DInt | Domain.DStr | Domain.DBool) -> Int_sum 0
    | Min, _ -> Least None
    | Max, _ -> Greatest None
    | (Sum | Avg | Var | Stddev), _ -> Column (kind, domain, [])

  let keep better v = function
    | None -> Some v
    | Some w as best ->
        if better (Value.compare_same_domain v w) then Some v else best

  let lt c = c < 0
  let gt c = c > 0
  let keep_opt better a = function None -> a | Some v -> keep better v a

  let step acc v n =
    match acc with
    | Count c -> Count (c + n)
    | Int_sum s -> (
        match v with
        | Value.Int x -> Int_sum (s + (x * n))
        | Value.Float _ | Value.Str _ | Value.Bool _ ->
            error "SUM over a non-integer value %a" Value.pp v)
    | Least best -> Least (keep lt v best)
    | Greatest best -> Greatest (keep gt v best)
    | Column (kind, domain, column) -> Column (kind, domain, (v, n) :: column)

  let merge a b =
    match (a, b) with
    | Count x, Count y -> Count (x + y)
    | Int_sum x, Int_sum y -> Int_sum (x + y)
    | Least x, Least y -> Least (keep_opt lt x y)
    | Greatest x, Greatest y -> Greatest (keep_opt gt x y)
    | Column (kind, domain, c1), Column (_, _, c2) ->
        Column (kind, domain, List.rev_append c1 c2)
    | (Count _ | Int_sum _ | Least _ | Greatest _ | Column _), _ ->
        invalid_arg "Aggregate.Acc.merge: different aggregates"

  let finish = function
    | Count c | Int_sum c -> Value.Int c
    | Least None -> raise (Undefined Min)
    | Greatest None -> raise (Undefined Max)
    | Least (Some v) | Greatest (Some v) -> v
    | Column (kind, domain, column) -> compute_for domain kind column
end
