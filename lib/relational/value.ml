type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

exception Incomparable of t * t

(* Domain-major order: Int < Float < Str < Bool.  Stable and explicit so
   that serialized orderings never depend on compiler representation. *)
let rank = function Int _ -> 0 | Float _ -> 1 | Str _ -> 2 | Bool _ -> 3

let compare v1 v2 =
  match (v1, v2) with
  | Int a, Int b -> Int.compare a b
  | Float a, Float b -> Float.compare a b
  | Str a, Str b -> String.compare a b
  | Bool a, Bool b -> Bool.compare a b
  | (Int _ | Float _ | Str _ | Bool _), _ ->
      Int.compare (rank v1) (rank v2)

let compare_same_domain v1 v2 =
  match (v1, v2) with
  | Int a, Int b -> Int.compare a b
  | Float a, Float b -> Float.compare a b
  | Str a, Str b -> String.compare a b
  | Bool a, Bool b -> Bool.compare a b
  | (Int _ | Float _ | Str _ | Bool _), _ -> raise (Incomparable (v1, v2))

let equal v1 v2 = compare v1 v2 = 0

(* The domain rank seeds the hash of the payload, so no pair is boxed
   per call.  [Hashtbl.hash] identifies -0.0 with 0.0 and every nan
   with every other, as [compare] does, and mixes its result well
   enough for tables indexed by its low bits (strided integer keys
   included). *)
let hash v =
  match v with
  | Int n -> Hashtbl.seeded_hash 0 n
  | Float f -> Hashtbl.seeded_hash 1 f
  | Str s -> Hashtbl.seeded_hash 2 s
  | Bool b -> Hashtbl.seeded_hash 3 b

(* Floats print with an explicit decimal point or exponent so that the
   concrete syntaxes re-read them into the float domain ("0" would come
   back as an integer), and with enough digits to round-trip exactly. *)
let pp_float ppf f =
  if Float.is_integer f && Float.abs f < 1e16 then
    Format.fprintf ppf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then Format.pp_print_string ppf s
    else Format.fprintf ppf "%.17g" f

let pp ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Float f -> pp_float ppf f
  | Str s ->
      let escaped = String.concat "''" (String.split_on_char '\'' s) in
      Format.fprintf ppf "'%s'" escaped
  | Bool b -> Format.pp_print_bool ppf b

let to_string v = Format.asprintf "%a" pp v

let to_display_string = function
  | Float f -> Printf.sprintf "%.6g" f
  | (Int _ | Str _ | Bool _) as v -> to_string v
let is_numeric = function Int _ | Float _ -> true | Str _ | Bool _ -> false

let as_float = function
  | Int n -> float_of_int n
  | Float f -> f
  | Str _ | Bool _ -> invalid_arg "Value.as_float: non-numeric value"
