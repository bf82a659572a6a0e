open Mxra_relational

type column = {
  distinct : int;
  min_value : Value.t option;
  max_value : Value.t option;
  cumulative : (float * int) array;
}

type t = {
  cardinality : int;
  support : int;
  columns : column array;
}

(* Def. 2.1: a relation is a function dom(R) -> N, so a column's
   statistics are a count per value.  One pass over the bag feeds each
   column's tally: an open-addressing hash table (linear probing from
   [Value.hash]) whose cells point into dense slot arrays holding the
   value as first seen and, on numeric columns only, its tuple count
   and, on float columns only, the float last seen.  Entries are never
   replaced.  The table starts small and doubles, staying at most half
   full: sized from the support instead, it measured slower on the
   retail line items, whose 130k distinct tuples hold 9 to 20000
   distinct values per column.  A column keeps no slot array it does
   not read, so a probe touches as little memory as its domain needs.

   First- and last-seen floats differ only in the bits of +-0 and nan:
   the extremes keep a class's first-seen member and the histogram its
   last-seen one, as the Set/Map reference in the tests does. *)
type tally = {
  mutable cells : int array;  (* slot + 1; 0 when free *)
  mutable first : Value.t array;
  mutable counts : int array;  (* [||] unless numeric *)
  mutable last : float array;  (* [||] unless float *)
  mutable size : int;
}

let tally domain =
  let slots keep make = if keep then make 8 else [||] in
  {
    cells = Array.make 16 0;
    first = Array.make 8 (Value.Int 0);
    counts = slots (Domain.is_numeric domain) (fun n -> Array.make n 0);
    last = slots (domain = Domain.DFloat) (fun n -> Array.make n 0.0);
    size = 0;
  }

let next cells i = (i + 1) land (Array.length cells - 1)
let home cells v = Value.hash v land (Array.length cells - 1)

(* [v]'s slot, or [-c - 1] for the free cell [c] where it belongs. *)
let rec probe t v i =
  let s = t.cells.(i) - 1 in
  if s < 0 then -i - 1
  else if Value.equal t.first.(s) v then s
  else probe t v (next t.cells i)

let rec free cells i = if cells.(i) = 0 then i else free cells (next cells i)

let grow t =
  let cells = Array.make (2 * Array.length t.cells) 0 in
  for s = 0 to t.size - 1 do
    cells.(free cells (home cells t.first.(s))) <- s + 1
  done;
  t.cells <- cells;
  (* Doubled by appending to itself: slots from [size] on are unread. *)
  t.first <- Array.append t.first t.first;
  t.counts <- Array.append t.counts t.counts;
  t.last <- Array.append t.last t.last

let count_value t v count =
  let found = probe t v (home t.cells v) in
  let s =
    if found >= 0 then found
    else begin
      let s = t.size in
      t.cells.(-found - 1) <- s + 1;
      t.first.(s) <- v;
      t.size <- s + 1;
      if 2 * t.size >= Array.length t.cells then grow t;
      s
    end
  in
  if Array.length t.counts > 0 then begin
    (* A new slot's count was left over by [grow] or never set. *)
    t.counts.(s) <- (if found >= 0 then t.counts.(s) + count else count);
    match v with Value.Float f -> t.last.(s) <- f | _ -> ()
  end

(* A non-numeric column needs only its extremes: one scan.  A numeric
   one sorts its distinct values once, which gives the extremes and the
   exact cumulative histogram.  [stable_sort] is a merge sort, faster
   here than [sort]'s heap sort; no two values tie. *)
let column_of_tally ~numeric t =
  if t.size = 0 then
    { distinct = 0; min_value = None; max_value = None; cumulative = [||] }
  else if not numeric then begin
    let lo = ref t.first.(0) and hi = ref t.first.(0) in
    for s = 1 to t.size - 1 do
      let v = t.first.(s) in
      if Value.compare v !lo < 0 then lo := v;
      if Value.compare v !hi > 0 then hi := v
    done;
    { distinct = t.size; min_value = Some !lo; max_value = Some !hi; cumulative = [||] }
  end
  else begin
    let order = Array.init t.size Fun.id in
    Array.stable_sort (fun a b -> Value.compare t.first.(a) t.first.(b)) order;
    let running = ref 0 in
    let as_float s =
      match t.first.(s) with Value.Float _ -> t.last.(s) | v -> Value.as_float v
    in
    {
      distinct = t.size;
      min_value = Some t.first.(order.(0));
      max_value = Some t.first.(order.(t.size - 1));
      cumulative =
        Array.map
          (fun s ->
            running := !running + t.counts.(s);
            (as_float s, !running))
          order;
    }
  end

let of_relation r =
  let domains = Array.of_list (Schema.domains (Relation.schema r)) in
  let tallies = Array.map tally domains in
  let cardinality = ref 0 and support = ref 0 in
  Relation.Bag.iter
    (fun tuple count ->
      cardinality := !cardinality + count;
      incr support;
      Array.iteri (fun i t -> count_value t (Tuple.attr tuple (i + 1)) count) tallies)
    (Relation.bag r);
  {
    cardinality = !cardinality;
    support = !support;
    columns =
      Array.mapi
        (fun i t -> column_of_tally ~numeric:(Domain.is_numeric domains.(i)) t)
        tallies;
  }

let column t i =
  if i < 1 || i > Array.length t.columns then
    invalid_arg (Printf.sprintf "Stats.column: index %%%d out of range" i)
  else t.columns.(i - 1)

(* Distinct composite keys over a column set: the per-column distinct
   counts multiplied (independence), capped by the support — a key set
   can never distinguish more than the distinct tuples do. *)
let distinct_keys t cols =
  match cols with
  | [] -> invalid_arg "Stats.distinct_keys: empty column list"
  | _ ->
      let prod =
        List.fold_left
          (fun acc i -> acc *. float_of_int (column t i).distinct)
          1.0 cols
      in
      int_of_float (Float.max 1.0 (Float.min (float_of_int t.support) prod))

let dup_factor t =
  if t.support = 0 then 1.0
  else float_of_int t.cardinality /. float_of_int t.support

(* Cumulative count of tuples with value strictly below [x]: binary
   search for the greatest entry < x. *)
let cum_below cumulative x =
  let n = Array.length cumulative in
  let rec search lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      let v, c = cumulative.(mid) in
      if v < x then search (mid + 1) hi c else search lo (mid - 1) best
  in
  search 0 (n - 1) 0

let fraction_below t i x =
  match (column t i).cumulative with
  | [||] -> None
  | cumulative when t.cardinality = 0 -> ignore cumulative; None
  | cumulative ->
      Some (float_of_int (cum_below cumulative x) /. float_of_int t.cardinality)

let fraction_eq t i x =
  match (column t i).cumulative with
  | [||] -> None
  | cumulative when t.cardinality = 0 -> ignore cumulative; None
  | cumulative ->
      let below = cum_below cumulative x in
      let upto = cum_below cumulative (Float.succ x) in
      Some (float_of_int (upto - below) /. float_of_int t.cardinality)

type env = string -> t option

let env_of_database db =
  (* Statistics are computed per relation on first access and memoised:
     an env handed to the optimizer or to EXPLAIN only pays for the
     relations the expression actually scans. *)
  let table =
    List.map
      (fun name -> (name, lazy (of_relation (Database.find name db))))
      (Database.relation_names db)
  in
  fun name -> Option.map Lazy.force (List.assoc_opt name table)

let pp ppf t =
  Format.fprintf ppf "{card=%d; support=%d; ndv=[%a]}" t.cardinality t.support
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       (fun ppf c -> Format.pp_print_int ppf c.distinct))
    (Array.to_seq t.columns)
