(* The standing end-to-end benchmark: one process, one client thread,
   jobs = 1, snapshot isolation passed explicitly.

     perfbench.exe --workload analytics|lookup|oltp --seed N --seconds S
                   --trace 0|1

   Every workload loads the same seeded retail dataset, runs a fixed,
   seeded op sequence (its length is [seconds] times the workload's
   nominal rate; runs are never cut by the clock), checks every result
   outside the timed section and prints, as its last line, one JSON
   object: the end-to-end metrics, and with [--trace 1] the per-layer
   split after them.  A traced run also writes its spans (see
   [write_spans]).  See README.md for the workloads, the metrics and the
   layer -> end-to-end prediction table. *)

open Mxra_relational
open Mxra_core
module W = Mxra_workload
module Engine = Mxra_engine
module Obs = Mxra_obs
module Sql = Mxra_sql
module Xra = Mxra_xra
module Index = Mxra_ext.Index
module Scheduler = Mxra_concurrency.Scheduler
module Store = Mxra_storage.Store
module Vfs = Mxra_storage.Vfs

(* ------------------------------------------------------------ settings *)

let customers = 2_000
let orders = 20_000
let clients = 8
let max_attempts = 64
let setup_reps = 2

(* Ops per second of [--seconds] — the op count of a run is this times
   the seconds, fixed before the run starts. *)
let nominal_rate = function
  | "analytics" -> 2
  | "lookup" -> 4
  | "oltp" -> 9
  | w -> failwith ("unknown workload " ^ w)

(* -------------------------------------------------------- arguments *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "analytics|lookup|oltp");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "scales the fixed op count");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: also per-layer");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1"

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* A traced run's spans go to the build directory, relative to the
   checkout root, so nothing lands among the sources. *)
let write_spans w spans =
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ ".bench_build"; ".bench_build/perfbench" ];
  Spans.write_jsonl
    (Printf.sprintf ".bench_build/perfbench/spans-%s-%d.jsonl" w !seed)
    spans

(* ------------------------------------------------- result checking *)

let failures = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

let rows r = List.sort compare (Relation.to_counted_list r)
let same_rows r expected = rows r = List.sort compare expected

(* --------------------------------------- exec accounting (traced run) *)

let op_kinds =
  [
    ("SeqScan", "seq_scan"); ("Filter", "filter"); ("Project", "project");
    ("HashJoin", "hash_join"); ("HashAggregate", "hash_aggregate");
    ("HashDistinct", "hash_distinct"); ("IndexScan", "index_scan");
    ("IndexNestedLoopJoin", "index_join");
  ]

let op_self_ms = Hashtbl.create 16
let run_ms = ref 0.0
let materialize_ms = ref 0.0
let tuples_moved = ref 0
let cells_moved = ref 0
let rows_out = ref 0

let add_op_self kind ms =
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt op_self_ms kind) in
  Hashtbl.replace op_self_ms kind (prev +. ms)

let rec account (r : Engine.Exec.report) =
  let children =
    List.fold_left (fun acc (c : Engine.Exec.report) -> acc +. c.actual.wall_ms)
      0.0 r.inputs
  in
  add_op_self (Engine.Physical.kind r.node) (r.actual.wall_ms -. children);
  List.iter account r.inputs

let exec db plan =
  if not !Spans.recording then Engine.Exec.run db plan
  else begin
    let a = Engine.Exec.run_instrumented db plan in
    account a.root;
    run_ms := !run_ms +. a.total_ms;
    materialize_ms := !materialize_ms +. (a.total_ms -. a.root.actual.wall_ms);
    let count name =
      Engine.Metrics.count (Engine.Metrics.counter a.totals name)
    in
    tuples_moved := !tuples_moved + count "tuples-moved";
    cells_moved := !cells_moved + count "cells-moved";
    rows_out := !rows_out + count "rows-out";
    a.result
  end

(* ------------------------------------------- the statement lifecycle *)

(* One SQL query the way [bagdb sql] runs it: parse, translate, mint a
   qid and register the ASH slot, attach the catalog, optimize, plan,
   stamp the root estimate, execute, record the statement's stats and
   finish the slot.  Each call into a layer is one span.

   This is a copy of [run_query] in bin/bagdb.ml (its uninstrumented
   branch, ASH on), because that function is not in a library.  The
   copy, not bagdb, is what gets timed: a change to that lifecycle —
   say, the root estimate reusing the planner's statistics — shows up
   here only once this function is brought back in line with it, and
   that has to happen in a benchmark change before the one that claims
   the gain. *)
let sql_query db text =
  let ast = Spans.with_ "sql_parser" (fun () -> Sql.Sql_parser.parse text) in
  let e =
    Spans.with_ "translate" (fun () ->
        match Sql.Translate.translate (Engine.Syscat.env db) ast with
        | Sql.Translate.Query e -> e
        | _ -> failwith ("not a query: " ^ text))
  in
  let qid, stext, slot =
    Spans.with_ "obs" (fun () ->
        let qid = Obs.Qid.mint () in
        let stext = Expr.to_string e in
        (qid, stext, Obs.Ash.register ~lang:"sql" ~text:stext ~qid ()))
  in
  Fun.protect ~finally:(fun () ->
      Spans.with_ "obs" (fun () -> Obs.Ash.finish slot))
  @@ fun () ->
  let db = Spans.with_ "translate" (fun () -> Engine.Syscat.attach_for db e) in
  let e =
    Spans.with_ "optimizer" (fun () ->
        Mxra_optimizer.Optimizer.optimize_db db e)
  in
  let plan =
    Spans.with_ "planner" (fun () -> Engine.Planner.plan ~jobs:1 db e)
  in
  Spans.with_ "estimate" (fun () ->
      if Obs.Ash.live slot then
        try
          Obs.Ash.set_estimate slot
            (Engine.Cost.estimate_cardinality
               ~stats:(Engine.Stats.env_of_database db)
               ~schemas:(Typecheck.env_of_database db)
               e)
        with _ -> ());
  let t0 = Spans.now () in
  let r =
    Obs.Ash.with_slot slot (fun () -> Spans.with_ "exec" (fun () -> exec db plan))
  in
  let wall_ms = (Spans.now () -. t0) *. 1000.0 in
  Spans.with_ "obs" (fun () ->
      Obs.Stmt_stats.record ~lang:"sql" ~qid ~rows:(Relation.cardinal r)
        ~wall_ms stext);
  r

(* ---------------------------------------------------------- set-up *)

type state = {
  db : Database.t;
  store : Store.t;
  vfs : Vfs.t;
}

let workload_indexes =
  [
    ("orders_id", "orders", [ 1 ], Database.Hash);
    ("lineitem_order", "lineitem", [ 1 ], Database.Hash);
    ("orders_day", "orders", [ 3 ], Database.Ordered);
  ]

let time f =
  let t0 = Spans.now () in
  let v = f () in
  (v, Spans.now () -. t0)

type setup_times = { total : float; generate : float; checkpoint : float;
                     index_build : float; warm : float }

(* Load the dataset, make it durable on a memory file system, build the
   workload's indexes and run one warm pass of every statement type. *)
let setup ~indexed ~warm () =
  List.iter (fun (name, _, _, _) -> Index.invalidate name) workload_indexes;
  Gc.full_major ();
  let t0 = Spans.now () in
  let db, generate =
    time (fun () ->
        W.Retail.generate ~rng:(W.Rng.make !seed) ~customers ~orders ())
  in
  let db =
    if not indexed then db
    else
      List.fold_left
        (fun db (name, rel, cols, kind) ->
          Database.create_index ~name ~rel ~cols ~kind db)
        db workload_indexes
  in
  let (store, vfs), checkpoint =
    time (fun () ->
        let vfs = Vfs.memory () in
        let s = Store.open_dir ~vfs "db" in
        Store.absorb_batch s [] db;
        Store.checkpoint s;
        (s, vfs))
  in
  let (), index_build =
    time (fun () ->
        List.iter
          (fun (d : Database.index_def) ->
            ignore (Index.get d (Database.find d.idx_rel db)))
          (Database.index_defs db))
  in
  let st = { db; store; vfs } in
  let (), warm = time (fun () -> warm st) in
  let total = Spans.now () -. t0 in
  (st, { total; generate; checkpoint; index_build; warm })

(* ------------------------------------------------------- workloads *)

type run = {
  latencies : float list;  (** ms, one per completed op *)
  attempted : int;
  failed : int;
  attempts : int;  (** statement or transaction attempts *)
  wall : float;  (** seconds, checking excluded *)
  steps : int;
  conflicts : int;
  commits : int;
  scheduled : int;  (** transactions handed to the scheduler *)
  rounds : int;  (** scheduler batches *)
}

let empty_run =
  { latencies = []; attempted = 0; failed = 0; attempts = 0; wall = 0.0;
    steps = 0; conflicts = 0; commits = 0; scheduled = 0; rounds = 0 }

(* A seeded deck: [block] repeated, each copy shuffled, so every run
   holds the statement types in exactly the stated shares and the
   percentiles sit at fixed positions among them.  [n] is a multiple of
   the block length. *)
let deck rng block n =
  let rec go acc k =
    if k >= n then List.concat (List.rev acc)
    else go (W.Rng.shuffle rng block :: acc) (k + List.length block)
  in
  go [] 0

(* Closed loop over single statements: time each op, then check it. *)
let by_kind = Hashtbl.create 8

let closed_loop ops ~kind ~run_op ~check =
  Hashtbl.reset by_kind;
  let lat = ref [] and failed = ref 0 in
  let start = Spans.now () in
  List.iteri
    (fun i op ->
      let t0 = Spans.now () in
      match Spans.with_op i (fun () -> Spans.with_ "op" (fun () -> run_op op)) with
      | r ->
          let ms = (Spans.now () -. t0) *. 1000.0 in
          let ok = Spans.paused (fun () -> check op r) in
          if ok then begin
            lat := ms :: !lat;
            Hashtbl.add by_kind (kind op) ms
          end
          else incr failed
      | exception e ->
          incr failed;
          fail "op %d raised %s" i (Printexc.to_string e))
    ops;
  let n = List.length ops in
  { empty_run with latencies = List.rev !lat; attempted = n; failed = !failed;
    attempts = n; wall = Spans.now () -. start }

(* analytics: Example 3.2's join-then-aggregate (weight 2), a bag
   projection that keeps duplicates, grouped counts, and δ (weight 1
   each).  The four types have four latency bands, 10-25% apart and
   ordered distinct < order sizes < gold < revenue.  At 2:1:1:1 the
   median falls in the middle of the gold band (40-60% of the ops) and
   p90 three quarters of the way into the revenue band; at 3:1:1:1 the
   median fell on the edge between gold and revenue. *)
let analytics_sql =
  [
    ( "revenue_per_country",
      "SELECT country, SUM(qty) FROM customer, orders, lineitem WHERE \
       customer.id = orders.customer AND orders.id = lineitem.order_id \
       GROUP BY country" );
    ( "gold_products",
      "SELECT product FROM customer, orders, lineitem WHERE customer.id = \
       orders.customer AND orders.id = lineitem.order_id AND segment = 'gold'"
    );
    ( "order_sizes",
      "SELECT order_id, CNT(product), SUM(qty) FROM lineitem GROUP BY order_id"
    );
    ("distinct_products", "SELECT DISTINCT product FROM lineitem");
  ]

let analytics_deck = [ 0; 0; 1; 2; 3 ]

(* The reference every analytics op is checked against, computed
   directly over the base relations with hash tables — independent of
   the translator, optimizer, planner and executor.  (The unoptimized
   plan cannot serve: it holds a 2 000 x 20 000-row cross product.) *)
let analytics_reference db =
  let rel name = Relation.to_counted_list (Database.find name db) in
  let multimap name col =
    let h = Hashtbl.create 1024 in
    List.iter (fun ((t, _) as e) -> Hashtbl.add h (Tuple.attr t col) e) (rel name);
    h
  in
  let customers_by_id = multimap "customer" 1 and orders_by_id = multimap "orders" 1 in
  let lines = rel "lineitem" in
  (* Every (customer, lineitem) pair of the 3-way equi-join, weighted. *)
  let joined =
    List.concat_map
      (fun (l, cl) ->
        List.concat_map
          (fun (o, co) ->
            List.map
              (fun (c, cc) -> (c, l, cl * co * cc))
              (Hashtbl.find_all customers_by_id (Tuple.attr o 2)))
          (Hashtbl.find_all orders_by_id (Tuple.attr l 1)))
      lines
  in
  let int v = match v with Value.Int n -> n | _ -> 0 in
  let group rows =
    let h = Hashtbl.create 1024 in
    List.iter
      (fun (k, (n, q)) ->
        let n0, q0 = Option.value ~default:(0, 0) (Hashtbl.find_opt h k) in
        Hashtbl.replace h k (n0 + n, q0 + q))
      rows;
    h
  in
  let bag keyed =
    let h = Hashtbl.create 64 in
    List.iter
      (fun (t, n) -> Hashtbl.replace h t (n + Option.value ~default:0 (Hashtbl.find_opt h t)))
      keyed;
    Hashtbl.fold (fun t n acc -> (t, n) :: acc) h []
  in
  let revenue =
    Hashtbl.fold
      (fun country (_, q) acc -> (Tuple.of_list [ country; Value.Int q ], 1) :: acc)
      (group
         (List.map (fun (c, l, n) -> (Tuple.attr c 3, (n, n * int (Tuple.attr l 3)))) joined))
      []
  in
  let gold =
    bag
      (List.filter_map
         (fun (c, l, n) ->
           if Tuple.attr c 2 = Value.Str "gold" then
             Some (Tuple.of_list [ Tuple.attr l 2 ], n)
           else None)
         joined)
  in
  let sizes =
    Hashtbl.fold
      (fun o (n, q) acc -> (Tuple.of_list [ o; Value.Int n; Value.Int q ], 1) :: acc)
      (group (List.map (fun (l, n) -> (Tuple.attr l 1, (n, n * int (Tuple.attr l 3)))) lines))
      []
  in
  let distinct =
    List.map (fun (t, _) -> (t, 1)) (bag (List.map (fun (l, n) -> (Tuple.of_list [ Tuple.attr l 2 ], n)) lines))
  in
  Array.map (List.sort compare) [| revenue; gold; sizes; distinct |]

let translate db text =
  Sql.Translate.query_of_string (Typecheck.env_of_database db) text

let analytics ~n =
  let warm st = List.iter (fun (_, q) -> ignore (sql_query st.db q)) analytics_sql in
  let prepare st =
    (* Eval, the paper's semantics written out, on a 200-order copy.
       It evaluates the optimized expression: Eval of the translated
       one materialises the 3-way cross product (5 million rows). *)
    let small =
      W.Retail.generate ~rng:(W.Rng.make !seed) ~customers:20 ~orders:200 ()
    in
    List.iter
      (fun (name, q) ->
        let want =
          Eval.eval small (Mxra_optimizer.Optimizer.optimize_db small (translate small q))
        in
        if not (Relation.equal (sql_query small q) want) then
          fail "%s differs from Eval" name)
      analytics_sql;
    let reference = analytics_reference st.db in
    let rng = W.Rng.make (!seed + 1) in
    let ops = deck rng analytics_deck n in
    fun () ->
      closed_loop ops ~kind:(fun k -> fst (List.nth analytics_sql k))
        ~run_op:(fun k -> sql_query st.db (snd (List.nth analytics_sql k)))
        ~check:(fun k r ->
          let ok = rows r = reference.(k) in
          if not ok then fail "%s: wrong result" (fst (List.nth analytics_sql k));
          ok)
  in
  (warm, prepare)

(* Index reads.  Lookup checks compare against a direct filter over
   the base relation. *)
let point_sql k = Printf.sprintf "SELECT * FROM orders WHERE id = %d" k

let join_sql k =
  Printf.sprintf
    "SELECT orders.id, customer, day, product, qty, price FROM orders, \
     lineitem WHERE orders.id = %d AND orders.id = lineitem.order_id"
    k

let range_sql d =
  Printf.sprintf "SELECT * FROM orders WHERE day >= %d AND day < %d" d (d + 3)

let int_attr t i = match Tuple.attr t i with Value.Int n -> n | _ -> -1

let order_lines db =
  let by_order = Hashtbl.create orders in
  List.iter
    (fun (t, c) ->
      let k = int_attr t 1 in
      Hashtbl.replace by_order k
        ((t, c) :: Option.value ~default:[] (Hashtbl.find_opt by_order k)))
    (Relation.to_counted_list (Database.find "lineitem" db));
  by_order

let joined o lines =
  List.map
    (fun (l, c) ->
      (Tuple.concat o (Tuple.project [ 2; 3; 4 ] l), c))
    lines

type lookup_op = Point of int | Join of int | Range of int

let lookup_deck =
  [ `Point; `Point; `Point; `Point; `Point; `Point; `Join; `Join; `Range; `Range ]

let lookup ~n =
  let warm st =
    List.iter
      (fun q -> ignore (sql_query st.db q))
      [ point_sql 1; join_sql 1; range_sql 1 ]
  in
  let prepare st =
    let orders_list = Relation.to_counted_list (Database.find "orders" st.db) in
    let lines = order_lines st.db in
    let rng = W.Rng.make (!seed + 1) in
    let zipf = W.Zipf.make ~n:orders ~s:1.0 in
    let key () = W.Zipf.sample zipf rng - 1 in
    let ops =
      List.map
        (function
          | `Point -> Point (key ())
          | `Join -> Join (key ())
          | `Range -> Range (W.Rng.int rng 363))
        (deck rng lookup_deck n)
    in
    let where p = List.filter (fun (t, _) -> p t) orders_list in
    let expected = function
      | Point k -> where (fun t -> int_attr t 1 = k)
      | Range d -> where (fun t -> let day = int_attr t 3 in day >= d && day < d + 3)
      | Join k ->
          List.concat_map
            (fun (o, _) -> joined o (Option.value ~default:[] (Hashtbl.find_opt lines k)))
            (where (fun t -> int_attr t 1 = k))
    in
    fun () ->
      closed_loop ops
        ~kind:(function Point _ -> "point" | Join _ -> "join" | Range _ -> "range")
        ~run_op:(fun op ->
          sql_query st.db
            (match op with
            | Point k -> point_sql k
            | Join k -> join_sql k
            | Range d -> range_sql d))
        ~check:(fun op r ->
          let ok = same_rows r (expected op) in
          if not ok then fail "lookup op wrong result";
          ok)
  in
  (warm, prepare)

(* Order entry: [clients] closed-loop clients, each with one new-order
   transaction in flight, interleaved by the scheduler one batch per
   round; the committed ones become durable in one group-committed
   append (one fsync per round) and each committed client reads its
   order back before taking its next one. *)
type order = {
  o_id : int;
  o_text : string;  (** the transaction, as XRA text *)
  o_rows : (Tuple.t * int) list;  (** what the read-back must return *)
}

let product_names =
  [| "anvil"; "bolt"; "cog"; "dynamo"; "flange"; "gasket"; "lever";
     "pulley"; "rivet"; "spring"; "washer"; "widget" |]

let make_order rng id =
  let cust = W.Rng.int rng customers and day = W.Rng.int rng 365 in
  let items =
    List.init (1 + W.Rng.int rng 4) (fun _ ->
        let p = product_names.(W.Rng.int rng (Array.length product_names)) in
        let price = Printf.sprintf "%d.%02d" (1 + W.Rng.int rng 49) (W.Rng.int rng 100) in
        (p, 1 + W.Rng.int rng 9, price))
  in
  let text =
    Printf.sprintf
      "begin insert(orders, rel[(id:int, customer:int, day:int)]{(%d, %d, %d)}); \
       insert(lineitem, rel[(order_id:int, product:str, qty:int, \
       price:float)]{%s}) end;"
      id cust day
      (String.concat ", "
         (List.map (fun (p, q, pr) -> Printf.sprintf "(%d, '%s', %d, %s)" id p q pr)
            items))
  in
  let o = Tuple.of_list [ Value.Int id; Value.Int cust; Value.Int day ] in
  { o_id = id; o_text = text; o_rows = [ (o, 1) ] }

let parse_txn (o : order) =
  match Xra.Parser.script_of_string o.o_text with
  | [ Xra.Parser.Cmd_transaction p ] ->
      Transaction.make ~name:(Printf.sprintf "order-%d" o.o_id) p
  | _ -> failwith "order text is not one transaction"

type client = { order : order; tries : int; first : float }

let oltp ~n =
  let warm st =
    ignore (sql_query st.db (point_sql 1));
    ignore (parse_txn (make_order (W.Rng.make 0) orders))
  in
  let prepare st =
    let rng = W.Rng.make (!seed + 1) in
    let queue = ref (List.init n (fun i -> make_order rng (orders + i))) in
    fun () ->
      let db = ref st.db in
      let slots = Array.make clients None in
      let lat = ref [] and failed = ref 0 and attempts = ref 0 in
      let steps = ref 0 and conflicts = ref 0 and commits = ref 0 in
      let round = ref 0 in
      let start = Spans.now () in
      let refill now =
        Array.iteri
          (fun i s ->
            match (s, !queue) with
            | None, o :: rest ->
                queue := rest;
                slots.(i) <- Some { order = o; tries = 0; first = now }
            | _ -> ())
          slots
      in
      refill start;
      while Array.exists Option.is_some slots do
        (* (slot, client) for every occupied slot, in slot order. *)
        let active =
          Array.to_list slots
          |> List.mapi (fun i s -> Option.map (fun c -> (i, c)) s)
          |> List.filter_map Fun.id |> Array.of_list
        in
        let before = !db in
        (* The interleaving is part of the workload, like its client
           count: it is seeded by the round number, not by --seed.
           Conflicts are decided per relation, independent of row
           values, so attempts and conflicts repeat exactly across
           data seeds. *)
        let r_seed = 1_000_003 + !round in
        let txns, result, readbacks =
          Spans.with_ "round" (fun () ->
              let txns =
                Array.map
                  (fun (_, c) ->
                    Spans.with_op c.order.o_id (fun () ->
                        Spans.with_ "xra_parser" (fun () -> parse_txn c.order)))
                  active
                |> Array.to_list
              in
              let r =
                Spans.with_ "scheduler" (fun () ->
                    Scheduler.run ~isolation:Scheduler.Si ~seed:r_seed before txns)
              in
              let tarr = Array.of_list txns in
              let qarr = Array.of_list r.query_ids in
              Spans.with_ "store" (fun () ->
                  Store.absorb_batch st.store
                    ~qids:(List.map (Array.get qarr) r.commit_order)
                    (List.map (Array.get tarr) r.commit_order)
                    r.final);
              let readbacks =
                List.map
                  (fun i ->
                    let _, c = active.(i) in
                    let rel =
                      Spans.with_op c.order.o_id (fun () ->
                          sql_query r.final (point_sql c.order.o_id))
                    in
                    (c, rel, Spans.now ()))
                  r.commit_order
              in
              (txns, r, readbacks))
        in
        Spans.paused (fun () ->
            if not (Scheduler.equivalent_serial before txns result) then
              fail "round %d is not equivalent to its serial order" !round;
            List.iter
              (fun (c, rel, done_at) ->
                if same_rows rel c.order.o_rows then
                  lat := ((done_at -. c.first) *. 1000.0) :: !lat
                else begin
                  incr failed;
                  fail "order %d read back wrong" c.order.o_id
                end)
              readbacks);
        attempts := !attempts + Array.length active;
        steps := !steps + result.stats.steps;
        conflicts := !conflicts + result.stats.conflicts;
        commits := !commits + List.length result.commit_order;
        db := result.final;
        (* Committed clients take their next order; the others retry in
           the next round until [max_attempts]. *)
        let committed = List.map (fun i -> fst active.(i)) result.commit_order in
        Array.iter
          (fun (slot, c) ->
            if List.mem slot committed then slots.(slot) <- None
            else if c.tries + 1 >= max_attempts then begin
              incr failed;
              fail "order %d exhausted %d attempts" c.order.o_id max_attempts;
              slots.(slot) <- None
            end
            else slots.(slot) <- Some { c with tries = c.tries + 1 })
          active;
        incr round;
        refill (Spans.now ())
      done;
      let wall = Spans.now () -. start in
      Spans.paused (fun () ->
          let recovered = Store.recover_dir ~vfs:st.vfs "db" in
          if not (Database.equal_states recovered !db) then
            fail "recovered store differs from the in-memory state");
      { latencies = List.rev !lat; attempted = n; failed = !failed;
        attempts = !attempts; wall; steps = !steps; conflicts = !conflicts;
        commits = !commits; scheduled = !attempts; rounds = !round }
  in
  (warm, prepare)

(* --------------------------------------------------------- metrics *)

(* Linear interpolation between order statistics. *)
let percentile xs p =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = p *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 0.5

(* Process-lifetime counters read before and after a timed phase. *)
type counters = {
  index : (string * float) list;
  fsyncs : float;
  wal_bytes : float;
  wal_ms : float;
  fsync_ms : float;
  gc : Gc.stat;
}

let read_counters st =
  let store = Store.telemetry st.store () in
  {
    index = Index.telemetry ();
    fsyncs = List.assoc "store.fsyncs" store;
    wal_bytes = List.assoc "store.wal_bytes" store;
    wal_ms = Obs.Wait.waited_ms Obs.Wait.Io_wal;
    fsync_ms = Obs.Wait.waited_ms Obs.Wait.Io_fsync;
    gc = Gc.quick_stat ();
  }

let ratio a b = if b = 0.0 then 0.0 else a /. b

let run_phase ~traced prepare st =
  let phase = Spans.paused (fun () -> prepare st) in
  Gc.full_major ();
  Spans.reset ();
  Hashtbl.reset op_self_ms;
  run_ms := 0.0;
  materialize_ms := 0.0;
  tuples_moved := 0;
  cells_moved := 0;
  rows_out := 0;
  let c0 = read_counters st in
  Spans.recording := traced;
  let run = Fun.protect ~finally:(fun () -> Spans.recording := false) phase in
  (run, c0, read_counters st)

let () =
  let w = !workload in
  if not (List.mem w [ "analytics"; "lookup"; "oltp" ]) then begin
    prerr_endline "perfbench: --workload must be analytics, lookup or oltp";
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  (* Configuration is pinned here, never read from the environment. *)
  Obs.Ash.set_enabled true;
  Obs.Stmt_stats.set_enabled true;
  Engine.Exec.set_chunk_size Engine.Exec.default_chunk_size;
  let block =
    match w with
    | "analytics" -> List.length analytics_deck
    | "lookup" -> List.length lookup_deck
    | _ -> 1
  in
  let n = (nominal_rate w * !seconds + block - 1) / block * block in
  let warm, prepare =
    match w with
    | "analytics" -> analytics ~n
    | "lookup" -> lookup ~n
    | _ -> oltp ~n
  in
  say "perfbench: workload %s, seed %d, %d ops, trace %d" w !seed n !trace;
  let indexed = w <> "analytics" in
  (* Set-up runs [setup_reps] times before the timed phase and as many
     times after it, so its median samples the host at both ends of the
     run.  Only one dataset is alive at a time. *)
  let setups = ref [] in
  let set_up () =
    let st, t = setup ~indexed ~warm () in
    setups := t :: !setups;
    st
  in
  let set_up_reps () =
    for _ = 2 to setup_reps do
      ignore (set_up ())
    done;
    set_up ()
  in
  let st = set_up_reps () in
  let run, _, _ = run_phase ~traced:false prepare st in
  let completed = List.length run.latencies in
  let ops = float_of_int (max 1 completed) in
  (* The database state stays reachable while the heap is measured:
     it is what a session holds between statements. *)
  Gc.full_major ();
  let heap_live_mb =
    float_of_int ((Gc.stat ()).live_words * (Sys.word_size / 8)) /. 1e6
  in
  ignore (Sys.opaque_identity st);
  (* The last set-up feeds the traced phase. *)
  let st_traced = set_up_reps () in
  let setups = List.rev !setups in
  let times f = median (List.map f setups) in
  let setup_s = times (fun t -> t.total) in
  say "setup: median %.3f s of [%s] (generate %.3f, checkpoint %.3f, index %.3f, warm %.3f)"
    setup_s
    (String.concat "; " (List.map (fun t -> Printf.sprintf "%.3f" t.total) setups))
    (times (fun t -> t.generate)) (times (fun t -> t.checkpoint))
    (times (fun t -> t.index_build)) (times (fun t -> t.warm));
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("ops_per_s", float_of_int completed /. run.wall, "1/s");
      ("p50_ms", percentile run.latencies 0.5, "ms");
      ("p90_ms", percentile run.latencies 0.9, "ms");
      ("heap_live_mb", heap_live_mb, "MB");
      ("attempts_per_op", float_of_int run.attempts /. ops, "count");
      ("ok_ratio", float_of_int completed /. float_of_int run.attempted, "ratio");
    ]
  in
  say "untraced: %d ops in %.3f s, %d latency samples, fail_ratio %g"
    completed run.wall completed
    (float_of_int run.failed /. float_of_int run.attempted);
  List.iter
    (fun k ->
      let xs = Hashtbl.find_all by_kind k in
      say "  %-20s %4d ops  p50 %9.3f ms  p90 %9.3f ms" k (List.length xs)
        (percentile xs 0.5) (percentile xs 0.9))
    (List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_kind []));
  let per_layer =
    if !trace = 0 then []
    else begin
      let tr, c0, c1 = run_phase ~traced:true prepare st_traced in
      let tops = float_of_int (max 1 (List.length tr.latencies)) in
      let spans = Spans.all () in
      write_spans w spans;
      let self = Spans.self_times spans in
      let self_ms name =
        1000.0 *. Option.value ~default:0.0 (List.assoc_opt name self)
      in
      let layers =
        [ "sql_parser"; "translate"; "xra_parser"; "optimizer"; "planner";
          "estimate"; "exec"; "instrument"; "scheduler"; "store"; "obs" ]
      in
      (* The exec span covers all of [run_instrumented]: the plan run
         ([total_ms]) is the exec layer, the report it builds afterwards
         (statistics for the estimated rows) is tracing cost. *)
      let self_ms = function
        | "exec" -> !run_ms
        | "instrument" -> self_ms "exec" -. !run_ms
        | l -> self_ms l
      in
      let layer_ms = List.fold_left (fun acc l -> acc +. self_ms l) 0.0 layers in
      let idx name c = List.assoc ("index." ^ name) c.index in
      let wall_ms = tr.wall *. 1000.0 in
      let other_ms = wall_ms -. layer_ms in
      let coverage = layer_ms /. wall_ms in
      if Float.abs (1.0 -. coverage) > 0.05 then
        fail "layer self times cover %.1f%% of the op wall time" (100.0 *. coverage);
      say "traced: %d ops in %.3f s; layers cover %.2f%% of wall; tracing overhead %+.2f%%"
        (List.length tr.latencies) tr.wall (100.0 *. coverage)
        (100.0 *. ((tr.wall /. run.wall) -. 1.0));
      if tr.rounds > 0 then
        say "  %d rounds: %.2f index builds and %.2f commits per round" tr.rounds
          ((idx "builds" c1 -. idx "builds" c0) /. float_of_int tr.rounds)
          (float_of_int tr.commits /. float_of_int tr.rounds);
      (* Shares of the traced wall, and of the wall without the tracing
         cost — the split the untraced run pays. *)
      let untraced_ms = wall_ms -. self_ms "instrument" in
      say "  %-11s %9s  %7s  %s" "layer" "ms/op" "traced" "without tracing cost";
      List.iter
        (fun l ->
          say "  %-11s %9.3f  %6.1f%%  %6.1f%%" l (self_ms l /. tops)
            (100.0 *. self_ms l /. wall_ms)
            (if l = "instrument" then 0.0 else 100.0 *. self_ms l /. untraced_ms))
        layers;
      let didx name = idx name c1 -. idx name c0 in
      let gc_delta f = (f c1.gc -. f c0.gc) /. tops in
      let per x = x /. tops in
      let op_ms kind =
        Option.value ~default:0.0 (Hashtbl.find_opt op_self_ms kind) /. tops
      in
      List.map (fun l -> (l ^ ".ms_per_op", self_ms l /. tops, "ms/op")) layers
      @ [
          ("other.ms_per_op", other_ms /. tops, "ms/op");
          ("exec.tuples_moved_per_op", per (float_of_int !tuples_moved), "count");
          ("exec.cells_moved_per_op", per (float_of_int !cells_moved), "count");
          ("exec.rows_out_per_op", per (float_of_int !rows_out), "count");
        ]
      @ List.map
          (fun (kind, name) -> ("exec." ^ name ^ ".self_ms_per_op", op_ms kind, "ms/op"))
          op_kinds
      @ [
          ("exec.materialize.ms_per_op", per !materialize_ms, "ms/op");
          ("index.builds_per_op", per (didx "builds"), "count");
          ( "index.cache_hit_ratio",
            ratio (didx "cache_hits") (didx "cache_hits" +. didx "builds"),
            "ratio" );
          ("index.maintained_per_op", per (didx "maintained"), "count");
          ("index.probes_per_op", per (didx "probes"), "count");
          ("scheduler.steps_per_op", per (float_of_int tr.steps), "count");
          ("scheduler.conflicts_per_op", per (float_of_int tr.conflicts), "count");
          ( "scheduler.commit_ratio",
            ratio (float_of_int tr.commits) (float_of_int tr.scheduled),
            "ratio" );
          ("store.fsyncs_per_op", per (c1.fsyncs -. c0.fsyncs), "count");
          ("store.wal_bytes_per_op", per (c1.wal_bytes -. c0.wal_bytes), "bytes");
          ("wait.io_wal_ms_per_op", per (c1.wal_ms -. c0.wal_ms), "ms/op");
          ("wait.io_fsync_ms_per_op", per (c1.fsync_ms -. c0.fsync_ms), "ms/op");
          ("gc.minor_mwords_per_op", gc_delta (fun g -> g.Gc.minor_words) /. 1e6, "Mwords");
          ( "gc.promoted_mwords_per_op",
            gc_delta (fun g -> g.Gc.promoted_words) /. 1e6,
            "Mwords" );
          ( "gc.major_collections_per_op",
            gc_delta (fun g -> float_of_int g.Gc.major_collections),
            "count" );
          ("setup.generate_s", times (fun t -> t.generate), "s");
          ("setup.checkpoint_s", times (fun t -> t.checkpoint), "s");
          ("setup.index_build_s", times (fun t -> t.index_build), "s");
          ("setup.warm_s", times (fun t -> t.warm), "s");
          ("trace.overhead_ratio", tr.wall /. run.wall, "ratio");
          ("trace.coverage_ratio", coverage, "ratio");
        ]
    end
  in
  let metrics = e2e @ per_layer in
  List.iter (fun (name, v, unit) -> say "%-34s %.6g %s" name v unit) metrics;
  List.iter (fun m -> say "FAILED CHECK: %s" m) (List.rev !failures);
  let correct = !failures = [] && run.failed = 0 in
  let json_metrics =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct run.attempted run.failed json_metrics;
  exit (if correct then 0 else 1)
