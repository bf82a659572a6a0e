(* Benchmark harness for every experiment in DESIGN.md §5.

   The paper (ICDE'94, formal) has no numbered tables or figures; per
   DESIGN.md each theorem / worked example / quantified claim is an
   experiment.  For each experiment this harness prints a paper-style
   table of measured numbers; EXPERIMENTS.md records the expected vs
   observed shape.  A Bechamel micro-benchmark suite (one grouped
   Test.make per experiment) runs at the end.

     dune exec bench/main.exe            -- full run
     dune exec bench/main.exe quick      -- smaller sizes, short quota
     dune exec bench/main.exe quick e15  -- one experiment by name
     dune exec bench/main.exe -- e15 --jobs 4   -- cap the E15 sweep *)

open Mxra_relational
open Mxra_core
open Mxra_engine
module W = Mxra_workload
module Opt = Mxra_optimizer
module Ext = Mxra_ext

let argv = List.tl (Array.to_list Sys.argv)
let quick = List.mem "quick" argv

(* [--jobs N] caps the E15 domain sweep to the machine at hand. *)
let jobs_cap =
  let rec find = function
    | "--jobs" :: n :: _ -> int_of_string_opt n
    | _ :: rest -> find rest
    | [] -> None
  in
  find argv

(* Remaining positional words select experiments by name ("e15",
   "bechamel"); none selects everything. *)
let selected =
  let rec strip = function
    | [] -> []
    | "--jobs" :: _ :: rest -> strip rest
    | ("quick" | "--") :: rest -> strip rest
    | a :: rest -> a :: strip rest
  in
  strip argv

let wants name = selected = [] || List.mem name selected

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, (Unix.gettimeofday () -. t0) *. 1000.0)

let best_of_3 f =
  let _, t1 = time_ms f in
  let _, t2 = time_ms f in
  let _, t3 = time_ms f in
  Float.min t1 (Float.min t2 t3)

(* A plan-wide total of one execution: [tuples-moved] or [cells-moved]. *)
let moved total db plan =
  Metrics.count (Metrics.counter (Exec.run_instrumented db plan).Exec.totals total)

(* Compare two thunks on a noisy host: run them interleaved A,B,A,B,…
   and take the {e median of the per-iteration ratios} ta/tb, so each
   ratio divides two runs adjacent in time and slow phases (frequency
   scaling, container neighbours) cancel instead of landing on one
   side.  Returns (min_a, min_b, median a/b-ratio); E15's speedup
   assertions use the ratio — on a ±15%-noise host a min/min quotient
   still swings ±10%, the paired median stays within a few percent. *)
let interleaved_compare n fa fb =
  let ma = ref infinity and mb = ref infinity in
  let ratios = Array.make n 1.0 in
  let timed f =
    (* Start every run from the same heap state; otherwise the major
       GC debt left by one run lands in the other's wall time. *)
    Gc.full_major ();
    snd (time_ms f)
  in
  for i = 0 to n - 1 do
    let ta = timed fa in
    let tb = timed fb in
    ma := Float.min !ma ta;
    mb := Float.min !mb tb;
    ratios.(i) <- ta /. tb
  done;
  Array.sort compare ratios;
  (!ma, !mb, ratios.(n / 2))

let header title = Format.printf "@.=== %s ===@." title
let row fmt = Format.printf fmt

(* Wrap every operator of an expression in δ: "set semantics", where
   each operation pays for duplicate removal (the Section 1 cost
   claim). *)
let rec setify = function
  | (Expr.Rel _ | Expr.Const _) as e -> Expr.Unique e
  | e -> Expr.Unique (Expr.map_children setify e)

(* ---------------------------------------------------------------- E1 *)

(* §1: "the high costs of duplicate removal in database operations is
   often prohibitive".  Same logical pipeline under bag semantics vs
   δ-after-every-operator set semantics. *)
let e1_dup_removal () =
  header "E1  duplicate-removal cost (bag vs set pipelines)";
  row "  %8s %4s | %10s %10s %8s | %12s %12s@." "n" "dup" "bag ms" "set ms"
    "slowdn" "bag out" "set out";
  let sizes = if quick then [ 1_000; 4_000 ] else [ 1_000; 4_000; 16_000 ] in
  List.iter
    (fun n ->
      List.iter
        (fun dup ->
          let rng = W.Rng.make (n + dup) in
          let schema = Schema.of_list [ ("k", Domain.DInt); ("v", Domain.DInt) ] in
          let r = W.Synth.relation ~rng ~schema ~size:n ~dup_factor:dup () in
          let s = W.Synth.relation ~rng ~schema ~size:(n / 2) ~dup_factor:dup () in
          let db = Database.of_relations [ ("r", r); ("s", s) ] in
          let pipeline =
            Expr.project_attrs [ 2 ]
              (Expr.select
                 (Pred.lt (Scalar.attr 2) (Scalar.attr 3))
                 (Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3))
                    (Expr.rel "r") (Expr.rel "s")))
          in
          let bag_out = ref 0 and set_out = ref 0 in
          let bag_ms =
            best_of_3 (fun () ->
                bag_out := Relation.cardinal (Exec.run_expr db pipeline))
          in
          let set_ms =
            best_of_3 (fun () ->
                set_out := Relation.cardinal (Exec.run_expr db (setify pipeline)))
          in
          row "  %8d %4d | %10.2f %10.2f %7.1fx | %12d %12d@." n dup bag_ms
            set_ms (set_ms /. bag_ms) !bag_out !set_out)
        [ 1; 4; 16 ])
    sizes

(* ---------------------------------------------------------------- E2 *)

(* Theorem 3.1: ∩ and ⋈ are derived operators.  The derived forms are
   semantically equal (checked) and the native implementations are the
   fast path. *)
let e2_derived_operators () =
  header "E2  Theorem 3.1: derived vs native operators";
  row "  %8s | %12s %14s | %10s %14s@." "n" "native \xe2\x88\xa9 ms"
    "E1-(E1-E2) ms" "hash ms" "sel(E1xE2) ms";
  let sizes = if quick then [ 1_000 ] else [ 1_000; 2_000; 4_000 ] in
  List.iter
    (fun n ->
      let rng = W.Rng.make n in
      let r = W.Synth.two_column_int ~rng ~size:n ~distinct:(n / 4) in
      let s = W.Synth.two_column_int ~rng ~size:n ~distinct:(n / 4) in
      let db = Database.of_relations [ ("r", r); ("s", s) ] in
      let inter = Expr.intersect (Expr.rel "r") (Expr.rel "s") in
      let derived =
        Expr.diff (Expr.rel "r") (Expr.diff (Expr.rel "r") (Expr.rel "s"))
      in
      assert (Relation.equal (Eval.eval db inter) (Eval.eval db derived));
      let inter_ms = best_of_3 (fun () -> Exec.run_expr db inter) in
      let derived_ms = best_of_3 (fun () -> Exec.run_expr db derived) in
      (* join: hash plan vs the literal σ∘× (full product); the planner
         would fuse σ∘×, so build the product plan by hand. *)
      let jn =
        Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "r")
          (Expr.rel "s")
      in
      let join_ms = best_of_3 (fun () -> Exec.run_expr db jn) in
      let product_plan =
        Physical.Filter
          ( Pred.eq (Scalar.attr 1) (Scalar.attr 3),
            Physical.Cross_product (Physical.Seq_scan "r", Physical.Seq_scan "s") )
      in
      assert (Relation.equal (Exec.run db product_plan) (Eval.eval db jn));
      let product_ms = best_of_3 (fun () -> Exec.run db product_plan) in
      row "  %8d | %12.2f %14.2f | %10.2f %14.2f@." n inter_ms derived_ms
        join_ms product_ms)
    sizes

(* ---------------------------------------------------------------- E3 *)

(* Theorem 3.2: σ and π distribute over ⊎ — the rewrite is free (same
   work), which is exactly why the optimizer may always apply it; δ does
   NOT distribute, and the correct form of the law costs the inner δs. *)
let e3_distribution () =
  header "E3  Theorem 3.2: distribution over union";
  let n = if quick then 20_000 else 80_000 in
  let rng = W.Rng.make 3 in
  let r1 = W.Synth.two_column_int ~rng ~size:n ~distinct:(n / 8) in
  let r2 = W.Synth.two_column_int ~rng ~size:n ~distinct:(n / 8) in
  let db = Database.of_relations [ ("e1", r1); ("e2", r2) ] in
  let p = Pred.lt (Scalar.attr 1) (Scalar.int (n / 16)) in
  let lhs = Expr.select p (Expr.union (Expr.rel "e1") (Expr.rel "e2")) in
  let rhs =
    Expr.union (Expr.select p (Expr.rel "e1")) (Expr.select p (Expr.rel "e2"))
  in
  assert (Relation.equal (Exec.run_expr db lhs) (Exec.run_expr db rhs));
  let lhs_ms = best_of_3 (fun () -> Exec.run_expr db lhs) in
  let rhs_ms = best_of_3 (fun () -> Exec.run_expr db rhs) in
  row "  sel(E1+E2): %.2f ms   selE1+selE2: %.2f ms   equal results: yes@."
    lhs_ms rhs_ms;
  let proj e = Expr.project_attrs [ 1 ] e in
  let plhs = proj (Expr.union (Expr.rel "e1") (Expr.rel "e2")) in
  let prhs = Expr.union (proj (Expr.rel "e1")) (proj (Expr.rel "e2")) in
  assert (Relation.equal (Exec.run_expr db plhs) (Exec.run_expr db prhs));
  let plhs_ms = best_of_3 (fun () -> Exec.run_expr db plhs) in
  let prhs_ms = best_of_3 (fun () -> Exec.run_expr db prhs) in
  row "  pi(E1+E2):  %.2f ms   piE1+piE2:   %.2f ms   equal results: yes@."
    plhs_ms prhs_ms;
  (* The δ non-law, quantified: how far apart the two sides are. *)
  let naive =
    Expr.union (Expr.unique (Expr.rel "e1")) (Expr.unique (Expr.rel "e2"))
  in
  let correct = Expr.unique (Expr.union (Expr.rel "e1") (Expr.rel "e2")) in
  let card_naive = Relation.cardinal (Exec.run_expr db naive) in
  let card_correct = Relation.cardinal (Exec.run_expr db correct) in
  row "  delta non-law: |dE1 + dE2| = %d  vs  |d(E1+E2)| = %d  (differ: %b)@."
    card_naive card_correct
    (card_naive <> card_correct)

(* ---------------------------------------------------------------- E4 *)

(* Theorem 3.3: associativity enables join reordering.  A 3-way join
   with one small relation: association order changes intermediate
   sizes by orders of magnitude; the optimizer must pick a good one. *)
let e4_join_order () =
  header "E4  Theorem 3.3: join association order";
  let big = if quick then 4_000 else 20_000 in
  let rng = W.Rng.make 4 in
  let a = W.Synth.two_column_int ~rng ~size:(big / 4) ~distinct:500 in
  let b = W.Synth.two_column_int ~rng ~size:big ~distinct:500 in
  let c = W.Synth.two_column_int ~rng ~size:60 ~distinct:500 in
  let db = Database.of_relations [ ("a", a); ("b", b); ("c", c) ] in
  let stats = Stats.env_of_database db in
  let schemas = Typecheck.env_of_database db in
  (* Conditions in flat indexing over a ⊕ b ⊕ c = %1..%6. *)
  let ab = Pred.eq (Scalar.attr 1) (Scalar.attr 3) in
  let bc = Pred.eq (Scalar.attr 4) (Scalar.attr 5) in
  let left_deep =
    Expr.join bc (Expr.join ab (Expr.rel "a") (Expr.rel "b")) (Expr.rel "c")
  in
  (* a ⋈ (b × c) — the pathological order materialising big × 60. *)
  let bad =
    Expr.join (Pred.And (ab, bc)) (Expr.rel "a")
      (Expr.Product (Expr.rel "b", Expr.rel "c"))
  in
  let optimized = Opt.Optimizer.optimize ~stats ~schemas bad in
  let reference = Exec.run_expr db left_deep in
  assert (Relation.equal reference (Exec.run_expr db bad));
  assert (Relation.equal reference (Exec.run_expr db optimized));
  row "  %-30s | %10s %12s %14s@." "order" "est cost" "measured ms"
    "tuples moved";
  let report name e =
    let est = Cost.cost ~stats ~schemas e in
    let plan = Planner.plan db e in
    let ms = best_of_3 (fun () -> Exec.run db plan) in
    row "  %-30s | %10.0f %12.2f %14d@." name est ms
      (moved "tuples-moved" db plan)
  in
  report "(a join b) join c [left-deep]" left_deep;
  report "a join (b x c) [pathological]" bad;
  report "optimizer (from pathological)" optimized

(* ---------------------------------------------------------------- E5 *)

(* Example 3.2: inserting a projection "to reduce the size of
   intermediate results" — measured, plus the optimizer doing it
   automatically. *)
let e5_early_projection () =
  header "E5  Example 3.2: early projection";
  let sizes = if quick then [ 10_000 ] else [ 10_000; 50_000 ] in
  (* "To reduce the size of intermediate results": the intermediate in
     question is the input of Γ — the relation PRISMA would materialise
     and ship between processors.  We report its volume (tuples x width)
     per variant, plus end-to-end pipeline time and total traffic. *)
  let agg_input_cells db e =
    match e with
    | Expr.GroupBy (_, _, child) ->
        let r = Exec.run_expr db child in
        Relation.cardinal r * Schema.arity (Relation.schema r)
    | _ -> 0
  in
  row "  %8s | %-22s %10s %16s %14s@." "beers" "variant" "ms"
    "agg-input cells" "total cells";
  List.iter
    (fun n ->
      let db =
        W.Beer.generate ~rng:(W.Rng.make n) ~breweries:(n / 100) ~beers:n ()
      in
      let auto = Opt.Optimizer.optimize_db db W.Beer.example_3_2 in
      let reference = Exec.run_expr db W.Beer.example_3_2 in
      assert (
        Relation.equal reference (Exec.run_expr db W.Beer.example_3_2_reduced));
      assert (Relation.equal reference (Exec.run_expr db auto));
      let report name e =
        let plan = Planner.plan db e in
        let ms = best_of_3 (fun () -> Exec.run db plan) in
        row "  %8d | %-22s %10.2f %16d %14d@." n name ms
          (agg_input_cells db e) (moved "cells-moved" db plan)
      in
      report "full (paper, no pi)" W.Beer.example_3_2;
      report "reduced (paper, pi)" W.Beer.example_3_2_reduced;
      report "optimizer (automatic)" auto)
    sizes

(* ---------------------------------------------------------------- E6 *)

(* §4: transactions with atomicity.  Throughput under abort ratios; the
   invariant (total balance conserved by transfers) holds exactly when
   aborts roll back completely. *)
let e6_transactions () =
  header "E6  transactions: throughput and atomicity";
  let accounts = 200 in
  let batch = if quick then 200 else 1_000 in
  let schema = Schema.of_list [ ("id", Domain.DInt); ("balance", Domain.DInt) ] in
  let initial =
    Database.of_relations
      [
        ( "acct",
          Relation.of_list schema
            (List.init accounts (fun i ->
                 Tuple.of_list [ Value.Int i; Value.Int 1000 ])) );
      ]
  in
  let total db =
    match
      Relation.to_list
        (Eval.eval db (Expr.aggregate Aggregate.Sum 2 (Expr.rel "acct")))
    with
    | [ t ] -> ( match Tuple.attr t 1 with Value.Int n -> n | _ -> 0)
    | _ -> 0
  in
  let upd id delta =
    Statement.Update
      ( "acct",
        Expr.select (Pred.eq (Scalar.attr 1) (Scalar.int id)) (Expr.rel "acct"),
        [ Scalar.attr 1; Scalar.add (Scalar.attr 2) (Scalar.int delta) ] )
  in
  (* A transfer moves money between two accounts; a poisoned transfer
     fails *between* its two updates — if abort were not atomic, money
     would leak. *)
  let transfer rng ~poison i =
    let src = W.Rng.int rng accounts and dst = W.Rng.int rng accounts in
    let amount = 1 + W.Rng.int rng 50 in
    let debit = upd src (-amount) and credit = upd dst amount in
    Transaction.make
      ~name:(Printf.sprintf "t%d" i)
      (if poison then [ debit; Statement.Insert ("missing", Expr.rel "acct"); credit ]
       else [ debit; credit ])
  in
  row "  %10s | %10s %10s %10s %10s@." "abort %" "txn/s" "committed" "aborted"
    "conserved";
  List.iter
    (fun abort_pct ->
      let rng = W.Rng.make abort_pct in
      let txns =
        List.init batch (fun i ->
            transfer rng ~poison:(W.Rng.int rng 100 < abort_pct) i)
      in
      let (final, outcomes), ms =
        time_ms (fun () -> Transaction.run_all initial txns)
      in
      let committed =
        List.length (List.filter Transaction.committed outcomes)
      in
      row "  %10d | %10.0f %10d %10d %10b@." abort_pct
        (float_of_int batch /. (ms /. 1000.0))
        committed (batch - committed)
        (total final = total initial))
    [ 0; 25; 50 ]

(* ---------------------------------------------------------------- E7 *)

(* Conclusions: parallel operators (PRISMA).  For partitioned Γ and ⋈
   as fragments grow, uniform and skewed: the work-balance bound of the
   partition kernel's buckets (total rows over the largest bucket, the
   speedup the fragments allow on enough cores), and the result of the
   threshold-0 Exchange plan at that fragment count, which must be
   bag-equal to the sequential plan's. *)
let e7_parallel () =
  header "E7  parallel operators (partition work balance, Exchange plans)";
  let n = if quick then 20_000 else 100_000 in
  let rng = W.Rng.make 7 in
  let uniform = W.Synth.two_column_int ~rng ~size:n ~distinct:512 in
  let skewed =
    W.Synth.relation ~rng
      ~schema:(Schema.of_list [ ("k", Domain.DInt); ("v", Domain.DInt) ])
      ~size:n ~dup_factor:4 ~skew:1.2 ()
  in
  let jn = n / 3 in
  let left, right =
    W.Synth.join_pair ~rng ~left:jn ~right:(jn / 4) ~key_range:2048
  in
  let db =
    Database.of_relations
      [ ("u", uniform); ("z", skewed); ("l", left); ("r", right) ]
  in
  let rows name =
    Array.of_seq
      (Relation.Bag.to_counted_seq (Relation.bag (Database.find name db)))
  in
  let group name = Expr.group_by [ 1 ] [ (Aggregate.Sum, 2) ] (Expr.rel name) in
  let cases =
    [
      (group "u", fun parts -> Exec.partition ~parts ~keys:[ 1 ] (rows "u"));
      (group "z", fun parts -> Exec.partition ~parts ~keys:[ 1 ] (rows "z"));
      ( Expr.join
          (Pred.eq (Scalar.attr 1) (Scalar.attr 3))
          (Expr.rel "l") (Expr.rel "r"),
        fun parts ->
          (* A fragment's work is both sides of its co-partitioned pair. *)
          Array.map2 Array.append
            (Exec.partition ~parts ~keys:[ 1 ] (rows "l"))
            (Exec.partition ~parts ~keys:[ 1 ] (rows "r")) );
    ]
  in
  let sequential =
    List.map (fun (e, _) -> Exec.run db (Planner.plan db e)) cases
  in
  row "  %4s | %14s | %14s | %14s | %9s | %s@." "p" "grp uniform"
    "grp zipf(1.2)" "join uniform" "exchanges" "bag-equal";
  List.iter
    (fun parts ->
      let plans =
        List.map
          (fun (e, _) ->
            Planner.plan ~jobs:parts ~cores:parts ~parallel_threshold:0 db e)
          cases
      in
      let equal =
        List.for_all2
          (fun plan expected -> Relation.equal expected (Exec.run db plan))
          plans sequential
      in
      row "  %4d |" parts;
      List.iter
        (fun (_, buckets) ->
          row " %10.2fx sp |" (Exec.work_balance (buckets parts)))
        cases;
      row " %9d | %b@."
        (List.fold_left (fun acc p -> acc + Physical.exchange_count p) 0 plans)
        equal;
      if not equal then (
        row "  ERROR: an Exchange plan at p=%d differed from the sequential \
             plan@."
          parts;
        exit 1))
    [ 1; 2; 4; 8; 16 ];
  (* Forced Exchanges on a few thousand rows are not the planner's
     question; keep their measured losses out of later experiments'
     adaptive plans. *)
  Feedback.reset ()

(* ---------------------------------------------------------------- E8 *)

(* Conclusions: the transitive closure extension — semi-naive vs naive
   across graph sizes. *)
let e8_closure () =
  header "E8  transitive closure scaling";
  row "  %6s %7s | %9s %6s | %12s %12s@." "nodes" "edges" "pairs" "rounds"
    "semi-naive" "naive";
  let sizes = if quick then [ 100; 200 ] else [ 100; 200; 400; 800 ] in
  List.iter
    (fun nodes ->
      let rng = W.Rng.make nodes in
      let g = W.Synth.chain_relation ~rng ~nodes ~extra_edges:nodes in
      let closure = Ext.Closure.closure g in
      assert (Relation.equal closure (Ext.Closure.closure_naive g));
      let semi = best_of_3 (fun () -> Ext.Closure.closure g) in
      let naive =
        if nodes > 400 then Float.nan
        else best_of_3 (fun () -> Ext.Closure.closure_naive g)
      in
      row "  %6d %7d | %9d %6d | %9.1f ms %9.1f ms@." nodes
        (Relation.cardinal g) (Relation.cardinal closure)
        (Ext.Closure.iterations g) semi naive)
    sizes

(* ---------------------------------------------------------------- E9 *)

(* §3.3's purpose: rewriting pays.  A pool of random queries, optimized
   vs not: estimated cost, measured runtime, and the guarantee that no
   result ever changes. *)
let e9_optimizer_gain () =
  header "E9  optimizer gain on random queries";
  let pool = if quick then 40 else 120 in
  let improved = ref 0 and unchanged = ref 0 in
  let sum_before = ref 0.0 and sum_after = ref 0.0 in
  let ms_before = ref 0.0 and ms_after = ref 0.0 in
  let mismatches = ref 0 in
  for seed = 1 to pool do
    let scen = W.Gen_expr.scenario ~seed ~depth:4 in
    let db = scen.W.Gen_expr.db in
    let stats = Stats.env_of_database db in
    let schemas = Typecheck.env_of_database db in
    let e = scen.W.Gen_expr.expr in
    let optimized = Opt.Optimizer.optimize ~stats ~schemas e in
    let cb = Cost.cost ~stats ~schemas e in
    let ca = Cost.cost ~stats ~schemas optimized in
    sum_before := !sum_before +. cb;
    sum_after := !sum_after +. ca;
    if ca < cb -. 1e-9 then incr improved else incr unchanged;
    let r1, t1 = time_ms (fun () -> Exec.run_expr db e) in
    let r2, t2 = time_ms (fun () -> Exec.run_expr db optimized) in
    ms_before := !ms_before +. t1;
    ms_after := !ms_after +. t2;
    if not (Relation.equal r1 r2) then incr mismatches
  done;
  row
    "  queries: %d   cost improved: %d   unchanged: %d   result mismatches: \
     %d@."
    pool !improved !unchanged !mismatches;
  row "  mean est. cost: %.0f -> %.0f   total runtime: %.1f ms -> %.1f ms@."
    (!sum_before /. float_of_int pool)
    (!sum_after /. float_of_int pool)
    !ms_before !ms_after;
  (* Ablation: which phase buys what, on the σ-over-products shape the
     pushdown rules target. *)
  let rng = W.Rng.make 909 in
  let r = W.Synth.two_column_int ~rng ~size:5_000 ~distinct:400 in
  let s = W.Synth.two_column_int ~rng ~size:5_000 ~distinct:400 in
  let t = W.Synth.two_column_int ~rng ~size:100 ~distinct:400 in
  let db = Database.of_relations [ ("r", r); ("s", s); ("t", t) ] in
  let stats = Stats.env_of_database db in
  let schemas = Typecheck.env_of_database db in
  let query =
    Expr.project_attrs [ 2 ]
      (Expr.select
         (Pred.conj
            [
              Pred.eq (Scalar.attr 1) (Scalar.attr 3);
              Pred.eq (Scalar.attr 3) (Scalar.attr 5);
              Pred.lt (Scalar.attr 2) (Scalar.int 100);
            ])
         (Expr.product (Expr.product (Expr.rel "r") (Expr.rel "s"))
            (Expr.rel "t")))
  in
  let stages =
    [
      ("raw", query);
      ("selection pushdown only", Opt.Rules.push_selections schemas query);
      ("+ projection narrowing", Opt.Rules.normalize schemas query);
      ("+ join reordering (full)", Opt.Optimizer.optimize ~stats ~schemas query);
    ]
  in
  let reference = Exec.run_expr db query in
  row "  ablation on pi(sel((r x s) x t)):@.";
  row "    %-28s | %10s %12s@." "phase" "est cost" "measured ms";
  List.iter
    (fun (name, e) ->
      assert (Relation.equal reference (Exec.run_expr db e));
      let ms = best_of_3 (fun () -> Exec.run_expr db e) in
      row "    %-28s | %10.0f %12.2f@." name (Cost.cost ~stats ~schemas e) ms)
    stages

(* --------------------------------------------------------------- E10 *)

(* SQL correspondence: the paper's SQL statements and friends, each
   checked equivalent to its algebraic counterpart and timed through
   translate + optimize + execute. *)
let e10_sql () =
  header "E10  SQL front-end round trips";
  let db =
    W.Beer.generate ~rng:(W.Rng.make 10) ~breweries:100
      ~beers:(if quick then 5_000 else 20_000)
      ()
  in
  let env = Typecheck.env_of_database db in
  let queries =
    [
      ( "Ex 3.2 (paper)",
        "SELECT country, AVG(alcperc) FROM beer, brewery WHERE beer.brewery \
         = brewery.name GROUP BY country",
        Some W.Beer.example_3_2 );
      ( "Ex 3.1 shape",
        "SELECT beer.name FROM beer, brewery WHERE beer.brewery = \
         brewery.name AND country = 'NL'",
        Some W.Beer.example_3_1 );
      ("distinct", "SELECT DISTINCT brewery FROM beer", None);
      ( "group-max",
        "SELECT brewery, MAX(alcperc) FROM beer GROUP BY brewery",
        None );
      ("global agg", "SELECT CNT(*), AVG(alcperc) FROM beer", None);
    ]
  in
  row "  %-16s | %10s %10s %10s@." "query" "rows" "ms" "= algebra";
  List.iter
    (fun (name, sql, reference) ->
      let e = Mxra_sql.Translate.query_of_string env sql in
      let optimized = Opt.Optimizer.optimize_db db e in
      let result = ref (Relation.empty Schema.unit) in
      let ms = best_of_3 (fun () -> result := Exec.run_expr db optimized) in
      let agrees =
        match reference with
        | None -> "n/a"
        | Some alg ->
            if Relation.equal !result (Exec.run_expr db alg) then "yes"
            else "NO"
      in
      row "  %-16s | %10d %10.2f %10s@." name (Relation.cardinal !result) ms
        agrees)
    queries

(* --------------------------------------------------------------- E11 *)

(* Durability (Definition 4.3 cites [Gray 81]'s ACID): cost of the
   write-ahead log per committed transaction, and recovery time as the
   log grows. *)
let e11_durability () =
  header "E11  durability: WAL overhead and recovery";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "mxra-bench-store"
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let schema = Schema.of_list [ ("id", Domain.DInt); ("v", Domain.DInt) ] in
  let initial =
    Database.of_relations
      [ ("t", Relation.of_list schema
                (List.init 100 (fun i ->
                     Tuple.of_list [ Value.Int i; Value.Int 0 ]))) ]
  in
  let txn i =
    Transaction.make
      [
        Statement.Update
          ( "t",
            Expr.select (Pred.eq (Scalar.attr 1) (Scalar.int (i mod 100)))
              (Expr.rel "t"),
            [ Scalar.attr 1; Scalar.add (Scalar.attr 2) (Scalar.int 1) ] );
      ]
  in
  let batch = if quick then 100 else 400 in
  (* In-memory baseline. *)
  let _, mem_ms =
    time_ms (fun () ->
        Transaction.run_all initial (List.init batch txn))
  in
  (* Same batch through the store. *)
  let store = Mxra_storage.Store.open_dir dir in
  Out_channel.with_open_text (Filename.concat dir "snapshot.xra") (fun oc ->
      Out_channel.output_string oc (Mxra_storage.Codec.encode_database initial));
  Mxra_storage.Store.close store;
  let store = Mxra_storage.Store.open_dir dir in
  let _, wal_ms =
    time_ms (fun () ->
        List.iter
          (fun i -> ignore (Mxra_storage.Store.commit store (txn i)))
          (List.init batch Fun.id))
  in
  let durable_state = Mxra_storage.Store.database store in
  Mxra_storage.Store.close store;
  let recovered, recover_ms =
    time_ms (fun () -> Mxra_storage.Store.recover_dir dir)
  in
  row "  %8s | %12s %12s %10s | %12s@." "txns" "memory ms" "durable ms"
    "overhead" "recover ms";
  row "  %8d | %12.1f %12.1f %9.2fx | %12.1f@." batch mem_ms wal_ms
    (wal_ms /. mem_ms) recover_ms;
  row "  recovery faithful: %b@."
    (Database.equal_states durable_state recovered)

(* --------------------------------------------------------------- E12 *)

(* Isolation (Definition 4.3: "T is executed in isolation"): interleaved
   strict-2PL execution vs the serial scheduler — throughput, lock
   traffic, and the serializability guarantee. *)
let e12_isolation () =
  header "E12  isolation: interleaved 2PL vs serial execution";
  let schema = Schema.of_list [ ("id", Domain.DInt); ("v", Domain.DInt) ] in
  (* Partitioned working sets: transactions touch one of [hot] tables,
     so lock conflicts scale with contention. *)
  let make_db tables =
    Database.of_relations
      (List.init tables (fun t ->
           ( Printf.sprintf "t%d" t,
             Relation.of_list schema
               (List.init 50 (fun i ->
                    Tuple.of_list [ Value.Int i; Value.Int 0 ])) )))
  in
  let txn rng tables i =
    let name = Printf.sprintf "t%d" (W.Rng.int rng tables) in
    Transaction.make
      ~name:(string_of_int i)
      [
        Statement.Update
          ( name,
            Expr.select (Pred.eq (Scalar.attr 1) (Scalar.int (i mod 50)))
              (Expr.rel name),
            [ Scalar.attr 1; Scalar.add (Scalar.attr 2) (Scalar.int 1) ] );
      ]
  in
  let batch = if quick then 150 else 400 in
  row "  %8s | %10s %10s | %8s %10s | %12s@." "tables" "serial/s"
    "2PL/s" "blocks" "deadlocks" "serializable";
  List.iter
    (fun tables ->
      let db = make_db tables in
      let rng = W.Rng.make tables in
      let txns = List.init batch (txn rng tables) in
      let _, serial_ms = time_ms (fun () -> Transaction.run_all db txns) in
      let result, sched_ms =
        time_ms (fun () ->
            Mxra_concurrency.Scheduler.run
              ~isolation:Mxra_concurrency.Scheduler.Two_pl ~seed:1 db txns)
      in
      row "  %8d | %10.0f %10.0f | %8d %10d | %12b@." tables
        (float_of_int batch /. (serial_ms /. 1000.0))
        (float_of_int batch /. (sched_ms /. 1000.0))
        result.Mxra_concurrency.Scheduler.stats.Mxra_concurrency.Scheduler.blocks
        result.Mxra_concurrency.Scheduler.stats
          .Mxra_concurrency.Scheduler.deadlocks
        (Mxra_concurrency.Scheduler.equivalent_serial db txns result))
    [ 1; 4; 16 ]

(* --------------------------------------------------------------- E13 *)

(* EXPLAIN ANALYZE: estimation quality.  Every query runs instrumented;
   each physical operator reports estimated vs actual rows and the
   q-error max(est/act, act/est).  The figures are printed and written
   to BENCH_explain.json so estimation quality is tracked over time. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec flatten_report (r : Exec.report) =
  r :: List.concat_map flatten_report r.Exec.inputs

let e13_estimation_quality () =
  header "E13  EXPLAIN ANALYZE: estimation quality (q-error per operator)";
  let n = if quick then 2_000 else 10_000 in
  let beer_db =
    W.Beer.generate ~rng:(W.Rng.make 13) ~breweries:(n / 100) ~beers:n ()
  in
  let rng = W.Rng.make 1313 in
  let a = W.Synth.two_column_int ~rng ~size:(n / 4) ~distinct:500 in
  let b = W.Synth.two_column_int ~rng ~size:n ~distinct:500 in
  let c = W.Synth.two_column_int ~rng ~size:60 ~distinct:500 in
  let abc = Database.of_relations [ ("a", a); ("b", b); ("c", c) ] in
  let three_way =
    Expr.join
      (Pred.eq (Scalar.attr 4) (Scalar.attr 5))
      (Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "a")
         (Expr.rel "b"))
      (Expr.rel "c")
  in
  let queries =
    [
      ("ex-3.1-select-join", beer_db, W.Beer.example_3_1);
      ("ex-3.2-group-join", beer_db, W.Beer.example_3_2);
      ("three-way-join", abc, three_way);
      ( "distinct-brewery",
        beer_db,
        Expr.unique (Expr.project_attrs [ 2 ] (Expr.rel "beer")) );
    ]
  in
  row "  %-20s | %8s %10s | %8s %8s | %12s@." "query" "rows" "ms" "max q"
    "mean q" "tuples moved";
  let results =
    List.map
      (fun (name, db, e) ->
        let optimized = Opt.Optimizer.optimize_db db e in
        let analysis = Exec.explain_analyze db optimized in
        let ops = flatten_report analysis.Exec.root in
        let qs =
          List.map (fun (r : Exec.report) -> Lazy.force r.Exec.q_error) ops
        in
        let max_q = List.fold_left Float.max 1.0 qs in
        let mean_q =
          exp
            (List.fold_left (fun acc q -> acc +. log q) 0.0 qs
            /. float_of_int (List.length qs))
        in
        let counter_of key =
          Metrics.count (Metrics.counter analysis.Exec.totals key)
        in
        row "  %-20s | %8d %10.2f | %8.2f %8.2f | %12d@." name
          (Relation.cardinal analysis.Exec.result)
          analysis.Exec.total_ms max_q mean_q (counter_of "tuples-moved");
        (name, analysis, ops, max_q, mean_q))
      queries
  in
  (* JSON, hand-rolled: the container image carries no JSON library and
     the shape is flat enough not to need one. *)
  let buf = Buffer.create 4096 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n  \"experiment\": \"E13-estimation-quality\",\n  \"queries\": [";
  List.iteri
    (fun i (name, (analysis : Exec.analysis), ops, max_q, mean_q) ->
      if i > 0 then bpf ",";
      bpf "\n    {\"name\": %S, \"rows\": %d, \"total_ms\": %.3f," name
        (Relation.cardinal analysis.Exec.result)
        analysis.Exec.total_ms;
      bpf " \"max_q_error\": %.4f, \"mean_q_error\": %.4f," max_q mean_q;
      List.iter
        (fun (key, value) ->
          match value with
          | Metrics.Count c -> bpf " \"%s\": %d," (json_escape key) c
          | Metrics.Duration_ms ms ->
              bpf " \"%s_ms\": %.3f," (json_escape key) ms)
        (Metrics.dump analysis.Exec.totals);
      bpf "\n     \"per_operator\": [";
      List.iteri
        (fun j (r : Exec.report) ->
          if j > 0 then bpf ",";
          bpf "\n       {\"op\": \"%s\", \"est\": %.1f, \"act\": %d, \"q\": \
               %.4f}"
            (json_escape (Physical.label r.Exec.node))
            (Lazy.force r.Exec.estimated_rows)
            r.Exec.actual.Exec.out_rows (Lazy.force r.Exec.q_error))
        ops;
      bpf "]}")
    results;
  bpf "\n  ]\n}\n";
  let path = "BENCH_explain.json" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  row "  wrote %s@." path

(* --------------------------------------------------------------- E14 *)

(* Observability overhead: the E13 query set executed through the same
   instrumented path bagdb uses, under four telemetry configurations —
   disabled (no sinks), a no-op sink (tracing machinery pays, output
   does not), a real Chrome trace-event sink writing to disk, and the
   no-op sink with the background resource sampler live at a 100 ms
   cadence (what [bagdb serve] runs).  The no-op and sampler overheads
   are the price of leaving telemetry compiled into every layer; both
   are budgeted at 5% and the run warns loudly when a measurement
   exceeds that. *)

let e14_observability_overhead () =
  header
    "E14  observability overhead (disabled / no-op / Chrome / sampler-100ms)";
  let module Trace = Mxra_obs.Trace in
  let n = if quick then 2_000 else 10_000 in
  let beer_db =
    W.Beer.generate ~rng:(W.Rng.make 13) ~breweries:(n / 100) ~beers:n ()
  in
  let rng = W.Rng.make 1414 in
  let a = W.Synth.two_column_int ~rng ~size:(n / 4) ~distinct:500 in
  let b = W.Synth.two_column_int ~rng ~size:n ~distinct:500 in
  let c = W.Synth.two_column_int ~rng ~size:60 ~distinct:500 in
  let abc = Database.of_relations [ ("a", a); ("b", b); ("c", c) ] in
  let three_way =
    Expr.join
      (Pred.eq (Scalar.attr 4) (Scalar.attr 5))
      (Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "a")
         (Expr.rel "b"))
      (Expr.rel "c")
  in
  let queries =
    [
      (beer_db, W.Beer.example_3_1);
      (beer_db, W.Beer.example_3_2);
      (abc, three_way);
    ]
  in
  let plans =
    List.map
      (fun (db, e) -> (db, Planner.plan db (Opt.Optimizer.optimize_db db e)))
      queries
  in
  let reps = if quick then 3 else 10 in
  let sample () =
    for _ = 1 to reps do
      List.iter
        (fun (db, plan) ->
          Trace.with_span "query" (fun () ->
              ignore (Exec.run_instrumented db plan)))
        plans
    done
  in
  let trace_path = Filename.temp_file "mxra_e14" ".json" in
  let oc = open_out trace_path in
  let chrome = Mxra_obs.Chrome_sink.sink oc in
  (* The per-span cost is small against machine noise, so the four
     configurations are interleaved round-robin and each keeps its
     best round — back-to-back blocks would fold clock drift into the
     overhead figure.  The sampler configuration spawns its domain
     outside the timed region: the cost under test is the steady-state
     100 ms probing, not a one-off thread spawn.

     The sampler is a systhread, not a domain, and this experiment is
     why: an earlier domain-based sampler measured 12–45% here, all of
     it the stop-the-world minor-GC handshake that any extra domain —
     even one asleep — imposes on an allocation-heavy query thread
     when cores are scarce.  The systhread version leaves the runtime
     in single-domain mode and the gate below holds it to 5%. *)
  let sampler_probes =
    [
      Mxra_obs.Sampler.gc_probe;
      Mxra_obs.Sampler.uptime_probe;
      Mxra_ext.Pool.telemetry;
      Mxra_concurrency.Scheduler.telemetry;
    ]
  in
  let configs =
    [|
      ([], None);
      ([ Trace.null_sink ], None);
      ([ chrome ], None);
      ([ Trace.null_sink ], Some 100.0);
    |]
  in
  let best = Array.make (Array.length configs) Float.infinity in
  Trace.set_sinks [];
  sample () (* warm-up *);
  let rounds = if quick then 5 else 7 in
  for _ = 1 to rounds do
    Array.iteri
      (fun i (sinks, sampler_interval) ->
        Trace.set_sinks sinks;
        let sampler =
          Option.map
            (fun interval_ms ->
              Mxra_obs.Sampler.start ~interval_ms ~probes:sampler_probes ())
            sampler_interval
        in
        let _, ms = time_ms sample in
        Option.iter Mxra_obs.Sampler.stop sampler;
        if ms < best.(i) then best.(i) <- ms)
      configs
  done;
  Trace.set_sinks [ chrome ];
  Trace.close ();
  close_out oc;
  let disabled_ms = best.(0)
  and noop_ms = best.(1)
  and chrome_ms = best.(2)
  and sampler_ms = best.(3) in
  let trace_bytes = (Unix.stat trace_path).Unix.st_size in
  Sys.remove trace_path;
  let pct ms = (ms -. disabled_ms) /. disabled_ms *. 100.0 in
  row "  %-14s | %10s %10s@." "config" "ms" "overhead";
  row "  %-14s | %10.3f %9.1f%%@." "disabled" disabled_ms 0.0;
  row "  %-14s | %10.3f %9.1f%%@." "null-sink" noop_ms (pct noop_ms);
  row "  %-14s | %10.3f %9.1f%%  (%d bytes of trace)@." "chrome-sink"
    chrome_ms (pct chrome_ms) trace_bytes;
  row "  %-14s | %10.3f %9.1f%%@." "sampler-100ms" sampler_ms (pct sampler_ms);
  let noop_pct = pct noop_ms in
  let sampler_pct = pct sampler_ms in
  if noop_pct > 5.0 then
    row
      "@.  *** WARNING: no-op sink overhead %.1f%% exceeds the 5%% budget \
       (ISSUE acceptance) ***@.@."
      noop_pct;
  if sampler_pct > 5.0 then
    row
      "@.  *** WARNING: sampler-100ms overhead %.1f%% exceeds the 5%% budget \
       (ISSUE acceptance) ***@.@."
      sampler_pct;
  let buf = Buffer.create 512 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n  \"experiment\": \"E14-observability-overhead\",\n";
  bpf "  \"reps\": %d, \"queries\": %d,\n" reps (List.length plans);
  bpf "  \"configs\": [\n";
  bpf "    {\"name\": \"disabled\", \"total_ms\": %.3f, \"overhead_pct\": \
       0.0},\n"
    disabled_ms;
  bpf "    {\"name\": \"null-sink\", \"total_ms\": %.3f, \"overhead_pct\": \
       %.2f},\n"
    noop_ms (pct noop_ms);
  bpf "    {\"name\": \"chrome-sink\", \"total_ms\": %.3f, \
       \"overhead_pct\": %.2f, \"trace_bytes\": %d},\n"
    chrome_ms (pct chrome_ms) trace_bytes;
  bpf "    {\"name\": \"sampler-100ms\", \"total_ms\": %.3f, \
       \"overhead_pct\": %.2f, \"sampler_interval_ms\": 100}\n"
    sampler_ms sampler_pct;
  bpf "  ],\n";
  bpf "  \"noop_overhead_pct\": %.2f,\n" noop_pct;
  bpf "  \"sampler_overhead_pct\": %.2f,\n" sampler_pct;
  bpf "  \"within_budget\": %b\n}\n" (noop_pct <= 5.0 && sampler_pct <= 5.0);
  let path = "BENCH_obs.json" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  row "  wrote %s@." path

(* --------------------------------------------------------------- E15 *)

(* Real multicore speedup: the retail join+aggregate query (revenue per
   country) planned adaptively and executed on 1/2/4/8 domains of the
   shared pool.  The planner is the thing under test as much as the
   executor: with [jobs > 1] it inserts Exchange only when
   [min jobs cores] > 1 and the input clears the profitability floor —
   on a single-core host every plan stays sequential, so the curve must
   be flat at 1.0x (the bench fails loudly if any level dips below
   0.95x, the regression the old unconditional 512-row threshold
   caused).  Every parallel result is checked bag-equal to the
   sequential one before its timing counts; a degenerate chunk-size-1
   run of the sequential plan is timed alongside as the tuple-at-a-time
   comparison point.  The curve lands in BENCH_parallel.json for CI to
   archive. *)
let e15_parallel_speedup () =
  header "E15  multicore speedup (retail join+aggregate, domain pool)";
  let orders = if quick then 4_000 else 20_000 in
  let cores = Mxra_session.Session.host_cores () in
  let chunk = Exec.chunk_size () in
  let db =
    W.Retail.generate ~rng:(W.Rng.make 15) ~customers:(orders / 10) ~orders ()
  in
  let e = Opt.Optimizer.optimize_db db W.Retail.revenue_per_country in
  let seq_plan = Planner.plan db e in
  let baseline = Exec.run db seq_plan in
  row "  %d orders, %d result rows, %d cores, chunk size %d@." orders
    (Relation.cardinal baseline) cores chunk;
  let sweep =
    match jobs_cap with
    | None -> [ 1; 2; 4; 8 ]
    | Some n ->
        List.sort_uniq compare (n :: List.filter (fun j -> j <= n) [ 1; 2; 4 ])
  in
  row "  %6s | %10s | %8s | %9s | %s@." "jobs" "ms" "speedup" "exchanges"
    "bag-equal";
  let points =
    List.map
      (fun jobs ->
        Ext.Pool.set_default_size jobs;
        let plan = Planner.plan ~jobs ~cores db e in
        let exchanges = Physical.exchange_count plan in
        let result = Exec.run db plan in
        let equal = Relation.equal baseline result in
        (* Speedup as the paired-median ratio against sequential runs
           interleaved with this point's own, not against the single
           up-front sequential number: the ratio must survive host
           noise, the absolute figures matter less. *)
        let _, ms, speedup =
          interleaved_compare 5
            (fun () -> Exec.run db seq_plan)
            (fun () -> Exec.run db plan)
        in
        row "  %6d | %10.2f | %7.2fx | %9d | %b@." jobs ms speedup exchanges
          equal;
        (jobs, ms, speedup, exchanges, equal))
      sweep
  in
  Ext.Pool.set_default_size 1;
  (* The chunked-vs-tuple-at-a-time comparison point, measured after the
     sweep so both sides run on a warmed-up host. *)
  let seq_ms, chunk1_ms, _ =
    interleaved_compare 5
      (fun () -> Exec.run db seq_plan)
      (fun () -> Exec.run ~chunk_size:1 db seq_plan)
  in
  row "  sequential %.2f ms chunked, %.2f ms tuple-at-a-time (chunk 1)@."
    seq_ms chunk1_ms;
  let buf = Buffer.create 1024 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n  \"experiment\": \"E15-parallel-speedup\",\n";
  bpf "  \"orders\": %d,\n  \"cores\": %d,\n  \"chunk_size\": %d,\n" orders
    cores chunk;
  bpf "  \"sequential_ms\": %.3f,\n  \"chunk1_ms\": %.3f,\n  \"points\": ["
    seq_ms chunk1_ms;
  List.iteri
    (fun i (jobs, ms, speedup, exchanges, equal) ->
      if i > 0 then bpf ",";
      bpf "\n    {\"jobs\": %d, \"ms\": %.3f, \"speedup\": %.3f, \
           \"exchanges\": %d, \"bag_equal\": %b}"
        jobs ms speedup exchanges equal)
    points;
  bpf "\n  ]\n}\n";
  let path = "BENCH_parallel.json" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  row "  wrote %s@." path;
  if not (List.for_all (fun (_, _, _, _, equal) -> equal) points) then (
    row "  ERROR: a parallel result differed from the sequential one@.";
    exit 1);
  if cores = 1 then begin
    (* One core: the adaptive planner must have kept every plan
       sequential (no Exchange), and requesting parallelism must not
       cost anything — the old unconditional threshold regressed to
       0.28x here. *)
    List.iter
      (fun (jobs, _, speedup, exchanges, _) ->
        if exchanges > 0 then (
          row "  ERROR: jobs=%d inserted %d Exchange node(s) on 1 core@." jobs
            exchanges;
          exit 1);
        if speedup < 0.95 then (
          row "  ERROR: jobs=%d speedup %.2fx < 0.95x on 1 core — asking for \
               parallelism made the query slower@."
            jobs speedup;
          exit 1))
      points;
    row "  1-core guarantee holds: no Exchange, all speedups >= 0.95x@."
  end

(* --------------------------------------------------------------- E17 *)

(* Statement-stats registry overhead: the E14 query set executed the
   way bagdb executes it — [run_instrumented], the one execution path,
   then one [Stmt_stats.record] with the statement text — under the
   registry disabled vs enabled.  Enabled pays fingerprint
   normalization + FNV, one mutex acquisition and a histogram observe
   per statement, plus the per-operator [Op_stats] feed every execution
   makes; E14
   discipline applies (interleaved configs, best-of-rounds) and the
   same 5% budget gates it.  A third, informational figure times the
   full catalog round trip: attach [sys.*] and scan [sys.statements]
   through the engine. *)

let e17_catalog_overhead () =
  header "E17  statement-stats registry overhead (disabled / enabled)";
  let module Obs = Mxra_obs in
  let n = if quick then 2_000 else 10_000 in
  let beer_db =
    W.Beer.generate ~rng:(W.Rng.make 13) ~breweries:(n / 100) ~beers:n ()
  in
  let rng = W.Rng.make 1717 in
  let a = W.Synth.two_column_int ~rng ~size:(n / 4) ~distinct:500 in
  let b = W.Synth.two_column_int ~rng ~size:n ~distinct:500 in
  let c = W.Synth.two_column_int ~rng ~size:60 ~distinct:500 in
  let abc = Database.of_relations [ ("a", a); ("b", b); ("c", c) ] in
  let three_way =
    Expr.join
      (Pred.eq (Scalar.attr 4) (Scalar.attr 5))
      (Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "a")
         (Expr.rel "b"))
      (Expr.rel "c")
  in
  let queries =
    [
      (beer_db, W.Beer.example_3_1);
      (beer_db, W.Beer.example_3_2);
      (abc, three_way);
    ]
  in
  let plans =
    List.map
      (fun (db, e) ->
        ( db,
          Expr.to_string e,
          Planner.plan db (Opt.Optimizer.optimize_db db e) ))
      queries
  in
  let reps = if quick then 3 else 10 in
  let sample () =
    for _ = 1 to reps do
      List.iter
        (fun (db, text, plan) ->
          let qid = Obs.Qid.mint () in
          let a = Exec.run_instrumented db plan in
          Obs.Stmt_stats.record ~qid
            ~rows:(Relation.cardinal a.Exec.result)
            ~wall_ms:a.Exec.total_ms text)
        plans
    done
  in
  let was_enabled = Obs.Stmt_stats.enabled () in
  Obs.Stmt_stats.set_enabled false;
  sample () (* warm-up *);
  let rounds = if quick then 5 else 9 in
  (* Paired-median ratio, not min-of-rounds: the per-statement cost
     under test (a fingerprint hash, one mutex, a histogram observe)
     is far below host noise, and the median of adjacent-in-time
     ratios is the only estimator here that stays within a few
     percent on a busy machine. *)
  let enabled_min, disabled_min, ratio =
    interleaved_compare rounds
      (fun () ->
        Obs.Stmt_stats.set_enabled true;
        sample ())
      (fun () ->
        Obs.Stmt_stats.set_enabled false;
        sample ())
  in
  Obs.Stmt_stats.set_enabled true;
  let entries = Obs.Stmt_stats.cardinality () in
  (* The catalog round trip, informational: attach the sys.* snapshot
     to the beer database and scan sys.statements through the engine. *)
  let catalog_ms =
    best_of_3 (fun () ->
        ignore
          (Exec.run_expr (Syscat.attach beer_db) (Expr.rel "sys.statements")))
  in
  Obs.Stmt_stats.set_enabled was_enabled;
  let disabled_ms = disabled_min and enabled_ms = enabled_min in
  let pct = (ratio -. 1.0) *. 100.0 in
  row "  %-14s | %10s %10s@." "config" "min ms" "overhead";
  row "  %-14s | %10.3f %9.1f%%@." "disabled" disabled_ms 0.0;
  row "  %-14s | %10.3f %9.1f%%  (paired median; %d fingerprints)@."
    "enabled" enabled_ms pct entries;
  row "  %-14s | %10.3f@." "catalog-scan" catalog_ms;
  if pct > 5.0 then
    row
      "@.  *** WARNING: statement-stats overhead %.1f%% exceeds the 5%% \
       budget (ISSUE acceptance) ***@.@."
      pct;
  let buf = Buffer.create 512 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n  \"experiment\": \"E17-statement-stats-overhead\",\n";
  bpf "  \"reps\": %d, \"queries\": %d, \"fingerprints\": %d,\n" reps
    (List.length plans) entries;
  bpf "  \"configs\": [\n";
  bpf "    {\"name\": \"disabled\", \"total_ms\": %.3f, \"overhead_pct\": \
       0.0},\n"
    disabled_ms;
  bpf "    {\"name\": \"enabled\", \"total_ms\": %.3f, \"overhead_pct\": \
       %.2f}\n"
    enabled_ms pct;
  bpf "  ],\n";
  bpf "  \"catalog_scan_ms\": %.3f,\n" catalog_ms;
  bpf "  \"registry_overhead_pct\": %.2f,\n" pct;
  bpf "  \"within_budget\": %b\n}\n" (pct <= 5.0);
  let path = "BENCH_catalog.json" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  row "  wrote %s@." path

(* --------------------------------------------------------------- E18 *)

(* Secondary-index payoff: the same point and range selections over
   retail [orders], planned against a database with index definitions
   and against one without.  The planner picks the access path on cost
   alone; the bench asserts the indexed database really produced
   IndexScan plans and spot-checks both paths bag-equal before any
   timing counts.  Timings are interleaved (E15 discipline) and
   normalized per lookup, since the sequential batch shrinks as the
   relation grows to keep the run bounded.  Three gates: the hash index
   must answer point lookups >= 10x faster than SeqScan from 100k rows
   up, indexed per-lookup cost must scale sublinearly across the size
   decades (the O(log n) claim — a seq scan grows 10x per decade), and
   EXPLAIN ANALYZE over the indexed paths must keep a geometric-mean
   q-error <= 2.  The curve lands in BENCH_index.json for CI. *)

let e18_index_scaling () =
  header "E18  secondary-index point/range scaling (retail orders)";
  let sizes =
    if quick then [ 1_000; 10_000; 100_000 ]
    else [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let point k =
    Expr.select (Pred.eq (Scalar.attr 1) (Scalar.int k)) (Expr.rel "orders")
  in
  let range lo hi =
    Expr.select
      (Pred.conj
         [
           Pred.ge (Scalar.attr 3) (Scalar.int lo);
           Pred.lt (Scalar.attr 3) (Scalar.int hi);
         ])
      (Expr.rel "orders")
  in
  let is_index_scan = function Physical.Index_scan _ -> true | _ -> false in
  row "  %9s | %11s %11s %9s | %11s %11s %9s@." "orders" "pt seq us"
    "pt idx us" "speedup" "rg seq us" "rg idx us" "speedup";
  let q_errors = ref [] in
  let points =
    List.map
      (fun n ->
        (* Lineitems are irrelevant here — one per order keeps the 1M
           build cheap.  The sequential batch shrinks with n so a full
           point sweep stays ~2M scanned rows per timed run; the indexed
           batch stays at 400 lookups so its total is measurable. *)
        let db =
          W.Retail.generate
            ~rng:(W.Rng.make 18)
            ~customers:(max 10 (n / 10))
            ~orders:n ~items_per_order:1 ()
        in
        let db_idx =
          db
          |> Database.create_index ~name:"orders_id" ~rel:"orders" ~cols:[ 1 ]
               ~kind:Database.Hash
          |> Database.create_index ~name:"orders_day" ~rel:"orders"
               ~cols:[ 3 ] ~kind:Database.Ordered
        in
        (* One stats/schema pass per size — [Planner.plan] recomputes
           database statistics per call, which would dominate the run
           at 1M rows times hundreds of planned lookups. *)
        let schemas = Typecheck.env_of_database db in
        let stats = Stats.env_of_database db in
        let plan_idx e =
          Planner.plan_with ~stats
            ~indexes:(fun r -> Database.indexes_on r db_idx)
            schemas e
        in
        let plan_seq e = Planner.plan_with ~stats schemas e in
        let rng = W.Rng.make (1800 + n) in
        let n_idx = 400 in
        let n_seq = max 24 (min 400 (2_000_000 / n)) in
        let keys m = List.init m (fun _ -> W.Rng.int rng n) in
        let idx_keys = keys n_idx and seq_keys = keys n_seq in
        let n_ridx = 100 in
        let n_rseq = max 12 (min 100 (1_000_000 / n)) in
        let ranges m =
          List.init m (fun _ ->
              let lo = W.Rng.int rng 360 in
              (lo, lo + 5))
        in
        let idx_ranges = ranges n_ridx and seq_ranges = ranges n_rseq in
        let idx_plans = List.map (fun k -> plan_idx (point k)) idx_keys in
        let seq_plans = List.map (fun k -> plan_seq (point k)) seq_keys in
        let idx_rplans =
          List.map (fun (lo, hi) -> plan_idx (range lo hi)) idx_ranges
        in
        let seq_rplans =
          List.map (fun (lo, hi) -> plan_seq (range lo hi)) seq_ranges
        in
        if not (List.for_all is_index_scan (idx_plans @ idx_rplans)) then (
          row "  ERROR: a query on the indexed database missed its index@.";
          exit 1);
        (* Spot-check both access paths compute the same bag, and warm
           the index structures so build cost stays out of the probes. *)
        List.iter
          (fun k ->
            let via_idx = Exec.run db_idx (plan_idx (point k)) in
            let via_seq = Exec.run db (plan_seq (point k)) in
            if not (Relation.equal via_idx via_seq) then (
              row "  ERROR: index and seq scan disagree on %%1 = %d@." k;
              exit 1))
          [ 0; n / 2; n - 1 ];
        ignore (Exec.run db_idx (List.hd idx_rplans));
        let run db plans () =
          List.iter (fun p -> ignore (Exec.run db p)) plans
        in
        let pt_seq_ms, pt_idx_ms, pt_ratio =
          interleaved_compare 5 (run db seq_plans) (run db_idx idx_plans)
        in
        let rg_seq_ms, rg_idx_ms, rg_ratio =
          interleaved_compare 5 (run db seq_rplans) (run db_idx idx_rplans)
        in
        let per count ms = ms *. 1000.0 /. float_of_int count in
        let pt_speedup = pt_ratio *. float_of_int n_idx /. float_of_int n_seq in
        let rg_speedup =
          rg_ratio *. float_of_int n_ridx /. float_of_int n_rseq
        in
        row "  %9d | %11.2f %11.2f %8.1fx | %11.2f %11.2f %8.1fx@." n
          (per n_seq pt_seq_ms) (per n_idx pt_idx_ms) pt_speedup
          (per n_rseq rg_seq_ms) (per n_ridx rg_idx_ms) rg_speedup;
        (* q-error of the indexed access paths at one mid-size: the
           operator's estimate (matching-rows from distinct-key stats)
           against what the probe actually returned. *)
        if n = 10_000 then
          q_errors :=
            List.map
              (fun e ->
                let analysis = Exec.explain_analyze db_idx e in
                ( Physical.label analysis.Exec.root.Exec.node,
                  Lazy.force analysis.Exec.root.Exec.q_error ))
              ([ point 17; point (n / 2); point (n - 1) ]
              @ [ range 10 15; range 100 130; range 300 364 ]);
        (n, n_seq, pt_seq_ms, pt_idx_ms, pt_speedup, n_rseq, rg_seq_ms,
         rg_idx_ms, rg_speedup))
      sizes
  in
  let mean_q =
    let qs = List.map snd !q_errors in
    exp
      (List.fold_left (fun acc q -> acc +. log q) 0.0 qs
      /. float_of_int (max 1 (List.length qs)))
  in
  List.iter
    (fun (label, q) -> row "  q=%.2f  %s@." q label)
    !q_errors;
  row "  geometric-mean q-error over indexed paths: %.3f@." mean_q;
  (* Gate 1: >= 10x on point lookups from 100k rows up. *)
  let gate_10x =
    List.for_all
      (fun (n, _, _, _, speedup, _, _, _, _) -> n < 100_000 || speedup >= 10.0)
      points
  in
  (* Gate 2: indexed per-lookup cost sublinear across decades — each
     10x growth in rows may cost at most 5x per probe (O(n) would be
     10x; O(log n) measures near 1x, the slack absorbs host noise on
     sub-millisecond batches). *)
  let rec sublinear = function
    | (n1, _, _, ms1, _, _, _, _, _) :: ((n2, _, _, ms2, _, _, _, _, _) :: _ as rest)
      ->
        let grew = float_of_int n2 /. float_of_int n1 in
        let cost = ms2 /. Float.max ms1 1e-6 in
        if cost > grew /. 2.0 then (
          row "  ERROR: point probes grew %.1fx from %d to %d rows@." cost n1
            n2;
          false)
        else sublinear rest
    | _ -> true
  in
  let gate_sublinear = sublinear points in
  let gate_q = mean_q <= 2.0 in
  let buf = Buffer.create 2048 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n  \"experiment\": \"E18-index-scaling\",\n  \"sizes\": [";
  List.iteri
    (fun i
         (n, n_seq, pt_seq_ms, pt_idx_ms, pt_speedup, n_rseq, rg_seq_ms,
          rg_idx_ms, rg_speedup) ->
      if i > 0 then bpf ",";
      bpf "\n    {\"orders\": %d,\n" n;
      bpf
        "     \"point\": {\"seq_lookups\": %d, \"seq_ms\": %.3f, \
         \"idx_lookups\": 400, \"idx_ms\": %.3f, \"speedup_per_lookup\": \
         %.2f},\n"
        n_seq pt_seq_ms pt_idx_ms pt_speedup;
      bpf
        "     \"range\": {\"seq_lookups\": %d, \"seq_ms\": %.3f, \
         \"idx_lookups\": 100, \"idx_ms\": %.3f, \"speedup_per_lookup\": \
         %.2f}}"
        n_rseq rg_seq_ms rg_idx_ms rg_speedup)
    points;
  bpf "\n  ],\n  \"q_errors\": [";
  List.iteri
    (fun i (label, q) ->
      if i > 0 then bpf ",";
      bpf "\n    {\"op\": \"%s\", \"q\": %.4f}" (json_escape label) q)
    !q_errors;
  bpf "\n  ],\n  \"mean_q_error\": %.4f,\n" mean_q;
  bpf
    "  \"gates\": {\"point_10x_at_100k\": %b, \"sublinear_point\": %b, \
     \"q_error_leq_2\": %b}\n}\n"
    gate_10x gate_sublinear gate_q;
  let path = "BENCH_index.json" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  row "  wrote %s@." path;
  if not gate_10x then (
    row "  ERROR: point lookups via the hash index were < 10x faster than \
         SeqScan at >= 100k rows@.";
    exit 1);
  if not gate_sublinear then exit 1;
  if not gate_q then (
    row "  ERROR: geometric-mean q-error %.3f > 2.0 on indexed paths@." mean_q;
    exit 1)

(* --------------------------------------------------------------- E19 *)

(* MVCC snapshot isolation vs locking under a hot writer, plus the
   group-commit fsync-amortization curve.  Part A: one long writer
   transaction updates the hot relation while short readers arrive
   mid-flight; each reader's steps are scripted consecutively (the way
   a real scheduler would run a short transaction to completion), so
   under SI a reader's latency is just its own work, while under 2PL
   its first step blocks on the writer's X lock and it finishes only
   after the writer commits.  Gates: SI reader p50 within 1.5x of the
   idle-writer baseline; 2PL reader p50 at least 5x worse than it.
   Part B: the same transaction count committed in groups of k shares
   one WAL append + fsync per group — the measured fsync count must
   follow ceil(M/k) exactly.  Everything lands in BENCH_mvcc.json. *)
let e19_mvcc () =
  header "E19  snapshot isolation: readers vs a hot writer, group commit";
  let module Sched = Mxra_concurrency.Scheduler in
  let module Store = Mxra_storage.Store in
  let module Vfs = Mxra_storage.Vfs in
  let hot_rows = if quick then 1_500 else 4_000 in
  let readers = 8 and chunks = 5 in
  let updates = readers * chunks in
  let schema = Schema.of_list [ ("id", Domain.DInt); ("v", Domain.DInt) ] in
  let db =
    Database.of_relations
      [
        ( "hot",
          Relation.of_list schema
            (List.init hot_rows (fun i ->
                 Tuple.of_list [ Value.Int i; Value.Int 0 ])) );
        ( "tiny",
          Relation.of_list schema [ Tuple.of_list [ Value.Int 0; Value.Int 0 ] ]
        );
      ]
  in
  let update_hot k =
    Statement.Update
      ( "hot",
        Expr.select (Pred.eq (Scalar.attr 1) (Scalar.int k)) (Expr.rel "hot"),
        [ Scalar.attr 1; Scalar.add (Scalar.attr 2) (Scalar.int 1) ] )
  in
  let hot_writer =
    Transaction.make ~name:"hot-writer"
      (List.init updates (fun s -> update_hot (s mod hot_rows)))
  in
  let idle_writer =
    Transaction.make ~name:"idle-writer"
      (List.init updates (fun _ -> Statement.Query (Expr.rel "tiny")))
  in
  let reader i =
    Transaction.make
      ~name:(Printf.sprintf "r%d" i)
      [
        Statement.Query
          (Expr.select (Pred.eq (Scalar.attr 1) (Scalar.int i)) (Expr.rel "hot"));
      ]
  in
  (* The arrival script: the writer advances [chunks] statements, then
     reader i runs its query and commit back to back; the writer's own
     commit closes the batch.  Entries naming a blocked reader are
     skipped, which is exactly how 2PL degrades here. *)
  let script =
    List.concat
      (List.init readers (fun i ->
           List.init chunks (fun _ -> 0) @ [ i + 1; i + 1 ]))
    @ [ 0 ]
  in
  let reader_latencies isolation writer seed =
    let txns = writer :: List.init readers (fun i -> reader (i + 1)) in
    let result = Sched.run ~isolation ~schedule:script ~seed db txns in
    let committed =
      List.filter
        (function Sched.Committed -> true | Sched.Aborted _ -> false)
        result.Sched.outcomes
    in
    if List.length committed <> readers + 1 then (
      row "  ERROR: %d/%d transactions committed under %s@."
        (List.length committed) (readers + 1)
        (Sched.isolation_name isolation);
      exit 1);
    (result.Sched.stats.Sched.blocks, List.tl result.Sched.latencies_ms)
  in
  let rounds = [ 1; 2; 3; 4; 5 ] in
  let pooled isolation writer =
    let blocks = ref 0 and lats = ref [] in
    List.iter
      (fun seed ->
        let b, ls = reader_latencies isolation writer seed in
        blocks := !blocks + b;
        lats := ls @ !lats)
      rounds;
    (!blocks, !lats)
  in
  let p50 xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let _, base = pooled Sched.Si idle_writer in
  let si_blocks, si = pooled Sched.Si hot_writer in
  let tp_blocks, tp = pooled Sched.Two_pl hot_writer in
  let base_p50 = p50 base and si_p50 = p50 si and tp_p50 = p50 tp in
  let si_ratio = si_p50 /. base_p50 and tp_ratio = tp_p50 /. base_p50 in
  row "  %d hot rows, %d writer updates, %d readers x %d rounds@." hot_rows
    updates readers (List.length rounds);
  row "  %16s | %12s | %10s | %7s@." "mode" "reader p50" "vs idle" "blocks";
  row "  %16s | %9.3f ms | %9s | %7d@." "idle writer (si)" base_p50 "1.00x" 0;
  row "  %16s | %9.3f ms | %9.2fx | %7d@." "si" si_p50 si_ratio si_blocks;
  row "  %16s | %9.3f ms | %9.2fx | %7d@." "2pl" tp_p50 tp_ratio tp_blocks;
  (* Part B: fsync amortization on the in-memory VFS (pure syscall
     counts; timing on a memory "disk" is informational only). *)
  let m = 64 in
  let initial =
    Database.of_relations
      [
        ( "t",
          Relation.of_list schema
            (List.init 100 (fun i -> Tuple.of_list [ Value.Int i; Value.Int 0 ]))
        );
      ]
  in
  let insert_txn i =
    Transaction.make
      [
        Statement.Insert
          ( "t",
            Expr.const
              (Relation.of_list schema
                 [ Tuple.of_list [ Value.Int (1000 + i); Value.Int i ] ]) );
      ]
  in
  row "  %8s | %8s %10s | %10s@." "group" "fsyncs" "expected" "ms / txn";
  let curve =
    List.map
      (fun k ->
        let vfs = Vfs.memory () in
        let dir = "bench-group" in
        vfs.Vfs.write_file
          (Filename.concat dir "snapshot.xra")
          (Mxra_storage.Codec.encode_database initial);
        let store = Store.open_dir ~vfs dir in
        let _, ms =
          time_ms (fun () ->
              let rec go i =
                if i < m then begin
                  let g = min k (m - i) in
                  ignore
                    (Store.commit_group store
                       (List.init g (fun j -> insert_txn (i + j))));
                  go (i + g)
                end
              in
              go 0)
        in
        let fsyncs = Store.fsyncs store in
        let expected = (m + k - 1) / k in
        let records = Store.log_records store in
        Store.close store;
        row "  %8d | %8d %10d | %10.4f@." k fsyncs expected
          (ms /. float_of_int m);
        (k, fsyncs, expected, records, ms))
      [ 1; 2; 4; 8; 16 ]
  in
  let gate_si = si_ratio <= 1.5 in
  let gate_2pl = tp_ratio >= 5.0 in
  let gate_fsync =
    List.for_all (fun (_, f, e, r, _) -> f = e && r = m) curve
  in
  let buf = Buffer.create 1024 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n  \"experiment\": \"E19-mvcc-group-commit\",\n";
  bpf "  \"hot_rows\": %d,\n  \"readers\": %d,\n  \"writer_updates\": %d,\n"
    hot_rows readers updates;
  bpf "  \"baseline_p50_ms\": %.4f,\n  \"si_p50_ms\": %.4f,\n" base_p50 si_p50;
  bpf "  \"twopl_p50_ms\": %.4f,\n" tp_p50;
  bpf "  \"si_ratio\": %.3f,\n  \"twopl_ratio\": %.3f,\n" si_ratio tp_ratio;
  bpf "  \"si_blocks\": %d,\n  \"twopl_blocks\": %d,\n" si_blocks tp_blocks;
  bpf "  \"fsync_curve\": [";
  List.iteri
    (fun i (k, f, e, _, ms) ->
      if i > 0 then bpf ",";
      bpf "\n    {\"group\": %d, \"fsyncs\": %d, \"expected\": %d, \
           \"ms_per_txn\": %.5f}"
        k f e
        (ms /. float_of_int m))
    curve;
  bpf "\n  ],\n";
  bpf
    "  \"gates\": {\"si_readers_unaffected\": %b, \"twopl_degrades\": %b, \
     \"fsync_amortization\": %b}\n}\n"
    gate_si gate_2pl gate_fsync;
  let path = "BENCH_mvcc.json" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  row "  wrote %s@." path;
  if not gate_si then (
    row "  ERROR: SI reader p50 %.2fx the idle-writer baseline (gate 1.5x) — \
         readers are not isolated from the hot writer@."
      si_ratio;
    exit 1);
  if not gate_2pl then (
    row "  ERROR: 2PL reader p50 only %.2fx the baseline (gate 5x) — the \
         locking contrast has vanished, the workload no longer contends@."
      tp_ratio;
    exit 1);
  if not gate_fsync then (
    row "  ERROR: group commit did not amortize fsyncs as ceil(M/k)@.";
    exit 1)

(* --------------------------------------------------------------- E20 *)

(* Wait-event instrumentation and the ASH: three claims.  (a) The
   always-on hooks plus registration, progress tracking and ring
   pushes cost <= 5% on a real query workload — measured with the E17
   paired-median discipline, ASH enabled vs disabled, everything else
   identical.  (b) One contended MVCC workload (two writers in
   opposite orders under SI then 2PL, a durable commit on the memory
   VFS, a parallel map on a 2-domain pool, cadence samples via the
   scheduler's on_step) lights up every wait class — lock, conflict,
   io.fsync, io.wal, pool.queue, cpu.exec — read back through the
   engine from sys.ash like any relation.  (c) sys.progress for an
   in-flight query advances monotonically as the stream is pulled.
   Results land in BENCH_ash.json. *)

let e20_ash () =
  header "E20  wait events + ASH: overhead, class coverage, live progress";
  let module Obs = Mxra_obs in
  let module Sched = Mxra_concurrency.Scheduler in
  let module Store = Mxra_storage.Store in
  let module Vfs = Mxra_storage.Vfs in
  let module Pool = Ext.Pool in
  (* Part A: overhead.  The E17 workload — two beer examples and a
     three-way join — run with the full per-query ASH lifecycle
     (register, ambient slot so the executor's progress hook attaches,
     finish) against the same loop with ASH disabled, where register
     returns the inert slot and the hook never installs. *)
  let n = if quick then 2_000 else 10_000 in
  let beer_db =
    W.Beer.generate ~rng:(W.Rng.make 13) ~breweries:(n / 100) ~beers:n ()
  in
  let rng = W.Rng.make 2020 in
  let a = W.Synth.two_column_int ~rng ~size:(n / 4) ~distinct:500 in
  let b = W.Synth.two_column_int ~rng ~size:n ~distinct:500 in
  let c = W.Synth.two_column_int ~rng ~size:60 ~distinct:500 in
  let abc = Database.of_relations [ ("a", a); ("b", b); ("c", c) ] in
  let three_way =
    Expr.join
      (Pred.eq (Scalar.attr 4) (Scalar.attr 5))
      (Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "a")
         (Expr.rel "b"))
      (Expr.rel "c")
  in
  let queries =
    [
      (beer_db, W.Beer.example_3_1);
      (beer_db, W.Beer.example_3_2);
      (abc, three_way);
    ]
  in
  let plans =
    List.map
      (fun (db, e) ->
        ( db,
          Expr.to_string e,
          Planner.plan db (Opt.Optimizer.optimize_db db e) ))
      queries
  in
  let reps = if quick then 3 else 10 in
  let sample () =
    for _ = 1 to reps do
      List.iter
        (fun (db, text, plan) ->
          let qid = Obs.Qid.mint () in
          let slot = Obs.Ash.register ~lang:"xra" ~text ~qid () in
          Obs.Ash.with_slot slot (fun () -> ignore (Exec.run db plan));
          Obs.Ash.finish slot)
        plans
    done
  in
  let was_enabled = Obs.Ash.enabled () in
  Obs.Ash.set_enabled false;
  sample () (* warm-up *);
  let rounds = if quick then 5 else 9 in
  let enabled_min, disabled_min, ratio =
    interleaved_compare rounds
      (fun () ->
        Obs.Ash.set_enabled true;
        sample ())
      (fun () ->
        Obs.Ash.set_enabled false;
        sample ())
  in
  let pct = (ratio -. 1.0) *. 100.0 in
  row "  %-14s | %10s %10s@." "config" "min ms" "overhead";
  row "  %-14s | %10.3f %9.1f%%@." "ash off" disabled_min 0.0;
  row "  %-14s | %10.3f %9.1f%%  (paired median)@." "ash on" enabled_min pct;
  (* Part B: class coverage.  Fresh ring, then one contended pass:
     w1 updates rows (1,2), w2 updates (2,1), fully interleaved.
     Under SI the second committer loses first-committer-wins
     (conflict); under 2PL w2 blocks on the relation lock and its
     settled wait lands as a lock event.  on_step samples the running
     sessions (cpu.exec); a durable group commit on the memory VFS
     emits io.wal and io.fsync; a chunked parallel map on a 2-domain
     pool makes the submitting thread wait out the drain
     (pool.queue). *)
  Obs.Ash.set_enabled true;
  Obs.Ash.clear ();
  let schema = Schema.of_list [ ("id", Domain.DInt); ("v", Domain.DInt) ] in
  let mk_rows m =
    List.init m (fun i -> Tuple.of_list [ Value.Int i; Value.Int 0 ])
  in
  let cdb =
    Database.of_relations [ ("hot", Relation.of_list schema (mk_rows 64)) ]
  in
  let update_k k =
    Statement.Update
      ( "hot",
        Expr.select (Pred.eq (Scalar.attr 1) (Scalar.int k)) (Expr.rel "hot"),
        [ Scalar.attr 1; Scalar.add (Scalar.attr 2) (Scalar.int 1) ] )
  in
  let w1 () = Transaction.make ~name:"w1" [ update_k 1; update_k 2 ] in
  let w2 () = Transaction.make ~name:"w2" [ update_k 2; update_k 1 ] in
  let on_step () = ignore (Obs.Ash.sample_now ()) in
  let interleaved = [ 0; 1; 0; 1; 0; 1; 0; 1 ] in
  ignore
    (Sched.run ~isolation:Sched.Si ~schedule:interleaved ~on_step ~seed:7 cdb
       [ w1 (); w2 () ]);
  ignore
    (Sched.run ~isolation:Sched.Two_pl ~schedule:interleaved ~on_step ~seed:7
       cdb
       [ w1 (); w2 () ]);
  (let vfs = Vfs.memory () in
   let dir = "bench-ash" in
   vfs.Vfs.write_file
     (Filename.concat dir "snapshot.xra")
     (Mxra_storage.Codec.encode_database cdb);
   let store = Store.open_dir ~vfs dir in
   ignore (Store.commit_group store [ w1 () ]);
   Store.close store);
  (* The drain wait only exists when a worker domain is still inside a
     morsel as the caller runs out — a race the caller can lose on a
     fast map, so sleep-heavy morsels and a bounded retry make the
     event certain without ever faking one. *)
  (let before = Obs.Wait.count Obs.Wait.Pool_queue in
   let tries = ref 0 in
   while Obs.Wait.count Obs.Wait.Pool_queue = before && !tries < 5 do
     incr tries;
     Pool.with_pool 2 (fun p ->
         ignore
           (Pool.map_array ~chunk:1 p
              (fun _ -> Unix.sleepf 0.002)
              (Array.init 32 Fun.id)))
   done);
  let ash_rel = Exec.run_expr (Syscat.attach cdb) (Expr.rel "sys.ash") in
  let classes =
    List.fold_left
      (fun acc t ->
        match Tuple.attr t 4 with
        | Value.Str s when not (List.mem s acc) -> s :: acc
        | _ -> acc)
      []
      (Relation.to_list ash_rel)
    |> List.sort compare
  in
  let required = [ "conflict"; "cpu.exec"; "io.fsync"; "lock"; "pool.queue" ] in
  let missing = List.filter (fun c -> not (List.mem c classes)) required in
  row "  ash rows: %d   classes: %s@."
    (Relation.cardinal ash_rel)
    (String.concat ", " classes);
  (* Part C: progress monotonicity.  Stream a selection over 20k rows
     pull-at-a-time with a live slot; every ~1k tuples read the
     statement's sys.progress row and require rows and chunks never to
     move backwards. *)
  let big =
    W.Synth.two_column_int ~rng ~size:(if quick then 5_000 else 20_000)
      ~distinct:100
  in
  let pdb = Database.of_relations [ ("big", big) ] in
  let pexpr =
    Expr.select (Pred.ge (Scalar.attr 2) (Scalar.int 0)) (Expr.rel "big")
  in
  let pplan = Planner.plan pdb (Opt.Optimizer.optimize_db pdb pexpr) in
  let pqid = Obs.Qid.mint () in
  let pslot = Obs.Ash.register ~lang:"xra" ~text:"progress probe" ~qid:pqid () in
  Obs.Ash.set_estimate pslot (float_of_int (Relation.cardinal big));
  let mono = ref true and probes = ref 0 and lr = ref 0 and lc = ref 0 in
  let pulled = ref 0 in
  Obs.Ash.with_slot pslot (fun () ->
      Exec.stream ~chunk_size:256 pdb pplan
      |> Seq.iter (fun _ ->
             incr pulled;
             if !pulled mod 997 = 0 then
               match
                 List.find_opt
                   (fun p -> p.Obs.Ash.p_qid = pqid)
                   (Obs.Ash.progress ())
               with
               | Some p ->
                   incr probes;
                   if p.Obs.Ash.p_rows < !lr || p.Obs.Ash.p_chunks < !lc then
                     mono := false;
                   if p.Obs.Ash.p_pct > 100.0 then mono := false;
                   lr := p.Obs.Ash.p_rows;
                   lc := p.Obs.Ash.p_chunks
               | None -> mono := false));
  Obs.Ash.finish pslot;
  Obs.Ash.set_enabled was_enabled;
  let gate_overhead = pct <= 5.0 in
  let gate_classes = missing = [] in
  let gate_progress = !mono && !probes > 0 && !lr > 0 in
  row "  progress probes: %d  final rows seen: %d  monotonic: %b@." !probes
    !lr !mono;
  let buf = Buffer.create 1024 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n  \"experiment\": \"E20-ash-wait-events\",\n";
  bpf "  \"reps\": %d, \"queries\": %d,\n" reps (List.length plans);
  bpf "  \"ash_off_ms\": %.3f,\n  \"ash_on_ms\": %.3f,\n" disabled_min
    enabled_min;
  bpf "  \"overhead_pct\": %.2f,\n" pct;
  bpf "  \"wait_classes\": [%s],\n"
    (String.concat ", " (List.map (Printf.sprintf "\"%s\"") classes));
  bpf "  \"progress_probes\": %d,\n  \"progress_rows\": %d,\n" !probes !lr;
  bpf
    "  \"gates\": {\"overhead_within_5pct\": %b, \"all_wait_classes\": %b, \
     \"progress_monotonic\": %b}\n}\n"
    gate_overhead gate_classes gate_progress;
  let path = "BENCH_ash.json" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  row "  wrote %s@." path;
  if not gate_overhead then (
    row
      "  ERROR: ASH overhead %.1f%% exceeds the 5%% budget (ISSUE \
       acceptance)@."
      pct;
    exit 1);
  if not gate_classes then (
    row "  ERROR: wait classes missing from sys.ash: %s@."
      (String.concat ", " missing);
    exit 1);
  if not gate_progress then (
    row "  ERROR: sys.progress went backwards or never advanced@.";
    exit 1)

(* ------------------------------------------------- bechamel suite *)

let bechamel_suite () =
  header "Bechamel micro-benchmarks (OLS estimate per run, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  (* Shared inputs, prepared once. *)
  let rng = W.Rng.make 2026 in
  let n = if quick then 2_000 else 8_000 in
  let r = W.Synth.two_column_int ~rng ~size:n ~distinct:(n / 4) in
  let s = W.Synth.two_column_int ~rng ~size:n ~distinct:(n / 4) in
  let db = Database.of_relations [ ("r", r); ("s", s) ] in
  let beer_db = W.Beer.generate ~rng ~breweries:50 ~beers:n () in
  let join_expr =
    Expr.join (Pred.eq (Scalar.attr 1) (Scalar.attr 3)) (Expr.rel "r")
      (Expr.rel "s")
  in
  let pipeline =
    Expr.project_attrs [ 2 ]
      (Expr.select (Pred.lt (Scalar.attr 2) (Scalar.attr 3)) join_expr)
  in
  let graph = W.Synth.chain_relation ~rng ~nodes:150 ~extra_edges:150 in
  let stage = Staged.stage in
  let tests =
    Test.make_grouped ~name:"mxra"
      [
        Test.make_grouped ~name:"E1-dup-removal"
          [
            Test.make ~name:"bag-pipeline"
              (stage (fun () -> Exec.run_expr db pipeline));
            Test.make ~name:"set-pipeline"
              (stage (fun () -> Exec.run_expr db (setify pipeline)));
          ];
        Test.make_grouped ~name:"E2-thm31"
          [
            Test.make ~name:"native-intersect"
              (stage (fun () ->
                   Exec.run_expr db
                     (Expr.intersect (Expr.rel "r") (Expr.rel "s"))));
            Test.make ~name:"derived-intersect"
              (stage (fun () ->
                   Exec.run_expr db
                     (Expr.diff (Expr.rel "r")
                        (Expr.diff (Expr.rel "r") (Expr.rel "s")))));
            Test.make ~name:"hash-join"
              (stage (fun () -> Exec.run_expr db join_expr));
          ];
        Test.make_grouped ~name:"E3-thm32"
          [
            Test.make ~name:"select-union"
              (stage (fun () ->
                   Exec.run_expr db
                     (Expr.select
                        (Pred.lt (Scalar.attr 1) (Scalar.int 100))
                        (Expr.union (Expr.rel "r") (Expr.rel "s")))));
            Test.make ~name:"distributed"
              (stage (fun () ->
                   let p = Pred.lt (Scalar.attr 1) (Scalar.int 100) in
                   Exec.run_expr db
                     (Expr.union
                        (Expr.select p (Expr.rel "r"))
                        (Expr.select p (Expr.rel "s")))));
          ];
        Test.make_grouped ~name:"E5-early-projection"
          [
            Test.make ~name:"full"
              (stage (fun () -> Exec.run_expr beer_db W.Beer.example_3_2));
            Test.make ~name:"reduced"
              (stage (fun () ->
                   Exec.run_expr beer_db W.Beer.example_3_2_reduced));
          ];
        Test.make_grouped ~name:"E8-closure"
          [
            Test.make ~name:"semi-naive"
              (stage (fun () -> Ext.Closure.closure graph));
            Test.make ~name:"naive"
              (stage (fun () -> Ext.Closure.closure_naive graph));
          ];
        Test.make_grouped ~name:"E9-E10-frontends"
          [
            Test.make ~name:"optimize-ex32"
              (stage (fun () ->
                   Opt.Optimizer.optimize_db beer_db W.Beer.example_3_2));
            Test.make ~name:"sql-translate"
              (stage (fun () ->
                   Mxra_sql.Translate.query_of_string
                     (Typecheck.env_of_database beer_db)
                     "SELECT country, AVG(alcperc) FROM beer, brewery WHERE \
                      beer.brewery = brewery.name GROUP BY country"));
          ];
      ]
  in
  let quota = Time.second (if quick then 0.1 else 0.4) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> t
          | Some [] | None -> Float.nan
        in
        (name, estimate) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      if Float.is_nan ns then row "  %-44s %14s@." name "n/a"
      else if ns > 1e6 then row "  %-44s %11.3f ms@." name (ns /. 1e6)
      else row "  %-44s %11.1f ns@." name ns)
    rows

let () =
  Format.printf
    "mxra benchmark harness: experiments E1..E20 of DESIGN.md section 5%s@."
    (if quick then " (quick mode)" else "");
  let run name f = if wants name then f () in
  run "e1" e1_dup_removal;
  run "e2" e2_derived_operators;
  run "e3" e3_distribution;
  run "e4" e4_join_order;
  run "e5" e5_early_projection;
  run "e6" e6_transactions;
  run "e7" e7_parallel;
  run "e8" e8_closure;
  run "e9" e9_optimizer_gain;
  run "e10" e10_sql;
  run "e11" e11_durability;
  run "e12" e12_isolation;
  run "e13" e13_estimation_quality;
  run "e14" e14_observability_overhead;
  run "e15" e15_parallel_speedup;
  run "e17" e17_catalog_overhead;
  run "e18" e18_index_scaling;
  run "e19" e19_mvcc;
  run "e20" e20_ash;
  run "bechamel" bechamel_suite;
  Format.printf "@.done.@."
