(* Observability tests: histogram quantile laws (property-based), the
   Chrome sink's output staying valid JSON with complete spans when the
   traced code raises, Prometheus text rendering, the aggregation sink,
   and the scheduler's per-transaction output delivery. *)

open Mxra_relational
open Mxra_core
module Obs = Mxra_obs
module H = Mxra_obs.Histogram
module Trace = Mxra_obs.Trace

(* --- a minimal JSON validity checker ----------------------------------

   The image carries no JSON library, so validity is checked with a
   recursive-descent recogniser: structure only, no values retained. *)

exception Bad_json

let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = Some c then advance () else raise Bad_json in
  let literal lit = String.iter expect lit in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          if peek () = None then raise Bad_json;
          advance ();
          go ()
      | Some _ ->
          advance ();
          go ()
      | None -> raise Bad_json
    in
    go ()
  in
  let number () =
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    let started = ref false in
    let rec go () =
      match peek () with
      | Some c when num_char c ->
          started := true;
          advance ();
          go ()
      | _ -> if not !started then raise Bad_json
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> raise Bad_json
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else begin
      members ();
      skip_ws ();
      expect '}'
    end
  and members () =
    skip_ws ();
    string_lit ();
    skip_ws ();
    expect ':';
    value ();
    skip_ws ();
    if peek () = Some ',' then begin
      advance ();
      members ()
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else begin
      elements ();
      skip_ws ();
      expect ']'
    end
  and elements () =
    value ();
    skip_ws ();
    if peek () = Some ',' then begin
      advance ();
      elements ()
    end
  in
  match
    value ();
    skip_ws ()
  with
  | () -> !pos = n
  | exception Bad_json -> false

let count_occurrences sub s =
  let m = String.length sub and n = String.length s in
  let rec go i acc =
    if i + m > n then acc
    else if String.sub s i m = sub then go (i + m) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let contains sub s = count_occurrences sub s > 0

(* --- histogram properties --------------------------------------------- *)

let samples =
  QCheck.list_of_size QCheck.Gen.(1 -- 300) (QCheck.float_range 1e-7 1e7)

let fill l =
  let h = H.create () in
  List.iter (H.observe h) l;
  h

let prop ?(count = 200) name arb p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb p)

let prop_count_conservation =
  prop "count and sum are conserved" samples (fun l ->
      let h = fill l in
      H.count h = List.length l
      && Float.abs (H.sum h -. List.fold_left ( +. ) 0.0 l)
         <= 1e-9 *. Float.max 1.0 (H.sum h)
      && H.min_value h = List.fold_left Float.min Float.infinity l
      && H.max_value h = List.fold_left Float.max Float.neg_infinity l)

let prop_quantile_ordering =
  prop "min <= p50 <= p90 <= p99 <= max" samples (fun l ->
      let h = fill l in
      let q p = H.quantile h p in
      H.min_value h <= q 0.5
      && q 0.5 <= q 0.9
      && q 0.9 <= q 0.99
      && q 0.99 <= H.max_value h)

let prop_quantile_monotone =
  prop "quantile is monotone in p"
    (QCheck.triple samples (QCheck.int_bound 100) (QCheck.int_bound 100))
    (fun (l, a, b) ->
      let h = fill l in
      let p = float_of_int (min a b) /. 100.0
      and q = float_of_int (max a b) /. 100.0 in
      H.quantile h p <= H.quantile h q)

let prop_quantile_accuracy =
  (* The γ = 2^(1/4) bucketing guarantees ~9% relative error; check a
     generous 20% against the exact empirical quantile. *)
  prop "quantile tracks the empirical quantile" samples (fun l ->
      let h = fill l in
      let sorted = List.sort Float.compare l in
      let exact p =
        let rank =
          int_of_float (Float.ceil (p *. float_of_int (List.length l)))
        in
        List.nth sorted (max 0 (min (List.length l - 1) (rank - 1)))
      in
      List.for_all
        (fun p ->
          let approx = H.quantile h p and e = exact p in
          Float.abs (approx -. e) <= 0.2 *. Float.max approx e)
        [ 0.5; 0.9; 0.99 ])

let test_histogram_ignores_nonfinite () =
  let h = fill [ 1.0; Float.nan; Float.infinity; 2.0; Float.neg_infinity ] in
  Alcotest.(check int) "count" 2 (H.count h);
  Alcotest.(check (float 1e-9)) "sum" 3.0 (H.sum h)

let prop_p50_in_range =
  prop "p50 of any non-empty histogram lies in [min, max]" samples (fun l ->
      let h = fill l in
      let p50 = H.quantile h 0.5 in
      H.min_value h <= p50 && p50 <= H.max_value h)

(* One observation: every percentile is that observation — the clamp
   into [vmin, vmax] collapses the bucket midpoint onto the sample, so
   a single 3 ms latency reports p50 = p99 = 3 ms, not a bucket
   boundary and never 0. *)
let test_histogram_single_sample () =
  let h = fill [ 3.0 ] in
  Alcotest.(check (float 1e-9)) "p50" 3.0 (H.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p99" 3.0 (H.quantile h 0.99);
  Alcotest.(check (float 1e-9)) "p0" 3.0 (H.quantile h 0.0)

(* Every sample in one geometric bucket (ratios below γ = 2^¼): the
   quantiles must land inside the observed range, not on the bucket's
   upper bound above it, and must not be 0. *)
let test_histogram_one_bucket () =
  let l = [ 10.0; 10.5; 11.0; 11.5 ] in
  let h = fill l in
  List.iter
    (fun p ->
      let q = H.quantile h p in
      Alcotest.(check bool)
        (Printf.sprintf "q(%.2f) = %g within [10, 11.5]" p q)
        true
        (10.0 <= q && q <= 11.5))
    [ 0.5; 0.9; 0.99 ];
  Alcotest.(check bool) "nonzero" true (H.quantile h 0.5 > 0.0)

(* --- Chrome sink ------------------------------------------------------- *)

let with_chrome_trace f =
  let path = Filename.temp_file "mxra_obs_test" ".json" in
  let oc = open_out path in
  Trace.set_sinks [ Obs.Chrome_sink.sink oc ];
  Fun.protect
    ~finally:(fun () ->
      Trace.close ();
      close_out oc)
    f;
  let s = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  s

let test_chrome_sink_valid_json () =
  let trace =
    with_chrome_trace (fun () ->
        Trace.with_span "outer" ~attrs:[ ("k", Trace.Int 1) ] (fun () ->
            Trace.event "ping"
              ~attrs:[ ("s", Trace.Str "quo\"ted\\back\nslash") ];
            Trace.with_span "inner"
              ~attrs:
                [ ("f", Trace.Float 1.5); ("b", Trace.Bool true) ]
              (fun () -> ()));
        match Trace.with_span "raising" (fun () -> failwith "boom") with
        | () -> Alcotest.fail "expected Failure"
        | exception Failure _ -> ())
  in
  Alcotest.(check bool) "valid JSON" true (json_valid trace);
  (* Every span is one complete X record even when the thunk raised;
     nothing is left unbalanced. *)
  Alcotest.(check int) "complete X events" 3
    (count_occurrences "\"ph\":\"X\"" trace);
  Alcotest.(check int) "instant events" 1
    (count_occurrences "\"ph\":\"i\"" trace);
  Alcotest.(check bool) "raising span present" true
    (contains "\"name\":\"raising\"" trace)

let test_chrome_sink_empty_trace () =
  let trace = with_chrome_trace (fun () -> ()) in
  Alcotest.(check bool) "valid JSON" true (json_valid trace)

let test_disabled_tracing_is_transparent () =
  Trace.set_sinks [];
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  Alcotest.(check int) "value through" 42 (Trace.with_span "x" (fun () -> 42));
  match Trace.with_span "x" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ()

(* --- query-log sink ---------------------------------------------------- *)

let with_query_log ~slow_ms f =
  let path = Filename.temp_file "mxra_obs_test" ".jsonl" in
  let oc = open_out path in
  Trace.set_sinks [ Obs.Query_log_sink.sink ~slow_ms oc ];
  Fun.protect
    ~finally:(fun () ->
      Trace.close ();
      close_out oc)
    f;
  let s = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  s

let test_query_log_records () =
  let log =
    with_query_log ~slow_ms:0.0 (fun () ->
        Trace.with_span "query"
          ~attrs:[ ("lang", Trace.Str "xra"); ("rows", Trace.Int 3) ]
          (fun () -> ());
        Trace.with_span "not-a-query" (fun () -> ()))
  in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' log)
  in
  Alcotest.(check int) "one record" 1 (List.length lines);
  let line = List.hd lines in
  Alcotest.(check bool) "valid JSON" true (json_valid line);
  Alcotest.(check bool) "has lang" true (contains "\"lang\":\"xra\"" line);
  Alcotest.(check bool) "has rows" true (contains "\"rows\":3" line)

let test_query_log_threshold () =
  let log =
    with_query_log ~slow_ms:1e9 (fun () ->
        Trace.with_span "query" (fun () -> ()))
  in
  Alcotest.(check string) "below threshold: nothing logged" "" log

(* --- aggregation sink and Prometheus rendering ------------------------- *)

let test_agg_sink () =
  let agg = Obs.Agg_sink.create () in
  Trace.set_sinks [ Obs.Agg_sink.sink agg ];
  Fun.protect
    ~finally:(fun () -> Trace.close ())
    (fun () ->
      Trace.with_span "alpha" ~attrs:[ ("rows", Trace.Int 3) ] (fun () -> ());
      Trace.with_span "alpha" ~attrs:[ ("rows", Trace.Int 4) ] (fun () -> ());
      Trace.with_span "beta" ~attrs:[ ("tag", Trace.Str "x") ] (fun () -> ());
      Trace.event "tick";
      Trace.event "tick");
  Alcotest.(check (list string))
    "span names" [ "alpha"; "beta" ]
    (Obs.Agg_sink.span_names agg);
  (match Obs.Agg_sink.durations agg "alpha" with
  | Some h -> Alcotest.(check int) "alpha count" 2 (H.count h)
  | None -> Alcotest.fail "no alpha histogram");
  Alcotest.(check bool) "rows total" true
    (List.exists
       (fun (s, a, v) -> s = "alpha" && a = "rows" && v = 7.0)
       (Obs.Agg_sink.attr_totals agg));
  Alcotest.(check bool) "string attrs not aggregated" true
    (List.for_all (fun (s, _, _) -> s <> "beta") (Obs.Agg_sink.attr_totals agg));
  Alcotest.(check (list (pair string int)))
    "events" [ ("tick", 2) ]
    (Obs.Agg_sink.event_counts agg)

let test_prometheus_sanitize () =
  Alcotest.(check string) "illegal chars" "a_b_c"
    (Obs.Prometheus.sanitize "a-b.c");
  Alcotest.(check string) "leading digit" "_9lives"
    (Obs.Prometheus.sanitize "9lives")

let test_prometheus_summary () =
  let h = fill [ 1.0; 2.0; 3.0; 4.0 ] in
  let s = Obs.Prometheus.summary ~help:"latency" "lat_ms" h in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains needle s))
    [
      "# HELP lat_ms latency";
      "# TYPE lat_ms summary";
      "lat_ms{quantile=\"0.5\"}";
      "lat_ms{quantile=\"0.9\"}";
      "lat_ms{quantile=\"0.99\"}";
      "lat_ms_sum 10";
      "lat_ms_count 4";
    ]

let test_prometheus_of_aggregate () =
  let agg = Obs.Agg_sink.create () in
  Trace.set_sinks [ Obs.Agg_sink.sink agg ];
  Fun.protect
    ~finally:(fun () -> Trace.close ())
    (fun () ->
      Trace.with_span "store.commit"
        ~attrs:[ ("wal_bytes", Trace.Int 128) ]
        (fun () -> ());
      Trace.event "lock.wait");
  let s = Obs.Prometheus.of_aggregate agg in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains needle s))
    [
      "# TYPE mxra_store_commit_ms summary";
      "mxra_store_commit_ms_count 1";
      "mxra_store_commit_wal_bytes_total 128";
      "mxra_lock_wait_events_total 1";
    ]

let test_engine_metrics_prometheus () =
  let m = Mxra_engine.Metrics.create () in
  Mxra_engine.Metrics.add (Mxra_engine.Metrics.counter m "tuples-moved") 41;
  Mxra_engine.Metrics.add_ms (Mxra_engine.Metrics.timer m "wall") 1.25;
  let s = Mxra_engine.Metrics.prometheus m in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains needle s))
    [
      "# TYPE mxra_tuples_moved_total counter";
      "mxra_tuples_moved_total 41";
      "# TYPE mxra_wall_ms gauge";
      "mxra_wall_ms 1.25";
    ]

(* --- histogram merge (per-domain shard combine) ------------------------ *)

let prop_merge_conservation =
  prop "merge conserves counts, sums, extrema and buckets"
    (QCheck.pair samples samples)
    (fun (l1, l2) ->
      let a = fill l1 and b = fill l2 in
      let m = H.copy a in
      H.merge m b;
      let both = fill (l1 @ l2) in
      H.count m = H.count both
      && Float.abs (H.sum m -. H.sum both)
         <= 1e-6 *. Float.max 1.0 (Float.abs (H.sum both))
      && H.min_value m = H.min_value both
      && H.max_value m = H.max_value both
      && H.buckets m = H.buckets both
      (* neither source is disturbed: copy decoupled, merge reads only *)
      && H.count a = List.length l1
      && H.count b = List.length l2)

(* --- agg sink hammered from four domains (domain safety) ---------------- *)

let prop_agg_sink_parallel =
  prop ~count:10 "agg sink survives four writer domains without losing updates"
    (QCheck.make ~print:string_of_int QCheck.Gen.(100 -- 1000))
    (fun per_domain ->
      let agg = Obs.Agg_sink.create () in
      let sink = Obs.Agg_sink.sink agg in
      let worker d () =
        for i = 1 to per_domain do
          sink.Trace.on_span
            {
              Trace.name = "hot";
              tid = d;
              start_us = 0.0;
              dur_us = float_of_int (1 + (i mod 97));
              attrs = [ ("rows", Trace.Int 1) ];
            };
          if i mod 4 = 0 then
            sink.Trace.on_event
              { Trace.ev_name = "tick"; ev_tid = d; ts_us = 0.0; ev_attrs = [] }
        done
      in
      let domains = Array.init 4 (fun d -> Stdlib.Domain.spawn (worker d)) in
      (* Concurrent snapshot reads must neither crash nor tear. *)
      for _ = 1 to 25 do
        ignore (Obs.Agg_sink.span_names agg);
        ignore (Obs.Agg_sink.durations agg "hot");
        ignore (Obs.Agg_sink.event_counts agg)
      done;
      Array.iter Stdlib.Domain.join domains;
      let total = 4 * per_domain in
      (match Obs.Agg_sink.durations agg "hot" with
      | Some h -> H.count h = total
      | None -> false)
      && List.exists
           (fun (s, a, v) -> s = "hot" && a = "rows" && v = float_of_int total)
           (Obs.Agg_sink.attr_totals agg)
      && Obs.Agg_sink.event_counts agg = [ ("tick", 4 * (per_domain / 4)) ])

(* --- prometheus exposition checker ------------------------------------- *)

exception Bad_labels

let label_key_ok k =
  k <> ""
  && (match k.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       k

(* Scan a label block [{k="v",...}] starting at [start] (which must be
   the ['{']), honouring the exposition format's backslash escapes
   inside quoted values — so values containing quotes, commas, braces
   or escaped newlines parse correctly.  Returns the pairs with values
   unescaped, and the index just past the closing ['}'].  Raises
   {!Bad_labels} on malformed input. *)
let parse_label_block s start =
  let n = String.length s in
  let i = ref (start + 1) in
  let expect c =
    if !i < n && s.[!i] = c then incr i else raise Bad_labels
  in
  let key () =
    let j = ref !i in
    while !j < n && s.[!j] <> '=' do incr j done;
    if !j >= n then raise Bad_labels;
    let k = String.sub s !i (!j - !i) in
    i := !j;
    k
  in
  let value () =
    expect '"';
    let b = Buffer.create 8 in
    let rec go () =
      if !i >= n then raise Bad_labels
      else
        match s.[!i] with
        | '"' -> incr i
        | '\\' ->
            if !i + 1 >= n then raise Bad_labels;
            (match s.[!i + 1] with
            | '\\' -> Buffer.add_char b '\\'
            | '"' -> Buffer.add_char b '"'
            | 'n' -> Buffer.add_char b '\n'
            | _ -> raise Bad_labels);
            i := !i + 2;
            go ()
        | c ->
            Buffer.add_char b c;
            incr i;
            go ()
    in
    go ();
    Buffer.contents b
  in
  if !i < n && s.[!i] = '}' then begin
    incr i;
    ([], !i)
  end
  else begin
    let pairs = ref [] in
    let rec pair () =
      let k = key () in
      if not (label_key_ok k) then raise Bad_labels;
      expect '=';
      let v = value () in
      pairs := (k, v) :: !pairs;
      if !i < n && s.[!i] = ',' then begin
        incr i;
        pair ()
      end
      else expect '}'
    in
    pair ();
    (List.rev !pairs, !i)
  end

(* A line-by-line recogniser of the Prometheus text format (0.0.4), the
   property every /metrics page must satisfy: names legal, a TYPE
   header before any sample of its family, label sets well-formed,
   values numeric, and histogram families with ascending bounds,
   monotone cumulative counts and a terminal +Inf bucket equal to
   _count. *)
let exposition_ok page =
  let ok = ref true in
  let fail () = ok := false in
  let types = Hashtbl.create 16 in
  let hist_buckets = Hashtbl.create 16 in (* family -> (le, count) rev list *)
  let hist_counts = Hashtbl.create 16 in
  let name_ok n =
    n <> ""
    && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
         n
  in
  let family_of name =
    if Hashtbl.mem types name then Some name
    else
      List.find_map
        (fun suffix ->
          if Filename.check_suffix name suffix then
            let base = Filename.chop_suffix name suffix in
            if Hashtbl.mem types base then Some base else None
          else None)
        [ "_sum"; "_count"; "_bucket" ]
  in
  let sample line =
    let name_end =
      match (String.index_opt line '{', String.index_opt line ' ') with
      | Some b, Some sp -> min b sp
      | Some b, None -> b
      | None, Some sp -> sp
      | None, None -> String.length line
    in
    let name = String.sub line 0 name_end in
    let rest = String.sub line name_end (String.length line - name_end) in
    let labels, value_s =
      if rest <> "" && rest.[0] = '{' then
        match parse_label_block rest 0 with
        | pairs, close ->
            ( Some pairs,
              String.trim
                (String.sub rest close (String.length rest - close)) )
        | exception Bad_labels -> (None, "")
      else (Some [], String.trim rest)
    in
    let value =
      match value_s with
      | "+Inf" -> Some Float.infinity
      | s -> float_of_string_opt s
    in
    match (labels, value, family_of name) with
    | Some lbls, Some v, Some family ->
        if
          Hashtbl.find types family = "histogram"
          && Filename.check_suffix name "_bucket"
        then (
          match List.assoc_opt "le" lbls with
          | Some le ->
              let prev =
                Option.value ~default:[] (Hashtbl.find_opt hist_buckets family)
              in
              Hashtbl.replace hist_buckets family ((le, v) :: prev)
          | None -> fail ());
        if
          Hashtbl.find types family = "histogram"
          && Filename.check_suffix name "_count"
        then Hashtbl.replace hist_counts family v
    | _ -> fail ()
  in
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.length line >= 7 && String.sub line 0 7 = "# HELP " then begin
        let rest = String.sub line 7 (String.length line - 7) in
        let name =
          match String.index_opt rest ' ' with
          | Some i -> String.sub rest 0 i
          | None -> rest
        in
        if not (name_ok name) then fail ()
      end
      else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | [ _; _; name; kind ]
          when name_ok name
               && List.mem kind
                    [ "counter"; "gauge"; "summary"; "histogram"; "untyped" ]
          ->
            Hashtbl.replace types name kind
        | _ -> fail ()
      end
      else if line.[0] = '#' then ()
      else sample line)
    (String.split_on_char '\n' page);
  Hashtbl.iter
    (fun family rev ->
      let bs = List.rev rev in
      let les = List.map fst bs and vs = List.map snd bs in
      let le_value le =
        if le = "+Inf" then Some Float.infinity else float_of_string_opt le
      in
      if not (List.for_all (fun le -> le_value le <> None) les) then fail ();
      (match List.rev les with
      | last :: _ -> if last <> "+Inf" then fail ()
      | [] -> fail ());
      let rec mono = function
        | a :: (b :: _ as t) -> a <= b && mono t
        | _ -> true
      in
      if not (mono vs) then fail ();
      if not (mono (List.filter_map le_value les)) then fail ();
      match (Hashtbl.find_opt hist_counts family, List.rev vs) with
      | Some c, total :: _ -> if c <> total then fail ()
      | _ -> fail ())
    hist_buckets;
  !ok

let prop_exposition =
  prop "every rendered family parses as valid exposition text" samples
    (fun l ->
      let h = fill l in
      exposition_ok
        (Obs.Prometheus.counter ~help:"requests" "reqs_total"
           (float_of_int (List.length l))
        ^ Obs.Prometheus.gauge "queue_depth" (H.sum h)
        ^ Obs.Prometheus.summary ~help:"latency" "lat_ms" h
        ^ Obs.Prometheus.histogram ~help:"latency" "lat_hist_ms" h))

let test_prometheus_histogram () =
  let h = fill [ 1.0; 2.0; 4.0; 100.0 ] in
  let s = Obs.Prometheus.histogram ~help:"lat" "lat_ms" h in
  Alcotest.(check bool) "exposition ok" true (exposition_ok s);
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains needle s))
    [
      "# TYPE lat_ms histogram";
      "lat_ms_bucket{le=\"+Inf\"} 4";
      "lat_ms_count 4";
      "lat_ms_sum 107";
    ]

let test_exposition_rejects () =
  List.iter
    (fun (label, page) ->
      Alcotest.(check bool) label false (exposition_ok page))
    [
      ("sample before TYPE", "foo 1\n");
      ("bad label key", "# TYPE f gauge\nf{9bad=\"x\"} 1\n");
      ("bad value", "# TYPE f gauge\nf notanumber\n");
      ( "histogram missing +Inf",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_count 2\nh_sum 2\n" );
      ( "histogram counts not monotone",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 2\n\
         h_count 2\nh_sum 2\n" );
    ]

(* --- label escaping: round-trip through the exposition parser ---------- *)

let arb_label_value =
  (* Strings salted with the characters that need escaping (and a few
     that merely look scary), so the generator actually exercises the
     escape paths instead of praying for them. *)
  let salt = [| '"'; '\\'; '\n'; ','; '{'; '}'; '='; ' ' |] in
  QCheck.map
    (fun (s, picks) ->
      let b = Buffer.create (String.length s + List.length picks) in
      String.iteri
        (fun i c ->
          Buffer.add_char b c;
          List.iter
            (fun (at, k) ->
              if at = i then Buffer.add_char b salt.(k mod Array.length salt))
            picks)
        s;
      if s = "" then
        List.iter (fun (_, k) -> Buffer.add_char b salt.(k mod Array.length salt)) picks;
      Buffer.contents b)
    (QCheck.pair QCheck.printable_string
       (QCheck.small_list (QCheck.pair QCheck.small_nat QCheck.small_nat)))

let prop_escape_label_roundtrip =
  prop "escaped label values round-trip through the exposition parser"
    (QCheck.pair arb_label_value arb_label_value)
    (fun (v1, v2) ->
      let page =
        Obs.Prometheus.labeled ~help:"statements" ~kind:"counter"
          "stmt_calls_total"
          [
            ([ ("fingerprint", v1); ("lang", v2) ], 3.0);
            ([ ("fingerprint", "plain") ], 1.0);
          ]
      in
      exposition_ok page
      &&
      (* Re-parse the first sample line and demand the exact originals
         back: escaping must be injective and the parser its inverse. *)
      let line =
        List.find
          (fun l -> l <> "" && l.[0] <> '#')
          (String.split_on_char '\n' page)
      in
      match String.index_opt line '{' with
      | None -> false
      | Some b -> (
          match parse_label_block line b with
          | pairs, _ ->
              List.assoc_opt "fingerprint" pairs = Some v1
              && List.assoc_opt "lang" pairs = Some v2
          | exception Bad_labels -> false))

let test_labeled_rendering () =
  let page =
    Obs.Prometheus.labeled ~help:"ops" ~kind:"counter" "ops_total"
      [
        ([ ("op", "a\"b\\c\nd") ], 2.0);
        ([], 5.0);
      ]
  in
  Alcotest.(check bool) "exposition ok" true (exposition_ok page);
  Alcotest.(check bool) "escapes rendered" true
    (contains "{op=\"a\\\"b\\\\c\\nd\"} 2" page);
  Alcotest.(check bool) "bare sample" true (contains "\nops_total 5" page);
  Alcotest.(check bool) "single TYPE header" true
    (count_occurrences "# TYPE ops_total counter" page = 1)

(* --- statement fingerprinting ------------------------------------------ *)

let test_fingerprint_normalize () =
  List.iter
    (fun (label, src, expected) ->
      Alcotest.(check string) label expected (Obs.Fingerprint.normalize src))
    [
      ( "literals and case fold",
        "SELECT[%6 = 'NL'] ( Beer )",
        "select[%6=?](beer)" );
      ("numbers fold", "select[%3 > 42.5e1](beer)", "select[%3>?](beer)");
      ("attribute indexes kept", "project[%1, %12](r)", "project[%1,%12](r)");
      ("comments stripped", "r -- trailing note", "r");
      ("quoted quote", "select[%1 = 'O''Brien'](r)", "select[%1=?](r)");
      ("identifier spacing survives", "delete from r where a = 1",
        "delete from r where a=?");
      ("dotted names are one identifier", "SYS.Statements", "sys.statements");
    ]

let prop_fingerprint_invariance =
  prop "fingerprint ignores literals, case and whitespace"
    (QCheck.triple (QCheck.int_range 0 100000) (QCheck.int_range 0 9)
       QCheck.printable_string)
    (fun (n, pad, lit) ->
      let spaces = String.make pad ' ' in
      (* The generated literal is quoted; double any embedded quotes so
         the statement stays well-formed. *)
      let b = Buffer.create (String.length lit) in
      String.iter
        (fun c ->
          if c = '\'' then Buffer.add_string b "''" else Buffer.add_char b c)
        lit;
      let quoted = "'" ^ Buffer.contents b ^ "'" in
      let v1 =
        Printf.sprintf "select[%%3 > %d](join[%%2 = %s](beer, brewery))" n
          quoted
      in
      let v2 =
        Printf.sprintf "%sSELECT[ %%3 >  0 ]%s(JOIN[%%2='x'](Beer,%sBrewery))"
          spaces spaces spaces
      in
      Obs.Fingerprint.fingerprint v1 = Obs.Fingerprint.fingerprint v2)

let test_fingerprint_distinct_shapes () =
  let corpus =
    [
      "beer";
      "brewery";
      "sys.statements";
      "select[%1 = 'x'](beer)";
      "select[%2 = 'x'](beer)";
      "select[%1 = 'x'](brewery)";
      "project[%1](beer)";
      "project[%1, %2](beer)";
      "unique(beer)";
      "join[%2 = %4](beer, brewery)";
      "join[%2 = %5](beer, brewery)";
      "groupby[%6; AVG(%3)](join[%2 = %4](beer, brewery))";
      "insert(beer, rel[(a:int)]{(1)})";
      "delete(beer, select[%1 = 'x'](beer))";
      "SELECT name FROM beer WHERE alcperc > 5";
      "SELECT name FROM beer GROUP BY name";
    ]
  in
  let fps = List.map Obs.Fingerprint.fingerprint corpus in
  Alcotest.(check int) "no collisions on distinct shapes"
    (List.length corpus)
    (List.length (List.sort_uniq String.compare fps));
  List.iter
    (fun fp ->
      Alcotest.(check bool) "16 hex digits" true
        (String.length fp = 16
        && String.for_all
             (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
             fp))
    fps

(* Dotted sys.* identifiers: the qualified name is one token — it must
   normalize stably across case and spacing, and never collapse onto
   the unqualified name or a sibling catalog relation. *)
let test_fingerprint_dotted_names () =
  let fp = Obs.Fingerprint.fingerprint in
  List.iter
    (fun (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "%S ~ %S" a b)
        (fp a) (fp b))
    [
      ("sys.ash", "  SYS.ASH  ");
      ("select[%4 = 'lock'](sys.ash)", "SELECT[ %4='lock' ](Sys.Ash)");
      ( "project[%1, %2](sys.progress)",
        "project[ %1 , %2 ]( SYS.progress )" );
      ("SELECT wait_class FROM sys.ash", "select wait_class from SYS.ASH");
    ];
  let distinct =
    [
      "sys.ash";
      "ash";
      "sys.progress";
      "progress";
      "sys.statements";
      "statements";
      "sysash";
      "select[%1 = 'q'](sys.progress)";
      "select[%1 = 'q'](progress)";
    ]
  in
  Alcotest.(check int) "qualified and unqualified stay distinct"
    (List.length distinct)
    (List.length (List.sort_uniq String.compare (List.map fp distinct)))

(* --- statement stats registry ------------------------------------------ *)

let test_stmt_stats_accumulates () =
  Obs.Stmt_stats.clear ();
  Obs.Stmt_stats.set_enabled true;
  Obs.Stmt_stats.record ~lang:"xra" ~qid:"q000101" ~rows:10 ~tuples:40
    ~wall_ms:2.0 "select[%1 = 'a'](beer)";
  Obs.Stmt_stats.record ~lang:"xra" ~qid:"q000102" ~rows:5 ~tuples:20
    ~wall_ms:4.0 "select[%1 = 'b'](beer)";
  Obs.Stmt_stats.record ~wall_ms:1.0 "brewery";
  Alcotest.(check int) "two fingerprints" 2 (Obs.Stmt_stats.cardinality ());
  (match Obs.Stmt_stats.snapshot () with
  | [ top; second ] ->
      Alcotest.(check int) "variants merged" 2 top.Obs.Stmt_stats.r_calls;
      Alcotest.(check (float 1e-9)) "total" 6.0 top.Obs.Stmt_stats.r_total_ms;
      Alcotest.(check (float 1e-9)) "min" 2.0 top.Obs.Stmt_stats.r_min_ms;
      Alcotest.(check (float 1e-9)) "max" 4.0 top.Obs.Stmt_stats.r_max_ms;
      Alcotest.(check int) "rows" 15 top.Obs.Stmt_stats.r_rows;
      Alcotest.(check int) "tuples" 60 top.Obs.Stmt_stats.r_tuples;
      Alcotest.(check string) "last qid" "q000102"
        top.Obs.Stmt_stats.r_last_qid;
      Alcotest.(check string) "normalized exemplar" "select[%1=?](beer)"
        top.Obs.Stmt_stats.r_text;
      Alcotest.(check bool) "sorted by total desc" true
        (second.Obs.Stmt_stats.r_total_ms <= top.Obs.Stmt_stats.r_total_ms)
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
  Alcotest.(check bool) "json valid" true
    (json_valid (Obs.Stmt_stats.to_json ()));
  Alcotest.(check bool) "prometheus valid" true
    (exposition_ok (Obs.Stmt_stats.to_prometheus ()));
  Alcotest.(check bool) "top table mentions the statement" true
    (contains "select[%1=?](beer)" (Obs.Stmt_stats.render_top ()));
  Obs.Stmt_stats.clear ();
  Alcotest.(check int) "clear empties" 0 (Obs.Stmt_stats.cardinality ())

let test_stmt_stats_attribution () =
  Obs.Stmt_stats.clear ();
  Obs.Stmt_stats.set_enabled true;
  (* WAL bytes and lock waits land under the qid *before* the statement
     itself is recorded: they must buffer, then drain into the entry. *)
  Obs.Stmt_stats.add_wal_bytes ~qid:"q000201" 100;
  Obs.Stmt_stats.add_wal_bytes ~qid:"q000201" 28;
  Obs.Stmt_stats.add_lock_wait ~qid:"q000201" 1.5;
  Obs.Stmt_stats.record ~qid:"q000201" ~wall_ms:1.0 "insert(r, s)";
  (* Late attribution after the record resolves through the qid map. *)
  Obs.Stmt_stats.add_wal_bytes ~qid:"q000201" 12;
  Obs.Stmt_stats.add_lock_wait ~qid:"q000201" 0.5;
  (* Unknown qids buffer harmlessly and never create entries. *)
  Obs.Stmt_stats.add_wal_bytes ~qid:"q999999" 7;
  (match Obs.Stmt_stats.snapshot () with
  | [ r ] ->
      Alcotest.(check int) "wal bytes drained + late" 140
        r.Obs.Stmt_stats.r_wal_bytes;
      Alcotest.(check (float 1e-9)) "lock wait drained + late" 2.0
        r.Obs.Stmt_stats.r_lock_wait_ms
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows));
  Alcotest.(check int) "unknown qid created nothing" 1
    (Obs.Stmt_stats.cardinality ());
  Obs.Stmt_stats.clear ()

let test_stmt_stats_disabled () =
  Obs.Stmt_stats.clear ();
  Obs.Stmt_stats.set_enabled false;
  Obs.Stmt_stats.record ~wall_ms:1.0 "beer";
  Obs.Stmt_stats.add_wal_bytes ~qid:"q000301" 10;
  Alcotest.(check int) "disabled records nothing" 0
    (Obs.Stmt_stats.cardinality ());
  Obs.Stmt_stats.set_enabled true;
  Alcotest.(check bool) "re-enabled" true (Obs.Stmt_stats.enabled ())

let test_op_stats () =
  Obs.Stmt_stats.set_enabled true;
  Obs.Op_stats.clear ();
  Obs.Op_stats.record ~op:"HashJoin" ~elems:10 ~rows:4 ~cells:12 ~wall_ms:1.0;
  Obs.Op_stats.record ~op:"HashJoin" ~elems:6 ~rows:2 ~cells:6 ~wall_ms:0.5;
  Obs.Op_stats.record ~op:"Scan" ~elems:0 ~rows:10 ~cells:30 ~wall_ms:0.1;
  (match Obs.Op_stats.snapshot () with
  | [ hj; scan ] ->
      Alcotest.(check string) "sorted by op" "HashJoin" hj.Obs.Op_stats.o_op;
      Alcotest.(check int) "execs" 2 hj.Obs.Op_stats.o_execs;
      Alcotest.(check int) "elems" 16 hj.Obs.Op_stats.o_elems;
      Alcotest.(check int) "rows" 6 hj.Obs.Op_stats.o_rows;
      Alcotest.(check (float 1e-9)) "wall" 1.5 hj.Obs.Op_stats.o_wall_ms;
      Alcotest.(check string) "scan second" "Scan" scan.Obs.Op_stats.o_op
  | rows -> Alcotest.failf "expected 2 ops, got %d" (List.length rows));
  Obs.Op_stats.clear ();
  Alcotest.(check int) "clear empties" 0
    (List.length (Obs.Op_stats.snapshot ()))

(* --- time-series ring buffer ------------------------------------------- *)

let test_timeseries_ring () =
  let ts = Obs.Timeseries.create ~capacity:4 () in
  for i = 1 to 10 do
    Obs.Timeseries.record ts ~t_s:(float_of_int i)
      [ ("a", float_of_int i); ("b", float_of_int (-i)) ]
  done;
  Alcotest.(check (list string)) "names" [ "a"; "b" ] (Obs.Timeseries.names ts);
  Alcotest.(check int) "capacity" 4 (Obs.Timeseries.capacity ts);
  Alcotest.(check bool) "ring keeps last 4, oldest first" true
    (Array.to_list (Obs.Timeseries.window ts "a")
    = [ (7.0, 7.0); (8.0, 8.0); (9.0, 9.0); (10.0, 10.0) ]);
  Alcotest.(check bool) "bounded window" true
    (Array.to_list (Obs.Timeseries.window ~n:2 ts "a")
    = [ (9.0, 9.0); (10.0, 10.0) ]);
  Alcotest.(check bool) "latest" true
    (Obs.Timeseries.latest ts "b" = Some (10.0, -10.0));
  Alcotest.(check bool) "unknown series" true
    (Obs.Timeseries.window ts "zzz" = [||]);
  Alcotest.(check bool) "latest_all" true
    (Obs.Timeseries.latest_all ts = [ ("a", 10.0); ("b", -10.0) ]);
  Alcotest.(check bool) "statz JSON valid" true
    (json_valid (Obs.Timeseries.to_json ts));
  Alcotest.(check bool) "prometheus gauges valid" true
    (exposition_ok (Obs.Timeseries.to_prometheus ts));
  Alcotest.(check bool) "top table lists the series" true
    (contains "a" (Obs.Timeseries.render_top ts))

(* --- background sampler ------------------------------------------------- *)

let test_sampler () =
  let calls = Atomic.make 0 in
  let probe () =
    let n = Atomic.fetch_and_add calls 1 + 1 in
    [ ("test.calls", float_of_int n) ]
  in
  let raising () = failwith "probe boom" in
  let s = Obs.Sampler.start ~interval_ms:2.0 ~probes:[ raising; probe ] () in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Obs.Sampler.rounds s < 3 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  Obs.Sampler.stop s;
  Obs.Sampler.stop s (* idempotent *);
  Alcotest.(check bool) "sampled several rounds" true (Obs.Sampler.rounds s >= 3);
  (* The raising probe was skipped every round — and the thread
     survived it every round: rounds kept advancing and the healthy
     probe kept recording alongside it. *)
  Alcotest.(check bool) "failures counted" true
    (Obs.Sampler.failures s >= Obs.Sampler.rounds s);
  let store = Obs.Sampler.store s in
  Alcotest.(check (list string))
    "raising probe skipped, good one recorded" [ "test.calls" ]
    (Obs.Timeseries.names store);
  (match Obs.Timeseries.latest store "test.calls" with
  | Some (_, v) -> Alcotest.(check bool) "latest counted up" true (v >= 3.0)
  | None -> Alcotest.fail "no sample recorded");
  let before = Obs.Sampler.rounds s in
  Obs.Sampler.sample_now s;
  Alcotest.(check int) "sample_now adds a round" (before + 1)
    (Obs.Sampler.rounds s)

let test_sampler_cadence () =
  (* A probe that burns more than half the interval: the old loop slept
     a full interval *after* the probes, so its real period was
     interval + probe-time (~40 ms here, ≤ ~30 rounds over the window).
     Absolute deadlines keep the period at the interval itself (~48
     rounds).  The threshold sits between the two with margin for CI
     jitter; the upper bound catches a sampler that bursts to catch
     up after falling behind. *)
  let interval_ms = 25.0 in
  let busy () =
    Unix.sleepf 0.015;
    [ ("busy.val", 1.0) ]
  in
  let s = Obs.Sampler.start ~interval_ms ~probes:[ busy ] () in
  Unix.sleepf 1.2;
  Obs.Sampler.stop s;
  let rounds = Obs.Sampler.rounds s in
  Alcotest.(check bool)
    (Printf.sprintf "cadence held under load (%d rounds)" rounds)
    true
    (rounds >= 35 && rounds <= 60)

(* --- wait events and the Active Session History ------------------------ *)

let test_wait_counters () =
  Obs.Wait.reset ();
  Obs.Wait.note Obs.Wait.Lock 1500.0;
  Obs.Wait.note Obs.Wait.Lock 500.0;
  Obs.Wait.note Obs.Wait.Conflict 0.0;
  Alcotest.(check int) "lock count" 2 (Obs.Wait.count Obs.Wait.Lock);
  Alcotest.(check (float 1e-9)) "lock ms" 2.0 (Obs.Wait.waited_ms Obs.Wait.Lock);
  Alcotest.(check int) "conflict count" 1 (Obs.Wait.count Obs.Wait.Conflict);
  Alcotest.(check (float 1e-9)) "conflict ms" 0.0
    (Obs.Wait.waited_ms Obs.Wait.Conflict);
  Alcotest.(check int) "io.fsync untouched" 0 (Obs.Wait.count Obs.Wait.Io_fsync);
  (* Negative durations clamp rather than rewind the counter. *)
  Obs.Wait.note Obs.Wait.Io_wal (-50.0);
  Alcotest.(check (float 1e-9)) "clamped" 0.0 (Obs.Wait.waited_ms Obs.Wait.Io_wal);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        ("of_name roundtrips " ^ Obs.Wait.name c)
        true
        (Obs.Wait.of_name (Obs.Wait.name c) = Some c))
    Obs.Wait.all;
  Alcotest.(check int) "telemetry: two series per class"
    (2 * List.length Obs.Wait.all)
    (List.length (Obs.Wait.telemetry ()));
  Alcotest.(check bool) "prometheus exposition valid" true
    (exposition_ok (Obs.Wait.to_prometheus ()));
  Obs.Wait.reset ();
  Alcotest.(check int) "reset" 0 (Obs.Wait.count Obs.Wait.Lock)

let test_ash_registry () =
  Obs.Ash.set_enabled true;
  Obs.Ash.clear ();
  let slot = Obs.Ash.register ~lang:"xra" ~text:"select[%1 = 1](beer)" ~qid:"q-1" () in
  Alcotest.(check bool) "slot live" true (Obs.Ash.live slot);
  Alcotest.(check int) "registered" 1 (Obs.Ash.live_count ());
  Obs.Ash.set_estimate slot 100.0;
  Obs.Ash.set_operator slot "seq_scan";
  Obs.Ash.advance slot ~rows:30;
  Obs.Ash.advance slot ~rows:20;
  (match Obs.Ash.progress () with
  | [ p ] ->
      Alcotest.(check string) "qid" "q-1" p.Obs.Ash.p_qid;
      Alcotest.(check string) "operator" "seq_scan" p.Obs.Ash.p_operator;
      Alcotest.(check int) "rows" 50 p.Obs.Ash.p_rows;
      Alcotest.(check int) "chunks" 2 p.Obs.Ash.p_chunks;
      Alcotest.(check (float 1e-9)) "pct" 50.0 p.Obs.Ash.p_pct;
      Alcotest.(check string) "running = cpu.exec" "cpu.exec" p.Obs.Ash.p_wait
  | l -> Alcotest.failf "expected one progress row, got %d" (List.length l));
  (* A cadence sample of a running session is a cpu.exec row on its
     current operator; of a blocked one, its wait class. *)
  Alcotest.(check int) "one live session sampled" 1 (Obs.Ash.sample_now ());
  Obs.Ash.set_wait slot (Some (Obs.Wait.Lock, "beer"));
  ignore (Obs.Ash.sample_now ());
  Obs.Ash.set_wait slot None;
  Obs.Ash.slot_event slot Obs.Wait.Io_fsync ~detail:"wal.fsync" ~dur_us:2000.0;
  let rows = Obs.Ash.snapshot () in
  let by kind cls =
    List.filter
      (fun (s : Obs.Ash.sample) -> s.a_kind = kind && s.a_class = cls)
      rows
  in
  (match by "sample" Obs.Wait.Cpu_exec with
  | s :: _ ->
      Alcotest.(check string) "cpu sample detail" "seq_scan" s.Obs.Ash.a_detail;
      Alcotest.(check string) "cpu sample qid" "q-1" s.Obs.Ash.a_qid
  | [] -> Alcotest.fail "no cpu.exec sample");
  (match by "sample" Obs.Wait.Lock with
  | s :: _ -> Alcotest.(check string) "lock sample detail" "beer" s.Obs.Ash.a_detail
  | [] -> Alcotest.fail "no lock sample");
  (match by "event" Obs.Wait.Io_fsync with
  | s :: _ ->
      Alcotest.(check (float 1e-9)) "event carries duration" 2.0
        s.Obs.Ash.a_wait_ms;
      Alcotest.(check string) "event fingerprint" (Obs.Fingerprint.fingerprint "select[%1 = 1](beer)")
        s.Obs.Ash.a_fingerprint
  | [] -> Alcotest.fail "no io.fsync event");
  Obs.Ash.finish slot;
  Alcotest.(check int) "finished" 0 (Obs.Ash.live_count ());
  Obs.Ash.finish slot (* idempotent *);
  Alcotest.(check int) "no sessions, nothing sampled" 0 (Obs.Ash.sample_now ());
  Obs.Ash.clear ()

let test_ash_ring_wrap () =
  Obs.Ash.set_enabled true;
  Obs.Ash.set_capacity 16;
  for i = 1 to 40 do
    Obs.Ash.event Obs.Wait.Io_wal ~detail:(string_of_int i) ~dur_us:1.0
  done;
  let rows = Obs.Ash.snapshot () in
  Alcotest.(check int) "ring bounded" 16 (List.length rows);
  Alcotest.(check int) "lifetime count survives wrap" 40
    (Obs.Ash.pushed_total ());
  (* Oldest first, and the survivors are the newest 16 (25..40). *)
  (match rows with
  | first :: _ -> Alcotest.(check string) "oldest survivor" "25" first.Obs.Ash.a_detail
  | [] -> Alcotest.fail "empty ring");
  (match List.rev rows with
  | last :: _ -> Alcotest.(check string) "newest last" "40" last.Obs.Ash.a_detail
  | [] -> Alcotest.fail "empty ring");
  Obs.Ash.set_capacity 4096;
  Obs.Ash.clear ()

let test_ash_disabled () =
  Obs.Ash.set_enabled true;
  Obs.Ash.clear ();
  Obs.Wait.reset ();
  Obs.Ash.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.Ash.set_enabled true) @@ fun () ->
  let slot = Obs.Ash.register ~text:"ignored" ~qid:"q-off" () in
  Alcotest.(check bool) "inert slot" false (Obs.Ash.live slot);
  Alcotest.(check int) "not registered" 0 (Obs.Ash.live_count ());
  (* The hot-path operations absorb harmlessly. *)
  Obs.Ash.set_operator slot "x";
  Obs.Ash.advance slot ~rows:10;
  Obs.Ash.set_wait slot (Some (Obs.Wait.Lock, "r"));
  Obs.Ash.finish slot;
  Alcotest.(check int) "nothing sampled" 0 (Obs.Ash.sample_now ());
  (* Wait-class counters stay on even with ASH off... *)
  Obs.Ash.event Obs.Wait.Io_fsync ~detail:"d" ~dur_us:500.0;
  Alcotest.(check int) "counters still fed" 1 (Obs.Wait.count Obs.Wait.Io_fsync);
  (* ...but no ring row lands. *)
  Alcotest.(check int) "ring untouched" 0 (List.length (Obs.Ash.snapshot ()))

let test_ash_track () =
  Obs.Ash.set_enabled true;
  Obs.Ash.clear ();
  let r =
    Obs.Ash.track ~qid:"q-t" Obs.Wait.Pool_queue ~detail:"map.drain" (fun () ->
        Unix.sleepf 0.002;
        17)
  in
  Alcotest.(check int) "value through" 17 r;
  (match Obs.Ash.snapshot () with
  | [ s ] ->
      Alcotest.(check string) "kind" "event" s.Obs.Ash.a_kind;
      Alcotest.(check bool) "duration measured" true (s.Obs.Ash.a_wait_ms >= 1.0)
  | l -> Alcotest.failf "expected one event, got %d" (List.length l));
  Obs.Ash.clear ()

(* --- HTTP telemetry server --------------------------------------------- *)

let test_http_server () =
  let handler = function
    | "/ok" -> Some (Obs.Http_server.text "hello\n")
    | "/json" -> Some (Obs.Http_server.json "{\"a\":1}")
    | "/boom" -> failwith "kaboom"
    | _ -> None
  in
  let srv = Obs.Http_server.start ~port:0 handler in
  Fun.protect
    ~finally:(fun () -> Obs.Http_server.stop srv)
    (fun () ->
      let port = Obs.Http_server.port srv in
      Alcotest.(check bool) "ephemeral port resolved" true (port > 0);
      Alcotest.(check (pair int string))
        "/ok" (200, "hello\n")
        (Obs.Http_server.get ~port "/ok");
      let st, body = Obs.Http_server.get ~port "/json" in
      Alcotest.(check int) "json status" 200 st;
      Alcotest.(check bool) "json body valid" true (json_valid body);
      Alcotest.(check int) "unknown path is 404" 404
        (fst (Obs.Http_server.get ~port "/missing"));
      Alcotest.(check int) "raising handler is 500, not a crash" 500
        (fst (Obs.Http_server.get ~port "/boom"));
      Alcotest.(check int) "query string stripped before routing" 200
        (fst (Obs.Http_server.get ~port "/ok?x=1")));
  Obs.Http_server.stop srv (* idempotent *)

(* --- ambient trace context and query ids -------------------------------- *)

let capture_sink spans events =
  {
    Trace.on_span = (fun s -> spans := s :: !spans);
    on_event = (fun e -> events := e :: !events);
    on_close = ignore;
  }

let test_with_context_stamps () =
  let spans = ref [] and events = ref [] in
  Trace.set_sinks [ capture_sink spans events ];
  Fun.protect
    ~finally:(fun () -> Trace.close ())
    (fun () ->
      Trace.with_context [ ("query_id", Trace.Str "q42") ] (fun () ->
          Trace.with_span "inner" (fun () -> ());
          Trace.complete "op" ~start_us:0.0 ~dur_us:1.0;
          Trace.event "tick";
          Alcotest.(check bool) "context_find sees the key" true
            (Trace.context_find "query_id" = Some (Trace.Str "q42")));
      Trace.with_span "outside" (fun () -> ()));
  let find name = List.find (fun s -> s.Trace.name = name) !spans in
  let qid s = List.assoc_opt "query_id" s.Trace.attrs in
  Alcotest.(check bool) "with_span stamped" true
    (qid (find "inner") = Some (Trace.Str "q42"));
  Alcotest.(check bool) "complete stamped" true
    (qid (find "op") = Some (Trace.Str "q42"));
  Alcotest.(check bool) "outside the context: unstamped" true
    (qid (find "outside") = None);
  (match !events with
  | [ e ] ->
      Alcotest.(check bool) "event stamped" true
        (List.assoc_opt "query_id" e.Trace.ev_attrs = Some (Trace.Str "q42"))
  | _ -> Alcotest.fail "expected exactly one event");
  Alcotest.(check bool) "context restored on exit" true (Trace.context () = []);
  (* The context must survive with tracing disabled — the store stamps
     WAL records from it whether or not a sink is installed. *)
  Trace.with_context [ ("k", Trace.Bool true) ] (fun () ->
      Alcotest.(check bool) "context without sinks" true
        (Trace.context_find "k" = Some (Trace.Bool true)))

let test_qid_mint () =
  let a = Obs.Qid.mint () and b = Obs.Qid.mint () in
  Alcotest.(check bool) "ids distinct" true (a <> b);
  Alcotest.(check string) "attr key" "query_id" Obs.Qid.attr_key;
  List.iter
    (fun q ->
      Alcotest.(check bool) "format q%06d" true
        (String.length q = 7
        && q.[0] = 'q'
        && String.for_all
             (function '0' .. '9' -> true | _ -> false)
             (String.sub q 1 6)))
    [ a; b ]

(* --- scheduler output delivery ----------------------------------------- *)

let s_kv = Schema.of_list [ ("k", Domain.DInt); ("v", Domain.DInt) ]

let kv_db =
  Database.of_relations
    [
      ( "r",
        Relation.of_list s_kv
          [
            Tuple.of_list [ Value.Int 1; Value.Int 10 ];
            Tuple.of_list [ Value.Int 2; Value.Int 20 ];
          ] );
    ]

let query_r = Statement.Query (Expr.rel "r")

let each_isolation = Test_concurrency.each_isolation

let test_scheduler_outputs_match_serial run =
  let t1 = Transaction.make ~name:"reader" [ query_r ] in
  let r = run ~seed:7 kv_db [ t1 ] in
  let serial_outputs =
    match Transaction.run kv_db t1 with
    | Transaction.Committed { outputs; _ } -> outputs
    | Transaction.Aborted _ -> Alcotest.fail "serial run aborted"
  in
  match r.Mxra_concurrency.Scheduler.outputs with
  | [ outs ] ->
      Alcotest.(check int) "one output" (List.length serial_outputs)
        (List.length outs);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "same relation" true (Relation.equal a b))
        serial_outputs outs
  | _ -> Alcotest.fail "expected one transaction's outputs"

let test_scheduler_aborted_outputs_empty run =
  let t_abort =
    Transaction.make ~name:"doomed"
      ~abort_if:(fun _ -> true)
      [ query_r ]
  in
  let t_ok = Transaction.make ~name:"fine" [ query_r ] in
  let r = run ~seed:7 kv_db [ t_abort; t_ok ] in
  match
    (r.Mxra_concurrency.Scheduler.outcomes, r.Mxra_concurrency.Scheduler.outputs)
  with
  | [ Mxra_concurrency.Scheduler.Aborted _; Mxra_concurrency.Scheduler.Committed ], [ aborted; committed ]
    ->
      Alcotest.(check int)
        "aborted transaction delivers no outputs" 0 (List.length aborted);
      Alcotest.(check int) "committed delivers its query" 1
        (List.length committed)
  | _ -> Alcotest.fail "unexpected outcomes"

(* --- query ids end to end: scheduler spans and WAL stamping ------------- *)

let test_scheduler_query_ids run =
  let txns =
    List.init 3 (fun i ->
        Transaction.make ~name:(Printf.sprintf "t%d" i) [ query_r ])
  in
  let r = run ~seed:1 kv_db txns in
  let qids = r.Mxra_concurrency.Scheduler.query_ids in
  Alcotest.(check int) "one qid per transaction" 3 (List.length qids);
  Alcotest.(check int) "all distinct" 3
    (List.length (List.sort_uniq String.compare qids))

let test_scheduler_statement_spans run =
  let spans = ref [] and events = ref [] in
  Trace.set_sinks [ capture_sink spans events ];
  let r =
    Fun.protect
      ~finally:(fun () -> Trace.close ())
      (fun () ->
        run ~seed:3 kv_db [ Transaction.make ~name:"w" [ query_r; query_r ] ])
  in
  let qid =
    match r.Mxra_concurrency.Scheduler.query_ids with
    | [ q ] -> q
    | _ -> Alcotest.fail "expected one query id"
  in
  let stmts = List.filter (fun s -> s.Trace.name = "statement") !spans in
  Alcotest.(check int) "one span per executed statement" 2 (List.length stmts);
  List.iter
    (fun s ->
      Alcotest.(check bool) "statement span carries the txn's qid" true
        (List.assoc_opt "query_id" s.Trace.attrs = Some (Trace.Str qid)))
    stmts;
  let txn_span = List.find (fun s -> s.Trace.name = "txn") !spans in
  Alcotest.(check bool) "txn span carries the qid" true
    (List.assoc_opt "query_id" txn_span.Trace.attrs = Some (Trace.Str qid))

let test_store_qid_stamping () =
  let module Store = Mxra_storage.Store in
  let dir = Filename.temp_file "mxra_store_qid" "" in
  Sys.remove dir;
  let s = Store.open_dir dir in
  Store.absorb_batch s [] kv_db;
  Store.checkpoint s;
  let txn =
    Transaction.make ~name:"double"
      [ Statement.Insert ("r", Expr.rel "r") ]
  in
  (match Store.commit ~qid:"q424242" s txn with
  | Transaction.Committed _ -> ()
  | Transaction.Aborted { reason; _ } -> Alcotest.fail reason);
  let telemetry = Store.telemetry s () in
  Alcotest.(check bool) "telemetry counts the commit" true
    (List.assoc_opt "store.commits" telemetry = Some 1.0
    && List.assoc_opt "store.wal_records" telemetry = Some 1.0);
  Store.close s;
  let wal =
    In_channel.with_open_text (Filename.concat dir "wal.xra")
      In_channel.input_all
  in
  Alcotest.(check bool) "begin marker stamped" true
    (contains "-- begin 1 q424242" wal);
  Alcotest.(check int) "qid on begin and commit markers" 2
    (count_occurrences "q424242" wal);
  (* The stamp is metadata: recovery replays the record unchanged. *)
  let db = Store.recover_dir dir in
  Alcotest.(check int) "stamped record replays" 4
    (Relation.cardinal (Database.find "r" db))

let suite =
  ( "obs",
    [
      prop_count_conservation;
      prop_quantile_ordering;
      prop_quantile_monotone;
      prop_quantile_accuracy;
      prop_p50_in_range;
      Alcotest.test_case "non-finite observations ignored" `Quick
        test_histogram_ignores_nonfinite;
      Alcotest.test_case "single-sample percentiles are the sample" `Quick
        test_histogram_single_sample;
      Alcotest.test_case "one-bucket percentiles stay in range" `Quick
        test_histogram_one_bucket;
      Alcotest.test_case "Chrome sink: valid JSON under exceptions" `Quick
        test_chrome_sink_valid_json;
      Alcotest.test_case "Chrome sink: empty trace is valid" `Quick
        test_chrome_sink_empty_trace;
      Alcotest.test_case "disabled tracing is transparent" `Quick
        test_disabled_tracing_is_transparent;
      Alcotest.test_case "query log records query spans" `Quick
        test_query_log_records;
      Alcotest.test_case "query log respects slow threshold" `Quick
        test_query_log_threshold;
      Alcotest.test_case "aggregation sink folds the stream" `Quick
        test_agg_sink;
      Alcotest.test_case "prometheus name sanitization" `Quick
        test_prometheus_sanitize;
      Alcotest.test_case "prometheus summary rendering" `Quick
        test_prometheus_summary;
      Alcotest.test_case "prometheus aggregate export" `Quick
        test_prometheus_of_aggregate;
      Alcotest.test_case "engine metrics registry export" `Quick
        test_engine_metrics_prometheus;
      Alcotest.test_case "scheduler outputs match serial run" `Quick
        (each_isolation test_scheduler_outputs_match_serial);
      Alcotest.test_case "aborted transactions deliver no outputs" `Quick
        (each_isolation test_scheduler_aborted_outputs_empty);
      prop_merge_conservation;
      prop_agg_sink_parallel;
      prop_exposition;
      Alcotest.test_case "prometheus histogram rendering" `Quick
        test_prometheus_histogram;
      Alcotest.test_case "exposition checker rejects malformed pages" `Quick
        test_exposition_rejects;
      prop_escape_label_roundtrip;
      Alcotest.test_case "labeled family rendering" `Quick
        test_labeled_rendering;
      Alcotest.test_case "fingerprint normalization" `Quick
        test_fingerprint_normalize;
      prop_fingerprint_invariance;
      Alcotest.test_case "dotted sys.* fingerprints are stable and distinct"
        `Quick test_fingerprint_dotted_names;
      Alcotest.test_case "fingerprints of distinct shapes stay distinct"
        `Quick test_fingerprint_distinct_shapes;
      Alcotest.test_case "statement stats accumulate by fingerprint" `Quick
        test_stmt_stats_accumulates;
      Alcotest.test_case "wal and lock-wait attribution by qid" `Quick
        test_stmt_stats_attribution;
      Alcotest.test_case "disabled registry records nothing" `Quick
        test_stmt_stats_disabled;
      Alcotest.test_case "operator stats accumulate by kind" `Quick
        test_op_stats;
      Alcotest.test_case "time-series ring buffer" `Quick test_timeseries_ring;
      Alcotest.test_case "background sampler" `Quick test_sampler;
      Alcotest.test_case "sampler cadence under busy probes" `Slow
        test_sampler_cadence;
      Alcotest.test_case "wait-class counters" `Quick test_wait_counters;
      Alcotest.test_case "ash: registry, sampling and events" `Quick
        test_ash_registry;
      Alcotest.test_case "ash: bounded ring wraps" `Quick test_ash_ring_wrap;
      Alcotest.test_case "ash: disabled mode is inert" `Quick test_ash_disabled;
      Alcotest.test_case "ash: track times an interval" `Quick test_ash_track;
      Alcotest.test_case "http telemetry server" `Quick test_http_server;
      Alcotest.test_case "ambient context stamps spans and events" `Quick
        test_with_context_stamps;
      Alcotest.test_case "query id minting" `Quick test_qid_mint;
      Alcotest.test_case "scheduler mints per-transaction query ids" `Quick
        (each_isolation test_scheduler_query_ids);
      Alcotest.test_case "statement spans carry the transaction qid" `Quick
        (each_isolation test_scheduler_statement_spans);
      Alcotest.test_case "store stamps qids into WAL markers" `Quick
        test_store_qid_stamping;
    ] )
