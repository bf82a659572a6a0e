(* Tests for the relational substrate: values, domains, tuples, schemas,
   relations and databases (Definitions 2.1-2.6). *)

open Mxra_relational

let v_int n = Value.Int n
let v_str s = Value.Str s
let v_float f = Value.Float f
let v_bool b = Value.Bool b

(* --- values and domains ---------------------------------------------- *)

let test_value_compare () =
  Alcotest.(check bool) "int order" true (Value.compare (v_int 1) (v_int 2) < 0);
  Alcotest.(check bool) "str equal" true (Value.equal (v_str "a") (v_str "a"));
  Alcotest.(check bool) "cross-domain unequal" false
    (Value.equal (v_int 1) (v_float 1.0));
  Alcotest.check_raises "same-domain comparison across domains"
    (Value.Incomparable (v_int 1, v_str "a"))
    (fun () -> ignore (Value.compare_same_domain (v_int 1) (v_str "a")))

(* Hash tables key on [Value.hash]: equal values (both zeros, every nan)
   must hash alike, and hashing must not allocate. *)
let test_value_hash () =
  let values =
    [ v_int 0; v_int 1; v_int min_int; v_int max_int; v_float 0.0;
      v_float (-0.0); v_float Float.nan; v_float (-.Float.nan);
      v_float (Int64.float_of_bits 0x7FF0000000000001L); v_float 1.0;
      v_str ""; v_str "a"; v_bool true; v_bool false ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Value.equal a b then
            Alcotest.(check int)
              (Printf.sprintf "hash %s = hash %s" (Value.to_string a) (Value.to_string b))
              (Value.hash a) (Value.hash b))
        values)
    values;
  let before = Gc.minor_words () in
  List.iter
    (fun v ->
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (Value.hash v))
      done)
    values;
  Alcotest.(check bool) "hashing allocates nothing" true
    (Gc.minor_words () -. before < 100.0)

let test_value_pp () =
  Alcotest.(check string) "int" "42" (Value.to_string (v_int 42));
  Alcotest.(check string) "string quoted" "'ab'" (Value.to_string (v_str "ab"));
  Alcotest.(check string) "quote escaped" "'a''b'" (Value.to_string (v_str "a'b"));
  Alcotest.(check string) "bool" "true" (Value.to_string (v_bool true))

let test_value_numeric () =
  Alcotest.(check bool) "int numeric" true (Value.is_numeric (v_int 1));
  Alcotest.(check bool) "str not" false (Value.is_numeric (v_str "x"));
  Alcotest.(check (float 1e-9)) "as_float" 2.5 (Value.as_float (v_float 2.5))

let test_domain () =
  Alcotest.(check bool) "of_value" true
    (Domain.equal (Domain.of_value (v_int 3)) Domain.DInt);
  Alcotest.(check bool) "member" true (Domain.member (v_str "x") Domain.DStr);
  Alcotest.(check bool) "not member" false (Domain.member (v_str "x") Domain.DInt);
  Alcotest.(check (option bool)) "of_string sql" (Some true)
    (Option.map (Domain.equal Domain.DStr) (Domain.of_string "VARCHAR"));
  Alcotest.(check (option bool)) "of_string unknown" None
    (Option.map (fun _ -> true) (Domain.of_string "blob"))

(* --- tuples ----------------------------------------------------------- *)

let t123 = Tuple.of_list [ v_int 1; v_int 2; v_int 3 ]

let test_tuple_attr () =
  Alcotest.(check bool) "attr 1-based" true (Value.equal (Tuple.attr t123 1) (v_int 1));
  Alcotest.(check bool) "attr 3" true (Value.equal (Tuple.attr t123 3) (v_int 3));
  Alcotest.(check int) "arity" 3 (Tuple.arity t123);
  Alcotest.(check (option bool)) "attr_opt out of range" None
    (Option.map (fun _ -> true) (Tuple.attr_opt t123 4));
  Alcotest.check_raises "attr 0 invalid"
    (Invalid_argument "Tuple.attr: index %0 out of range 1..3") (fun () ->
      ignore (Tuple.attr t123 0))

let test_tuple_project_concat () =
  let p = Tuple.project [ 3; 1; 1 ] t123 in
  Alcotest.(check bool) "project reorders and repeats" true
    (Tuple.equal p (Tuple.of_list [ v_int 3; v_int 1; v_int 1 ]));
  let c = Tuple.concat t123 (Tuple.of_list [ v_str "x" ]) in
  Alcotest.(check int) "concat arity" 4 (Tuple.arity c);
  Alcotest.(check bool) "concat keeps order" true
    (Value.equal (Tuple.attr c 4) (v_str "x"));
  Alcotest.(check bool) "unit is left identity" true
    (Tuple.equal t123 (Tuple.concat Tuple.unit t123))

let test_tuple_compare () =
  let t1 = Tuple.of_list [ v_int 1 ] and t2 = Tuple.of_list [ v_int 2 ] in
  Alcotest.(check bool) "lexicographic" true (Tuple.compare t1 t2 < 0);
  Alcotest.(check bool) "different arity unequal" false
    (Tuple.equal t1 (Tuple.concat t1 t1));
  Alcotest.(check string) "printing" "(1, 2, 3)" (Tuple.to_string t123)

(* --- schemas ----------------------------------------------------------- *)

let s_ab = Schema.of_list [ ("a", Domain.DInt); ("b", Domain.DStr) ]

let test_schema_basics () =
  Alcotest.(check int) "arity" 2 (Schema.arity s_ab);
  Alcotest.(check bool) "domain 2" true
    (Domain.equal (Schema.domain s_ab 2) Domain.DStr);
  Alcotest.(check (option int)) "name lookup" (Some 2)
    (Schema.index_of_name s_ab "B");
  Alcotest.(check (option int)) "missing name" None
    (Schema.index_of_name s_ab "z")

let test_schema_compat () =
  let s2 = Schema.of_list [ ("x", Domain.DInt); ("y", Domain.DStr) ] in
  Alcotest.(check bool) "names irrelevant" true (Schema.compatible s_ab s2);
  let s3 = Schema.of_list [ ("a", Domain.DStr); ("b", Domain.DInt) ] in
  Alcotest.(check bool) "domains matter" false (Schema.compatible s_ab s3)

let test_schema_ops () =
  let joined = Schema.concat s_ab s_ab in
  Alcotest.(check int) "concat arity" 4 (Schema.arity joined);
  Alcotest.(check string) "clash renamed" "a'"
    (Schema.attribute joined 3).Schema.name;
  let projected = Schema.project [ 2; 1 ] s_ab in
  Alcotest.(check string) "projection reorders" "b"
    (Schema.attribute projected 1).Schema.name;
  let renamed = Schema.rename 1 "z" s_ab in
  Alcotest.(check (option int)) "rename" (Some 1) (Schema.index_of_name renamed "z")

let test_schema_member () =
  let ok = Tuple.of_list [ v_int 1; v_str "x" ] in
  let bad = Tuple.of_list [ v_str "x"; v_int 1 ] in
  Alcotest.(check bool) "member" true (Schema.member ok s_ab);
  Alcotest.(check bool) "wrong domains" false (Schema.member bad s_ab);
  Alcotest.(check bool) "wrong arity" false (Schema.member t123 s_ab)

(* --- relations --------------------------------------------------------- *)

let tup a b = Tuple.of_list [ v_int a; v_str b ]

let test_relation_bag_semantics () =
  let r = Relation.of_list s_ab [ tup 1 "x"; tup 1 "x"; tup 2 "y" ] in
  Alcotest.(check int) "cardinal counts duplicates" 3 (Relation.cardinal r);
  Alcotest.(check int) "support" 2 (Relation.support_size r);
  Alcotest.(check int) "multiplicity" 2 (Relation.multiplicity (tup 1 "x") r);
  Alcotest.(check bool) "mem" true (Relation.mem (tup 2 "y") r);
  Alcotest.(check bool) "not mem" false (Relation.mem (tup 3 "z") r)

let test_relation_schema_enforced () =
  Alcotest.(check bool) "ill-domained tuple rejected" true
    (match Relation.of_list s_ab [ t123 ] with
    | _ -> false
    | exception Relation.Schema_mismatch _ -> true);
  Alcotest.(check bool) "add rejects too" true
    (match Relation.add t123 (Relation.empty s_ab) with
    | _ -> false
    | exception Relation.Schema_mismatch _ -> true)

let test_relation_compare () =
  let r1 = Relation.of_list s_ab [ tup 1 "x"; tup 1 "x" ] in
  let r2 = Relation.of_list s_ab [ tup 1 "x" ] in
  Alcotest.(check bool) "multiplicity-sensitive equality" false
    (Relation.equal r1 r2);
  Alcotest.(check bool) "subset" true (Relation.subset r2 r1);
  Alcotest.(check bool) "not subset" false (Relation.subset r1 r2);
  let other = Relation.empty (Schema.of_list [ ("q", Domain.DBool) ]) in
  Alcotest.(check bool) "incompatible comparison raises" true
    (match Relation.equal r1 other with
    | _ -> false
    | exception Relation.Schema_mismatch _ -> true)

let test_relation_counted () =
  let r = Relation.of_counted_list s_ab [ (tup 1 "x", 5) ] in
  Alcotest.(check int) "counted build" 5 (Relation.cardinal r);
  Alcotest.(check int) "expanded list" 5 (List.length (Relation.to_list r))

(* --- databases --------------------------------------------------------- *)

let db0 =
  Database.of_relations
    [ ("r", Relation.of_list s_ab [ tup 1 "x" ]); ("s", Relation.empty s_ab) ]

let test_database_catalog () =
  Alcotest.(check bool) "mem" true (Database.mem "r" db0);
  Alcotest.(check int) "find" 1 (Relation.cardinal (Database.find "r" db0));
  Alcotest.check_raises "unknown" (Database.Unknown_relation "zz") (fun () ->
      ignore (Database.find "zz" db0));
  Alcotest.check_raises "duplicate create" (Database.Duplicate_relation "r")
    (fun () -> ignore (Database.create "r" s_ab db0));
  Alcotest.(check (list string)) "names sorted" [ "r"; "s" ]
    (Database.relation_names db0)

let test_database_set () =
  let db = Database.set "s" (Relation.of_list s_ab [ tup 9 "q" ]) db0 in
  Alcotest.(check int) "set replaces" 1 (Relation.cardinal (Database.find "s" db));
  Alcotest.(check bool) "schema change rejected" true
    (match Database.set "s" (Relation.empty (Schema.of_list [ ("z", Domain.DBool) ])) db0 with
    | _ -> false
    | exception Relation.Schema_mismatch _ -> true)

let test_database_temporaries () =
  let tmp = Relation.of_list s_ab [ tup 7 "t" ] in
  let db = Database.assign_temporary "tmp" tmp db0 in
  Alcotest.(check bool) "temp visible" true (Database.mem "tmp" db);
  Alcotest.(check bool) "is_temporary" true (Database.is_temporary "tmp" db);
  Alcotest.(check bool) "persistent not temp" false (Database.is_temporary "r" db);
  (* Rebinding a temporary is allowed; shadowing a persistent is not. *)
  let db = Database.assign_temporary "tmp" tmp db in
  Alcotest.(check bool) "rebind ok" true (Database.mem "tmp" db);
  Alcotest.check_raises "shadowing rejected" (Database.Duplicate_relation "r")
    (fun () -> ignore (Database.assign_temporary "r" tmp db));
  let db' = Database.drop_temporaries db in
  Alcotest.(check bool) "temporaries dropped" false (Database.mem "tmp" db');
  Alcotest.(check (list string)) "persistent names exclude temp"
    [ "r"; "s" ] (Database.persistent_names db)

let test_database_time_and_equality () =
  Alcotest.(check int) "time starts at 0" 0 (Database.logical_time db0);
  let db = Database.tick db0 in
  Alcotest.(check int) "tick" 1 (Database.logical_time db);
  Alcotest.(check bool) "equal_states ignores time" true
    (Database.equal_states db0 db);
  let db' = Database.set "s" (Relation.of_list s_ab [ tup 3 "c" ]) db0 in
  Alcotest.(check bool) "contents matter" false (Database.equal_states db0 db');
  Alcotest.(check bool) "same_schema" true (Database.same_schema db0 db')

let suite =
  ( "relational",
    [
      Alcotest.test_case "value compare" `Quick test_value_compare;
      Alcotest.test_case "value hash" `Quick test_value_hash;
      Alcotest.test_case "value printing" `Quick test_value_pp;
      Alcotest.test_case "value numeric" `Quick test_value_numeric;
      Alcotest.test_case "domains" `Quick test_domain;
      Alcotest.test_case "tuple attr" `Quick test_tuple_attr;
      Alcotest.test_case "tuple project/concat" `Quick test_tuple_project_concat;
      Alcotest.test_case "tuple compare" `Quick test_tuple_compare;
      Alcotest.test_case "schema basics" `Quick test_schema_basics;
      Alcotest.test_case "schema compatibility" `Quick test_schema_compat;
      Alcotest.test_case "schema ops" `Quick test_schema_ops;
      Alcotest.test_case "schema member" `Quick test_schema_member;
      Alcotest.test_case "relation bag semantics" `Quick test_relation_bag_semantics;
      Alcotest.test_case "relation schema enforcement" `Quick test_relation_schema_enforced;
      Alcotest.test_case "relation comparison" `Quick test_relation_compare;
      Alcotest.test_case "relation counted" `Quick test_relation_counted;
      Alcotest.test_case "database catalog" `Quick test_database_catalog;
      Alcotest.test_case "database set" `Quick test_database_set;
      Alcotest.test_case "database temporaries" `Quick test_database_temporaries;
      Alcotest.test_case "database time/equality" `Quick test_database_time_and_equality;
    ] )
