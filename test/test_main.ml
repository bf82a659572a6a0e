(* Entry point: one alcotest binary running every suite. *)

let () =
  Alcotest.run "mxra"
    [
      Test_multiset.suite;
      Test_relational.suite;
      Test_eval.suite;
      Test_typecheck.suite;
      Test_equiv.suite;
      Test_engine.suite;
      Test_optimizer.suite;
      Test_xra.suite;
      Test_sql.suite;
      Test_ext.suite;
      Test_ext2.suite;
      Test_parallel.suite;
      Test_model.suite;
      Test_workload.suite;
      Test_storage.suite;
      Test_torture.suite;
      Test_concurrency.suite;
      Test_mvcc.suite;
      Test_language.suite;
      Test_obs.suite;
      Test_syscat.suite;
      Test_index.suite;
      Test_session.suite;
    ]
