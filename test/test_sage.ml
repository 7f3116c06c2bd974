(* Test runner: every library's suite registered under its own section. *)

let () =
  Alcotest.run "sage"
    [
      ("logic/lf", Test_lf.suite);
      ("nlp", Test_nlp.suite);
      ("ccg", Test_ccg.suite);
      ("disambig", Test_disambig.suite);
      ("net", Test_net.suite);
      ("rfc", Test_rfc.suite);
      ("codegen", Test_codegen.suite);
      ("analysis", Test_analysis.suite);
      ("absint", Test_absint.suite);
      ("interp", Test_interp.suite);
      ("sim", Test_sim.suite);
      ("faults", Test_faults.suite);
      ("pipeline", Test_pipeline.suite);
      ("interop", Test_interop.suite);
      ("extensions", Test_extensions.suite);
      ("golden", Test_golden.suite);
      ("pseudo-code", Test_pseudo_code.suite);
      ("misc", Test_misc.suite);
      ("checks-table", Test_checks_table.suite);
      ("sem-props", Test_sem_props.suite);
      ("net-props", Test_net_props.suite);
      ("parallel", Test_parallel.suite);
      ("trace", Test_trace.suite);
      ("golden-snapshots", Test_golden_snapshots.suite);
      ("fuzz", Test_fuzz.suite);
      ("reqs", Test_reqs.suite);
      ("backend", Test_backend.suite);
      ("chaos", Test_chaos.suite);
      ("cli", Test_cli.suite);
      ("seeded-matrix", Test_seeded_matrix.suite);
      ("stateful", Test_stateful.suite);
    ]
