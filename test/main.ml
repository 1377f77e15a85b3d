let () =
  Alcotest.run "catt-repro"
    (Test_util.tests @ Test_minicuda.tests @ Test_gpusim.tests
   @ Test_catt.tests @ Test_workloads.tests @ Test_experiments.tests
   @ Test_extensions.tests @ Test_more.tests @ Test_properties.tests
   @ Test_golden.tests @ Test_parallel.tests @ Test_sanitize.tests
   @ Test_serve.tests @ Test_staticmodel.tests @ Test_alloc.tests
   @ Test_reuse.tests @ Test_bench.tests @ Test_decode.tests
   @ Test_memory_path.tests @ Test_sched.tests)
