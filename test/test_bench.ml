(** The [catt_cli bench --check] verdicts, on synthetic stage records and
    batch times: no stage is measured, so nothing here depends on the
    host's speed. *)

module B = Serve.Bench

let stage ?(exact_counts = true) ?(words = 100_000.) name cells_per_sec =
  {
    B.name;
    cells = 23;
    seconds = 23. /. cells_per_sec;
    cells_per_sec;
    minor_words_per_cell = words;
    major_words_per_cell = 0.;
    exact_counts;
  }

let committed = [ stage "grid/baseline" 10.; stage "grid/catt" 10. ]

let verdict_of measured =
  match B.check ~committed ~measured:[ measured ] with
  | [ v ] -> v
  | vs -> Alcotest.failf "%d verdicts for one measured stage" (List.length vs)

let test_time_floor () =
  let v = verdict_of (stage "grid/baseline" 8.99) in
  Alcotest.(check bool) "-10.1% fails" false (B.ok v);
  let v = verdict_of (stage "grid/baseline" 9.01) in
  Alcotest.(check bool) "-9.9% passes" true (B.ok v)

let test_count_ceiling () =
  let v = verdict_of (stage ~words:101_100. "grid/baseline" 10.) in
  Alcotest.(check bool) "time ok" true v.B.time_ok;
  Alcotest.(check bool) "+1.1% minor words fails" false (B.ok v);
  let v = verdict_of (stage ~words:100_900. "grid/baseline" 10.) in
  Alcotest.(check bool) "+0.9% minor words passes" true (B.ok v);
  let v =
    verdict_of (stage ~exact_counts:false ~words:200_000. "grid/baseline" 10.)
  in
  Alcotest.(check bool) "inexact counts are not gated" true (B.ok v)

let test_retry_clears_floor () =
  let remeasured = ref [] in
  let remeasure name =
    remeasured := name :: !remeasured;
    stage name 9.5
  in
  let vs =
    B.check_with_retry ~committed
      ~measured:[ stage "grid/baseline" 7.; stage "grid/catt" 10. ]
      ~remeasure
  in
  Alcotest.(check (list string))
    "only the failing stage is re-measured" [ "grid/baseline" ] !remeasured;
  Alcotest.(check (list bool)) "both pass" [ true; true ] (List.map B.ok vs);
  let slower =
    B.check_with_retry ~committed
      ~measured:[ stage "grid/baseline" 7. ]
      ~remeasure:(fun name -> stage name 6.)
  in
  Alcotest.(check (list (float 1e-9)))
    "the fastest measurement is judged" [ 7. ]
    (List.map (fun v -> v.B.measured.B.cells_per_sec) slower)

let test_absent_stage_skipped () =
  let vs = B.check ~committed ~measured:[ stage "grid/catt" 10. ] in
  Alcotest.(check (list string))
    "only measured stages are judged" [ "grid/catt" ]
    (List.map (fun v -> v.B.committed.B.name) vs)

let test_aa_verdict () =
  List.iter
    (fun b ->
      let o = B.aa_of_times [| 1.0 |] [| b |] [| 2.0 |] in
      Alcotest.(check bool)
        (Printf.sprintf "A/A at %.1f%%" o.B.disabled_ab_pct)
        (o.B.disabled_ab_pct <= 5.) o.B.disabled_within_5pct)
    [ 1.0; 1.03; 1.0499; 1.05; 1.0501; 1.2; 0.9 ]

let test_report_round_trip () =
  let r =
    {
      B.gated = committed;
      pool = [ stage ~exact_counts:false "pool/jobs-1" 9. ];
      overheads =
        [ ("profiler", B.aa_of_times [| 1.0 |] [| 1.01 |] [| 2.0 |]) ];
    }
  in
  let json = B.report_to_json r in
  (match B.baseline_of_json json with
  | Ok stages ->
    Alcotest.(check (list (pair string (float 1e-9))))
      "gated stages round-trip"
      (List.map (fun s -> (s.B.name, s.B.minor_words_per_cell)) committed)
      (List.map (fun s -> (s.B.name, s.B.minor_words_per_cell)) stages)
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool)
    "A/A verdict written" true
    (Gpu_util.Json.to_bool
       (Gpu_util.Json.member "disabled_within_5pct"
          (Gpu_util.Json.member "profiler" json)))

let test_unreadable_report () =
  let tmp = Filename.temp_file "bench-report" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Out_channel.with_open_bin tmp (fun oc ->
          Out_channel.output_string oc {|{"stages": [{"stage": 1}]}|});
      Alcotest.(check int) "undecodable report" 2 (B.check_file tmp));
  Alcotest.(check int)
    "missing report" 2
    (B.check_file (Filename.concat (Filename.get_temp_dir_name ()) "no/such.json"))

let tests =
  [
    ( "bench.gate",
      [
        Alcotest.test_case "time floor at 10%" `Quick test_time_floor;
        Alcotest.test_case "minor-word ceiling at 1%" `Quick test_count_ceiling;
        Alcotest.test_case "re-measure clears the floor" `Quick
          test_retry_clears_floor;
        Alcotest.test_case "absent stage skipped" `Quick
          test_absent_stage_skipped;
        Alcotest.test_case "A/A verdict is its figure" `Quick test_aa_verdict;
        Alcotest.test_case "report round trip" `Quick test_report_round_trip;
        Alcotest.test_case "unreadable report exits 2" `Quick
          test_unreadable_report;
      ] );
  ]
