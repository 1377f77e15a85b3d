(** Smoke test for the throughput-measurement machinery (the [@bench-smoke]
    alias, pulled into [dune runtest]).

    Runs the gated stages over a 2-workload grid, writes the JSON report,
    reads it back and passes it through the gate against itself.  Asserts
    the plumbing — stage measurement, serialization, gate comparison —
    not any timing verdict: absolute cells/sec and the obs A/A <= 5%
    verdict belong to [catt_cli bench --check], which re-measures a
    failing A/A before judging it, so host noise cannot fail
    [dune runtest]. *)

module Bench = Experiments.Bench_core

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let () =
  let workloads = List.map Workloads.Registry.find [ "ATAX"; "BT" ] in
  let r =
    (* a small pipelined-serve batch rides along so the serve stage's
       plumbing (pipe feeding, response draining, memo warm-up) is
       exercised on every `dune runtest`, not only in full bench runs *)
    Bench.collect ~workloads ~jobs:1
      ~extra:[ Serve.Bench.stage ~requests:64 ]
      ()
  in
  if r.Bench.gated = [] then fail "no gated stages measured";
  List.iter
    (fun (s : Bench.stage) ->
      if not (Float.is_finite s.Bench.cells_per_sec && s.Bench.cells_per_sec > 0.)
      then fail "stage %s: bad cells/sec %f" s.Bench.name s.Bench.cells_per_sec;
      if s.Bench.minor_words_per_cell <= 0. then
        fail "stage %s: implausible allocation rate" s.Bench.name)
    (r.Bench.gated @ r.Bench.pool);
  let tmp = Filename.temp_file "bench-smoke" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Bench.write_json tmp r;
      let json =
        match
          Gpu_util.Json.of_string
            (In_channel.with_open_bin tmp In_channel.input_all)
        with
        | Ok j -> j
        | Error msg -> fail "report does not reparse: %s" msg
      in
      let committed =
        match Bench.baseline_of_json json with
        | Ok stages -> stages
        | Error msg -> fail "report does not decode: %s" msg
      in
      let verdicts = Bench.check ~committed ~measured:r.Bench.gated in
      if List.length verdicts <> List.length r.Bench.gated then
        fail "gate dropped stages: %d of %d" (List.length verdicts)
          (List.length r.Bench.gated);
      List.iter
        (fun v ->
          if not v.Bench.ok then
            fail "self-comparison regressed at %s" v.Bench.stage_name)
        verdicts;
      (* the obs A/A stage must ride along in the report the bench gate
         reads: spans disabled twice (A/A) vs enabled once, with the
         verdict the report computed *)
      let module J = Gpu_util.Json in
      let obs = J.member "obs" json in
      List.iter
        (fun field ->
          match J.member_opt field obs with
          | Some (J.Float _) -> ()
          | _ -> fail "obs section missing float field %s" field)
        [ "disabled_ms"; "disabled_ab_pct"; "enabled_ms"; "enabled_pct" ];
      let o = r.Bench.obs in
      if o.Bench.disabled_within_5pct <> (o.Bench.disabled_ab_pct <= 5.) then
        fail "obs verdict disagrees with its own A/A figure";
      if J.to_bool (J.member "disabled_within_5pct" obs) <> o.Bench.disabled_within_5pct
      then fail "obs report/JSON verdict mismatch");
  if !Obs.Span.enabled then fail "bench left span tracing enabled";
  if Obs.Span.finished () <> [] then fail "bench left spans in the sink";
  Printf.printf
    "bench-smoke: OK (%d gated stages, %d pool stages, obs A/A %.1f%%)\n"
    (List.length r.Bench.gated)
    (List.length r.Bench.pool)
    r.Bench.obs.Bench.disabled_ab_pct
