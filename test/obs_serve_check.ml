(** The [@obs-serve] alias (pulled into [dune runtest]): the plumbing of
    the serve loop's telemetry A/A.

    Runs {!Serve.Bench.obs_overhead} once — two interleaved batches of
    the pipelined serve stage with span tracing and structured logging
    disabled (an A/A measurement whose delta bounds the disabled-path
    cost plus noise) against one batch with both enabled — and checks
    that every figure is a finite positive time, that the verdict agrees
    with the A/A figure it was computed from, and that no telemetry is
    left armed.  The <= 5% verdict itself is a timing judgement and is
    gated by [catt_cli bench --check], which re-measures up to 3 times;
    a test run on a noisy host must not fail on it. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("obs-serve: " ^ m); exit 1) fmt

let () =
  let module B = Experiments.Bench_core in
  let o = Serve.Bench.obs_overhead () in
  Printf.printf
    "obs-serve A/A: disabled %.2f ms (%.1f%% apart), enabled %.2f ms \
     (+%.1f%%)\n\
     %!"
    o.B.disabled_ms o.B.disabled_ab_pct o.B.enabled_ms o.B.enabled_pct;
  List.iter
    (fun (name, v) ->
      if not (Float.is_finite v && v > 0.) then fail "bad %s: %f" name v)
    [ ("disabled_ms", o.B.disabled_ms); ("enabled_ms", o.B.enabled_ms) ];
  if not (Float.is_finite o.B.disabled_ab_pct && o.B.disabled_ab_pct >= 0.) then
    fail "bad disabled_ab_pct: %f" o.B.disabled_ab_pct;
  if o.B.disabled_within_5pct <> (o.B.disabled_ab_pct <= 5.) then
    fail "verdict disagrees with its own A/A figure";
  (* the measurement must leave no telemetry armed behind it *)
  if !Obs.Span.enabled then fail "left span tracing enabled";
  if !Obs.Log.enabled then fail "left the structured log enabled";
  print_endline "obs-serve: OK"
