(** The [@bench-smoke] alias (pulled into [dune runtest]): the plumbing of
    [catt_cli bench] on small inputs.

    Measures a grid stage and the pool stage at jobs 1 and 2 over a
    2-workload grid, plus the serve stage, and runs each of
    {!Serve.Bench.aa_instances} once.  Checks that every figure is finite,
    that the pool counts the cells its other domain ran, that each A/A
    verdict agrees with its own figure, and that no telemetry or cache
    switch is left changed.  Then writes the report over a file that
    already has a [pre_overhaul] section, reads it back and passes it
    through the gate against itself.  The time verdicts are timing
    judgements, gated by [catt_cli bench --check] with re-measures; a test
    run on a noisy host must not fail on them. *)

module B = Serve.Bench
module J = Gpu_util.Json

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("bench-smoke: " ^ m);
      exit 1)
    fmt

let finite ?(positive = false) what v =
  if not (Float.is_finite v && ((not positive) || v > 0.)) then
    fail "bad %s: %f" what v

let check_stage (s : B.stage) =
  B.print_stage s;
  finite ~positive:true (s.B.name ^ " cells/sec") s.B.cells_per_sec;
  finite ~positive:true (s.B.name ^ " minor words") s.B.minor_words_per_cell

let check_aa (name, (o : B.aa)) =
  finite ~positive:true (name ^ " disabled_ms") o.B.disabled_ms;
  finite ~positive:true (name ^ " enabled_ms") o.B.enabled_ms;
  finite (name ^ " disabled_ab_pct") o.B.disabled_ab_pct;
  finite (name ^ " enabled_pct") o.B.enabled_pct;
  if o.B.disabled_within_5pct <> (o.B.disabled_ab_pct <= 5.) then
    fail "%s: verdict disagrees with its own A/A figure" name

(* write [r] over a report that already has a pre_overhaul section, read
   it back and gate it against the stages it was written from *)
let check_report (r : B.report) =
  let tmp = Filename.temp_file "bench-smoke" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let pre = J.Obj [ ("cells_per_sec", J.Float 1.5) ] in
      Out_channel.with_open_bin tmp (fun oc ->
          Out_channel.output_string oc
            (J.to_string (J.Obj [ ("pre_overhaul", pre) ])));
      B.write_json tmp r;
      let json =
        match B.read_json tmp with
        | Ok j -> j
        | Error msg -> fail "report does not reparse: %s" msg
      in
      let committed =
        match B.baseline_of_json json with
        | Ok stages -> stages
        | Error msg -> fail "report does not decode: %s" msg
      in
      let verdicts = B.check ~committed ~measured:r.B.gated in
      if List.length verdicts <> List.length r.B.gated then
        fail "gate dropped stages: %d of %d" (List.length verdicts)
          (List.length r.B.gated);
      List.iter
        (fun v ->
          if not (B.ok v) then
            fail "self-comparison regressed at %s" v.B.committed.B.name)
        verdicts;
      if J.member_opt "pre_overhaul" json <> Some pre then
        fail "rewriting the report lost its pre_overhaul section";
      List.iter
        (fun (name, o) ->
          match J.member_opt name json with
          | Some j when J.to_bool (J.member "disabled_within_5pct" j)
                        = o.B.disabled_within_5pct -> ()
          | _ -> fail "report lacks the %s A/A verdict" name)
        r.B.overheads)

let () =
  let cache = !Experiments.Cache.enabled in
  let two = List.map Workloads.Registry.find [ "ATAX"; "BT" ] in
  let grid = B.grid_stage two Experiments.Scheme.Baseline "grid/baseline" in
  let serve = B.serve_stage "serve/pipelined" in
  let jobs1 = B.pool_stage two 1 in
  let jobs2 = B.pool_stage two 2 in
  let gated = [ grid; serve ] and pool = [ jobs1; jobs2 ] in
  List.iter check_stage (gated @ pool);
  (* the same cells on two domains: the calling domain's counter alone
     would miss the ones the other domain ran *)
  if jobs2.B.minor_words_per_cell < 0.5 *. jobs1.B.minor_words_per_cell then
    fail "pool/jobs-2 counts %.0f minor words per cell against jobs-1's %.0f"
      jobs2.B.minor_words_per_cell jobs1.B.minor_words_per_cell;
  if !Experiments.Cache.enabled <> cache then
    fail "the serve stage left the disk cache switched";
  let overheads =
    List.map
      (fun ((name, _) as instance) ->
        let named = B.measure_aa instance in
        check_aa named;
        if !Obs.Span.enabled then fail "%s left span tracing enabled" name;
        if !Obs.Log.enabled then fail "%s left the structured log enabled" name;
        if Obs.Span.finished () <> [] then fail "%s left spans in the sink" name;
        if !Experiments.Cache.enabled <> cache then
          fail "%s left the disk cache switched" name;
        named)
      B.aa_instances
  in
  check_report { B.gated; pool; overheads };
  print_endline "bench-smoke: OK"
