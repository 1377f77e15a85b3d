(** [catt] — the compiler CLI: analyze a mini-CUDA kernel and emit the
    throttled source, mirroring how the paper's tool wraps its ANTLR pass.

    Usage:
      catt_cli analyze  FILE --grid GX[,GY] --block BX[,BY] [--onchip KB] [--sms N] [--jobs N]
      catt_cli transform FILE --grid … --block …   (prints transformed source)
      catt_cli check    FILE --grid … --block … [--strict]   (kernel sanitizer)
      catt_cli disasm   FILE                       (SASS-lite dump)
      catt_cli run      WORKLOAD [--scheme S] [--onchip KB] [--sms N]
                                                   (simulate under a scheme and print
                                                    per-kernel counters + verification)
      catt_cli profile  WORKLOAD [--scheme S] [--onchip KB] [--sms N]
                        [--trace-out trace.json]
                                                   (cycle accounting + L1D heat maps,
                                                    optional Perfetto timeline export)
      catt_cli explain  WORKLOAD [--json] [--onchip KB] [--sms N]
                                                   (CATT decision provenance)
      catt_cli lint     TARGET [--json] [--grid ...] [--block ...]
                        [--onchip KB] [--sms N]
                                                   (static cache-behavior lint;
                                                    TARGET is a source file or a
                                                    registered workload)
      catt_cli bench    [--json PATH | --check] [--baseline PATH]
                                                   (throughput report and its gate)
*)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  content

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"mini-CUDA source file")

let grid_arg =
  Arg.(
    value
    & opt Cli_common.pair (4, 1)
    & info [ "grid" ] ~docv:"GX[,GY]" ~doc:"grid dimensions")

let block_arg =
  Arg.(
    value
    & opt Cli_common.pair (256, 1)
    & info [ "block" ] ~docv:"BX[,BY]" ~doc:"thread-block dimensions")

let config ~onchip_kb ~sms =
  Gpusim.Config.scaled ~num_sms:sms ~onchip_bytes:(onchip_kb * 1024) ()

let kernels_of path =
  (Minicuda.Parser.parse_program (read_file path)).Minicuda.Ast.kernels

let analyses path (gx, gy) (bx, by) onchip sms jobs =
  let geo = { Catt.Analysis.grid_x = gx; grid_y = gy; block_x = bx; block_y = by } in
  let cfg = config ~onchip_kb:onchip ~sms in
  let results =
    (* independent per-kernel passes; order is preserved by Pool.map *)
    Gpu_util.Pool.parallel_map ~jobs
      (fun kernel -> (kernel, Catt.Driver.analyze cfg kernel geo))
      (kernels_of path)
  in
  let ok =
    List.filter_map
      (fun (kernel, r) ->
        match r with
        | Ok t -> Some (kernel, t)
        | Error msg ->
          Printf.eprintf "%s: %s\n" kernel.Minicuda.Ast.kernel_name msg;
          None)
      results
  in
  (cfg, ok)

let analyze_cmd =
  let run path grid block onchip sms jobs =
    let cfg, results = analyses path grid block onchip sms jobs in
    List.iter (fun (_, t) -> Catt.Report.print cfg t) results
  in
  Cmd.v (Cmd.info "analyze" ~doc:"print the per-loop contention analysis")
    Term.(
      const run $ file_arg $ grid_arg $ block_arg $ Cli_common.onchip
      $ Cli_common.sms $ Cli_common.jobs)

let transform_cmd =
  let run path grid block onchip sms jobs =
    let _, results = analyses path grid block onchip sms jobs in
    List.iter
      (fun (_, (t : Catt.Driver.t)) ->
        print_endline (Minicuda.Pretty.kernel t.Catt.Driver.transformed);
        print_newline ())
      results
  in
  Cmd.v (Cmd.info "transform" ~doc:"print the throttled source")
    Term.(
      const run $ file_arg $ grid_arg $ block_arg $ Cli_common.onchip
      $ Cli_common.sms $ Cli_common.jobs)

let check_cmd =
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"treat warnings (e.g. possible out-of-bounds) as fatal")
  in
  let run path (gx, gy) (bx, by) strict =
    let geo =
      { Sanitize.Geom.grid_x = gx; grid_y = gy; block_x = bx; block_y = by }
    in
    let diags =
      List.concat_map
        (fun kernel -> Sanitize.Check.check_kernel geo kernel)
        (kernels_of path)
    in
    List.iter
      (fun d -> print_endline (Sanitize.Diag.to_string ~file:path d))
      diags;
    let fatal =
      if strict then diags <> [] else Sanitize.Diag.has_errors diags
    in
    if fatal then exit 1
    else if diags = [] then print_endline "no diagnostics"
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "run the kernel sanitizer (barrier divergence, shared-memory races, \
          bounds); exits non-zero on errors")
    Term.(const run $ file_arg $ grid_arg $ block_arg $ strict_arg)

let disasm_cmd =
  let file0 =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"source file")
  in
  let run path =
    List.iter
      (fun kernel ->
        print_string (Gpusim.Bytecode.disassemble (Gpusim.Codegen.compile_kernel kernel)))
      (kernels_of path)
  in
  Cmd.v (Cmd.info "disasm" ~doc:"dump SASS-lite bytecode") Term.(const run $ file0)

let workload_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD"
        ~doc:"registered workload name (e.g. ATAX, GEMM); case-insensitive")

let find_workload name =
  match Workloads.Registry.find name with
  | exception Invalid_argument msg ->
    prerr_endline msg;
    exit 2
  | w -> w

(* Perfetto/Chrome trace-event export: host spans on pid 1, each profiled
   kernel's per-SM cycle timeline on its own pid (simulated cycles render
   as microseconds). *)
let write_trace ~path (r : Experiments.Runner.app_run) =
  let host =
    Obs.Trace_event.process_name ~pid:1 "host"
    :: Obs.Trace_event.of_spans ~pid:1 (Obs.Span.finished ())
  in
  let sim =
    List.concat
      (List.mapi
         (fun i (ks : Experiments.Runner.kernel_stats) ->
           match ks.Experiments.Runner.profile with
           | None -> []
           | Some p -> (
             match Profile.Collector.timeline p with
             | None -> []
             | Some tl ->
               let pid = 2 + i in
               Obs.Trace_event.process_name ~pid
                 (Printf.sprintf "sim:%s (cycles as us)"
                    ks.Experiments.Runner.kernel_name)
               :: Profile.Timeline.to_events tl ~pid))
         r.Experiments.Runner.kernels)
  in
  Obs.Trace_event.write ~path (host @ sim);
  Printf.printf "wrote %s (open in chrome://tracing or ui.perfetto.dev)\n" path

let scheme_arg ~doing =
  Arg.(
    value & opt string "baseline"
    & info [ "scheme" ] ~docv:"SCHEME"
        ~doc:
          (Printf.sprintf
             "execution scheme to %s: baseline, CATT, fixed(N=..,M=..), \
              dynamic, ccws, daws, swl(..), bypass, catt-sa, ciao or ata"
             doing))

(* simulate-and-verify from the same Runner path the experiment grids
   use: the counters printed here are the ones the golden grid digests *)
let run_cmd =
  let run name scheme_str onchip sms =
    let cfg = config ~onchip_kb:onchip ~sms in
    match Experiments.Scheme.of_string scheme_str with
    | Error msg ->
      prerr_endline msg;
      exit 2
    | Ok scheme -> (
      let w = find_workload name in
      match Experiments.Runner.exec (Experiments.Runner.Request.make cfg w scheme) with
      | Error msg ->
        prerr_endline msg;
        exit 1
      | Ok r ->
        Printf.printf "%s under %s (%s): %d cycles total\n"
          r.Experiments.Runner.workload
          (Experiments.Runner.scheme_label scheme)
          (Experiments.Configs.label cfg)
          r.Experiments.Runner.total_cycles;
        List.iter
          (fun (ks : Experiments.Runner.kernel_stats) ->
            Printf.printf "  %-20s TLP (%2d,%2d)  %s\n"
              ks.Experiments.Runner.kernel_name
              (fst ks.Experiments.Runner.tlp)
              (snd ks.Experiments.Runner.tlp)
              (Format.asprintf "%a" Gpusim.Stats.pp ks.Experiments.Runner.stats);
            let s = ks.Experiments.Runner.stats in
            if s.Gpusim.Stats.bypass_transactions > 0 then
              Printf.printf "  %-20s bypassed-by-policy=%d\n" ""
                s.Gpusim.Stats.bypass_transactions;
            if s.Gpusim.Stats.ata_tag_hits > 0 then
              Printf.printf "  %-20s ata-tag-hits=%d ata-promotions=%d\n" ""
                s.Gpusim.Stats.ata_tag_hits s.Gpusim.Stats.ata_promotions)
          r.Experiments.Runner.kernels;
        match r.Experiments.Runner.verified with
        | Ok () -> print_endline "verification: OK"
        | Error msg ->
          Printf.printf "verification: FAILED (%s)\n" msg;
          exit 1)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "simulate a registered workload under a scheme and print per-kernel \
          counters (including the CIAO bypassed-by-policy and ATA tag-array \
          counters when non-zero), then check the CPU oracle")
    Term.(
      const run $ workload_arg $ scheme_arg ~doing:"run" $ Cli_common.onchip
      $ Cli_common.sms)

let profile_cmd =
  let scheme_arg = scheme_arg ~doing:"profile" in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"PATH"
          ~doc:
            "also record host spans and the per-SM warp issue/stall \
             timeline, and write them as Chrome trace-event JSON loadable \
             in chrome://tracing or Perfetto")
  in
  let run name scheme_str trace_out onchip sms =
    let cfg = config ~onchip_kb:onchip ~sms in
    match Experiments.Scheme.of_string scheme_str with
    | Error msg ->
      prerr_endline msg;
      exit 2
    | Ok scheme -> (
      let w = find_workload name in
      let timeline = trace_out <> None in
      if timeline then Obs.Span.enabled := true;
      match
        Experiments.Runner.exec
          (Experiments.Runner.Request.make ~profile:true ~timeline cfg w
             scheme)
      with
      | Error msg ->
        prerr_endline msg;
        exit 1
      | Ok r ->
        Printf.printf "%s, %s scheme, %d total cycles\n"
          r.Experiments.Runner.workload
          (Experiments.Runner.scheme_label scheme)
          r.Experiments.Runner.total_cycles;
        List.iter
          (fun (ks : Experiments.Runner.kernel_stats) ->
            match ks.Experiments.Runner.profile with
            | Some p ->
              Printf.printf "\n==== kernel %s ====\n\n%s"
                ks.Experiments.Runner.kernel_name
                (Profile.Collector.render p)
            | None -> ())
          r.Experiments.Runner.kernels;
        match trace_out with
        | Some path -> write_trace ~path r
        | None -> ())
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "simulate a registered workload with the profiler attached and \
          render per-SM cycle accounting plus per-array L1D heat maps; \
          $(b,--trace-out) additionally exports a Perfetto timeline")
    Term.(
      const run $ workload_arg $ scheme_arg $ trace_out_arg $ Cli_common.onchip
      $ Cli_common.sms)

let explain_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"emit the provenance record as JSON instead of rendering it")
  in
  let run name as_json onchip sms =
    let cfg = config ~onchip_kb:onchip ~sms in
    let w = find_workload name in
    let analyses = Experiments.Explain.analyses cfg w in
    if as_json then
      print_endline
        (Gpu_util.Json.to_string ~pretty:true
           (Experiments.Explain.to_json cfg w analyses))
    else print_string (Experiments.Explain.to_text cfg w analyses)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "show the provenance of every CATT decision for a registered \
          workload: per-loop Eq. 8 footprints, the candidate (N, M) \
          sequence tried against the L1D capacity, and the sanitizer \
          gate outcome")
    Term.(
      const run $ workload_arg $ json_arg $ Cli_common.onchip $ Cli_common.sms)

let lint_cmd =
  let target_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:
            "mini-CUDA source file, or a registered workload name (each \
             kernel linted under its recorded launch geometry)")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"emit the diagnostics as deterministic JSON instead of text")
  in
  let run target as_json (gx, gy) (bx, by) onchip sms =
    let cfg = config ~onchip_kb:onchip ~sms in
    let targets =
      if Sys.file_exists target then
        let geo =
          { Catt.Analysis.grid_x = gx; grid_y = gy; block_x = bx; block_y = by }
        in
        List.map (fun k -> (geo, k)) (kernels_of target)
      else
        let w = find_workload target in
        List.map
          (fun (name, k) ->
            (Experiments.Runner.geometry_of_kernel w name, k))
          (Workloads.Workload.kernels w)
    in
    let diags =
      List.concat_map
        (fun (geo, kernel) ->
          Staticmodel.Lint.run
            (Experiments.Lint_all.machine_of cfg)
            ?occupancy:(Experiments.Lint_all.hint_of cfg geo kernel)
            geo kernel)
        targets
    in
    if as_json then
      print_endline
        (Gpu_util.Json.to_string ~pretty:true
           (Staticmodel.Lint.list_to_json diags))
    else if diags = [] then print_endline "no diagnostics"
    else List.iter (fun d -> print_endline (Staticmodel.Lint.to_string d)) diags
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "run the static cache-behavior lint: uncoalesced global accesses, \
          shared-memory bank conflicts, loop-invariant global loads, \
          occupancy limiters and over-capacity working sets, ranked by \
          severity with source positions")
    Term.(
      const run $ target_arg $ json_arg $ grid_arg $ block_arg
      $ Cli_common.onchip $ Cli_common.sms)

let bench_cmd =
  let baseline_arg =
    Arg.(
      value
      & opt string "BENCH_gpusim.json"
      & info [ "baseline" ] ~docv:"PATH"
          ~doc:"committed throughput report to compare against")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "re-measure every stage and A/A instance and exit non-zero when \
             a stage runs more than 10% below its committed cells/sec after \
             best of 3, a grid stage allocates more than 1% more minor words \
             per cell than committed, or an A/A lands more than 5% apart in \
             3 attempts")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"write the throughput report to $(docv)")
  in
  let run baseline check json =
    match (check, json) with
    | true, Some _ -> `Error (true, "--check and --json are exclusive")
    | true, None -> exit (Serve.Bench.check_file baseline)
    | false, _ ->
      let r = Serve.Bench.collect () in
      Option.iter
        (fun path ->
          Serve.Bench.write_json path r;
          Printf.printf "wrote %s\n" path)
        json;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "measure simulation and serve throughput, allocation and A/A \
          overheads; $(b,--json) writes the report, $(b,--check) gates a \
          fresh measurement against the committed BENCH_gpusim.json")
    Term.(ret (const run $ baseline_arg $ check_arg $ json_arg))

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info = Cmd.info "catt_cli" ~doc:"compiler-assisted GPU thread throttling" in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            analyze_cmd; transform_cmd; check_cmd; disasm_cmd; run_cmd;
            profile_cmd; explain_cmd; lint_cmd; bench_cmd;
          ]))
