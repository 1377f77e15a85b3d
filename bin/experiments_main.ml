(** [experiments] — regenerate any of the paper's tables and figures.

    Usage: experiments [ARTIFACT…] [--jobs N] [--onchip KB] [--sms N]
                       [--no-cache] [--quiet]
    Artifacts: table2 table3 fig2 fig3 fig6 fig7 fig8 fig9 fig10
               overhead ablations sanitize-all profile-all   (default: all)

    The (workload × scheme) grid behind the requested artifacts is
    precomputed on a pool of [--jobs] domains, and every completed cell
    is persisted under results/cache/ — a second invocation reports a
    cache hit per cell and renders from disk.  Rendering itself is
    sequential, so the artifact output is identical for any job count. *)

open Cmdliner

let artifact_args =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"ARTIFACT" ~doc:"artifacts to regenerate (default: all)")

let quiet =
  Arg.(value & flag & info [ "quiet" ] ~doc:"suppress per-run progress lines")

let run artifact_ids jobs onchip_kb sms no_cache quiet =
  Experiments.Configs.onchip_kb := onchip_kb;
  Experiments.Configs.num_sms := sms;
  Experiments.Cache.enabled := not no_cache;
  Experiments.Runner.progress := not quiet;
  let targets =
    match artifact_ids with
    | [] | [ "all" ] -> Experiments.Report.artifacts
    | ids ->
      List.map
        (fun id ->
          match Experiments.Report.find id with
          | Some a -> a
          | None ->
            Printf.eprintf "unknown artifact %s (known: %s)\n" id
              (String.concat " " Experiments.Report.ids);
            exit 2)
        ids
  in
  ignore
    (Experiments.Report.warm ~jobs
       (List.map (fun (a : Experiments.Report.artifact) -> a.id) targets));
  List.iter
    (fun (a : Experiments.Report.artifact) ->
      Printf.printf "==== %s ====\n\n%s\n\n%!" a.title (a.render ()))
    targets;
  let cs = Experiments.Cache.stats () in
  Printf.printf
    "summary: cache %d hits / %d misses / %d evicted / %d stored; %d cells \
     simulated, %d reused (%.2f cells/sec)\n"
    cs.Experiments.Cache.hits cs.Experiments.Cache.misses
    cs.Experiments.Cache.evictions cs.Experiments.Cache.stores
    (Obs.Metrics.value (Obs.Metrics.counter "sim.cells"))
    (Experiments.Runner.reused_total ())
    (let uptime_us =
       match List.assoc_opt "process.uptime_us" (Obs.Metrics.snapshot ()) with
       | Some (Obs.Metrics.Count us) -> float_of_int us
       | _ -> 0.
     in
     if uptime_us <= 0. then 0.
     else
       float_of_int (Obs.Metrics.value (Obs.Metrics.counter "sim.cells"))
       /. (uptime_us /. 1e6))

let () =
  let cmd =
    Cmd.v
      (Cmd.info "experiments" ~doc:"regenerate the paper's tables and figures")
      Term.(
        const run $ artifact_args $ Cli_common.jobs $ Cli_common.onchip
        $ Cli_common.sms $ Cli_common.no_cache $ quiet)
  in
  exit (Cmd.eval cmd)
