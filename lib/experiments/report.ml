(** Dispatch table of all reproduced artifacts. *)

type artifact = {
  id : string;
  title : string;
  render : unit -> string;
}

let artifacts =
  [
    {
      id = "table2";
      title = "Table 2/Sec 3: cache-sensitivity classification";
      render = Classify.render;
    };
    { id = "table3"; title = "Table 3: selected TLP per kernel/loop"; render = Table3.render };
    { id = "fig2"; title = "Fig 2: off-chip requests over time"; render = Fig2.render };
    { id = "fig3"; title = "Fig 3: TLP vs footprint microbenchmarks"; render = Fig3.render };
    { id = "fig6"; title = "Fig 6: L1D hit rates"; render = Perf_figs.render_fig6 };
    { id = "fig7"; title = "Fig 7: CS performance, max L1D"; render = Perf_figs.render_fig7 };
    { id = "fig8"; title = "Fig 8: CI performance, max L1D"; render = Perf_figs.render_fig8 };
    { id = "fig9"; title = "Fig 9: throttling-factor sensitivity"; render = Fig9.render };
    { id = "fig10"; title = "Fig 10: CS performance, reduced L1D"; render = Perf_figs.render_fig10 };
    { id = "overhead"; title = "Sec 5.1.4: analysis overhead"; render = Overhead.render };
    {
      id = "ablations";
      title = "Ablations: dynamic / bypass / scheduler (Sec 2 arguments)";
      render = Ablations.render;
    };
    {
      id = "sanitize-all";
      title = "Sanitizer sweep: every kernel variant checks clean";
      render = Sanitize_all.render;
    };
    {
      id = "profile-all";
      title = "Profiler: Eq. 8 footprint vs measured L1D miss rate";
      render = Profile_all.render;
    };
    {
      id = "lint-all";
      title = "Static kernel lint: every workload, both L1D configs";
      render = Lint_all.render;
    };
  ]

let find id = List.find_opt (fun a -> a.id = id) artifacts

let ids = List.map (fun a -> a.id) artifacts

(* ------------------------------------------------------------------ *)
(* Parallel warm-up                                                    *)
(* ------------------------------------------------------------------ *)

(** The (config, workload, scheme) cells an artifact will ask {!Runner}
    for while rendering.  Rendering stays sequential and deterministic;
    {!warm} precomputes these cells across a domain pool, so the render
    phase is all memo hits and the output is byte-identical to a
    sequential run.  Artifacts outside the Runner grid (fig2's trace
    runs, fig3's microbenchmarks, the static overhead table) have empty
    plans and simply render as before; so does profile-all, whose
    profiled runs bypass the Runner grid and carry their own cache. *)
let plan id =
  let cells cfg ws schemes_of =
    List.concat_map (fun w -> List.map (fun s -> (cfg, w, s)) (schemes_of w)) ws
  in
  (* baseline + CATT + the full BFTT sweep: what the perf figures need *)
  let perf cfg group =
    cells cfg group (fun w ->
        Runner.Baseline :: Runner.Catt
        :: List.map
             (fun (n, m) ->
               if n = 1 && m = 0 then Runner.Baseline else Runner.Fixed (n, m))
             (Runner.candidates cfg w))
  in
  let max_cfg = Configs.max_l1d () and small_cfg = Configs.small_l1d () in
  match id with
  | "table2" ->
    cells max_cfg Workloads.Registry.all (fun _ -> [ Runner.Baseline ])
    @ cells small_cfg Workloads.Registry.all (fun _ -> [ Runner.Baseline ])
  | "table3" -> perf small_cfg Workloads.Registry.cs @ perf max_cfg Workloads.Registry.cs
  | "fig6" | "fig7" | "fig9" -> perf max_cfg Workloads.Registry.cs
  | "fig8" -> perf max_cfg Workloads.Registry.ci
  | "fig10" -> perf small_cfg Workloads.Registry.cs
  | "ablations" ->
    cells max_cfg Workloads.Registry.cs (fun w ->
        [
          Runner.Baseline; Runner.Catt; Runner.CcwsSched; Runner.DawsSched;
          Runner.Dynamic; Runner.Bypass;
        ]
        @ List.map (fun k -> Runner.Swl k) (Runner.swl_candidates max_cfg w))
  | _ -> []

let warm ?(jobs = 1) artifact_ids =
  let cells = List.concat_map plan artifact_ids in
  ignore (Runner.run_many ~jobs cells);
  List.length cells
