(** Paper Table 3: selected TLP (#warps_TB, #TBs) per kernel and loop for
    the baseline, BFTT and CATT, at the reduced and the maximum L1D. *)

let tlp_cell (w, t) = Printf.sprintf "(%d,%d)" w t

(* CATT's per-loop TLP strings for one kernel under one config *)
let catt_loop_tlps cfg (w : Workloads.Workload.t) kernel_name =
  let run = Runner.run cfg w Runner.Catt in
  match List.assoc_opt kernel_name run.Runner.catt_analyses with
  | None -> [ ("-", tlp_cell (0, 0)) ]
  | Some t ->
    let loops = t.Catt.Driver.loops in
    if loops = [] then [ ("-", tlp_cell (Catt.Driver.selected_tlp t)) ]
    else
      List.map
        (fun (l : Catt.Driver.loop_decision) ->
          let id = l.Catt.Driver.footprint.Catt.Footprint.loop.Catt.Analysis.loop_id in
          ( string_of_int (id + 1),
            tlp_cell (Catt.Driver.selected_tlp t ~loop_id:id) ))
        loops

let bftt_tlp cfg (w : Workloads.Workload.t) kernel_name =
  let _, best = Runner.bftt cfg w in
  match
    List.find_opt
      (fun (ks : Runner.kernel_stats) -> ks.Runner.kernel_name = kernel_name)
      best.Runner.kernels
  with
  | Some ks -> tlp_cell ks.Runner.tlp
  | None -> "-"

let baseline_tlp cfg (w : Workloads.Workload.t) kernel_name =
  let run = Runner.run cfg w Runner.Baseline in
  match
    List.find_opt
      (fun (ks : Runner.kernel_stats) -> ks.Runner.kernel_name = kernel_name)
      run.Runner.kernels
  with
  | Some ks -> tlp_cell ks.Runner.tlp
  | None -> "-"

let render () =
  let small = Configs.small_l1d () and max_cfg = Configs.max_l1d () in
  let table =
    Gpu_util.Table.create
      [
        "App"; "Kernel"; "Loop"; "Baseline"; "BFTT@16K"; "CATT@16K";
        "BFTT@32K"; "CATT@32K";
      ]
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let kernel_names =
        List.map fst (Workloads.Workload.kernels w)
      in
      List.iteri
        (fun ki kernel_name ->
          let loops_small = catt_loop_tlps small w kernel_name in
          let loops_max = catt_loop_tlps max_cfg w kernel_name in
          List.iteri
            (fun li (loop_label, catt_small) ->
              let catt_max =
                match List.nth_opt loops_max li with
                | Some (_, c) -> c
                | None -> "-"
              in
              let first = li = 0 in
              Gpu_util.Table.add_row table
                [
                  (if first && ki = 0 then w.Workloads.Workload.name else "");
                  (if first then Printf.sprintf "#%d" (ki + 1) else "");
                  loop_label;
                  (if first then baseline_tlp small w kernel_name else "");
                  (if first then bftt_tlp small w kernel_name else "");
                  catt_small;
                  (if first then bftt_tlp max_cfg w kernel_name else "");
                  catt_max;
                ])
            loops_small)
        kernel_names;
      Gpu_util.Table.add_separator table)
    Workloads.Registry.cs;
  "Table 3: TLP per SM (#warps_TB, #TBs) selected by each method\n"
  ^ Gpu_util.Table.render table
