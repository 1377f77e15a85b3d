(** Paper Fig. 9: normalized execution time of every CS kernel across the
    full range of throttling factors (max TLP → min TLP), with the first
    factor that runs the TLP CATT selected marked by a star.  Checks the
    accuracy of the static analysis: for regular kernels the star should
    sit at (or next to) the minimum. *)

type kernel_curve = {
  app : string;
  kernel : string;
  factors : ((int * int) * float) list;  (** (n, m) → normalized time *)
  catt_pick : (int * int) option;
      (** the first (n, m) whose run has CATT's kernel TLP *)
  star_is_best : bool;
  star_within : float;  (** star time / best time *)
}

let kernel_stats (r : Runner.app_run) kernel_name =
  List.find_opt
    (fun (ks : Runner.kernel_stats) -> ks.Runner.kernel_name = kernel_name)
    r.Runner.kernels

let kernel_cycles r kernel_name =
  match kernel_stats r kernel_name with
  | Some ks -> float_of_int ks.Runner.stats.Gpusim.Stats.cycles
  | None -> nan

let kernel_tlp r kernel_name =
  Option.map (fun (ks : Runner.kernel_stats) -> ks.Runner.tlp)
    (kernel_stats r kernel_name)

let curves cfg (w : Workloads.Workload.t) =
  let sweep = Runner.sweep cfg w in
  let base =
    match sweep with
    | ((1, 0), r) :: _ -> r
    | _ -> Runner.run cfg w Runner.Baseline
  in
  let catt = Runner.run cfg w Runner.Catt in
  List.map
    (fun (kernel_name, _) ->
      let base_cycles = kernel_cycles base kernel_name in
      let factors =
        List.map
          (fun (f, r) -> (f, kernel_cycles r kernel_name /. base_cycles))
          sweep
      in
      (* the star: the sweep point that runs the TLP CATT's program runs
         (the gate's record on both sides) — baseline's time when none
         does *)
      let catt_tlp = kernel_tlp catt kernel_name in
      let pick =
        Option.map fst
          (List.find_opt (fun (_, r) -> kernel_tlp r kernel_name = catt_tlp) sweep)
      in
      let star_time =
        match Option.bind pick (fun f -> List.assoc_opt f factors) with
        | Some t -> t
        | None -> 1.
      in
      let best = List.fold_left (fun acc (_, t) -> min acc t) infinity factors in
      {
        app = w.Workloads.Workload.name;
        kernel = kernel_name;
        factors;
        catt_pick = pick;
        star_is_best = star_time <= best +. 1e-9;
        star_within = star_time /. best;
      })
    (Workloads.Workload.kernels w)

let render () =
  let cfg = Configs.max_l1d () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Figure 9: normalized execution time across throttling factors (CS \
     kernels)\n(star * = the factor CATT selected; 1.00 = baseline)\n";
  let total = ref 0 and hits = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      List.iter
        (fun c ->
          incr total;
          if c.star_within <= 1.05 then incr hits;
          Buffer.add_string buf (Printf.sprintf "\n%s / %s\n" c.app c.kernel);
          Buffer.add_string buf
            (Gpu_util.Ascii_plot.bar_chart ~unit_label:"x"
               (List.map
                  (fun ((n, m), t) ->
                    ( Printf.sprintf "N=%2d M=%d%s" n m
                        (if Some (n, m) = c.catt_pick then " *" else ""),
                      t ))
                  c.factors));
          Buffer.add_char buf '\n')
        (curves cfg w))
    Workloads.Registry.cs;
  Buffer.add_string buf
    (Printf.sprintf
       "\nCATT's pick within 5%% of the sweep optimum for %d/%d kernels\n"
       !hits !total);
  Buffer.contents buf
