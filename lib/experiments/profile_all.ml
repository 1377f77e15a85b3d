(** profile-all artifact: does the paper's static footprint model order
    loops the way the simulated L1D actually suffers?

    For every registered workload we run the baseline scheme with the
    profiler attached, then line up, per top-level loop:

    - the Eq. 8 static requirement [size_req_lines] (per-warp footprint
      from {!Catt.Footprint} times the kernel's concurrent warps), and
    - the measured L1D load miss rate over the heat-map cells whose source
      site falls inside that loop's line span.

    The Eq. 8 number is a capacity *requirement*, not a miss prediction,
    so we report Spearman rank correlation: the model earns its keep if
    bigger-footprint loops miss more, which is exactly the ordering the
    TLP search (Eq. 9) relies on.  Loop numbering replicates
    {!Catt.Analysis.analyze_kernel}: top-level [for]/[while] statements in
    traversal order, recursing into [if] branches and blocks. *)

module Json = Gpu_util.Json
module Ast = Minicuda.Ast

let scheme_label = "profile-baseline"
let artifact_version = 1

(* ------------------------------------------------------------------ *)
(* Profiled runs, persisted via the result cache                       *)
(* ------------------------------------------------------------------ *)

let bundle_to_json pairs =
  Json.Obj
    [
      ("version", Json.Int artifact_version);
      ( "kernels",
        Json.List
          (List.map
             (fun (name, p) ->
               Json.Obj
                 [
                   ("kernel", Json.String name);
                   ("profile", Profile.Collector.to_json p);
                 ])
             pairs) );
    ]

let bundle_of_json json =
  Json.decode
    (fun j ->
      if Json.to_int (Json.member "version" j) <> artifact_version then
        raise (Json.Type_error "profile bundle version mismatch");
      List.map
        (fun kj ->
          let name = Json.to_str (Json.member "kernel" kj) in
          match Profile.Collector.of_json (Json.member "profile" kj) with
          | Ok c -> (name, c)
          | Error msg -> raise (Json.Type_error msg))
        (Json.to_list (Json.member "kernels" j)))
    json

(** Per-kernel collectors for a profiled baseline run of [w].  Profiled
    runs bypass {!Runner}'s grid cache (collectors are live objects), so
    this artifact keeps its own cache entries under [scheme_label]. *)
let profiles cfg (w : Workloads.Workload.t) =
  let recompute () =
    let r =
      match
        Runner.exec (Runner.Request.make ~profile:true cfg w Runner.Baseline)
      with
      | Ok r -> r
      | Error msg -> failwith msg
    in
    let pairs =
      List.filter_map
        (fun (ks : Runner.kernel_stats) ->
          Option.map (fun p -> (ks.Runner.kernel_name, p)) ks.Runner.profile)
        r.Runner.kernels
    in
    Cache.store cfg ~workload:w.Workloads.Workload.name ~scheme:scheme_label
      ~seed:Runner.seed (bundle_to_json pairs);
    pairs
  in
  match
    Cache.find cfg ~workload:w.Workloads.Workload.name ~scheme:scheme_label
      ~seed:Runner.seed bundle_of_json
  with
  | Some pairs -> pairs
  | None -> recompute ()

(* ------------------------------------------------------------------ *)
(* Loop source spans                                                   *)
(* ------------------------------------------------------------------ *)

let stmt_span s =
  Ast.fold_stmt
    (fun (lo, hi) st ->
      let l = st.Ast.sloc.Ast.line in
      if l = 0 then (lo, hi) else (min lo l, max hi l))
    (max_int, 0) s

(** [(loop_id, (first_line, last_line))] for every loop
    {!Catt.Analysis.analyze_kernel} reports, in the same numbering. *)
let loop_spans (k : Ast.kernel) =
  let spans = ref [] in
  let next = ref 0 in
  let rec top (s : Ast.stmt) =
    match s.Ast.sk with
    | Ast.For _ | Ast.While _ ->
      let id = !next in
      incr next;
      let lo, hi = stmt_span s in
      if lo <= hi then spans := (id, (lo, hi)) :: !spans
    | Ast.If (_, then_b, else_b) ->
      List.iter top then_b;
      List.iter top else_b
    | Ast.Block body -> List.iter top body
    | _ -> ()
  in
  List.iter top k.Ast.body;
  List.rev !spans

(* ------------------------------------------------------------------ *)
(* Correlation rows                                                    *)
(* ------------------------------------------------------------------ *)

type row = {
  workload : string;
  kernel : string;
  loop_id : int;
  loop_var : string;
  static_lines : int;  (** Eq. 8 [size_req_lines] at baseline concurrency *)
  sa_lines : int;
      (** the sharpened (catt-sa) [size_req_lines] at the same concurrency *)
  loads : int;  (** measured L1D load transactions in the loop's span *)
  miss_rate : float;
}

let kernel_rows cfg (w : Workloads.Workload.t) name collector =
  let kernel = Workloads.Workload.find_kernel w name in
  let geo = Runner.geometry_of_kernel w name in
  let prog = Gpusim.Codegen.compile_kernel kernel in
  let launch =
    List.find
      (fun (l : Workloads.Workload.kernel_launch) -> l.kernel_name = name)
      w.Workloads.Workload.launches
  in
  let gx, gy = launch.grid in
  match
    Catt.Occupancy.configure cfg ~grid_tbs:(gx * gy)
      ~tb_threads:(geo.Catt.Analysis.block_x * geo.Catt.Analysis.block_y)
      ~num_regs:prog.Gpusim.Bytecode.num_regs
      ~shared_bytes:prog.Gpusim.Bytecode.shared_bytes ()
  with
  | Error _ -> []
  | Ok occ ->
    let cw = occ.Catt.Occupancy.concurrent_warps in
    let spans = loop_spans kernel in
    let reports = Catt.Analysis.analyze_kernel kernel geo in
    let sa = Staticmodel.Gaccess.analyze kernel geo in
    List.filter_map
      (fun (report : Catt.Analysis.loop_report) ->
        match List.assoc_opt report.Catt.Analysis.loop_id spans with
        | None -> None
        | Some (lo, hi) ->
          let fp =
            Catt.Footprint.of_loop ~line_bytes:cfg.Gpusim.Config.line_bytes
              ~warp_size:cfg.Gpusim.Config.warp_size
              ~block_x:geo.Catt.Analysis.block_x report
          in
          let fp_sa =
            Catt.Footprint.of_loop_sa ~line_bytes:cfg.Gpusim.Config.line_bytes
              ~warp_size:cfg.Gpusim.Config.warp_size
              ~block_x:geo.Catt.Analysis.block_x
              ~tbs:occ.Catt.Occupancy.tbs_per_sm
              (Staticmodel.Gaccess.find_loop sa
                 ~loop_id:report.Catt.Analysis.loop_id)
              report
          in
          let loads, misses =
            List.fold_left
              (fun (loads, misses) ((_, (line, _)), c) ->
                if line >= lo && line <= hi then
                  ( loads + Profile.Heatmap.cell_loads c,
                    misses + c.Profile.Heatmap.misses )
                else (loads, misses))
              (0, 0)
              (Profile.Heatmap.rows (Profile.Collector.heat collector))
          in
          Some
            {
              workload = w.Workloads.Workload.name;
              kernel = name;
              loop_id = report.Catt.Analysis.loop_id;
              loop_var = report.Catt.Analysis.loop_var;
              static_lines = Catt.Footprint.size_req_lines fp ~concurrent_warps:cw;
              sa_lines =
                Catt.Footprint.size_req_lines fp_sa ~concurrent_warps:cw;
              loads;
              miss_rate =
                (if loads = 0 then 0.0
                 else float_of_int misses /. float_of_int loads);
            })
      reports

let rows cfg =
  List.concat_map
    (fun w ->
      List.concat_map
        (fun (name, c) -> kernel_rows cfg w name c)
        (profiles cfg w))
    Workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let spearman_by proj rows =
  let usable = List.filter (fun r -> r.loads > 0) rows in
  if List.length usable < 2 then None
  else
    let xs = Array.of_list (List.map (fun r -> float_of_int (proj r)) usable)
    and ys = Array.of_list (List.map (fun r -> r.miss_rate) usable) in
    Some (Gpu_util.Stats.spearman xs ys, List.length usable)

let spearman_of rows = spearman_by (fun r -> r.static_lines) rows
let spearman_sa rows = spearman_by (fun r -> r.sa_lines) rows

let render () =
  let cfg = Configs.max_l1d () in
  let rows = rows cfg in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "Static footprints vs measured L1D miss rate (baseline, %s)\n\n"
    (Configs.label cfg);
  out "%-10s %-14s %-6s %-10s %12s %10s %10s %8s\n" "workload" "kernel" "loop"
    "loop-var" "static-lines" "sa-lines" "loads" "miss%";
  List.iter
    (fun r ->
      out "%-10s %-14s %-6d %-10s %12d %10d %10d %8.1f\n" r.workload r.kernel
        r.loop_id r.loop_var r.static_lines r.sa_lines r.loads
        (100.0 *. r.miss_rate))
    rows;
  out "\n";
  (match (spearman_of rows, spearman_sa rows) with
  | Some (rs, n), Some (rs_sa, _) ->
    out
      "Spearman rank correlation vs measured miss rate over %d loops with \
       measured loads:\n  Eq. 8 static footprint:     r_s = %+.3f\n  catt-sa \
       sharpened footprint: r_s = %+.3f\n"
      n rs rs_sa
  | _ -> out "Not enough profiled loops for a rank correlation.\n");
  (* per-workload correlations, where a workload has enough loops *)
  let by_workload =
    List.sort_uniq compare (List.map (fun r -> r.workload) rows)
  in
  let per_w =
    List.filter_map
      (fun wname ->
        let wrows = List.filter (fun r -> r.workload = wname) rows in
        match (spearman_of wrows, spearman_sa wrows) with
        | Some (rs, n), Some (rs_sa, _) when n >= 3 -> Some (wname, rs, rs_sa, n)
        | _ -> None)
      by_workload
  in
  if per_w <> [] then begin
    out
      "\nPer-workload rank correlation (workloads with >= 3 measured loops):\n";
    List.iter
      (fun (wname, rs, rs_sa, n) ->
        out "  %-10s eq8 r_s = %+.3f   catt-sa r_s = %+.3f (%d loops)\n" wname
          rs rs_sa n)
      per_w
  end;
  Buffer.contents buf
