(** Decision provenance for one CATT analysis: every number behind the
    (N, M) verdict — per-loop Eq. 8 footprints, the L1D capacity they
    were compared against, the exact candidate sequence {!Throttle}
    evaluated, and the sanitizer gate outcome — as deterministic JSON
    (no wall-clock fields) plus a human rendering for
    [catt_cli explain]. *)

module Json = Gpu_util.Json

let explain_format_version = 1

let index_and_kind (a : Analysis.access) =
  let index =
    match a.Analysis.index with
    | Affine.Affine aff -> Affine.to_string aff
    | Affine.Unknown -> "<irregular>"
  in
  let kind =
    match (a.Analysis.is_load, a.Analysis.is_store) with
    | true, true -> "ld/st"
    | true, false -> "ld"
    | false, true -> "st"
    | false, false -> "?"
  in
  (index, kind)

let access_json (s : Footprint.access_summary) =
  let a = s.Footprint.access in
  let index, kind = index_and_kind a in
  Json.Obj
    [
      ("array", Json.String a.Analysis.array);
      ("index", Json.String index);
      ("kind", Json.String kind);
      ("req_warp_lines", Json.Int s.Footprint.req_warp);
      ("reuse", Json.Bool s.Footprint.has_reuse);
      ("irregular", Json.Bool s.Footprint.irregular);
    ]

let trial_json (tr : Throttle.trial) =
  Json.Obj
    [
      ("n", Json.Int tr.Throttle.cand_n);
      ("m", Json.Int tr.Throttle.cand_m);
      ("concurrent_warps", Json.Int tr.Throttle.cand_warps);
      ("footprint_bytes", Json.Int tr.Throttle.cand_bytes);
      ("fits", Json.Bool tr.Throttle.cand_fits);
    ]

let loop_json (cfg : Gpusim.Config.t) (t : Driver.t) (l : Driver.loop_decision)
    =
  let fp = l.Driver.footprint in
  let d = l.Driver.decision in
  let loop = fp.Footprint.loop in
  let line_bytes = cfg.Gpusim.Config.line_bytes in
  let full_warps = t.Driver.occupancy.Occupancy.concurrent_warps in
  let sel_w, sel_t =
    Driver.selected_tlp t ~loop_id:loop.Analysis.loop_id
  in
  (* only the sharpened (catt-sa) model produces a shared tier; the field
     stays out of plain Eq. 8 output so pinned explains remain stable *)
  let shared =
    if fp.Footprint.shared_lines > 0 then
      [ ("shared_lines", Json.Int fp.Footprint.shared_lines) ]
    else []
  in
  Json.Obj
    ([
       ("loop_id", Json.Int loop.Analysis.loop_id);
       ("iterator", Json.String loop.Analysis.loop_var);
       ("has_barrier", Json.Bool loop.Analysis.has_barrier);
       ("accesses", Json.List (List.map access_json fp.Footprint.summaries));
       ("req_lines_per_warp", Json.Int fp.Footprint.req_per_warp);
     ]
    @ shared
    @ [
      ("has_locality", Json.Bool fp.Footprint.has_locality);
      ("any_irregular", Json.Bool fp.Footprint.any_irregular);
      ( "footprint_full_tlp_bytes",
        Json.Int
          (Footprint.size_req_bytes ~line_bytes fp ~concurrent_warps:full_warps)
      );
      ("candidates", Json.List (List.map trial_json d.Throttle.trials));
      ( "decision",
        Json.Obj
          [
            ("n", Json.Int d.Throttle.n);
            ("m", Json.Int d.Throttle.m);
            ("resolved", Json.Bool d.Throttle.resolved);
            ("throttled", Json.Bool d.Throttle.throttled);
            ("active_warps_per_tb", Json.Int d.Throttle.active_warps_per_tb);
            ("active_tbs", Json.Int d.Throttle.active_tbs);
          ] );
      ("selected_tlp", Json.List [ Json.Int sel_w; Json.Int sel_t ]);
    ])

let to_json (cfg : Gpusim.Config.t) (t : Driver.t) =
  let occ = t.Driver.occupancy in
  let w, tbs = t.Driver.baseline_tlp in
  Json.Obj
    [
      ("explain_format_version", Json.Int explain_format_version);
      ("kernel", Json.String t.Driver.kernel.Minicuda.Ast.kernel_name);
      ( "geometry",
        Json.Obj
          [
            ("grid_x", Json.Int t.Driver.geometry.Analysis.grid_x);
            ("grid_y", Json.Int t.Driver.geometry.Analysis.grid_y);
            ("block_x", Json.Int t.Driver.geometry.Analysis.block_x);
            ("block_y", Json.Int t.Driver.geometry.Analysis.block_y);
          ] );
      ( "config",
        Json.Obj
          [
            ("line_bytes", Json.Int cfg.Gpusim.Config.line_bytes);
            ("warp_size", Json.Int cfg.Gpusim.Config.warp_size);
            ("onchip_bytes", Json.Int cfg.Gpusim.Config.onchip_bytes);
            ("num_sms", Json.Int cfg.Gpusim.Config.num_sms);
          ] );
      ( "occupancy",
        Json.Obj
          [
            ("warps_per_tb", Json.Int occ.Occupancy.warps_per_tb);
            ("tbs_per_sm", Json.Int occ.Occupancy.tbs_per_sm);
            ("concurrent_warps", Json.Int occ.Occupancy.concurrent_warps);
            ("smem_carveout_bytes", Json.Int occ.Occupancy.smem_carveout);
            ("l1d_bytes", Json.Int occ.Occupancy.l1d_bytes);
          ] );
      ( "final_l1d_bytes",
        Json.Int (cfg.Gpusim.Config.onchip_bytes - t.Driver.final_carveout) );
      ("loops", Json.List (List.map (loop_json cfg t) t.Driver.loops));
      ( "tb_throttle",
        match t.Driver.tb_throttle_plan with
        | None -> Json.Null
        | Some (carveout, dummy) ->
          Json.Obj
            [
              ("carveout_bytes", Json.Int carveout);
              ("dummy_shared_bytes", Json.Int dummy);
            ] );
      ("final_carveout_bytes", Json.Int t.Driver.final_carveout);
      ("baseline_tlp", Json.List [ Json.Int w; Json.Int tbs ]);
      ("resident_tbs", Json.Int t.Driver.resident_tbs);
      ( "sanitizer",
        Json.Obj [ ("gate_degraded", Json.Bool t.Driver.gate_degraded) ] );
    ]

(* --- human rendering --- *)

let kb bytes = Printf.sprintf "%.1f KB" (float_of_int bytes /. 1024.)

let access_line (s : Footprint.access_summary) =
  let a = s.Footprint.access in
  let index, kind = index_and_kind a in
  Printf.sprintf "    %-5s %s[%s]  req/warp=%d  reuse=%b" kind
    a.Analysis.array index s.Footprint.req_warp s.Footprint.has_reuse

(* what the rewrite runs for this loop, in Eq. 9's (N, M) terms against
   the unthrottled kernel, and the split the gate refused, if any *)
let verdict (t : Driver.t) (l : Driver.loop_decision) =
  let d = l.Driver.decision in
  let loop_id = l.Driver.footprint.Footprint.loop.Analysis.loop_id in
  let n =
    Option.value ~default:1
      (List.assoc_opt loop_id t.Driver.rewrite.Transform.splits)
  in
  let m = snd t.Driver.baseline_tlp - t.Driver.resident_tbs in
  let refused =
    if d.Throttle.throttled && d.Throttle.n > n then
      Printf.sprintf "; the sanitizer gate refused its N=%d split" d.Throttle.n
    else ""
  in
  if n > 1 || m > 0 then Printf.sprintf "throttle to N=%d, M=%d%s" n m refused
  else if refused <> "" then "runs whole" ^ refused
  else if not d.Throttle.resolved then
    "unresolvable: thrashes even at minimum TLP; left untouched"
  else "fits: no throttling"

let render_loop (cfg : Gpusim.Config.t) (t : Driver.t)
    (l : Driver.loop_decision) add =
  let fp = l.Driver.footprint in
  let d = l.Driver.decision in
  let loop = fp.Footprint.loop in
  let line_bytes = cfg.Gpusim.Config.line_bytes in
  let occ = t.Driver.occupancy in
  let full_warps = occ.Occupancy.concurrent_warps in
  add
    (Printf.sprintf "  loop %d (iterator %s)%s:\n" loop.Analysis.loop_id
       loop.Analysis.loop_var
       (if loop.Analysis.has_barrier then "  [barrier: warp split forbidden]"
        else ""));
  List.iter
    (fun s ->
      add (access_line s);
      add "\n")
    fp.Footprint.summaries;
  add
    (Printf.sprintf
       "    Eq.8 @ full TLP: %d lines/warp x %d warps x %d B = %s\n"
       fp.Footprint.req_per_warp full_warps line_bytes
       (kb (Footprint.size_req_bytes ~line_bytes fp ~concurrent_warps:full_warps)));
  if fp.Footprint.shared_lines > 0 then
    add
      (Printf.sprintf "    + shared tier (once per SM): %d lines = %s\n"
         fp.Footprint.shared_lines
         (kb (fp.Footprint.shared_lines * line_bytes)));
  if d.Throttle.trials = [] then
    add
      (if not fp.Footprint.has_locality then
         "    no cross-iteration locality: throttling cannot help, skipped\n"
       else if loop.Analysis.has_barrier then
         "    left at full TLP (barrier)\n"
       else "    no capacity test recorded\n")
  else begin
    add "    candidates tried:\n";
    List.iter
      (fun (tr : Throttle.trial) ->
        add
          (Printf.sprintf "      N=%-3d M=%-3d warps=%-4d %10s %2s %s\n"
             tr.Throttle.cand_n tr.Throttle.cand_m tr.Throttle.cand_warps
             (kb tr.Throttle.cand_bytes)
             (if tr.Throttle.cand_fits then "<=" else ">")
             (kb (cfg.Gpusim.Config.onchip_bytes - t.Driver.final_carveout))))
      d.Throttle.trials
  end;
  let sel_w, sel_t = Driver.selected_tlp t ~loop_id:loop.Analysis.loop_id in
  add
    (Printf.sprintf "    decision: %s -> TLP (%d, %d)\n" (verdict t l) sel_w
       sel_t)

(* The pieces are joined once, into a string of the exact length.  A
   [Buffer] that outgrew 1 KB would double into a 2 KB block, past the
   minor heap's largest size, so every long rendering (BFS's
   [bfs_expand]) paid for a major-heap block it then copied out of. *)
let render (cfg : Gpusim.Config.t) (t : Driver.t) =
  let occ = t.Driver.occupancy in
  let pieces = ref [] in
  let add s = pieces := s :: !pieces in
  add
    (Printf.sprintf "kernel %s  grid (%d,%d) block (%d,%d)\n"
       t.Driver.kernel.Minicuda.Ast.kernel_name
       t.Driver.geometry.Analysis.grid_x t.Driver.geometry.Analysis.grid_y
       t.Driver.geometry.Analysis.block_x t.Driver.geometry.Analysis.block_y);
  add
    (Printf.sprintf
       "  occupancy: %d warps/TB x %d TBs/SM, carveout %s -> L1D %s\n"
       occ.Occupancy.warps_per_tb occ.Occupancy.tbs_per_sm
       (kb occ.Occupancy.smem_carveout)
       (kb occ.Occupancy.l1d_bytes));
  List.iter (fun l -> render_loop cfg t l add) t.Driver.loops;
  (match t.Driver.tb_throttle_plan with
  | Some (carveout, dummy) ->
    add
      (Printf.sprintf "  TB throttle: +%d B dummy shared, carveout %s (L1D %s)\n"
         dummy (kb carveout)
         (kb (cfg.Gpusim.Config.onchip_bytes - carveout)))
  | None -> ());
  add
    (Printf.sprintf "  sanitizer gate: %s\n"
       (if t.Driver.gate_degraded then "DEGRADED (part of the plan refused)"
        else "clean"));
  String.concat "" (List.rev !pieces)
