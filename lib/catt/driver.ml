module Ast = Minicuda.Ast

type loop_decision = {
  footprint : Footprint.loop_footprint;
  decision : Throttle.decision;
}

type t = {
  kernel : Ast.kernel;
  geometry : Analysis.geometry;
  occupancy : Occupancy.t;
  loops : loop_decision list;
  transformed : Ast.kernel;
  rewrite : Transform.gated;
  tb_throttle_plan : (int * int) option;
  final_carveout : int;
  baseline_tlp : int * int;
  resident_tbs : int;
  gate_degraded : bool;
  analysis_seconds : float;
}

let decide_all ~line_bytes ~l1d_bytes ~warps_per_tb ~tbs footprints =
  Obs.Span.with_span "catt.decide"
    ~attrs:
      [
        ("l1d_bytes", Obs.Span.Int l1d_bytes);
        ("warps_per_tb", Obs.Span.Int warps_per_tb);
        ("tbs", Obs.Span.Int tbs);
      ]
    (fun _ ->
      List.map
        (fun footprint ->
          let decision =
            (* loops that rendezvous at a barrier cannot be split into warp
               groups; leave them at full TLP *)
            if footprint.Footprint.loop.Analysis.has_barrier then
              Throttle.no_throttle ~warps_per_tb ~tbs
            else
              Throttle.decide ~line_bytes ~l1d_bytes ~warps_per_tb ~tbs
                footprint
          in
          { footprint; decision })
        footprints)

let max_m loops =
  List.fold_left (fun acc l -> max acc l.decision.Throttle.m) 0 loops

(* When some loop needs TB-level throttling, the dummy shared allocation
   changes the carveout and thus shrinks the L1D, so every decision has to
   be re-taken under the new capacity and TB count; escalate [m] until a
   consistent configuration is found. *)
let escalate cfg ~tb_threads ~num_regs ~shared_bytes ~line_bytes ~warps_per_tb
    ~tbs footprints ~first_m =
  let onchip = cfg.Gpusim.Config.onchip_bytes in
  let rec attempt m =
    if m > tbs - 1 then None
    else
      let target = tbs - m in
      match
        Transform.plan_tb_throttle cfg ~tb_threads ~num_regs ~shared_bytes
          ~target_tbs:target
      with
      | None -> attempt (m + 1)
      | Some (carveout, dummy_bytes) ->
        let l1d_bytes = onchip - carveout in
        let loops =
          decide_all ~line_bytes ~l1d_bytes ~warps_per_tb ~tbs:target
            footprints
        in
        if max_m loops = 0 then Some (loops, (carveout, dummy_bytes), target)
        else attempt (m + 1)
  in
  attempt first_m

let analyze ?(model = `Eq8) (cfg : Gpusim.Config.t) (kernel : Ast.kernel)
    (geometry : Analysis.geometry) =
  Obs.Span.with_span "catt.analyze"
    ~attrs:[ ("kernel", Obs.Span.Str kernel.Ast.kernel_name) ]
  @@ fun analyze_span ->
  let started = Unix.gettimeofday () in
  let prog = Gpusim.Codegen.compile_kernel kernel in
  let tb_threads = geometry.Analysis.block_x * geometry.Analysis.block_y in
  let grid_tbs = geometry.Analysis.grid_x * geometry.Analysis.grid_y in
  let num_regs = prog.Gpusim.Bytecode.num_regs in
  let shared_bytes = prog.Gpusim.Bytecode.shared_bytes in
  match
    Occupancy.configure cfg ~grid_tbs ~tb_threads ~num_regs ~shared_bytes ()
  with
  | Error msg -> Error msg
  | Ok occ ->
    let line_bytes = cfg.Gpusim.Config.line_bytes in
    let warp_size = cfg.Gpusim.Config.warp_size in
    let warps_per_tb = occ.Occupancy.warps_per_tb in
    let tbs = occ.Occupancy.tbs_per_sm in
    let footprints =
      Obs.Span.with_span "catt.footprint" (fun fp_span ->
        let block_x = geometry.Analysis.block_x in
        let fps =
          match model with
          | `Eq8 ->
            List.map
              (Footprint.of_loop ~line_bytes ~warp_size ~block_x)
              (Analysis.analyze_kernel kernel geometry)
          | `Sa ->
            (* one interval/reuse walk per kernel, which also yields the
               loop reports *)
            let sa = Staticmodel.Gaccess.analyze kernel geometry in
            List.map
              (Footprint.of_loop_sa ~line_bytes ~warp_size ~block_x
                 ~tbs:occ.Occupancy.tbs_per_sm)
              sa.Staticmodel.Gaccess.loops
        in
        Option.iter
          (fun s -> Obs.Span.add_attr s "loops" (Obs.Span.Int (List.length fps)))
          fp_span;
        fps)
    in
    let initial =
      decide_all ~line_bytes ~l1d_bytes:occ.Occupancy.l1d_bytes ~warps_per_tb
        ~tbs footprints
    in
    let loops, tb_plan, final_carveout =
      let m = max_m initial in
      if m = 0 then (initial, None, occ.Occupancy.smem_carveout)
      else
        match
          escalate cfg ~tb_threads ~num_regs ~shared_bytes ~line_bytes
            ~warps_per_tb ~tbs footprints ~first_m:m
        with
        | Some (loops, plan, target) -> (loops, Some (plan, target), fst plan)
        | None ->
          (* TB throttling cannot resolve the contention: fall back to the
             strongest warp-level throttling and mark the rest unresolved *)
          let demoted =
            List.map
              (fun l ->
                if l.decision.Throttle.m > 0 then
                  {
                    l with
                    decision =
                      {
                        l.decision with
                        Throttle.m = 0;
                        resolved = false;
                        throttled = l.decision.Throttle.n > 1;
                        active_tbs = tbs;
                      };
                  }
                else l)
              initial
          in
          (demoted, None, occ.Occupancy.smem_carveout)
    in
    let tb_throttle_plan = Option.map fst tb_plan in
    let plan =
      List.filter_map
        (fun l ->
          if l.decision.Throttle.throttled && l.decision.Throttle.n > 1 then
            Some
              ( l.footprint.Footprint.loop.Analysis.loop_id,
                l.decision.Throttle.n )
          else None)
        loops
    in
    (* The sanitizer has the last word: [Transform.gated_rewrite] keeps
       what it accepts of the plan and the pad (the chain BFTT runs too),
       and its record, not the decisions, says what runs. *)
    let rewrite =
      Transform.gated_rewrite
        ?pad:
          (Option.map
             (fun ((_, pad_bytes), pad_tbs) -> { Transform.pad_bytes; pad_tbs })
             tb_plan)
        geometry kernel ~plan ~warps_per_tb ~warp_size
    in
    let gate_failed =
      rewrite.Transform.splits <> plan
      || (tb_throttle_plan <> None && rewrite.Transform.pad = None)
    in
    (* Eq. 9's n, m, verdict and trials stand as it made them; a
       decision's active TLP is what runs, read from the record *)
    let loops =
      List.map
        (fun l ->
          let active_warps_per_tb, active_tbs =
            Transform.tlp
              ~loop_id:l.footprint.Footprint.loop.Analysis.loop_id rewrite occ
          in
          {
            l with
            decision = { l.decision with Throttle.active_warps_per_tb; active_tbs };
          })
        loops
    in
    Option.iter
      (fun s ->
        Obs.Span.add_attr s "throttled_loops"
          (Obs.Span.Int
             (List.length
                (List.filter (fun l -> l.decision.Throttle.throttled) loops)));
        Obs.Span.add_attr s "gate_degraded" (Obs.Span.Bool gate_failed))
      analyze_span;
    Ok
      {
        kernel;
        geometry;
        occupancy = occ;
        loops;
        transformed = rewrite.Transform.rewritten;
        rewrite;
        tb_throttle_plan;
        final_carveout;
        baseline_tlp = (warps_per_tb, tbs);
        resident_tbs = snd (Transform.tlp rewrite occ);
        gate_degraded = gate_failed;
        analysis_seconds = Unix.gettimeofday () -. started;
      }

let selected_tlp ?loop_id t = Transform.tlp ?loop_id t.rewrite t.occupancy
