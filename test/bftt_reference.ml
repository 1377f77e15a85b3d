(* The BFTT rewrite as it stood before CATT and BFTT shared one gated
   rewrite ({!Catt.Transform.gated_rewrite}): the whole-kernel split is
   gated on its own, then loop by loop, and the TB-level pad is added
   afterwards under a second gate.  It survives only as the reference for
   the test in [test_experiments.ml] that requires
   {!Experiments.Runner.fixed_variant} to emit the same kernel, TLP and
   carveout on every registry kernel and BFTT candidate.  One departure
   from the chain as it stood: a kernel that keeps no warp split reports
   its whole TB's warps, not the requested [warps_per_tb / n], as the
   runner now does. *)

module Ast = Minicuda.Ast
module Transform = Catt.Transform

(* the split copies of one loop statement, through the single-loop rewrite *)
let split_stmt k stmt ~n ~warps_per_tb ~warp_size ~one_dim_block =
  (Transform.warp_throttle
     { k with Ast.body = [ stmt ] }
     ~loop_id:0 ~n ~warps_per_tb ~warp_size ~one_dim_block)
    .Ast.body

(* one pass splitting every top-level loop by [n] *)
let warp_throttle_all (k : Ast.kernel) ~n ~warps_per_tb ~warp_size
    ~one_dim_block =
  let rec rewrite_block (b : Ast.block) : Ast.block =
    List.concat_map rewrite_stmt b
  and rewrite_stmt (s : Ast.stmt) : Ast.stmt list =
    match s.Ast.sk with
    | Ast.For _ | Ast.While _ ->
      split_stmt k s ~n ~warps_per_tb ~warp_size ~one_dim_block
    | Ast.If (cond, then_b, else_b) ->
      let sk = Ast.If (cond, rewrite_block then_b, rewrite_block else_b) in
      [ { s with Ast.sk } ]
    | Ast.Block body -> [ { s with Ast.sk = Ast.Block (rewrite_block body) } ]
    | _ -> [ s ]
  in
  { k with Ast.body = rewrite_block k.Ast.body }

(* whole-kernel split; when the gate refuses it, only the loops whose
   single split passes, gated once more together; else the kernel *)
let gated_warp_throttle_all kernel geo ~n ~warps_per_tb ~warp_size
    ~one_dim_block =
  if n <= 1 then kernel
  else begin
    let gate k = Sanitize.Check.gate geo ~original:kernel ~transformed:k in
    let all =
      warp_throttle_all kernel ~n ~warps_per_tb ~warp_size ~one_dim_block
    in
    match gate all with
    | Ok () -> all
    | Error _ ->
      let plan =
        List.filter_map
          (fun loop_id ->
            let cand =
              Transform.warp_throttle kernel ~loop_id ~n ~warps_per_tb
                ~warp_size ~one_dim_block
            in
            match gate cand with Ok () -> Some (loop_id, n) | Error _ -> None)
          (List.init (Transform.count_top_loops kernel) Fun.id)
      in
      if plan = [] then kernel
      else
        let combined =
          Transform.warp_throttle_plan kernel ~plan ~warps_per_tb ~warp_size
            ~one_dim_block
        in
        (match gate combined with Ok () -> combined | Error _ -> kernel)
  end

(** [(kernel, (warps per TB, TBs per SM), carveout)] of [Fixed (n, m)]. *)
let fixed_variant cfg kernel (geo : Catt.Analysis.geometry) ~n ~m =
  let prog0 = Gpusim.Codegen.compile_kernel kernel in
  let tb_threads = geo.Catt.Analysis.block_x * geo.Catt.Analysis.block_y in
  match
    Catt.Occupancy.configure cfg
      ~grid_tbs:(geo.Catt.Analysis.grid_x * geo.Catt.Analysis.grid_y)
      ~tb_threads ~num_regs:prog0.Gpusim.Bytecode.num_regs
      ~shared_bytes:prog0.Gpusim.Bytecode.shared_bytes ()
  with
  | Error msg -> Error msg
  | Ok occ ->
    let warps_per_tb = occ.Catt.Occupancy.warps_per_tb in
    let tbs = occ.Catt.Occupancy.tbs_per_sm in
    let n' = Experiments.Runner.largest_divisor_leq warps_per_tb n in
    let m' = min m (tbs - 1) in
    let k =
      gated_warp_throttle_all kernel geo ~n:n' ~warps_per_tb
        ~warp_size:cfg.Gpusim.Config.warp_size
        ~one_dim_block:(geo.Catt.Analysis.block_y = 1)
    in
    (* the chain returns the kernel itself when it keeps no split *)
    let warps =
      if k != kernel && Transform.count_top_loops kernel > 0 then
        warps_per_tb / n'
      else warps_per_tb
    in
    let k, carveout, tbs' =
      if m' > 0 then
        match
          Transform.plan_tb_throttle cfg ~tb_threads
            ~num_regs:prog0.Gpusim.Bytecode.num_regs
            ~shared_bytes:prog0.Gpusim.Bytecode.shared_bytes
            ~target_tbs:(tbs - m')
        with
        | Some (c, dummy_bytes) -> (
          let kt =
            Transform.tb_throttle k ~dummy_elems:(max 1 (dummy_bytes / 4))
          in
          match Sanitize.Check.gate geo ~original:kernel ~transformed:kt with
          | Ok () -> (kt, Some c, tbs - m')
          | Error _ -> (k, None, tbs))
        | None -> (k, None, tbs)
      else (k, None, tbs)
    in
    Ok (k, (warps, tbs'), carveout)
