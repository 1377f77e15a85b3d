module Ast = Minicuda.Ast

let dummy_array_name = "catt_throttle_pad"

(* (threadIdx.y * blockDim.x + threadIdx.x) / warp_size, or the paper's
   simpler threadIdx.x / WS when the block is one-dimensional *)
let warp_id_expr ~warp_size ~one_dim_block =
  let lin =
    if one_dim_block then Ast.Builtin Ast.Thread_idx_x
    else
      Ast.Binop
        ( Ast.Add,
          Ast.Binop
            ( Ast.Mul,
              Ast.Builtin Ast.Thread_idx_y,
              Ast.Builtin Ast.Block_dim_x ),
          Ast.Builtin Ast.Thread_idx_x )
  in
  Ast.Binop (Ast.Div, lin, Ast.Int_lit warp_size)

let guarded_copy ~warp_size ~one_dim_block ~group_size ~group stmt =
  let wid = warp_id_expr ~warp_size ~one_dim_block in
  let lo = group * group_size and hi = (group + 1) * group_size in
  let cond =
    Ast.Binop
      ( Ast.And,
        Ast.Binop (Ast.Ge, wid, Ast.Int_lit lo),
        Ast.Binop (Ast.Lt, wid, Ast.Int_lit hi) )
  in
  (* synthesized statements inherit the split loop's position so any
     diagnostic on a phase points back at the source loop *)
  let loc = stmt.Ast.sloc in
  [ Ast.at ~loc (Ast.If (cond, [ stmt ], [])); Ast.at ~loc Ast.Syncthreads ]

let split_loop ~n ~warps_per_tb ~warp_size ~one_dim_block stmt =
  if warps_per_tb mod n <> 0 then
    invalid_arg "Transform.warp_throttle: n must divide warps_per_tb";
  (* a loop whose body reaches a barrier cannot be split into warp-group
     phases: the groups would rendezvous at different barrier sites *)
  if Analysis.barrier_in stmt then [ stmt ]
  else
    let group_size = warps_per_tb / n in
    List.concat
      (List.init n (fun group ->
           guarded_copy ~warp_size ~one_dim_block ~group_size ~group stmt))

(* Walk the kernel body, numbering top-level loops in pre-order exactly as
   Analysis does, and replace each loop listed in [plan] by its split
   copies.  All loops are rewritten in one pass: splitting loop 0 inserts
   new top-level loops, so per-loop ids are only meaningful against the
   ORIGINAL kernel. *)
let warp_throttle_plan (k : Ast.kernel) ~plan ~warps_per_tb ~warp_size
    ~one_dim_block =
  let counter = ref 0 in
  let seen = Hashtbl.create 16 in
  let rec rewrite_block (b : Ast.block) : Ast.block =
    List.concat_map rewrite_stmt b
  and rewrite_stmt (s : Ast.stmt) : Ast.stmt list =
    match s.Ast.sk with
    | Ast.For _ | Ast.While _ -> (
      let id = !counter in
      incr counter;
      Hashtbl.replace seen id ();
      match List.assoc_opt id plan with
      | Some n when n > 1 ->
        split_loop ~n ~warps_per_tb ~warp_size ~one_dim_block s
      | _ -> [ s ])
    | Ast.If (cond, then_b, else_b) ->
      [ { s with Ast.sk = Ast.If (cond, rewrite_block then_b, rewrite_block else_b) } ]
    | Ast.Block body -> [ { s with Ast.sk = Ast.Block (rewrite_block body) } ]
    | _ -> [ s ]
  in
  let body = rewrite_block k.Ast.body in
  List.iter
    (fun (loop_id, _) ->
      if not (Hashtbl.mem seen loop_id) then
        invalid_arg
          (Printf.sprintf "Transform.warp_throttle: kernel %s has no loop %d"
             k.Ast.kernel_name loop_id))
    plan;
  { k with Ast.body }

let warp_throttle k ~loop_id ~n ~warps_per_tb ~warp_size ~one_dim_block =
  warp_throttle_plan k ~plan:[ (loop_id, n) ] ~warps_per_tb ~warp_size
    ~one_dim_block

let count_top_loops (k : Ast.kernel) =
  let rec count_block acc (b : Ast.block) = List.fold_left count_stmt acc b
  and count_stmt acc (s : Ast.stmt) =
    match s.Ast.sk with
    | Ast.For _ | Ast.While _ -> acc + 1
    | Ast.If (_, then_b, else_b) -> count_block (count_block acc then_b) else_b
    | Ast.Block body -> count_block acc body
    | _ -> acc
  in
  count_block 0 k.Ast.body

let tb_throttle (k : Ast.kernel) ~dummy_elems =
  if dummy_elems <= 0 then
    invalid_arg "Transform.tb_throttle: dummy_elems must be positive";
  let decl = Ast.at (Ast.Shared_decl (Ast.Float, dummy_array_name, dummy_elems)) in
  (* one store keeps the allocation observable; all threads hit the same
     address, a single broadcastable shared transaction *)
  let keep_alive =
    Ast.at
      (Ast.Assign
         (Ast.Larr (dummy_array_name, Ast.Int_lit 0), Ast.Assign_eq, Ast.Float_lit 0.))
  in
  { k with Ast.body = decl :: keep_alive :: k.Ast.body }

let plan_tb_throttle (cfg : Gpusim.Config.t) ~tb_threads ~num_regs
    ~shared_bytes ~target_tbs =
  if target_tbs <= 0 then None
  else begin
    let options = List.sort compare cfg.Gpusim.Config.smem_carveout_options in
    let tbs_with ~carveout ~per_tb =
      Gpusim.Cta_scheduler.max_tbs_per_sm cfg ~tb_threads ~num_regs
        ~shared_bytes:per_tb ~smem_carveout:carveout
    in
    let try_carveout carveout =
      if carveout < shared_bytes + 4 then None
      else begin
        (* per-TB usage that yields exactly target_tbs under this carveout *)
        let rec adjust per_tb =
          if per_tb > carveout then None
          else begin
            let tbs = tbs_with ~carveout ~per_tb in
            if tbs = target_tbs then Some per_tb
            else if tbs > target_tbs then adjust (per_tb + 4)
            else None  (* overshot: another resource caps below the target *)
          end
        in
        match adjust (max (carveout / target_tbs) (shared_bytes + 4)) with
        | Some per_tb when per_tb > shared_bytes ->
          Some (carveout, per_tb - shared_bytes)
        | _ -> None
      end
    in
    (* smallest carveout wins: it leaves the most L1D *)
    List.fold_left
      (fun acc carveout ->
        match acc with Some _ -> acc | None -> try_carveout carveout)
      None options
  end

type gated = {
  rewritten : Ast.kernel;
  splits : (int * int) list;
  pad_kept : bool;
}

(* The sanitizer has the last word on every rewrite.  A warp split plants
   barriers, and a loop under thread-divergent control flow cannot legally
   take one, so the chain narrows what it asks for until the gate accepts:
   the whole plan, the loops whose single split passes, the pad alone, the
   untouched kernel.  A step that would rebuild a refused rewrite is
   skipped. *)
let gated_rewrite ?pad_bytes (geo : Sanitize.Geom.t) (k : Ast.kernel) ~plan
    ~warps_per_tb ~warp_size =
  let one_dim_block = geo.Sanitize.Geom.block_y = 1 in
  let plan = List.filter (fun (_, n) -> n > 1) plan in
  let split splits =
    if splits = [] then k
    else
      warp_throttle_plan k ~plan:splits ~warps_per_tb ~warp_size
        ~one_dim_block
  in
  let pad t =
    match pad_bytes with
    | Some bytes -> tb_throttle t ~dummy_elems:(max 1 (bytes / 4))
    | None -> t
  in
  let passes t =
    Result.is_ok (Sanitize.Check.gate geo ~original:k ~transformed:t)
  in
  let attempt splits =
    let t = pad (split splits) in
    if passes t then
      Some { rewritten = t; splits; pad_kept = pad_bytes <> None }
    else None
  in
  let untouched = { rewritten = k; splits = []; pad_kept = false } in
  match attempt plan with
  | Some g -> g
  | None when plan = [] -> untouched
  | None -> (
    let kept =
      match (plan, pad_bytes) with
      | [ _ ], None -> []  (* its single split is the rewrite just refused *)
      | _ -> List.filter (fun s -> passes (split [ s ])) plan
    in
    (* [kept = plan] is the refused rewrite again, [kept = []] the pad alone *)
    match if kept = plan || kept = [] then None else attempt kept with
    | Some g -> g
    | None -> Option.value (attempt []) ~default:untouched)
