(** Global-memory access collection under the interval/uniformity domain.

    This is {!Catt.Analysis} re-run with a richer abstract state: every
    recorded access carries, besides its affine form, the index's interval
    (over all blocks, threads and iterations, seeded from loop bounds,
    guards and the launch geometry via {!Vrange}) and a block-uniformity
    bit.  Loop numbering and access merging replicate [Analysis] exactly —
    the paper's model treats each top-level loop (recursing through [if]
    arms and blocks) as one throttling region — so a report here, which
    carries its loop statement, rebuilds the [Analysis.loop_report] of the
    same loop ([Catt.Analysis.report_of_gaccess]).

    Unlike [Analysis], accesses in straight-line code outside every
    top-level loop are also collected ([straight]); the lint pass wants
    those too. *)

module Ast = Minicuda.Ast
module Typecheck = Minicuda.Typecheck
module U = Sanitize.Uniformity
module Walk = Sanitize.Walk
module Interval = Sanitize.Interval
module Affine = Sanitize.Affine
module Geom = Sanitize.Geom

type gaccess = {
  garray : string;
  gindex : Affine.value;
  gitv : Interval.t;
      (** index range over all blocks, threads and iterations *)
  guniform : bool;  (** all threads of a block see the same index *)
  gload : bool;
  gstore : bool;
  ginnermost : string option;  (** innermost enclosing iterator *)
  gloc : Ast.loc;
}

type loop_info = {
  gloop_id : int;  (** matches [Analysis.loop_report.loop_id] *)
  gloop_var : string;
  gaccesses : gaccess list;
  gloop : Ast.stmt;  (** the top-level [for]/[while] statement *)
}

type t = {
  loops : loop_info list;
  straight : gaccess list;  (** accesses outside every top-level loop *)
}

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

type rec_ = {
  globals : (string, unit) Hashtbl.t;
  mutable current : gaccess list;  (* reversed *)
  mutable iter_stack : string list;  (* innermost first *)
}

let same_index a b =
  match (a, b) with
  | Affine.Affine x, Affine.Affine y -> Affine.equal x y
  | Affine.Unknown, Affine.Unknown -> true
  | _ -> false

let record rc (ctx : Vrange.ctx) ~array ~idx_expr ~store ~loc =
  if Hashtbl.mem rc.globals array then begin
    let b = U.eval ctx.Vrange.u idx_expr in
    let itv =
      match b.U.value with
      | Affine.Affine a -> U.range_of_affine ctx.Vrange.u a
      | Affine.Unknown -> Vrange.range_raw ctx idx_expr
    in
    let acc =
      {
        garray = array;
        gindex = b.U.value;
        gitv = itv;
        guniform = b.U.uniform;
        gload = not store;
        gstore = store;
        ginnermost =
          (match rc.iter_stack with [] -> None | it :: _ -> Some it);
        gloc = loc;
      }
    in
    (* merge same-(array, index) duplicates the way [Analysis.record]
       does; hull the intervals so the merge stays an over-approximation *)
    let rec merge = function
      | [] -> [ acc ]
      | a :: rest ->
        if a.garray = array && same_index a.gindex acc.gindex then
          {
            a with
            gload = a.gload || acc.gload;
            gstore = a.gstore || acc.gstore;
            gitv = Interval.hull a.gitv acc.gitv;
            guniform = a.guniform && acc.guniform;
          }
          :: rest
        else a :: merge rest
    in
    rc.current <- merge rc.current
  end

let rec record_expr rc ctx ~loc (e : Ast.expr) =
  match e with
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ | Ast.Var _ | Ast.Builtin _
    ->
    ()
  | Ast.Index (array, idx) ->
    record_expr rc ctx ~loc idx;
    record rc ctx ~array ~idx_expr:idx ~store:false ~loc
  | Ast.Binop (_, a, b) ->
    record_expr rc ctx ~loc a;
    record_expr rc ctx ~loc b
  | Ast.Unop (_, a) | Ast.Cast (_, a) -> record_expr rc ctx ~loc a
  | Ast.Call (_, args) -> List.iter (record_expr rc ctx ~loc) args
  | Ast.Ternary (c, a, b) ->
    record_expr rc ctx ~loc c;
    record_expr rc ctx ~loc a;
    record_expr rc ctx ~loc b

(* ------------------------------------------------------------------ *)
(* Statement interpretation                                            *)
(* ------------------------------------------------------------------ *)

(* interval of an assignment's right-hand side combined per operator *)
let assign_range ctx op target_range (e : Ast.expr) =
  let rhs = Vrange.range ctx e in
  match op with
  | Ast.Assign_eq -> rhs
  | Ast.Assign_add -> Interval.add target_range rhs
  | Ast.Assign_sub -> Interval.add target_range (Interval.scale (-1) rhs)
  | Ast.Assign_mul | Ast.Assign_div -> Interval.top

let rec walk_stmt rc (ctx : Vrange.ctx) (s : Ast.stmt) : Vrange.ctx =
  let loc = s.Ast.sloc in
  match s.Ast.sk with
  | Ast.Decl (_, name, None) ->
    Vrange.drop_range (Vrange.with_u ctx (U.bind ctx.Vrange.u name U.unknown_varying)) name
  | Ast.Decl (ty, name, Some e) ->
    record_expr rc ctx ~loc e;
    let b = Walk.decl_binding ctx.Vrange.u ty e in
    let r =
      match b.U.value with
      | Affine.Unknown when ty = Ast.Int -> Vrange.range ctx e
      | _ -> Interval.top
    in
    Vrange.bind_range
      (Vrange.with_u ctx (U.bind ctx.Vrange.u name b))
      name r
  | Ast.Shared_decl _ -> ctx
  | Ast.Assign (Ast.Lvar name, op, e) ->
    record_expr rc ctx ~loc e;
    let b = Walk.assign_binding ctx.Vrange.u op (U.lookup ctx.Vrange.u name) e in
    let r =
      match b.U.value with
      | Affine.Unknown ->
        let target_range =
          match (U.lookup ctx.Vrange.u name).U.value with
          | Affine.Affine a -> U.range_of_affine ctx.Vrange.u a
          | Affine.Unknown -> (
            match List.assoc_opt name ctx.Vrange.ranges with
            | Some r -> r
            | None -> Interval.top)
        in
        assign_range ctx op target_range e
      | Affine.Affine _ -> Interval.top
    in
    Vrange.bind_range (Vrange.with_u ctx (U.bind ctx.Vrange.u name b)) name r
  | Ast.Assign (Ast.Larr (array, idx), op, e) ->
    record_expr rc ctx ~loc idx;
    record_expr rc ctx ~loc e;
    (* compound ops read-modify-write: both a load and a store *)
    if op <> Ast.Assign_eq then
      record rc ctx ~array ~idx_expr:idx ~store:false ~loc;
    record rc ctx ~array ~idx_expr:idx ~store:true ~loc;
    ctx
  | Ast.If (cond, then_b, else_b) ->
    record_expr rc ctx ~loc cond;
    let ct = walk_block rc (Vrange.assume ctx cond) then_b in
    let ce = walk_block rc (Vrange.assume_not ctx cond) else_b in
    let divergent = U.truth ctx.Vrange.u cond = U.Divergent in
    {
      Vrange.u = Walk.join_if ~divergent ctx.Vrange.u ct.Vrange.u ce.Vrange.u;
      ranges = Vrange.join_ranges ct ce;
    }
  | Ast.While (cond, body) ->
    let ctx_in =
      {
        Vrange.u = Walk.kill_assigned ctx.Vrange.u body;
        ranges = Vrange.kill_ranges ctx.Vrange.ranges body;
      }
    in
    record_expr rc ctx_in ~loc cond;
    rc.iter_stack <- "<while>" :: rc.iter_stack;
    let _ = walk_block rc (Vrange.assume ctx_in cond) body in
    rc.iter_stack <- List.tl rc.iter_stack;
    ctx_in
  | Ast.For ({ loop_var; init; cond; step; body; _ } as loop) ->
    record_expr rc ctx ~loc init;
    (* widen accumulators, probe the trip count, then bind the iterator's
       range — the same three steps as [Sanitize.Walk] *)
    let widened = Walk.widen_body_ctx ctx.Vrange.u loop in
    let probe_ctx = U.push_iter widened loop_var Interval.top in
    let iter_range = Walk.iter_bound probe_ctx ~loop_var cond in
    let body_ctx =
      {
        Vrange.u = U.push_iter widened loop_var iter_range;
        ranges = Vrange.kill_ranges ctx.Vrange.ranges body;
      }
    in
    record_expr rc body_ctx ~loc cond;
    record_expr rc body_ctx ~loc step;
    rc.iter_stack <- loop_var :: rc.iter_stack;
    let _ = walk_block rc body_ctx body in
    rc.iter_stack <- List.tl rc.iter_stack;
    {
      Vrange.u =
        U.bind (Walk.kill_assigned ctx.Vrange.u body) loop_var U.unknown_varying;
      ranges = Vrange.kill_ranges ctx.Vrange.ranges body;
    }
  | Ast.Syncthreads | Ast.Return | Ast.Break | Ast.Continue -> ctx
  | Ast.Block body -> walk_block rc ctx body

and walk_block rc ctx b = List.fold_left (walk_stmt rc) ctx b

(* ------------------------------------------------------------------ *)
(* Kernel driver                                                       *)
(* ------------------------------------------------------------------ *)

let analyze (k : Ast.kernel) (geo : Geom.t) : t =
  let info = Typecheck.check_kernel k in
  let globals = Hashtbl.create 8 in
  List.iter
    (fun (name, (a : Typecheck.array_info)) ->
      if a.Typecheck.space = Typecheck.Global then Hashtbl.replace globals name ())
    info.Typecheck.arrays;
  let rc = { globals; current = []; iter_stack = [] } in
  let loops = ref [] in
  let next_id = ref 0 in
  (* top-level loop numbering identical to [Analysis.analyze_kernel] *)
  let rec top ctx (s : Ast.stmt) : Vrange.ctx =
    match s.Ast.sk with
    | Ast.For _ | Ast.While (_, _) ->
      let loop_var =
        match s.Ast.sk with Ast.For { loop_var; _ } -> loop_var | _ -> "<while>"
      in
      let id = !next_id in
      incr next_id;
      let saved = rc.current in
      rc.current <- [];
      let ctx' = walk_stmt rc ctx s in
      loops :=
        {
          gloop_id = id;
          gloop_var = loop_var;
          gaccesses = List.rev rc.current;
          gloop = s;
        }
        :: !loops;
      rc.current <- saved;
      ctx'
    | Ast.If (cond, then_b, else_b) ->
      let ct = List.fold_left top (Vrange.assume ctx cond) then_b in
      let ce = List.fold_left top (Vrange.assume_not ctx cond) else_b in
      let divergent = U.truth ctx.Vrange.u cond = U.Divergent in
      {
        Vrange.u = Walk.join_if ~divergent ctx.Vrange.u ct.Vrange.u ce.Vrange.u;
        ranges = Vrange.join_ranges ct ce;
      }
    | Ast.Block body -> List.fold_left top ctx body
    | _ -> walk_stmt rc ctx s
  in
  let ctx0 =
    (* scalar parameters are launch constants: unknown but uniform *)
    List.fold_left
      (fun ctx p ->
        match p.Ast.param_ty with
        | Ast.Ptr _ -> ctx
        | _ ->
          Vrange.with_u ctx (U.bind ctx.Vrange.u p.Ast.param_name U.unknown_uniform))
      (Vrange.init geo) k.Ast.params
  in
  let _ = List.fold_left top ctx0 k.Ast.body in
  { loops = List.rev !loops; straight = List.rev rc.current }
