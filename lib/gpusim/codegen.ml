module Ast = Minicuda.Ast
module Typecheck = Minicuda.Typecheck
module Builtins = Minicuda.Builtins

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun msg -> raise (Unsupported msg)) fmt

type env = {
  mutable scalars : (string * (int * Ast.ty)) list;  (* name → reg, type *)
  arrays : (string * (int * Typecheck.array_info)) list;  (* name → id, info *)
  mutable next_reg : int;
  mutable free_temps : int list;
  mutable code : Bytecode.instr list;  (* reversed *)
  mutable pc : int;
  mutable locs : (int * int) list;  (* reversed, parallel to [code] *)
  mutable cur_loc : int * int;  (* source site of the statement being lowered *)
}

let emit env instr =
  env.code <- instr :: env.code;
  env.locs <- env.cur_loc :: env.locs;
  env.pc <- env.pc + 1

(* Emit a placeholder and return its pc for later backpatching. *)
let emit_patchable env instr =
  let at = env.pc in
  emit env instr;
  at

let patch env ~at instr =
  let from_end = env.pc - 1 - at in
  let rec replace i = function
    | [] -> assert false
    | x :: rest ->
      if i = 0 then instr :: rest else x :: replace (i - 1) rest
  in
  env.code <- replace from_end env.code

let alloc_temp env =
  match env.free_temps with
  | reg :: rest ->
    env.free_temps <- rest;
    reg
  | [] ->
    let reg = env.next_reg in
    env.next_reg <- env.next_reg + 1;
    reg

(* Temporaries are freed by whoever consumed them; named registers are
   never in the temp pool, so freeing is a no-op for them. *)
let alloc_named env name ty =
  let reg = alloc_temp env in
  env.scalars <- (name, (reg, ty)) :: env.scalars;
  reg

type value = Temp of int | Operand of Bytecode.operand

let operand_of = function
  | Temp reg -> Bytecode.Reg reg
  | Operand op -> op

let free env = function
  | Temp reg -> env.free_temps <- reg :: env.free_temps
  | Operand _ -> ()

(* Restore a scope, recycling the registers of bindings that are going out
   of scope — without this, transformed kernels that clone loop bodies
   (warp-level throttling emits n copies) would multiply their register
   demand by n and wreck the Eq. 2 occupancy bound.  Safe because a scoped
   local is dead once its scope ends and is rewritten before use on every
   loop iteration. *)
let pop_scope env saved =
  let rec free_added scalars =
    if scalars == saved then ()
    else
      match scalars with
      | [] -> ()
      | (_, (reg, _)) :: rest ->
        env.free_temps <- reg :: env.free_temps;
        free_added rest
  in
  free_added env.scalars;
  env.scalars <- saved

let lookup_scalar env name =
  match List.assoc_opt name env.scalars with
  | Some entry -> entry
  | None -> unsupported "undeclared variable %s" name

let lookup_array env name =
  match List.assoc_opt name env.arrays with
  | Some entry -> entry
  | None -> unsupported "unknown array %s" name

let space_of (info : Typecheck.array_info) =
  match info.space with
  | Typecheck.Global -> Bytecode.Global
  | Typecheck.Shared -> Bytecode.Shared

(* --- type inference (operand types drive int/float op selection) ------- *)

let rec ty_of env (e : Ast.expr) : Ast.ty =
  match e with
  | Ast.Int_lit _ -> Ast.Int
  | Ast.Float_lit _ -> Ast.Float
  | Ast.Bool_lit _ -> Ast.Bool
  | Ast.Builtin _ -> Ast.Int
  | Ast.Var name -> snd (lookup_scalar env name)
  | Ast.Index (arr, _) -> (snd (lookup_array env arr)).Typecheck.elem_ty
  | Ast.Unop (Ast.Neg, a) -> ty_of env a
  | Ast.Unop (Ast.Not, _) -> Ast.Bool
  | Ast.Binop ((Ast.And | Ast.Or), _, _) -> Ast.Bool
  | Ast.Binop ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne), _, _) ->
    Ast.Bool
  | Ast.Binop (Ast.Mod, _, _) -> Ast.Int
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), a, b) -> (
    match (ty_of env a, ty_of env b) with
    | Ast.Float, _ | _, Ast.Float -> Ast.Float
    | _ -> Ast.Int)
  | Ast.Call (name, _) -> (
    match Builtins.find name with
    | Some { Builtins.returns; _ } -> returns
    | None -> unsupported "unknown builtin %s" name)
  | Ast.Cast (ty, _) -> ty
  | Ast.Ternary (_, a, b) -> (
    match (ty_of env a, ty_of env b) with
    | Ast.Float, _ | _, Ast.Float -> Ast.Float
    | ty, _ -> ty)

let special_of = function
  | Ast.Thread_idx_x -> Bytecode.Sp_tid_x
  | Ast.Thread_idx_y -> Bytecode.Sp_tid_y
  | Ast.Block_idx_x -> Bytecode.Sp_bid_x
  | Ast.Block_idx_y -> Bytecode.Sp_bid_y
  | Ast.Block_dim_x -> Bytecode.Sp_bdim_x
  | Ast.Block_dim_y -> Bytecode.Sp_bdim_y
  | Ast.Grid_dim_x -> Bytecode.Sp_gdim_x
  | Ast.Grid_dim_y -> Bytecode.Sp_gdim_y

let alu_of env op a b =
  let int_operands =
    match (ty_of env a, ty_of env b) with
    | Ast.Float, _ | _, Ast.Float -> false
    | _ -> true
  in
  match op with
  | Ast.Add -> if int_operands then Bytecode.Iadd else Bytecode.Fadd
  | Ast.Sub -> if int_operands then Bytecode.Isub else Bytecode.Fsub
  | Ast.Mul -> if int_operands then Bytecode.Imul else Bytecode.Fmul
  | Ast.Div -> if int_operands then Bytecode.Idiv else Bytecode.Fdiv
  | Ast.Mod -> Bytecode.Imod
  | Ast.Lt -> Bytecode.Cmp_lt
  | Ast.Le -> Bytecode.Cmp_le
  | Ast.Gt -> Bytecode.Cmp_gt
  | Ast.Ge -> Bytecode.Cmp_ge
  | Ast.Eq -> Bytecode.Cmp_eq
  | Ast.Ne -> Bytecode.Cmp_ne
  | Ast.And -> Bytecode.Band
  | Ast.Or -> Bytecode.Bor

(* --- expression lowering ---------------------------------------------- *)

let rec gen_expr env (e : Ast.expr) : value =
  match e with
  | Ast.Int_lit n -> Operand (Bytecode.Imm (float_of_int n))
  | Ast.Float_lit f -> Operand (Bytecode.Imm f)
  | Ast.Bool_lit b -> Operand (Bytecode.Imm (if b then 1. else 0.))
  | Ast.Builtin b -> Operand (Bytecode.Special (special_of b))
  | Ast.Var name -> Operand (Bytecode.Reg (fst (lookup_scalar env name)))
  | Ast.Binop (op, a, b) ->
    let alu = alu_of env op a b in
    let va = gen_expr env a in
    let vb = gen_expr env b in
    let dst = alloc_temp env in
    emit env (Bytecode.Alu (alu, dst, operand_of va, operand_of vb));
    free env va;
    free env vb;
    Temp dst
  | Ast.Unop (Ast.Neg, a) ->
    let va = gen_expr env a in
    let dst = alloc_temp env in
    emit env (Bytecode.Neg (dst, operand_of va));
    free env va;
    Temp dst
  | Ast.Unop (Ast.Not, a) ->
    let va = gen_expr env a in
    let dst = alloc_temp env in
    emit env (Bytecode.Not (dst, operand_of va));
    free env va;
    Temp dst
  | Ast.Index (arr, idx) ->
    let arr_id, info = lookup_array env arr in
    let idx_reg, idx_value = gen_index env idx in
    let dst = alloc_temp env in
    emit env (Bytecode.Ld (space_of info, dst, arr_id, idx_reg));
    free env idx_value;
    Temp dst
  | Ast.Call (name, args) ->
    let values = List.map (gen_expr env) args in
    (* call arguments must live in registers *)
    let arg_regs, to_free =
      List.fold_left
        (fun (regs, frees) v ->
          match v with
          | Temp reg -> (reg :: regs, v :: frees)
          | Operand (Bytecode.Reg reg) -> (reg :: regs, frees)
          | Operand op ->
            let reg = alloc_temp env in
            emit env (Bytecode.Mov (reg, op));
            (reg :: regs, Temp reg :: frees))
        ([], []) values
    in
    let fn =
      match Builtins.find name with
      | Some { Builtins.fn; _ } -> fn
      | None -> unsupported "unknown builtin %s" name
    in
    let dst = alloc_temp env in
    emit env (Bytecode.Call (fn, dst, List.rev arg_regs));
    List.iter (free env) to_free;
    Temp dst
  | Ast.Cast (Ast.Int, a) ->
    let va = gen_expr env a in
    let dst = alloc_temp env in
    emit env (Bytecode.Trunc (dst, operand_of va));
    free env va;
    Temp dst
  | Ast.Cast (_, a) ->
    (* int→float and float→float casts are representation no-ops *)
    gen_expr env a
  | Ast.Ternary (c, a, b) ->
    let vc = gen_expr env c in
    let cond_reg, cond_value =
      match vc with
      | Temp reg -> (reg, vc)
      | Operand (Bytecode.Reg reg) -> (reg, vc)
      | Operand op ->
        let reg = alloc_temp env in
        emit env (Bytecode.Mov (reg, op));
        (reg, Temp reg)
    in
    let va = gen_expr env a in
    let vb = gen_expr env b in
    let dst = alloc_temp env in
    emit env (Bytecode.Sel (dst, cond_reg, operand_of va, operand_of vb));
    free env cond_value;
    free env va;
    free env vb;
    Temp dst

(* Indices must be in a register for Ld/St. *)
and gen_index env idx =
  match gen_expr env idx with
  | Temp reg as v -> (reg, v)
  | Operand (Bytecode.Reg reg) as v -> (reg, v)
  | Operand op ->
    let reg = alloc_temp env in
    emit env (Bytecode.Mov (reg, op));
    (reg, Temp reg)

(* --- statement lowering ------------------------------------------------ *)

(* Does the block contain a continue binding to THIS loop (not a nested
   one)?  Decides whether the loop needs a Rejoin point before its step. *)
let rec block_has_continue (b : Ast.block) = List.exists stmt_has_continue b

and stmt_has_continue (s : Ast.stmt) =
  match s.Ast.sk with
  | Ast.Continue -> true
  | Ast.If (_, then_b, else_b) ->
    block_has_continue then_b || block_has_continue else_b
  | Ast.Block body -> block_has_continue body
  | Ast.For _ | Ast.While _ -> false  (* binds to the nested loop *)
  | Ast.Decl _ | Ast.Shared_decl _ | Ast.Assign _ | Ast.Syncthreads
  | Ast.Return | Ast.Break ->
    false

let binop_of_assign = function
  | Ast.Assign_add -> Ast.Add
  | Ast.Assign_sub -> Ast.Sub
  | Ast.Assign_mul -> Ast.Mul
  | Ast.Assign_div -> Ast.Div
  | Ast.Assign_eq -> assert false

let rec gen_stmt env (s : Ast.stmt) =
  (let l = s.Ast.sloc in
   if l.Ast.line <> 0 then env.cur_loc <- (l.Ast.line, l.Ast.col));
  match s.Ast.sk with
  | Ast.Decl (ty, name, init) ->
    let reg = alloc_named env name ty in
    (match init with
    | None -> ()
    | Some e ->
      let v = gen_expr env e in
      emit env (Bytecode.Mov (reg, operand_of v));
      free env v)
  | Ast.Shared_decl _ -> ()  (* static allocation, collected up front *)
  | Ast.Assign (Ast.Lvar name, Ast.Assign_eq, e) ->
    let reg, _ = lookup_scalar env name in
    let v = gen_expr env e in
    emit env (Bytecode.Mov (reg, operand_of v));
    free env v
  | Ast.Assign (Ast.Lvar name, op, e) ->
    let reg, ty = lookup_scalar env name in
    let alu =
      (* operand type of the target decides int vs float, as in C *)
      let lhs = Ast.Var name in
      ignore ty;
      alu_of env (binop_of_assign op) lhs e
    in
    let v = gen_expr env e in
    emit env (Bytecode.Alu (alu, reg, Bytecode.Reg reg, operand_of v));
    free env v
  | Ast.Assign (Ast.Larr (arr, idx), Ast.Assign_eq, e) ->
    let arr_id, info = lookup_array env arr in
    let idx_reg, idx_value = gen_index env idx in
    let v = gen_expr env e in
    emit env (Bytecode.St (space_of info, arr_id, idx_reg, operand_of v));
    free env v;
    free env idx_value
  | Ast.Assign (Ast.Larr (arr, idx), op, e) ->
    (* read-modify-write: one load, one store, same address *)
    let arr_id, info = lookup_array env arr in
    let space = space_of info in
    let idx_reg, idx_value = gen_index env idx in
    let loaded = alloc_temp env in
    emit env (Bytecode.Ld (space, loaded, arr_id, idx_reg));
    let alu =
      let lhs = Ast.Index (arr, idx) in
      alu_of env (binop_of_assign op) lhs e
    in
    let v = gen_expr env e in
    emit env (Bytecode.Alu (alu, loaded, Bytecode.Reg loaded, operand_of v));
    free env v;
    emit env (Bytecode.St (space, arr_id, idx_reg, Bytecode.Reg loaded));
    free env (Temp loaded);
    free env idx_value
  | Ast.If (cond, then_b, else_b) ->
    let vc = gen_expr env cond in
    let cond_reg, cond_value =
      match vc with
      | Temp reg -> (reg, vc)
      | Operand (Bytecode.Reg reg) -> (reg, vc)
      | Operand op ->
        let reg = alloc_temp env in
        emit env (Bytecode.Mov (reg, op));
        (reg, Temp reg)
    in
    let push_at = emit_patchable env (Bytecode.Push_if (cond_reg, 0)) in
    free env cond_value;
    gen_block env then_b;
    if else_b = [] then begin
      emit env Bytecode.Pop_mask;
      (* skip target: the Pop_mask just emitted *)
      patch env ~at:push_at (Bytecode.Push_if (cond_reg, env.pc - 1))
    end
    else begin
      let else_at = emit_patchable env (Bytecode.Else_mask 0) in
      patch env ~at:push_at (Bytecode.Push_if (cond_reg, else_at));
      gen_block env else_b;
      emit env Bytecode.Pop_mask;
      patch env ~at:else_at (Bytecode.Else_mask (env.pc - 1))
    end
  | Ast.For { loop_var; declares; init; cond; step; body } ->
    let saved_scalars = env.scalars in
    let reg =
      if declares then alloc_named env loop_var Ast.Int
      else fst (lookup_scalar env loop_var)
    in
    let v_init = gen_expr env init in
    emit env (Bytecode.Mov (reg, operand_of v_init));
    free env v_init;
    emit env Bytecode.Loop_begin;
    let head = env.pc in
    let vc = gen_expr env cond in
    let cond_reg, cond_value =
      match vc with
      | Temp r -> (r, vc)
      | Operand (Bytecode.Reg r) -> (r, vc)
      | Operand op ->
        let r = alloc_temp env in
        emit env (Bytecode.Mov (r, op));
        (r, Temp r)
    in
    let brk_at = emit_patchable env (Bytecode.Break_if_false (cond_reg, 0)) in
    free env cond_value;
    gen_block env body;
    if block_has_continue body then emit env Bytecode.Rejoin;
    let v_step = gen_expr env step in
    emit env (Bytecode.Alu (Bytecode.Iadd, reg, Bytecode.Reg reg, operand_of v_step));
    free env v_step;
    emit env (Bytecode.Jump head);
    emit env Bytecode.Loop_end;
    patch env ~at:brk_at (Bytecode.Break_if_false (cond_reg, env.pc - 1));
    pop_scope env saved_scalars
  | Ast.While (cond, body) ->
    emit env Bytecode.Loop_begin;
    let head = env.pc in
    let vc = gen_expr env cond in
    let cond_reg, cond_value =
      match vc with
      | Temp r -> (r, vc)
      | Operand (Bytecode.Reg r) -> (r, vc)
      | Operand op ->
        let r = alloc_temp env in
        emit env (Bytecode.Mov (r, op));
        (r, Temp r)
    in
    let brk_at = emit_patchable env (Bytecode.Break_if_false (cond_reg, 0)) in
    free env cond_value;
    gen_block env body;
    if block_has_continue body then emit env Bytecode.Rejoin;
    emit env (Bytecode.Jump head);
    emit env Bytecode.Loop_end;
    patch env ~at:brk_at (Bytecode.Break_if_false (cond_reg, env.pc - 1))
  | Ast.Syncthreads -> emit env Bytecode.Bar
  | Ast.Return -> emit env Bytecode.Ret
  | Ast.Break -> emit env Bytecode.Brk
  | Ast.Continue -> emit env Bytecode.Cont
  | Ast.Block body ->
    let saved = env.scalars in
    gen_block env body;
    pop_scope env saved

and gen_block env b =
  let saved = env.scalars in
  List.iter (gen_stmt env) b;
  pop_scope env saved

(* --- kernel lowering ---------------------------------------------------- *)

let compile_kernel (k : Ast.kernel) =
  let info = Typecheck.check_kernel k in
  (* array ids: global params in declaration order, then shared arrays *)
  let globals =
    List.filter (fun (_, a) -> a.Typecheck.space = Typecheck.Global) info.arrays
  in
  let shareds =
    List.filter (fun (_, a) -> a.Typecheck.space = Typecheck.Shared) info.arrays
  in
  let array_entries =
    List.mapi (fun i (name, a) -> (name, (i, a))) (globals @ shareds)
  in
  let env =
    {
      scalars = [];
      arrays = array_entries;
      next_reg = 0;
      free_temps = [];
      code = [];
      pc = 0;
      locs = [];
      cur_loc = (0, 0);
    }
  in
  (* scalar params get the first registers, preloaded at warp start *)
  List.iter
    (fun (name, ty) -> ignore (alloc_named env name ty))
    info.scalar_params;
  let scalar_param_regs =
    List.map (fun (name, _) -> (name, fst (List.assoc name env.scalars)))
      info.scalar_params
  in
  gen_block env k.Ast.body;
  env.cur_loc <- (0, 0);
  emit env Bytecode.Exit;
  let code = Array.of_list (List.rev env.code) in
  let args =
    List.map
      (fun { Ast.param_ty; param_name } ->
        match param_ty with
        | Ast.Ptr _ -> Bytecode.Array_arg param_name
        | _ -> Bytecode.Scalar_arg param_name)
      k.Ast.params
  in
  let global_load_ids =
    Array.to_list
      (Array.of_seq
         (Seq.filter_map
            (fun (pc, instr) ->
              if Bytecode.is_global_load instr then Some pc else None)
            (Array.to_seqi code)))
  in
  {
    Bytecode.name = k.Ast.kernel_name;
    code;
    num_regs = env.next_reg;
    args;
    scalar_param_regs;
    array_ids = List.map (fun (name, (id, _)) -> (name, id)) array_entries;
    shared_arrays =
      List.map
        (fun (name, (id, a)) ->
          match a.Typecheck.shared_size with
          | Some size -> (name, id, size)
          | None -> assert false)
        (List.filter
           (fun (_, (_, a)) -> a.Typecheck.space = Typecheck.Shared)
           array_entries);
    shared_bytes = info.shared_bytes;
    global_load_ids;
    src_locs = Array.of_list (List.rev env.locs);
  }

let compile_program (p : Ast.program) = List.map compile_kernel p.Ast.kernels
