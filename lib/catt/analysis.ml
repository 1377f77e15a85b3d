module Ast = Minicuda.Ast
module Typecheck = Minicuda.Typecheck

(* same record as the sanitizer's, re-exported so analysis results and
   sanitizer calls share geometry values without conversion *)
type geometry = Sanitize.Geom.t = {
  grid_x : int;
  grid_y : int;
  block_x : int;
  block_y : int;
}

type access = {
  array : string;
  index : Affine.value;
  is_load : bool;
  is_store : bool;
  innermost_iter : string option;
}

type loop_report = {
  loop_id : int;
  loop_var : string;
  accesses : access list;
  has_barrier : bool;
}

(* ------------------------------------------------------------------ *)
(* Abstract environment                                               *)
(* ------------------------------------------------------------------ *)

type env = (string * Affine.value) list

let lookup (env : env) name =
  match List.assoc_opt name env with Some v -> v | None -> Affine.Unknown

let bind (env : env) name value : env = (name, value) :: env

(* ------------------------------------------------------------------ *)
(* Expression evaluation over the affine domain                        *)
(* ------------------------------------------------------------------ *)

let rec eval geo (env : env) (e : Ast.expr) : Affine.value =
  match e with
  | Ast.Int_lit n -> Affine.Affine (Affine.const n)
  | Ast.Float_lit _ | Ast.Bool_lit _ -> Affine.Unknown
  | Ast.Var name -> lookup env name
  | Ast.Builtin b -> (
    match
      Affine.of_builtin b ~bdim_x:geo.block_x ~bdim_y:geo.block_y
        ~grid_x:geo.grid_x
    with
    | Some a -> Affine.Affine a
    | None -> Affine.Unknown)
  | Ast.Binop (Ast.Add, a, b) -> Affine.add (eval geo env a) (eval geo env b)
  | Ast.Binop (Ast.Sub, a, b) -> Affine.sub (eval geo env a) (eval geo env b)
  | Ast.Binop (Ast.Mul, a, b) -> Affine.mul (eval geo env a) (eval geo env b)
  | Ast.Binop (Ast.Div, a, b) -> (
    match eval geo env b with
    | Affine.Affine k when Affine.is_constant k ->
      Affine.div_exact (eval geo env a) k.Affine.const
    | _ -> Affine.Unknown)
  | Ast.Binop (_, _, _) -> Affine.Unknown
  | Ast.Unop (Ast.Neg, a) -> Affine.neg (eval geo env a)
  | Ast.Unop (Ast.Not, _) -> Affine.Unknown
  | Ast.Index (_, _) -> Affine.Unknown  (* data-dependent *)
  | Ast.Call (_, _) -> Affine.Unknown
  | Ast.Cast (Ast.Int, a) -> eval geo env a
  | Ast.Cast (_, _) -> Affine.Unknown
  | Ast.Ternary (_, _, _) -> Affine.Unknown

(* ------------------------------------------------------------------ *)
(* Access recording                                                    *)
(* ------------------------------------------------------------------ *)

type recorder = {
  globals : (string, Typecheck.array_info) Hashtbl.t;
  mutable current : access list;  (* reversed; only while inside a loop *)
  mutable recording : bool;
  mutable iter_stack : string list;  (* innermost first *)
}

let same_index a b =
  match (a, b) with
  | Affine.Affine x, Affine.Affine y -> Affine.equal x y
  | Affine.Unknown, Affine.Unknown -> true
  | _ -> false

let record rec_ ~array ~index ~store =
  if rec_.recording then begin
    match Hashtbl.find_opt rec_.globals array with
    | None -> ()  (* shared-memory array: on-chip, not part of Eq. 8 *)
    | Some _ ->
      let innermost_iter =
        match rec_.iter_stack with [] -> None | it :: _ -> Some it
      in
      let rec merge = function
        | [] ->
          [
            {
              array;
              index;
              is_load = not store;
              is_store = store;
              innermost_iter;
            };
          ]
        | a :: rest ->
          if a.array = array && same_index a.index index then
            {
              a with
              is_load = a.is_load || not store;
              is_store = a.is_store || store;
            }
            :: rest
          else a :: merge rest
      in
      rec_.current <- merge rec_.current
  end

(* every array read inside an expression, including nested ones *)
let rec record_expr geo rec_ env (e : Ast.expr) =
  match e with
  | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ | Ast.Var _ | Ast.Builtin _
    ->
    ()
  | Ast.Index (array, idx) ->
    record_expr geo rec_ env idx;
    record rec_ ~array ~index:(eval geo env idx) ~store:false
  | Ast.Binop (_, a, b) ->
    record_expr geo rec_ env a;
    record_expr geo rec_ env b
  | Ast.Unop (_, a) | Ast.Cast (_, a) -> record_expr geo rec_ env a
  | Ast.Call (_, args) -> List.iter (record_expr geo rec_ env) args
  | Ast.Ternary (c, a, b) ->
    record_expr geo rec_ env c;
    record_expr geo rec_ env a;
    record_expr geo rec_ env b

(* ------------------------------------------------------------------ *)
(* Statement interpretation                                            *)
(* ------------------------------------------------------------------ *)

let join_env (a : env) (b : env) : env =
  (* keep bindings that agree; anything else decays to Unknown *)
  List.map
    (fun (name, va) ->
      let vb = lookup b name in
      if same_index va vb then (name, va) else (name, Affine.Unknown))
    a

let assign_value geo env op target_value (e : Ast.expr) =
  let rhs = eval geo env e in
  match op with
  | Ast.Assign_eq -> rhs
  | Ast.Assign_add -> Affine.add target_value rhs
  | Ast.Assign_sub -> Affine.sub target_value rhs
  | Ast.Assign_mul -> Affine.mul target_value rhs
  | Ast.Assign_div -> (
    match rhs with
    | Affine.Affine k when Affine.is_constant k ->
      Affine.div_exact target_value k.Affine.const
    | _ -> Affine.Unknown)

let rec walk_stmt geo rec_ (env : env) (s : Ast.stmt) : env =
  match s.Ast.sk with
  | Ast.Decl (_, name, None) -> bind env name Affine.Unknown
  | Ast.Decl (ty, name, Some e) ->
    record_expr geo rec_ env e;
    let v = if ty = Ast.Int then eval geo env e else Affine.Unknown in
    bind env name v
  | Ast.Shared_decl (_, _, _) -> env
  | Ast.Assign (Ast.Lvar name, op, e) ->
    record_expr geo rec_ env e;
    bind env name (assign_value geo env op (lookup env name) e)
  | Ast.Assign (Ast.Larr (array, idx), op, e) ->
    record_expr geo rec_ env idx;
    record_expr geo rec_ env e;
    let index = eval geo env idx in
    (* compound ops read-modify-write: both a load and a store *)
    if op <> Ast.Assign_eq then record rec_ ~array ~index ~store:false;
    record rec_ ~array ~index ~store:true;
    env
  | Ast.If (cond, then_b, else_b) ->
    record_expr geo rec_ env cond;
    let env_then = walk_block geo rec_ env then_b in
    let env_else = walk_block geo rec_ env else_b in
    join_env (join_env env env_then) env_else
  | Ast.While (cond, body) ->
    (* a loop with an anonymous iterator and unknown trip count: variables
       assigned in the body decay to Unknown, accesses are still collected *)
    let env_in = kill_assigned env body in
    record_expr geo rec_ env_in cond;
    rec_.iter_stack <- "<while>" :: rec_.iter_stack;
    let _ = walk_block geo rec_ env_in body in
    rec_.iter_stack <- List.tl rec_.iter_stack;
    env_in
  | Ast.For ({ loop_var; init; cond; step; body; _ } as loop) ->
    record_expr geo rec_ env init;
    let env_in = loop_body_env geo env loop in
    (* condition and step re-execute every iteration *)
    record_expr geo rec_ env_in cond;
    record_expr geo rec_ env_in step;
    rec_.iter_stack <- loop_var :: rec_.iter_stack;
    let _ = walk_block geo rec_ env_in body in
    rec_.iter_stack <- List.tl rec_.iter_stack;
    bind (kill_assigned env body) loop_var Affine.Unknown
  | Ast.Syncthreads | Ast.Return | Ast.Break | Ast.Continue -> env
  | Ast.Block body -> walk_block geo rec_ env body

and walk_block geo rec_ env b = List.fold_left (walk_stmt geo rec_) env b

(* variables assigned anywhere in [body] become Unknown *)
and kill_assigned (env : env) body : env =
  let assigned =
    Ast.fold_block
      (fun acc s ->
        match s.Ast.sk with
        | Ast.Assign (Ast.Lvar name, _, _) -> name :: acc
        | Ast.For { loop_var; declares = false; _ } -> loop_var :: acc
        | _ -> acc)
      [] body
  in
  List.map
    (fun (name, v) ->
      if List.mem name assigned then (name, Affine.Unknown) else (name, v))
    env

(* Widen accumulators: run the body abstractly once (without recording)
   and detect v_out = v_in + δ with δ a loop-invariant constant, giving
   v = v_in + δ·iter. *)
and loop_body_env geo (env : env) { Ast.loop_var; init; step; body; _ } : env =
  let init_v = eval geo env init in
  let step_v = eval geo env step in
  let iter = Affine.Affine (Affine.iter loop_var) in
  let loop_var_value =
    (* loop_var = init + step·iter when the step is a constant *)
    match step_v with
    | Affine.Affine k when Affine.is_constant k ->
      Affine.add init_v (Affine.mul step_v iter)
    | _ -> Affine.Unknown
  in
  let env = bind env loop_var loop_var_value in
  (* widen accumulators over this iterator *)
  let silent =
    { globals = Hashtbl.create 0; current = []; recording = false; iter_stack = [] }
  in
  let env_out = walk_block geo silent env body in
  List.map
    (fun (name, v_in) ->
      if name = loop_var then (name, v_in)
      else
        let v_out = lookup env_out name in
        if same_index v_in v_out then (name, v_in)
        else
          match (Affine.sub v_out v_in, v_in) with
          | Affine.Affine delta, Affine.Affine base
            when Affine.is_constant delta
                 && Affine.coeff_of_iter base loop_var = 0 ->
            (* v = v + δ each iteration → v = v_in + δ·iter *)
            ( name,
              Affine.add (Affine.Affine base)
                (Affine.mul (Affine.Affine delta) iter) )
          | _ -> (name, Affine.Unknown))
    env

(* ------------------------------------------------------------------ *)
(* Kernel driver                                                       *)
(* ------------------------------------------------------------------ *)

let barrier_in stmt =
  Ast.fold_stmt (fun acc s -> acc || s.Ast.sk = Ast.Syncthreads) false stmt

let analyze_kernel (k : Ast.kernel) geo =
  let info = Typecheck.check_kernel k in
  let globals = Hashtbl.create 8 in
  List.iter
    (fun (name, (a : Typecheck.array_info)) ->
      if a.space = Typecheck.Global then Hashtbl.replace globals name a)
    info.arrays;
  let rec_ = { globals; current = []; recording = false; iter_stack = [] } in
  (* initial env: scalar int params are launch constants we cannot see, so
     Unknown; the benchmark kernels use #define sizes, which the parser
     already folded *)
  let env0 =
    List.map (fun (name, _) -> (name, Affine.Unknown)) info.scalar_params
  in
  let reports = ref [] in
  let next_id = ref 0 in
  let rec top geo env (s : Ast.stmt) : env =
    match s.Ast.sk with
    | Ast.For { loop_var; _ } ->
      let id = !next_id in
      incr next_id;
      rec_.current <- [];
      rec_.recording <- true;
      let env' = walk_stmt geo rec_ env s in
      rec_.recording <- false;
      reports :=
        {
          loop_id = id;
          loop_var;
          accesses = List.rev rec_.current;
          has_barrier = barrier_in s;
        }
        :: !reports;
      env'
    | Ast.While (_, _) ->
      let id = !next_id in
      incr next_id;
      rec_.current <- [];
      rec_.recording <- true;
      let env' = walk_stmt geo rec_ env s in
      rec_.recording <- false;
      reports :=
        {
          loop_id = id;
          loop_var = "<while>";
          accesses = List.rev rec_.current;
          has_barrier = barrier_in s;
        }
        :: !reports;
      env'
    | Ast.If (cond, then_b, else_b) ->
      ignore cond;
      let env_then = List.fold_left (top geo) env then_b in
      let env_else = List.fold_left (top geo) env else_b in
      join_env (join_env env env_then) env_else
    | Ast.Block body -> List.fold_left (top geo) env body
    | _ -> walk_stmt geo rec_ env s
  in
  let _ = List.fold_left (top geo) env0 k.Ast.body in
  List.rev !reports

let report_of_gaccess (li : Staticmodel.Gaccess.loop_info) =
  let access (g : Staticmodel.Gaccess.gaccess) =
    {
      array = g.Staticmodel.Gaccess.garray;
      index = g.Staticmodel.Gaccess.gindex;
      is_load = g.Staticmodel.Gaccess.gload;
      is_store = g.Staticmodel.Gaccess.gstore;
      innermost_iter = g.Staticmodel.Gaccess.ginnermost;
    }
  in
  {
    loop_id = li.Staticmodel.Gaccess.gloop_id;
    loop_var = li.Staticmodel.Gaccess.gloop_var;
    accesses = List.map access li.Staticmodel.Gaccess.gaccesses;
    has_barrier = barrier_in li.Staticmodel.Gaccess.gloop;
  }
