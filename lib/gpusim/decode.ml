(* See decode.mli for the format. *)

type op =
  | Mov
  | Neg
  | Not
  | Trunc
  | Sel
  | Fadd
  | Iadd
  | Fsub
  | Isub
  | Fmul
  | Imul
  | Fdiv
  | Idiv
  | Imod
  | Cmp_lt
  | Cmp_le
  | Cmp_gt
  | Cmp_ge
  | Cmp_eq
  | Cmp_ne
  | Band
  | Bor
  | Call
  | Ld_global
  | St_global
  | Ld_shared
  | St_shared
  | Push_if
  | Else_mask
  | Pop_mask
  | Loop_begin
  | Break_if_false
  | Jump
  | Loop_end
  | Bar
  | Ret
  | Brk
  | Cont
  | Rejoin
  | Exit

type src =
  | Reg
  | Imm
  | Bdim_x
  | Bdim_y
  | Gdim_x
  | Gdim_y
  | Tid_x
  | Tid_y
  | Bid_x
  | Bid_y

type t = {
  name : string;
  num_regs : int;
  ws : int;
  ops : op array;
  args : int array;
  srcs : src array;
  lanes : float array;
}

let stride = 4

let builtins =
  Array.of_list (List.map (fun (_, s) -> s.Minicuda.Builtins.fn) Minicuda.Builtins.all)

let builtin i = builtins.(i lsr 1)

let alu_op = function
  | Bytecode.Fadd -> Fadd
  | Bytecode.Iadd -> Iadd
  | Bytecode.Fsub -> Fsub
  | Bytecode.Isub -> Isub
  | Bytecode.Fmul -> Fmul
  | Bytecode.Imul -> Imul
  | Bytecode.Fdiv -> Fdiv
  | Bytecode.Idiv -> Idiv
  | Bytecode.Imod -> Imod
  | Bytecode.Cmp_lt -> Cmp_lt
  | Bytecode.Cmp_le -> Cmp_le
  | Bytecode.Cmp_gt -> Cmp_gt
  | Bytecode.Cmp_ge -> Cmp_ge
  | Bytecode.Cmp_eq -> Cmp_eq
  | Bytecode.Cmp_ne -> Cmp_ne
  | Bytecode.Band -> Band
  | Bytecode.Bor -> Bor

exception Bad of int * string

let bad pc fmt = Printf.ksprintf (fun msg -> raise (Bad (pc, msg))) fmt

(* Decoding state: the program being decoded, its output arrays, and the
   launch-uniform values gathered so far, each of which gets a warp-size
   slice of the lane table after the two thread-index tables. *)
type st = {
  prog : Bytecode.program;
  n : int;
  sws : int;
  global : int -> bool;
  per_table : int;  (* lanes of one thread-index table *)
  ops : op array;
  args : int array;
  srcs : src array;
  mutable uniforms : float list;  (* newest first *)
  mutable n_uniforms : int;
  slices : (int64, int) Hashtbl.t;  (* value bits -> lane-table offset *)
  dims : float array;  (* bdim.x, bdim.y, gdim.x, gdim.y *)
}

let reg st pc r =
  let num_regs = st.prog.Bytecode.num_regs in
  if r < 0 || r >= num_regs then bad pc "register r%d outside [0, %d)" r num_regs;
  r * st.sws

let target st pc t =
  if t < 0 || t >= st.n then bad pc "branch target %d outside [0, %d)" t st.n;
  t

(* the lane-table offset of a launch-uniform value: one slice per
   distinct bit pattern *)
let uniform st v =
  let bits = Int64.bits_of_float v in
  match Hashtbl.find_opt st.slices bits with
  | Some off -> off
  | None ->
    let off = (2 * st.per_table) + (st.n_uniforms * st.sws) in
    Hashtbl.add st.slices bits off;
    st.uniforms <- v :: st.uniforms;
    st.n_uniforms <- st.n_uniforms + 1;
    off

(* argument [i] of [pc] is an operand: its source kind, and its
   payload as the argument *)
let operand st pc i op =
  let src, payload =
    match op with
    | Bytecode.Reg r -> (Reg, reg st pc r)
    | Bytecode.Imm f -> (Imm, uniform st f)
    | Bytecode.Special Bytecode.Sp_bdim_x -> (Bdim_x, uniform st st.dims.(0))
    | Bytecode.Special Bytecode.Sp_bdim_y -> (Bdim_y, uniform st st.dims.(1))
    | Bytecode.Special Bytecode.Sp_gdim_x -> (Gdim_x, uniform st st.dims.(2))
    | Bytecode.Special Bytecode.Sp_gdim_y -> (Gdim_y, uniform st st.dims.(3))
    | Bytecode.Special Bytecode.Sp_tid_x -> (Tid_x, 0)
    | Bytecode.Special Bytecode.Sp_tid_y -> (Tid_y, st.per_table)
    | Bytecode.Special Bytecode.Sp_bid_x -> (Bid_x, 0)
    | Bytecode.Special Bytecode.Sp_bid_y -> (Bid_y, 0)
  in
  st.srcs.((stride * pc) + i) <- src;
  payload

let array_id st pc space arr_id =
  let num_ids = List.length st.prog.Bytecode.array_ids in
  if arr_id < 0 || arr_id >= num_ids then
    bad pc "array id %d outside [0, %d)" arr_id num_ids;
  let shared =
    List.exists (fun (_, id, _) -> id = arr_id) st.prog.Bytecode.shared_arrays
  in
  (match space with
  | Bytecode.Global ->
    if shared || not (st.global arr_id) then
      bad pc "array id %d is not a global array" arr_id
  | Bytecode.Shared ->
    if not shared then bad pc "array id %d is not a shared array" arr_id);
  arr_id

let builtin_index fn =
  let rec find i = if builtins.(i) = fn then i else find (i + 1) in
  find 0

let set st pc op a0 a1 a2 a3 =
  st.ops.(pc) <- op;
  let b = stride * pc in
  st.args.(b) <- a0;
  st.args.(b + 1) <- a1;
  st.args.(b + 2) <- a2;
  st.args.(b + 3) <- a3

let decode_instr st pc instr =
  match instr with
  | Bytecode.Mov (d, a) -> set st pc Mov (reg st pc d) (operand st pc 1 a) 0 0
  | Bytecode.Alu (op, d, a, b) ->
    set st pc (alu_op op) (reg st pc d) (operand st pc 1 a) (operand st pc 2 b) 0
  | Bytecode.Neg (d, a) -> set st pc Neg (reg st pc d) (operand st pc 1 a) 0 0
  | Bytecode.Not (d, a) -> set st pc Not (reg st pc d) (operand st pc 1 a) 0 0
  | Bytecode.Trunc (d, a) -> set st pc Trunc (reg st pc d) (operand st pc 1 a) 0 0
  | Bytecode.Sel (d, c, a, b) ->
    set st pc Sel (reg st pc d) (reg st pc c) (operand st pc 2 a) (operand st pc 3 b)
  | Bytecode.Call (fn, d, args) ->
    (* register numbers, not bases: {!Minicuda.Builtins.eval_lanes}
       takes numbers; a unary call reads its argument twice *)
    let a, b =
      match args with
      | [ a ] -> (a, a)
      | [ a; b ] -> (a, b)
      | _ ->
        bad pc "call to %s with %d arguments" (Minicuda.Builtins.name fn)
          (List.length args)
    in
    List.iter (fun r -> ignore (reg st pc r)) [ d; a; b ];
    set st pc Call d a b ((builtin_index fn lsl 1) lor (List.length args - 1))
  | Bytecode.Ld (space, d, arr, idx) ->
    let op = match space with Bytecode.Global -> Ld_global | Bytecode.Shared -> Ld_shared in
    set st pc op (reg st pc d) (array_id st pc space arr) (reg st pc idx) 0
  | Bytecode.St (space, arr, idx, src) ->
    let op = match space with Bytecode.Global -> St_global | Bytecode.Shared -> St_shared in
    set st pc op (array_id st pc space arr) (reg st pc idx) (operand st pc 2 src) 0
  | Bytecode.Push_if (c, skip) -> set st pc Push_if (reg st pc c) (target st pc skip) 0 0
  | Bytecode.Else_mask skip -> set st pc Else_mask (target st pc skip) 0 0 0
  | Bytecode.Break_if_false (c, exit_pc) ->
    set st pc Break_if_false (reg st pc c) (target st pc exit_pc) 0 0
  | Bytecode.Jump t -> set st pc Jump (target st pc t) 0 0 0
  | Bytecode.Pop_mask -> st.ops.(pc) <- Pop_mask
  | Bytecode.Loop_begin -> st.ops.(pc) <- Loop_begin
  | Bytecode.Loop_end -> st.ops.(pc) <- Loop_end
  | Bytecode.Bar -> st.ops.(pc) <- Bar
  | Bytecode.Ret -> st.ops.(pc) <- Ret
  | Bytecode.Brk -> st.ops.(pc) <- Brk
  | Bytecode.Cont -> st.ops.(pc) <- Cont
  | Bytecode.Rejoin -> st.ops.(pc) <- Rejoin
  | Bytecode.Exit -> st.ops.(pc) <- Exit

let decode ~ws ~global ~grid:(gx, gy) ~block:(bx, by) ~warps_per_tb
    (prog : Bytecode.program) =
  let code = prog.Bytecode.code in
  let n = Array.length code in
  let per_table = warps_per_tb * ws in
  let st =
    {
      prog;
      n;
      sws = ws;
      global;
      per_table;
      ops = Array.make n Exit;
      args = Array.make (stride * n) 0;
      srcs = Array.make (stride * n) Reg;
      uniforms = [];
      n_uniforms = 0;
      slices = Hashtbl.create 8;
      dims = [| float_of_int bx; float_of_int by; float_of_int gx; float_of_int gy |];
    }
  in
  match
    if n = 0 then bad 0 "empty program";
    (* every instruction but [Exit] and [Jump] (which jumps or holds its
       own pc) may go on to the next one *)
    (match code.(n - 1) with
    | Bytecode.Exit | Bytecode.Jump _ -> ()
    | _ -> bad (n - 1) "falls through the end of the program");
    Array.iteri (decode_instr st) code
  with
  | exception Bad (pc, msg) -> Error (pc, msg)
  | () ->
    let uniform_base = 2 * per_table in
    let lanes = Array.make (uniform_base + (st.n_uniforms * ws)) 0. in
    for lin = 0 to (bx * by) - 1 do
      lanes.(lin) <- float_of_int (lin mod bx);
      lanes.(per_table + lin) <- float_of_int (lin / bx)
    done;
    List.iteri
      (fun i v -> Array.fill lanes (uniform_base + ((st.n_uniforms - 1 - i) * ws)) ws v)
      st.uniforms;
    Ok
      {
        name = prog.Bytecode.name;
        num_regs = prog.Bytecode.num_regs;
        ws;
        ops = st.ops;
        args = st.args;
        srcs = st.srcs;
        lanes;
      }

(* ------------------------------------------------------------------ *)
(* Back to bytecode                                                    *)
(* ------------------------------------------------------------------ *)

let bytecode_alu = function
  | Fadd -> Bytecode.Fadd
  | Iadd -> Bytecode.Iadd
  | Fsub -> Bytecode.Fsub
  | Isub -> Bytecode.Isub
  | Fmul -> Bytecode.Fmul
  | Imul -> Bytecode.Imul
  | Fdiv -> Bytecode.Fdiv
  | Idiv -> Bytecode.Idiv
  | Imod -> Bytecode.Imod
  | Cmp_lt -> Bytecode.Cmp_lt
  | Cmp_le -> Bytecode.Cmp_le
  | Cmp_gt -> Bytecode.Cmp_gt
  | Cmp_ge -> Bytecode.Cmp_ge
  | Cmp_eq -> Bytecode.Cmp_eq
  | Cmp_ne -> Bytecode.Cmp_ne
  | Band -> Bytecode.Band
  | Bor -> Bytecode.Bor
  | _ -> invalid_arg "Decode.bytecode_alu"

let instr (d : t) pc =
  let arg i = d.args.((stride * pc) + i) in
  let reg i = arg i / d.ws in
  let operand i =
    match d.srcs.((stride * pc) + i) with
    | Reg -> Bytecode.Reg (reg i)
    | Imm -> Bytecode.Imm d.lanes.(arg i)
    | Bdim_x -> Bytecode.Special Bytecode.Sp_bdim_x
    | Bdim_y -> Bytecode.Special Bytecode.Sp_bdim_y
    | Gdim_x -> Bytecode.Special Bytecode.Sp_gdim_x
    | Gdim_y -> Bytecode.Special Bytecode.Sp_gdim_y
    | Tid_x -> Bytecode.Special Bytecode.Sp_tid_x
    | Tid_y -> Bytecode.Special Bytecode.Sp_tid_y
    | Bid_x -> Bytecode.Special Bytecode.Sp_bid_x
    | Bid_y -> Bytecode.Special Bytecode.Sp_bid_y
  in
  match d.ops.(pc) with
  | Mov -> Bytecode.Mov (reg 0, operand 1)
  | Neg -> Bytecode.Neg (reg 0, operand 1)
  | Not -> Bytecode.Not (reg 0, operand 1)
  | Trunc -> Bytecode.Trunc (reg 0, operand 1)
  | Sel -> Bytecode.Sel (reg 0, reg 1, operand 2, operand 3)
  | ( Fadd | Iadd | Fsub | Isub | Fmul | Imul | Fdiv | Idiv | Imod | Cmp_lt
    | Cmp_le | Cmp_gt | Cmp_ge | Cmp_eq | Cmp_ne | Band | Bor ) as op ->
    Bytecode.Alu (bytecode_alu op, reg 0, operand 1, operand 2)
  | Call ->
    let fn = arg 3 in
    Bytecode.Call
      (builtin fn, arg 0, if fn land 1 = 0 then [ arg 1 ] else [ arg 1; arg 2 ])
  | Ld_global -> Bytecode.Ld (Bytecode.Global, reg 0, arg 1, reg 2)
  | Ld_shared -> Bytecode.Ld (Bytecode.Shared, reg 0, arg 1, reg 2)
  | St_global -> Bytecode.St (Bytecode.Global, arg 0, reg 1, operand 2)
  | St_shared -> Bytecode.St (Bytecode.Shared, arg 0, reg 1, operand 2)
  | Push_if -> Bytecode.Push_if (reg 0, arg 1)
  | Else_mask -> Bytecode.Else_mask (arg 0)
  | Pop_mask -> Bytecode.Pop_mask
  | Loop_begin -> Bytecode.Loop_begin
  | Break_if_false -> Bytecode.Break_if_false (reg 0, arg 1)
  | Jump -> Bytecode.Jump (arg 0)
  | Loop_end -> Bytecode.Loop_end
  | Bar -> Bytecode.Bar
  | Ret -> Bytecode.Ret
  | Brk -> Bytecode.Brk
  | Cont -> Bytecode.Cont
  | Rejoin -> Bytecode.Rejoin
  | Exit -> Bytecode.Exit

let disassemble (d : t) =
  Bytecode.disassemble
    {
      Bytecode.name = d.name;
      code = Array.init (Array.length d.ops) (instr d);
      num_regs = d.num_regs;
      args = [];
      scalar_param_regs = [];
      array_ids = [];
      shared_arrays = [];
      shared_bytes = 0;
      global_load_ids = [];
      src_locs = [||];
    }
