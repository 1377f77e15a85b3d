(** SASS-lite: the linear instruction set executed by the simulator.

    The code generator lowers structured mini-CUDA ASTs to this ISA.
    Control divergence is handled with an explicit mask stack — legal
    because the source language has structured control flow only, so every
    divergence reconverges at a statically known instruction:

    - [Push_if] splits the active mask on a predicate and saves the
      complement for a matching [Else_mask]/[Pop_mask];
    - [Loop_begin]/[Break_if_false]/[Jump]/[Loop_end] implement loops where
      lanes that fail the condition idle until the whole warp exits;
    - [Ret] retires lanes permanently (they are removed from every mask).

    Registers are per-thread and virtual; the register count chosen by the
    code generator is exactly the "register usage known at compile time with
    [-v]" input of the paper's Eq. 2. *)

type special =
  | Sp_tid_x
  | Sp_tid_y
  | Sp_bid_x
  | Sp_bid_y
  | Sp_bdim_x
  | Sp_bdim_y
  | Sp_gdim_x
  | Sp_gdim_y

type operand =
  | Reg of int
  | Imm of float
  | Special of special

(** Integer ops truncate; registers store every value as a float, exact for
    the 32-bit integer range the kernels use. *)
type alu_op =
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Iadd
  | Isub
  | Imul
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

type space = Global | Shared

type instr =
  | Mov of int * operand
  | Alu of alu_op * int * operand * operand
  | Neg of int * operand
  | Not of int * operand
  | Trunc of int * operand  (** float→int cast *)
  | Sel of int * int * operand * operand
      (** [Sel (dst, cond, a, b)]: per-lane [dst ← cond ≠ 0 ? a : b];
          lowers ternaries without extra divergence *)
  | Call of Minicuda.Builtins.fn * int * int list
      (** builtin (resolved at compile time), dst, argument registers *)
  | Ld of space * int * int * int  (** space, dst, array id, index reg *)
  | St of space * int * int * operand  (** space, array id, index reg, src *)
  | Push_if of int * int  (** cond reg, skip target (Else_mask or Pop_mask) *)
  | Else_mask of int  (** skip target (the matching Pop_mask) *)
  | Pop_mask
  | Loop_begin
  | Break_if_false of int * int  (** cond reg, loop-exit target (Loop_end) *)
  | Jump of int  (** back edge to the loop head *)
  | Loop_end
  | Bar  (** __syncthreads *)
  | Ret
  | Brk
      (** [break]: retire the active lanes from the innermost loop — pure
          mask surgery; the instruction stream continues for siblings *)
  | Cont
      (** [continue]: park the active lanes in the innermost loop frame
          until the matching [Rejoin] *)
  | Rejoin  (** end of a loop body containing [Cont]: reabsorb parked lanes *)
  | Exit

(** A compiled kernel: instruction stream plus the metadata the launcher
    and the occupancy calculator need. *)
type arg_binding =
  | Array_arg of string  (** bound to a device array at launch *)
  | Scalar_arg of string  (** bound to a scalar value at launch *)

type program = {
  name : string;
  code : instr array;
  num_regs : int;  (** per-thread register demand (Eq. 2 input) *)
  args : arg_binding list;  (** launch-argument order, from kernel params *)
  scalar_param_regs : (string * int) list;
      (** registers preloaded with scalar launch arguments *)
  array_ids : (string * int) list;  (** array name → id used by Ld/St *)
  shared_arrays : (string * int * int) list;
      (** name, id, size in elements — statically declared [__shared__] *)
  shared_bytes : int;  (** total shared footprint (Eq. 1 input) *)
  global_load_ids : int list;
      (** pcs of global-memory loads, in program order — the off-chip
          instructions traced for Fig. 2 *)
  src_locs : (int * int) array;
      (** pc → (line, col) of the source statement each instruction was
          lowered from; (0, 0) marks synthetic code.  The profiler keys its
          L1D heat maps on these sites. *)
}

let special_name = function
  | Sp_tid_x -> "tid.x"
  | Sp_tid_y -> "tid.y"
  | Sp_bid_x -> "bid.x"
  | Sp_bid_y -> "bid.y"
  | Sp_bdim_x -> "bdim.x"
  | Sp_bdim_y -> "bdim.y"
  | Sp_gdim_x -> "gdim.x"
  | Sp_gdim_y -> "gdim.y"

let operand_name = function
  | Reg r -> Printf.sprintf "r%d" r
  | Imm f -> Printf.sprintf "#%g" f
  | Special s -> special_name s

let alu_name = function
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Iadd -> "iadd"
  | Isub -> "isub"
  | Imul -> "imul"
  | Idiv -> "idiv"
  | Imod -> "imod"
  | Cmp_lt -> "slt"
  | Cmp_le -> "sle"
  | Cmp_gt -> "sgt"
  | Cmp_ge -> "sge"
  | Cmp_eq -> "seq"
  | Cmp_ne -> "sne"
  | Band -> "and"
  | Bor -> "or"

let space_name = function Global -> "g" | Shared -> "s"

let instr_name = function
  | Mov (d, a) -> Printf.sprintf "mov r%d, %s" d (operand_name a)
  | Alu (op, d, a, b) ->
    Printf.sprintf "%s r%d, %s, %s" (alu_name op) d (operand_name a)
      (operand_name b)
  | Neg (d, a) -> Printf.sprintf "neg r%d, %s" d (operand_name a)
  | Not (d, a) -> Printf.sprintf "not r%d, %s" d (operand_name a)
  | Trunc (d, a) -> Printf.sprintf "trunc r%d, %s" d (operand_name a)
  | Sel (d, c, a, b) ->
    Printf.sprintf "sel r%d, r%d, %s, %s" d c (operand_name a) (operand_name b)
  | Call (f, d, args) ->
    Printf.sprintf "call r%d, %s(%s)" d (Minicuda.Builtins.name f)
      (String.concat ", " (List.map (Printf.sprintf "r%d") args))
  | Ld (sp, d, arr, idx) ->
    Printf.sprintf "ld.%s r%d, a%d[r%d]" (space_name sp) d arr idx
  | St (sp, arr, idx, src) ->
    Printf.sprintf "st.%s a%d[r%d], %s" (space_name sp) arr idx
      (operand_name src)
  | Push_if (c, skip) -> Printf.sprintf "push_if r%d, @%d" c skip
  | Else_mask skip -> Printf.sprintf "else @%d" skip
  | Pop_mask -> "pop"
  | Loop_begin -> "loop"
  | Break_if_false (c, exit_pc) -> Printf.sprintf "brk_if r%d, @%d" c exit_pc
  | Jump target -> Printf.sprintf "jump @%d" target
  | Loop_end -> "loop_end"
  | Bar -> "bar.sync"
  | Ret -> "ret"
  | Brk -> "brk"
  | Cont -> "cont"
  | Rejoin -> "rejoin"
  | Exit -> "exit"

let disassemble prog =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (Printf.sprintf "; kernel %s, %d regs\n" prog.name prog.num_regs);
  Array.iteri
    (fun pc instr ->
      Buffer.add_string buffer (Printf.sprintf "%4d: %s\n" pc (instr_name instr)))
    prog.code;
  Buffer.contents buffer

(** Static loop extents: [(begin_pc, end_pc, global_mem_instrs)] for every
    [Loop_begin]/[Loop_end] pair, where the instruction count includes
    nested loops — the per-loop divergence denominators a DAWS-style
    footprint predictor needs. *)
let loop_extents prog =
  let result = ref [] in
  let stack = ref [] in
  Array.iteri
    (fun pc instr ->
      match instr with
      | Loop_begin -> stack := (pc, ref 0) :: !stack
      | Ld (Global, _, _, _) | St (Global, _, _, _) ->
        List.iter (fun (_, count) -> incr count) !stack
      | Loop_end -> (
        match !stack with
        | (begin_pc, count) :: rest ->
          stack := rest;
          result := (begin_pc, pc, !count) :: !result
        | [] -> invalid_arg "Bytecode.loop_extents: unbalanced Loop_end")
      | _ -> ())
    prog.code;
  List.sort compare !result

let is_global_load = function Ld (Global, _, _, _) -> true | _ -> false

let is_global_access = function
  | Ld (Global, _, _, _) | St (Global, _, _, _) -> true
  | _ -> false
