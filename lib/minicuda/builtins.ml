(** Math builtins callable from mini-CUDA kernels.

    GPU kernels in the evaluated suites only call a handful of intrinsics;
    each entry records the arity, the result type and which function it
    is.  {!eval} is the one definition of every builtin's float semantics
    (integer callers are converted at the call site); the simulator runs
    it over a warp's lanes through {!eval_lanes}. *)

type fn =
  | Sqrtf
  | Expf
  | Logf
  | Fabsf
  | Sinf
  | Cosf
  | Powf
  | Fminf
  | Fmaxf
  | Min
  | Max
  | Abs
  | Saturatef

type signature = { arity : int; returns : Ast.ty; fn : fn }

let all : (string * signature) list =
  [
    ("sqrtf", { arity = 1; returns = Ast.Float; fn = Sqrtf });
    ("expf", { arity = 1; returns = Ast.Float; fn = Expf });
    ("logf", { arity = 1; returns = Ast.Float; fn = Logf });
    ("fabsf", { arity = 1; returns = Ast.Float; fn = Fabsf });
    ("sinf", { arity = 1; returns = Ast.Float; fn = Sinf });
    ("cosf", { arity = 1; returns = Ast.Float; fn = Cosf });
    ("powf", { arity = 2; returns = Ast.Float; fn = Powf });
    ("fminf", { arity = 2; returns = Ast.Float; fn = Fminf });
    ("fmaxf", { arity = 2; returns = Ast.Float; fn = Fmaxf });
    ("min", { arity = 2; returns = Ast.Int; fn = Min });
    ("max", { arity = 2; returns = Ast.Int; fn = Max });
    ("abs", { arity = 1; returns = Ast.Int; fn = Abs });
    ("saturatef", { arity = 1; returns = Ast.Float; fn = Saturatef });
  ]

let find name = List.assoc_opt name all

let is_builtin name = find name <> None

let name fn = fst (List.find (fun (_, s) -> s.fn = fn) all)

let clamp01 x = if x < 0. then 0. else if x > 1. then 1. else x

(* [Stdlib.min]/[Stdlib.max] on floats, without the polymorphic compare
   (same NaN and signed-zero behaviour: both are [a <= b] / [a >= b]) *)
let[@inline] fmin (a : float) b = if a <= b then a else b
let[@inline] fmax (a : float) b = if a >= b then a else b

(** [eval fn a b]: the builtin applied to its arguments; unary builtins
    ignore [b]. *)
let[@inline] eval fn a b =
  match fn with
  | Sqrtf -> sqrt a
  | Expf -> exp a
  | Logf -> log a
  | Fabsf | Abs -> abs_float a
  | Sinf -> sin a
  | Cosf -> cos a
  | Powf -> a ** b
  | Fminf | Min -> fmin a b
  | Fmaxf | Max -> fmax a b
  | Saturatef -> clamp01 a

(** [eval_lanes fn ~regs ~ws ~mask ~dst ~a ~b] evaluates the builtin on
    every lane set in [mask], reading argument registers [a] and [b]
    (pass [b = a] for unary builtins) and writing register [dst] of a
    register-major file of [ws] lanes.  Each lane reads before it
    writes, so [dst] may alias an argument.  Inlining {!eval} here keeps
    every lane's float unboxed: nothing is allocated. *)
let eval_lanes fn ~(regs : float array) ~ws ~mask ~dst ~a ~b =
  let d = dst * ws and ab = a * ws and bb = b * ws in
  for lane = 0 to ws - 1 do
    if mask land (1 lsl lane) <> 0 then
      regs.(d + lane) <- eval fn regs.(ab + lane) regs.(bb + lane)
  done
