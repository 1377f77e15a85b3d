(** Abstract syntax for the mini-CUDA kernel language.

    The language covers the constructs that the paper's analysis (and every
    evaluated Polybench/Rodinia kernel) actually uses: scalar [int]/[float]
    locals, global-memory arrays received as pointer parameters,
    [__shared__] arrays, structured control flow ([if]/[for]/[while]),
    thread/block builtins and [__syncthreads()].  Function calls are limited
    to a fixed set of math builtins — GPU kernels in the benchmark suites
    are fully inlined, as the paper assumes. *)

(** Source position of a statement, 1-based.  Synthesized statements (for
    example the guarded phases emitted by the CATT transform) carry
    {!dummy_loc}.  Locations are deliberately invisible to the derived
    equalities: two ASTs that differ only in positions are [equal], which is
    what every structural test and the transform gate want. *)
type loc = { line : int; col : int }

let dummy_loc = { line = 0; col = 0 }
let equal_loc (_ : loc) (_ : loc) = true

let pp_loc fmt l =
  if l = dummy_loc then Format.pp_print_string fmt "<synth>"
  else Format.fprintf fmt "%d:%d" l.line l.col

let show_loc l = Format.asprintf "%a" pp_loc l

type ty =
  | Int
  | Float
  | Bool
  | Ptr of ty  (** pointer parameter, i.e. a global-memory array *)
[@@deriving show { with_path = false }, eq]

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or
[@@deriving show { with_path = false }, eq]

type unop = Neg | Not [@@deriving show { with_path = false }, eq]

(** Thread-grid builtins.  Only [x]/[y] dimensions are modeled; none of the
    evaluated workloads use [z]. *)
type builtin_var =
  | Thread_idx_x
  | Thread_idx_y
  | Block_idx_x
  | Block_idx_y
  | Block_dim_x
  | Block_dim_y
  | Grid_dim_x
  | Grid_dim_y
[@@deriving show { with_path = false }, eq]

type expr =
  | Int_lit of int
  | Float_lit of float
  | Bool_lit of bool
  | Var of string
  | Builtin of builtin_var
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Index of string * expr  (** [a\[e\]] read; [a] global or shared array *)
  | Call of string * expr list  (** math builtin, see {!Builtins} *)
  | Cast of ty * expr
  | Ternary of expr * expr * expr
[@@deriving show { with_path = false }, eq]

type lvalue =
  | Lvar of string
  | Larr of string * expr
[@@deriving show { with_path = false }, eq]

(** Compound-assignment operators; [Assign_eq] is plain [=]. *)
type assign_op =
  | Assign_eq
  | Assign_add
  | Assign_sub
  | Assign_mul
  | Assign_div
[@@deriving show { with_path = false }, eq]

type for_loop = {
  loop_var : string;
  declares : bool;  (** [for (int j = …)] vs. reuse of an outer variable *)
  init : expr;
  cond : expr;
  step : expr;  (** additive increment per iteration; [j++] is [1] *)
  body : block;
}
[@@deriving show { with_path = false }, eq]

and stmt = {
  sk : stmt_kind;
  sloc : loc;  (** where the statement starts; {!dummy_loc} if synthesized *)
}
[@@deriving show { with_path = false }, eq]

and stmt_kind =
  | Decl of ty * string * expr option
  | Shared_decl of ty * string * int  (** [__shared__ float s\[256\];] *)
  | Assign of lvalue * assign_op * expr
  | If of expr * block * block
  | For of for_loop
  | While of expr * block
  | Syncthreads
  | Return
  | Break  (** exit the innermost loop *)
  | Continue  (** skip to the next iteration of the innermost loop *)
  | Block of block
[@@deriving show { with_path = false }, eq]

and block = stmt list [@@deriving show { with_path = false }, eq]

type param = { param_ty : ty; param_name : string }
[@@deriving show { with_path = false }, eq]

type kernel = {
  kernel_name : string;
  params : param list;
  body : block;
}
[@@deriving show { with_path = false }, eq]

type program = {
  defines : (string * int) list;  (** [#define NX 40960] constants *)
  kernels : kernel list;
}
[@@deriving show { with_path = false }, eq]

(** {2 Construction helpers} *)

(** [at ?loc kind] wraps a statement kind with a position; synthesized code
    omits [?loc] and gets {!dummy_loc}. *)
let at ?(loc = dummy_loc) sk = { sk; sloc = loc }

(** {2 Traversal helpers} *)

(** [fold_stmt f acc s] folds [f] over [s] and all nested statements,
    parents before children. *)
let rec fold_stmt f acc s =
  let acc = f acc s in
  match s.sk with
  | Decl _ | Shared_decl _ | Assign _ | Syncthreads | Return | Break
  | Continue ->
    acc
  | If (_, then_b, else_b) ->
    fold_block f (fold_block f acc then_b) else_b
  | For { body; _ } | While (_, body) | Block body -> fold_block f acc body

and fold_block f acc b = List.fold_left (fold_stmt f) acc b
