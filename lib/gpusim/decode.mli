(** The decoded form of a {!Bytecode.program}: what {!Sm} executes.

    {!Gpu} decodes each kernel once per launch and shares the result with
    the launch's SMs through {!Sm.job}.  Decoding checks every branch
    target, register number, array kind and call arity once, so the
    execution engine dispatches on {!op} without a pc check, an operand
    match or a bounds check on register slices; data indices are still
    checked per lane.  {!Bytecode.program} stays the form that the code
    generator, the disassembler and {!Gpu.launch_digest} use.

    Instruction [pc] is [ops.(pc)] with its integer arguments at
    [args.(stride * pc + i)], [i < stride]:

    - [Mov], [Neg], [Not], [Trunc]: destination base, source operand;
    - the ALU ops ([Fadd] … [Bor]): destination base, operands [a], [b];
    - [Sel]: destination base, condition base, operands [a], [b];
    - [Call]: destination, [a] and [b] {e register numbers} ([b = a] for
      a unary builtin) and [builtin index lsl 1 lor (arity - 1)];
    - [Ld_global], [Ld_shared]: destination base, array id, index base;
    - [St_global], [St_shared]: array id, index base, source operand;
    - [Push_if], [Break_if_false]: condition base, target;
      [Else_mask], [Jump]: target; the rest take none.

    A register base is the register number times the warp size: the
    register's slice of a warp's register-major file.  An operand
    argument's source kind is [srcs] at the same index, and the argument
    is its payload:

    - [Reg]: a register base;
    - [Imm] and the launch dimensions [Bdim_x] … [Gdim_y]: the offset of
      a warp-size slice of {!t.lanes} holding the value in every lane;
    - [Tid_x], [Tid_y]: the offset of the thread-index table in
      {!t.lanes}; a warp reads it from its own lane base on;
    - [Bid_x], [Bid_y]: none; the value is the thread block's. *)

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

(** Where an operand's lanes come from. *)
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

type t = private {
  name : string;  (** the kernel's *)
  num_regs : int;  (** the program's register count *)
  ws : int;  (** warp size the bases are scaled by *)
  ops : op array;  (** one per bytecode instruction *)
  args : int array;  (** [stride] per instruction *)
  srcs : src array;  (** the source kind of each operand argument *)
  lanes : float array;
      (** the launch's lane table: [threadIdx.x] for every lane of a
          thread block (warp [w]'s lanes from [w * ws]), then
          [threadIdx.y] likewise, then one warp-size slice per distinct
          immediate or launch dimension *)
}

val stride : int

val builtin : int -> Minicuda.Builtins.fn
(** The builtin of a [Call]'s last argument. *)

val decode :
  ws:int ->
  global:(int -> bool) ->
  grid:int * int ->
  block:int * int ->
  warps_per_tb:int ->
  Bytecode.program ->
  (t, int * string) result
(** [decode ~ws ~global ~grid ~block ~warps_per_tb prog] for one launch
    of [prog]; [global id] says whether array id [id] is bound to a
    global array.  [Error (pc, reason)] refuses an empty program, a last
    instruction that can fall through the end, a branch target or
    register number out of range, a [Call] with other than one or two
    arguments, and a global access to an id that is not a bound global
    array, or a shared access to one that is not a shared array. *)

val instr : t -> int -> Bytecode.instr
(** The bytecode instruction decoded at a pc, rebuilt from the decoded
    arrays alone. *)

val disassemble : t -> string
(** {!Bytecode.disassemble} of the program rebuilt by {!instr}: equal to
    the source program's when decoding lost nothing. *)
