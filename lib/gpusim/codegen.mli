(** Lowering from mini-CUDA ASTs to SASS-lite bytecode.

    The generator performs a light type inference (mirroring
    {!Minicuda.Typecheck}) to pick integer vs. float ALU variants — integer
    division must truncate because throttled kernels compute warp ids as
    [threadIdx.x / WARP_SIZE] — and uses a stack-discipline temporary
    allocator so the reported per-thread register count stays realistic
    (it feeds the paper's Eq. 2 occupancy bound). *)

exception Unsupported of string

val compile_kernel : Minicuda.Ast.kernel -> Bytecode.program
(** Typechecks and lowers one kernel.  Raises {!Minicuda.Typecheck.Type_error}
    on ill-typed input and {!Unsupported} on constructs outside the ISA. *)
