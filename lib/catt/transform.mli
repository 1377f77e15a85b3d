(** Source-to-source throttling transformations (the paper's Figs. 4 & 5).

    {b Warp-level} ([warp_throttle]): a contended top-level loop is cloned
    into [n] copies, each guarded so only one group of [warps_per_tb / n]
    warps executes it, with [__syncthreads()] barriers sequencing the
    groups.  Warp ids are computed as
    [(threadIdx.y * blockDim.x + threadIdx.x) / warp_size], which reduces
    to the paper's [threadIdx.x / WS] for 1-D blocks.

    {b TB-level} ([tb_throttle]): a dummy [__shared__] array is prepended
    (plus a store that keeps a real compiler from eliminating it) so the
    shared-memory limit (Eq. 1) caps residency at the target TB count. *)

val dummy_array_name : string

val warp_throttle_plan :
  Minicuda.Ast.kernel ->
  plan:(int * int) list ->
  warps_per_tb:int ->
  warp_size:int ->
  one_dim_block:bool ->
  Minicuda.Ast.kernel
(** [plan] maps loop ids (pre-order indices among top-level loops of the
    {e original} kernel, matching {!Analysis.loop_report.loop_id}) to their
    split factors; a loop that reaches a barrier ({!Analysis.barrier_in})
    is left whole; all listed loops are rewritten in one pass — splitting a
    loop renumbers the ones after it, so sequential single-loop rewrites
    would target the wrong statements.  Each factor must divide
    [warps_per_tb].  Raises [Invalid_argument] on unknown loop ids. *)

val warp_throttle :
  Minicuda.Ast.kernel ->
  loop_id:int ->
  n:int ->
  warps_per_tb:int ->
  warp_size:int ->
  one_dim_block:bool ->
  Minicuda.Ast.kernel
(** Single-loop convenience wrapper over {!warp_throttle_plan}. *)

val count_top_loops : Minicuda.Ast.kernel -> int
(** Number of top-level loops, i.e. the valid [loop_id] range. *)

val tb_throttle : Minicuda.Ast.kernel -> dummy_elems:int -> Minicuda.Ast.kernel
(** Prepends the dummy shared allocation of [dummy_elems] floats. *)

val plan_tb_throttle :
  Gpusim.Config.t ->
  tb_threads:int ->
  num_regs:int ->
  shared_bytes:int ->
  target_tbs:int ->
  (int * int) option
(** [plan_tb_throttle cfg … ~target_tbs] finds the smallest carveout [c]
    and a dummy size [d] (bytes) such that occupancy under [c] with
    [shared_bytes + d] per TB is exactly [target_tbs], maximizing the
    remaining L1D.  Returns [(carveout, dummy_bytes)]. *)

type gated = {
  rewritten : Minicuda.Ast.kernel;  (** what runs *)
  splits : (int * int) list;  (** the entries of [plan] that were kept *)
  pad_kept : bool;  (** the TB-level pad survived *)
}

val gated_rewrite :
  ?pad_bytes:int ->
  Sanitize.Geom.t ->
  Minicuda.Ast.kernel ->
  plan:(int * int) list ->
  warps_per_tb:int ->
  warp_size:int ->
  gated
(** The one sanitizer-gated rewrite, shared by CATT ({!Driver.analyze}) and
    the BFTT baseline ([Experiments.Runner.fixed_variant]): the warp splits
    of [plan] (as for {!warp_throttle_plan}; factors of 1 are no split) plus,
    with [pad_bytes], the {!tb_throttle} pad of [pad_bytes / 4] floats.
    {!Sanitize.Check.gate} must accept the result, so the request narrows
    until it does: the whole plan with the pad, then only the loops whose
    single split the gate accepts (with the pad), then the pad alone, then
    the untouched kernel (returned physically unchanged). *)
