(** Static collection of per-loop off-chip access patterns.

    For every top-level loop of a kernel (the granularity at which CATT
    makes throttling decisions and transforms code), this pass gathers the
    global-memory accesses lexically inside it — including those in nested
    loops — with their {!Affine} index expressions, by abstract
    interpretation of the kernel body over the affine domain.

    Loop accumulators ([acc += stride] patterns) are widened to
    [init + stride·iter]; any variable mutated in a non-affine way becomes
    {!Affine.Unknown}, which downstream analysis treats with the paper's
    conservative irregular-access rule. *)

(** Launch geometry, shared with the sanitizer (same record type). *)
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
      (** iterator of the innermost loop containing the access — the [i]
          whose coefficient Eq. 6 tests *)
}

type loop_report = {
  loop_id : int;  (** pre-order index among the kernel's top-level loops *)
  loop_var : string;
  accesses : access list;  (** deduplicated, in first-occurrence order *)
  has_barrier : bool;
      (** body reaches [__syncthreads()]: such loops are never warp-split *)
}

val same_index : Affine.value -> Affine.value -> bool
(** Equality on the affine domain: two [Unknown]s compare equal (one
    irregular request stream per array), affine forms structurally. *)

val barrier_in : Minicuda.Ast.stmt -> bool
(** The statement's sub-tree reaches a [__syncthreads()].  Such a loop is
    never warp-split: the groups would rendezvous at different barrier
    sites, undefined behaviour on real hardware too. *)

val analyze_kernel :
  Minicuda.Ast.kernel -> geometry -> loop_report list
(** Reports for each top-level loop, in source order.  The kernel must
    typecheck (shared arrays are recognized and excluded from off-chip
    accesses). *)

val report_of_gaccess : Staticmodel.Gaccess.loop_info -> loop_report
(** The same loop's report rebuilt from a {!Staticmodel.Gaccess} walk,
    which numbers loops and merges accesses as {!analyze_kernel} does;
    the catt-sa model and profile-all walk each kernel once this way. *)
