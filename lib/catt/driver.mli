(** The whole CATT compiler pass: analyze → decide → transform.

    [analyze] performs the paper's full Section 4 pipeline on one kernel
    under a fixed launch geometry and device configuration:

    + compile (for the per-thread register count, Eq. 2's input) and
      configure the L1D/shared split (Section 4.1, via {!Occupancy});
    + statically collect per-loop off-chip accesses ({!Analysis}) and
      their footprints ({!Footprint}, Eqs. 5–8);
    + search throttling factors per loop ({!Throttle}, Eq. 9);
    + emit the transformed kernel ({!Transform}, Figs. 4–5) through the
      sanitizer-gated fallback chain BFTT shares
      ({!Transform.gated_rewrite}).

    The result carries everything the experiment harness needs: per-loop
    decisions as Eq. 9 made them, the gate's record of what runs (from
    which every TLP report, Table 3's included, is read), the carveout to
    launch with, and the analysis wall-clock time (Section 5.1.4). *)

type loop_decision = {
  footprint : Footprint.loop_footprint;
  decision : Throttle.decision;
}

type t = {
  kernel : Minicuda.Ast.kernel;
  geometry : Analysis.geometry;
  occupancy : Occupancy.t;
  loops : loop_decision list;
      (** Eq. 9's decisions: [n], [m], the verdict and the trials as it
          made them; [active_warps_per_tb] and [active_tbs] are what
          [rewrite] runs ({!selected_tlp}) *)
  transformed : Minicuda.Ast.kernel;  (** [rewrite.rewritten] *)
  rewrite : Transform.gated;  (** what the gate let run *)
  tb_throttle_plan : (int * int) option;
      (** (carveout, dummy bytes) Eq. 9 asked for *)
  final_carveout : int;  (** pass as [smem_carveout] at launch *)
  baseline_tlp : int * int;  (** (warps per TB, TBs per SM) *)
  resident_tbs : int;  (** TBs per SM [rewrite] runs at *)
  gate_degraded : bool;
      (** the sanitizer refused part of the plan or the pad, and
          {!Transform.gated_rewrite} fell back (whole plan → per-loop →
          pad only → untouched) *)
  analysis_seconds : float;
}

val analyze :
  ?model:[ `Eq8 | `Sa ] ->
  Gpusim.Config.t ->
  Minicuda.Ast.kernel ->
  Analysis.geometry ->
  (t, string) result
(** [Error] on kernels that cannot be configured at all (zero occupancy,
    oversized shared memory).  [?model] selects the footprint estimator:
    [`Eq8] (default) is the paper's plain per-warp model,
    [`Sa] the sharpened interval/reuse model ({!Footprint.of_loop_sa},
    scheme [catt-sa]), whose one {!Staticmodel.Gaccess} walk also yields
    the loop reports; the Eq. 9 search and the transform are shared. *)

val selected_tlp : ?loop_id:int -> t -> int * int
(** {!Transform.tlp} of [rewrite]: with [loop_id], the Table 3 entry for
    that loop, [(active warps per TB, concurrent TBs)]; without, the
    kernel's. *)
