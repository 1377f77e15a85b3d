(** Cache-conscious wavefront scheduling (Rogers et al., MICRO-45) — the
    warp-granular dynamic baseline of the paper's Section 2.2, simplified.

    Per-warp victim tag arrays detect lost intra-warp locality (a warp
    re-missing a line it recently missed on); warps accumulate a
    lost-locality score that decays over time; at schedule time warps are
    stacked by descending score under a cutoff of [base * max_warps], and
    the ones that do not fit are de-scheduled.  The thrashing warp keeps
    priority — CCWS's key inversion: it gets to finish its reuse while the
    TLP around it shrinks.

    Warps are named by slot: a launching warp {!acquire}s one, and its
    retiring TB {!release}s it.  Nothing here allocates after
    {!create}. *)

type t

val create :
  ?vta_entries:int -> ?gain:float -> ?decay:float -> max_warps:int -> unit -> t
(** Defaults: 16 VTA entries per warp, gain 32, decay 0.999/step.
    [max_warps] sets the cutoff and the slot count: at most that many
    warps are live (and ranked) at once. *)

val acquire : t -> int
(** A free slot at the base score with an empty VTA.
    @raise Invalid_argument when [max_warps] slots are already taken. *)

val release : t -> int -> unit
(** Give a slot back (its warp's TB completed); its state is reset. *)

val on_miss : t -> slot:int -> line:int -> bool
(** Report an L1D miss.  [true] when it was a detected locality loss. *)

val tick : t -> unit
(** Decay all scores one step toward the base; the SM calls it once per
    issue step (each cycle at which it issues), not per elapsed cycle. *)

val score : t -> slot:int -> float

(** {2 Ranking}

    One scheduling decision: clear, push the live warps oldest first,
    rank, then read the admitted ones back.  Ints only, no allocation. *)

val rank_clear : t -> unit

val rank_push : t -> slot:int -> id:int -> unit
(** Add a candidate (at most [max_warps] per ranking).  [id] is the
    caller's name for it, returned by {!ranked}; ties in score keep push
    order. *)

val rank : t -> int
(** Stack the candidates by descending score and admit while the
    cumulative score fits the cutoff.  Returns how many were admitted:
    at least one when any candidate was pushed. *)

val ranked : t -> int -> int
(** [ranked t i], for [i] below the last {!rank} result: the id of the
    [i]-th admitted candidate, highest score first. *)
