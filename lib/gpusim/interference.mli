(** CIAO-style per-SM interference monitor: per-warp victim attribution
    over the L1D, periodic selection of the top-interfering warps, and
    the bypass-or-throttle policy decision for each load transaction.

    Driven from the SM load path: {!on_access} once per L1D load
    transaction (its result says whether the access bypasses the cache
    by policy), {!on_evict} whenever a fill displaces a valid line,
    {!retire} when a warp's thread block completes.
    Nothing is flagged during the warm-up interval, so short or
    single-warp launches never bypass.  Fully deterministic: same access
    stream, same decisions. *)

type t

type mode = Bypass_mode | Throttle_mode

val create :
  ?warmup:int ->
  ?epoch:int ->
  ?top_k:int ->
  ?threshold:int ->
  ?pressure:float ->
  ?owner_entries:int ->
  unit ->
  t
(** [warmup] (default 512) accesses before the first selection; [epoch]
    (default 2048) accesses between re-evaluations; [top_k] (default 2)
    warps flagged per SM; [threshold] (default 8) minimum interference
    score to be flagged; [pressure] (default 0.5) bypassed fraction of an
    epoch above which the mode flips to throttling; [owner_entries]
    (default 4096) line-owner table slots. *)

val on_access : t -> warp_id:int -> line:int -> bool
(** Count one L1D load transaction by [warp_id] on [line].  [true] means
    the access must bypass the L1D by policy (flagged warp, bypass mode);
    [false] means it goes through the cache and the warp takes ownership
    of the line for victim attribution. *)

val on_evict : t -> filler:int -> victim_line:int -> unit
(** A fill by warp [filler] displaced the valid line [victim_line]; if
    the victim belongs to a different warp, the filler's interference
    score rises. *)

val retire : t -> warp_id:int -> unit
(** [warp_id]'s thread block completed.  Its score entry is dropped now
    if it is below the flagging threshold, else at the first
    re-evaluation that halves it below. *)

val throttle_excluded : t -> warp_id:int -> bool
(** In throttle mode, whether [warp_id] is flagged and must be excluded
    from the scheduler pool (the barrier-drain rule still overrides). *)

val version : t -> int
(** Moves at each re-evaluation, the only place the mode and the flagged
    set change, so {!throttle_excluded} answers as before at an equal
    version. *)

val mode : t -> mode
val flagged : t -> int list
(** Currently selected warp ages (diagnostics/tests). *)

val score : t -> warp_id:int -> int
(** Current interference score of a warp (diagnostics/tests). *)

val entries : t -> int
(** Warps with a score entry (diagnostics/tests). *)
