(** Set-associative cache with LRU replacement, in-flight fill tracking and
    an MSHR limit.

    The same structure models the per-SM L1D and the device-wide L2.  Lines
    are identified by their line index (byte address / line size).  Each
    tagged line remembers when its data arrives, which gives
    hit-under-miss/merge behaviour for free: an access to a line whose fill
    is still in flight completes when the fill does ({!outcome} is
    [Pending_hit]). *)

type t

type outcome = Hit | Pending_hit | Miss

val create : bytes:int -> assoc:int -> line_bytes:int -> mshrs:int -> unit -> t
(** [bytes] is rounded down to a whole number of sets; there is always at
    least one set. *)

val sets : t -> int
val lines : t -> int
(** Total line capacity, [sets * assoc]. *)

val set_index : t -> int -> int
(** The set a line index maps to (XOR-folded; see implementation note). *)

(** {2 Allocation-free probe/fill protocol}

    The simulator's load path issues millions of transactions per cell; the
    closure-and-tuple shape of {!access} allocates on every one.  The split
    protocol below packs the probe result into an immediate int and leaves
    the miss sequencing to the caller:

    {[
      let r = Cache.probe c ~now ~line in
      if r <> Cache.probe_miss then (* Cache.probe_arrival r, pending? *)
      else
        let issue = Cache.miss_issue c ~now in
        (* ... compute [ready] from the next level ... *)
        Cache.fill c ~line ~ready
    ]}

    The sequence must mirror {!access}: probe, then on a miss [miss_issue]
    {e before} the next level is consulted (the MSHR hazard delays the
    issue), then [fill] once the fill time is known. *)

val probe_miss : int
(** Probe result denoting a miss (no state was changed beyond LRU). *)

val probe : t -> now:int -> line:int -> int
(** Tag lookup.  Returns {!probe_miss}, or a packed hit result: the line's
    LRU position refreshes, {!probe_arrival} gives the consume cycle and
    {!probe_pending} whether the fill is still in flight. *)

val probe_arrival : int -> int
val probe_pending : int -> bool

val miss_issue : t -> now:int -> int
(** The cycle a miss detected at [now] actually issues: [now], delayed
    while every MSHR is occupied.  Retires completed fills as a side
    effect; call exactly once per miss. *)

val evict_victim : t -> line:int -> int
(** The tag {!fill} on [line] would displace, [-1] when an invalid way
    will absorb it (read-only: victim attribution for the runtime
    policies and the profiler). *)

val fill : t -> line:int -> ready:int -> unit
(** Install [line] over the victim way with its data arriving at [ready]
    and occupy an MSHR until then. *)

val access :
  ?on_evict:(set:int -> line:int -> unit) ->
  t -> now:int -> line:int -> miss_ready:(issue:int -> int) -> int * outcome
(** [access t ~now ~line ~miss_ready] performs a read.  On a miss the line
    is allocated (evicting LRU) and [miss_ready ~issue] is called with the
    actual issue time — delayed past [now] if all MSHRs are busy — and must
    return the cycle the data arrives from the next level.  The result is
    the cycle the requesting warp may consume the data, and the outcome for
    stats.  When a valid line is displaced, [on_evict] (profiling hook) is
    called first with the set and the victim's line index. *)

val write_update : t -> now:int -> line:int -> bool
(** Write-through, no-allocate write handling: if the line is present, its
    LRU position refreshes and the result is [true]; absent lines are left
    alone ([false]). *)

val contains : t -> line:int -> bool
(** Tag probe without side effects (testing). *)

val note_inflight : t -> ready:int -> unit
(** Occupy an MSHR until [ready] without installing a line — a miss
    served without a fill still spends a fill's worth of MSHR
    bandwidth. *)

val settle : t -> unit
(** Retire all in-flight timing state (fill times, MSHR entries) while
    keeping the cached contents.  Called at kernel-launch boundaries where
    the cycle clock restarts at zero but the cache stays warm. *)

val flush : t -> unit
(** Invalidate everything (between-kernel cache behaviour is configurable
    in tests; experiments keep caches warm, as hardware does). *)
