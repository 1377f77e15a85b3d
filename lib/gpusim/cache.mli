(** Set-associative cache with LRU replacement, in-flight fill tracking and
    a bounded MSHR file.

    The same structure models the per-SM L1D and the device-wide L2.  Lines
    are identified by their line index (byte address / line size).  Each
    tagged line remembers when its data arrives, which gives
    hit-under-miss/merge behaviour for free: an access to a line whose fill
    is still in flight completes when the fill does ({!probe_pending}). *)

type t

val create : bytes:int -> assoc:int -> line_bytes:int -> mshrs:int -> unit -> t
(** [bytes] is rounded down to a whole number of sets; there is always at
    least one set.  The MSHR file holds [mshrs] (at least 1) entries and
    is allocated here, once. *)

val sets : t -> int

val set_index : t -> int -> int
(** The set a line index maps to (XOR-folded; see implementation note). *)

(** {2 The probe → miss_issue → fill protocol}

    One transaction finds its set once.  {!probe} walks the set's tags;
    on a miss it also picks the way a fill will take (the first invalid
    way, else the first least-recently-used way) and returns it, so
    neither the fill nor anyone asking about the victim walks the set
    again.  Nothing allocates:

    {[
      let r = Cache.probe c ~now ~line in
      if r >= 0 then (* hit: Cache.probe_arrival r, Cache.probe_pending r *)
      else
        let issue = Cache.miss_issue c ~now in
        (* ... compute [ready] from the next level; Cache.victim c r ... *)
        Cache.fill c ~miss:r ~line ~ready
    ]}

    A miss calls {!miss_issue} {e before} the next level is consulted (the
    MSHR hazard delays the issue), then exactly one of {!fill} or
    {!note_inflight}, each of which takes an MSHR entry: a push without
    its [miss_issue] can find the file full and raises
    [Invalid_argument].

    Invariant: nothing touches the cache's tags or LRU stamps between a
    probe and its fill, so the way the probe picked is still the first
    invalid or first LRU way when the fill lands.  Co-resident contexts
    share one L1, but one transaction never interleaves with another:
    each runs to its fill inside one SM step. *)

val probe : t -> now:int -> line:int -> int
(** Tag lookup.  A hit is a non-negative packed result: the line's LRU
    position refreshes, {!probe_arrival} gives the consume cycle and
    {!probe_pending} whether the fill is still in flight.  A miss is a
    negative result naming the victim way, read by {!victim},
    {!miss_set} and {!fill}; it changes nothing. *)

val probe_arrival : int -> int
val probe_pending : int -> bool

val victim : t -> int -> int
(** The tag a miss's fill will displace, [-1] when an invalid way will
    absorb it (victim attribution for the runtime policies and the
    profiler). *)

val miss_set : t -> int -> int
(** The set of a miss's victim way: [set_index] of the missing line. *)

val miss_issue : t -> now:int -> int
(** The cycle a miss detected at [now] actually issues: [now], delayed
    while every MSHR is occupied.  Retires completed fills as a side
    effect; call exactly once per miss. *)

val fill : t -> miss:int -> line:int -> ready:int -> unit
(** Install [line] over the way its probe's [miss] result picked, with
    its data arriving at [ready], and occupy an MSHR until then. *)

val note_inflight : t -> ready:int -> unit
(** Occupy an MSHR until [ready] without installing a line — a miss
    served without a fill still spends a fill's worth of MSHR
    bandwidth. *)

val write_update : t -> line:int -> bool
(** Write-through, no-allocate write handling: if the line is present, its
    LRU position refreshes and the result is [true]; absent lines are left
    alone ([false]). *)

val settle : t -> unit
(** Retire all in-flight timing state (fill times, MSHR entries) while
    keeping the cached contents.  Called at kernel-launch boundaries where
    the cycle clock restarts at zero but the cache stays warm. *)
