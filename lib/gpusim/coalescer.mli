(** Memory-request coalescing.

    A warp's memory instruction touches one cache line per active lane;
    the SM's lane loops write those line indices (byte address shifted by
    the launch's log2 line size) and the coalescer reduces them to the
    distinct lines, the unit of L1D traffic.  The per-warp request count
    it produces is exactly the quantity the paper's Eq. 7 estimates
    statically — perfectly coalesced accesses give 1 line, fully
    divergent ones give up to [warp_size] lines. *)

val dedup : lanes:int array -> mask:int -> buf:int array -> int
(** [dedup ~lanes ~mask ~buf] writes the distinct line indices of the
    lanes whose bit is set in [mask] into [buf] (which must hold at least
    [Array.length lanes] entries) in first-touch order and returns how
    many were written.  Allocation-free; lane-monotone patterns (affine
    indices) dedup in O(lanes).  [lanes.(lane)] is ignored for inactive
    lanes. *)
