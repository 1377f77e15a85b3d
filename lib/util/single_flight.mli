(** In-flight request coalescing ("single flight").

    A table of keyed computations: the first caller of {!run} for a key
    becomes the *leader* and evaluates the thunk; every caller that
    arrives while the leader is still computing becomes a *follower* and
    blocks until the leader publishes, then receives the same value
    without re-evaluating.  Once the leader publishes, the entry is
    removed — a later call with the same key starts a fresh flight, so
    the table never serves stale results and holds entries only for
    computations that are actually in progress.

    Designed for the serve loop's domain pool: N concurrent identical
    [simulate] requests trigger exactly one simulation, with all N
    responses fanned out from the one result.

    Guarantees, all checked by the unit tests:
    - the thunk runs exactly once per flight, on the leader;
    - a leader exception is re-raised (with its backtrace) in the leader
      *and* every follower — errors propagate to every waiter;
    - the entry is removed even when the thunk raises — nothing leaks,
      and the next call retries rather than caching the failure;
    - followers of distinct keys never serialize on each other (one
      mutex + condition per entry; the table lock is held only for the
      lookup/insert/remove instants). *)

type 'v t

val create : unit -> 'v t

(** [run t key f] returns [`Led v] if this caller evaluated [f ()]
    itself, or [`Joined v] if it received [v] from a concurrent leader
    of the same [key].  Re-raises the leader's exception in both
    cases. *)
val run : 'v t -> string -> (unit -> 'v) -> [ `Led of 'v | `Joined of 'v ]

(** [run_tagged t key ~tag f] is {!run}, except the leader deposits
    [tag] on the flight and each follower receives the *leader's* tag
    alongside the value — the leader/joiner linkage used to correlate a
    coalesced request's trace with the flight that actually computed
    it.  The leader's own result carries no tag (it already knows
    its identity). *)
val run_tagged :
  'v t ->
  string ->
  tag:string ->
  (unit -> 'v) ->
  [ `Led of 'v | `Joined of string * 'v ]

(** Number of flights currently in progress (leaders that have not yet
    published).  [0] when the system is quiescent — the no-leak check. *)
val in_flight : 'v t -> int

(** Followers that have joined the flight now in progress for [key] ([0]
    when there is none) — lets a test hold a flight open until a known
    number of callers wait on it. *)
val joined : 'v t -> string -> int
