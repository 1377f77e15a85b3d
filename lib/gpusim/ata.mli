(** Aggregated tag array (ATA-Cache): tag-only shadow ways beside an L1D
    that admit a missing line into data storage only on proven reuse.

    On a data miss the SM asks {!admit} whether the line may displace
    data.  Cold fills into invalid ways proceed as in the plain cache; a
    first conflict miss only records its tag in the shadow ([Defer]:
    serve from the next level, fill nothing); a miss whose tag is already
    shadowed is promoted ([Promote]: fill as usual, and the data line it
    displaces drops into the shadow). *)

type t

type decision =
  | Fill  (** an invalid way absorbs the line: fill as usual *)
  | Promote  (** shadow tag hit — proven reuse: fill as usual *)
  | Defer  (** first conflict touch: tag shadowed, do not fill *)

val create : ways:int -> Cache.t -> t
(** [ways] (at least 1) shadow ways for each set of the given L1D. *)

val admit : t -> line:int -> miss:int -> decision
(** Decide (and record) whether a missing [line] may displace data;
    [miss] is the L1D's {!Cache.probe} result for it, which names the set
    and the victim.  Call before the fill: [Promote] consumes the shadow
    entry and shadows the victim the fill is about to evict; [Defer]
    shadows [line]. *)
