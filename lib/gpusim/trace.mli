(** Dynamic off-chip access trace — the data series of the paper's Fig. 2.

    When enabled, every global-memory instruction executed on one chosen SM
    records its post-coalescing request count, in dynamic program order.
    The store is a bounded ring: beyond [cap] entries the oldest are
    overwritten (and counted), so trace memory never exceeds the cap no
    matter how long the kernel runs. *)

type entry = { pc : int; requests : int; cycle : int }

type t

val disabled : t
(** Records nothing; zero-cost. *)

val default_cap : int

val create : ?cap:int -> ?sm:int -> unit -> t
(** [create ~cap ~sm ()] records the most recent [cap] events (default
    {!default_cap}, which launches take) from SM [sm] (default 0). *)

val record : t -> sm:int -> pc:int -> requests:int -> cycle:int -> unit

val length : t -> int
(** Entries currently stored ([<= cap]). *)

val dropped : t -> int
(** Entries overwritten because the ring was full. *)

val capacity : t -> int

val to_array : t -> entry array
(** Stored entries, oldest surviving first. *)

val request_series : t -> float array
(** Just the request counts, as floats, ready for plotting. *)
