(** Device state and kernel launching.

    A {!device} owns global-memory arrays and the shared L2.  {!launch}
    compiles nothing — it takes SASS-lite from {!Codegen} — and runs the
    kernel to completion on the configured number of SMs, returning the
    performance counters and (when requested) the off-chip access trace.

    The launch path mirrors the paper's setup: the shared-memory carveout
    defaults to the smallest configurable option that fits the kernel's
    static [__shared__] usage (Section 4.1), and the residency limit per SM
    is Eq. 3 via {!Cta_scheduler}. *)

exception Launch_error of string

type device

val create : Config.t -> device
val config : device -> Config.t

val create_shared_l2 : device -> device
(** A second device sharing this one's config and L2 but owning a fresh
    global-memory namespace — the co-resident workload's arrays cannot
    collide with the first one's.  Intended for {!launch_pair}. *)

val alloc : device -> string -> int -> unit
(** [alloc dev name len] creates a zero-filled device array.  Raises
    {!Launch_error} if the name is taken. *)

val upload : device -> string -> float array -> unit
(** Allocate-and-copy.  Replaces any existing array of that name. *)

val get : device -> string -> float array
(** The live device array (no copy) — read results directly, mutate to
    re-initialize between runs. *)

val arrays : device -> (string * float array) list
(** Every live device array (no copies), sorted by name — the whole final
    memory image, e.g. for bit-identity digests. *)

type arg = Arr of string | Scalar of float

type launch = {
  prog : Bytecode.program;
  grid : int * int;
  block : int * int;
  args : arg list;  (** one per kernel parameter, in declaration order *)
  smem_carveout : int option;
      (** bytes of on-chip memory given to shared memory; [None] picks the
          smallest configurable option fitting the kernel's static usage *)
  sched : Sm.sched;
  trace : bool;  (** record the Fig. 2 off-chip access trace on SM 0 *)
  runtime_throttle :
    [ `None | `Dyncta | `Ccws | `Daws | `Swl of int | `Ciao | `Ata ];
      (** scheduler-level and cache-level mitigation baselines: the
          Section 2.2 ablations — {!Dynamic_throttle} (DYNCTA-like TB
          capping), {!Ccws} (lost-locality warp scheduling), {!Daws}
          (proactive footprint prediction), [`Swl k] (static warp
          limiting, whose best offline choice is the CCWS paper's
          Best-SWL) — plus the interference-aware hardware schemes:
          [`Ciao] ({!Interference} — per-warp victim attribution driving
          selective L1D bypassing with a throttling fallback) and [`Ata]
          (shadow tag-only ways beside the L1D that admit a line to data
          storage only on proven reuse; see {!Ata}).  Each becomes one
          {!Sm.policy} per SM. *)
  bypass_arrays : string list;
      (** arrays whose loads skip the L1D entirely — models the selective
          cache-bypassing alternative of Section 2.2 for ablations *)
  profile : Profile.Collector.t option;
      (** opt-in observability sink ({!Profile.Collector}); hooks fire from
          the scheduler and cache paths but never change simulation
          results.  One collector may span several launches; counters
          aggregate across them. *)
}

val default_launch :
  ?smem_carveout:int ->
  ?sched:Sm.sched ->
  ?trace:bool ->
  ?runtime_throttle:
    [ `None | `Dyncta | `Ccws | `Daws | `Swl of int | `Ciao | `Ata ] ->
  ?bypass_arrays:string list ->
  ?profile:Profile.Collector.t ->
  prog:Bytecode.program ->
  grid:int * int ->
  block:int * int ->
  arg list ->
  launch
(** Every non-geometry field defaults to the plain configuration
    ([None]/GTO/no trace/no runtime throttle/no bypass); pass the labeled
    argument instead of rebuilding the record with [{ ... with ... }]. *)

val launch_digest : Config.t -> launch -> Digest.t
(** The MD5 of a canonical rendering of everything {!launch} reads from
    the record: the whole compiled program, grid, block, arguments, the
    carveout as resolved under the config (so [None] and the [Some c] it
    picks agree), scheduler, trace flag, runtime policy and bypass
    arrays.  Only the profile collector is left out: it observes and
    never changes a counter.  Two launches with equal digests simulate
    identically on equal device states.  Raises {!Launch_error} for a
    carveout {!launch} would refuse. *)

val launch_digests : Config.t -> launch list -> Digest.t list
(** [List.map (launch_digest cfg)], with each distinct program (by
    physical identity) rendered once however many launches share it. *)

val occupancy : device -> launch -> int
(** Resident TBs per SM (Eq. 3) for this launch.  Raises {!Launch_error}
    on an unlaunchable configuration. *)

val args_top : device -> base:int -> launch -> int
(** The exclusive top address the launch's arrays would occupy when bound
    from [base] (the same line-aligned layout {!launch} uses).  Binds
    nothing — layout planning for co-resident sequences.  Raises
    {!Launch_error} on a bad argument list. *)

val launch : ?args_base:int -> device -> launch -> Stats.t * Trace.t
(** Runs to completion.  Arrays bind line-aligned starting at
    [args_base] (default: one line past address 0 — the layout every solo
    run uses); co-resident drivers pass the base a previous
    {!launch_pair} placed this kernel at, keeping its address range
    disjoint from the partner's still-warm lines in the shared L2.
    Raises {!Launch_error} for bad argument lists and {!Sm.Sim_error} for
    runtime faults (out-of-bounds, division by zero, barrier deadlock). *)

val launch_pair :
  ?args_base_b:int -> device -> launch -> device -> launch -> Stats.t * Stats.t
(** [launch_pair dev_a la dev_b lb] co-schedules two kernels on the same
    SMs, each in a half partition (registers, warp slots and TB slots
    split evenly; each kernel keeps its own shared-memory carveout), with
    the remaining on-chip bytes one L1D both contend for — plus the
    shared L2 and DRAM ports.  Per-kernel counters stay fully attributed.
    B's arrays bind above A's top address, or at [args_base_b] when given
    (clamped to stay above A) — pass a fixed base, e.g. the maximum
    {!args_top} over A's launches, so B's addresses stay stable across a
    launch sequence and disjoint from A's even in solo tail launches.
    [dev_b] must come from [create_shared_l2 dev_a] (or vice versa); both
    launches must use compile-time schemes ([runtime_throttle = `None])
    and request neither traces nor profiles.  Raises {!Launch_error}
    when a kernel does not fit its partition. *)
