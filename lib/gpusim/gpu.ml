exception Launch_error of string

let launch_error fmt = Printf.ksprintf (fun msg -> raise (Launch_error msg)) fmt

type device = {
  cfg : Config.t;
  memory : (string, float array) Hashtbl.t;
  l2 : Cache.t;
}

let create cfg =
  {
    cfg;
    memory = Hashtbl.create 16;
    l2 =
      Cache.create ~bytes:cfg.Config.l2_bytes ~assoc:cfg.Config.l2_assoc
        ~line_bytes:cfg.Config.line_bytes
        ~mshrs:(cfg.Config.l1d_mshrs * cfg.Config.num_sms) ();
  }

let config dev = dev.cfg

(** A second device that shares this one's L2 (and config) but owns a
    fresh global-memory namespace, so a co-resident workload's array
    names cannot collide with the first one's.  Made for {!launch_pair};
    either device works standalone too (the shared L2 then simply stays
    warm across their launches, like two streams on one GPU). *)
let create_shared_l2 dev =
  { cfg = dev.cfg; memory = Hashtbl.create 16; l2 = dev.l2 }

let alloc dev name len =
  if Hashtbl.mem dev.memory name then launch_error "array %s already allocated" name;
  if len <= 0 then launch_error "array %s: non-positive length %d" name len;
  Hashtbl.replace dev.memory name (Array.make len 0.)

let upload dev name data = Hashtbl.replace dev.memory name (Array.copy data)

let get dev name =
  match Hashtbl.find_opt dev.memory name with
  | Some arr -> arr
  | None -> launch_error "no device array named %s" name

let arrays dev =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun name data acc -> (name, data) :: acc) dev.memory [])

type arg = Arr of string | Scalar of float

type launch = {
  prog : Bytecode.program;
  grid : int * int;
  block : int * int;
  args : arg list;
  smem_carveout : int option;
  sched : Sm.sched;
  trace : bool;
  runtime_throttle :
    [ `None | `Dyncta | `Ccws | `Daws | `Swl of int | `Ciao | `Ata ];
      (** run-time throttling baselines (Section 2.2 ablations): the
          DYNCTA-style TB-cap hill climber, the CCWS-style lost-locality
          warp scheduler, the CIAO interference-aware bypass/throttle
          monitor, or the ATA-Cache aggregated-tag-array L1D *)
  bypass_arrays : string list;
      (** arrays whose loads skip the L1D — the cache-bypassing alternative
          (Section 2.2) used by the ablation benches *)
  profile : Profile.Collector.t option;
      (** opt-in observability sink; the same collector may be passed to
          several launches and aggregates across them *)
}

let default_launch ?smem_carveout ?(sched = Sm.Gto) ?(trace = false)
    ?(runtime_throttle = `None) ?(bypass_arrays = []) ?profile ~prog ~grid
    ~block args =
  {
    prog;
    grid;
    block;
    args;
    smem_carveout;
    sched;
    trace;
    runtime_throttle;
    bypass_arrays;
    profile;
  }

let geometry l =
  let gx, gy = l.grid and bx, by = l.block in
  if gx <= 0 || gy <= 0 || bx <= 0 || by <= 0 then
    launch_error "kernel %s: degenerate launch geometry" l.prog.Bytecode.name;
  (gx, gy, bx, by)

(* Without an explicit carveout, pick the one the CUDA runtime would: the
   smallest option that still sustains the kernel's maximum occupancy
   (larger options would only shrink the L1D for nothing). *)
let auto_carveout cfg l ~tb_threads =
  let static = l.prog.Bytecode.shared_bytes in
  let options = List.sort compare cfg.Config.smem_carveout_options in
  let feasible = List.filter (fun o -> o >= static) options in
  match feasible with
  | [] ->
    launch_error "kernel %s: shared usage %dB exceeds the largest carveout"
      l.prog.Bytecode.name static
  | _ ->
    let tbs_at carveout =
      Cta_scheduler.max_tbs_per_sm cfg ~tb_threads
        ~num_regs:l.prog.Bytecode.num_regs ~shared_bytes:static
        ~smem_carveout:carveout
    in
    let best_tbs = List.fold_left (fun acc o -> max acc (tbs_at o)) 0 feasible in
    List.find (fun o -> tbs_at o >= best_tbs) feasible

let resolve_carveout cfg l =
  let static = l.prog.Bytecode.shared_bytes in
  match l.smem_carveout with
  | Some bytes ->
    if not (List.mem bytes cfg.Config.smem_carveout_options) then
      launch_error "smem carveout %d is not a configurable option" bytes;
    if bytes < static then
      launch_error "smem carveout %d < static shared usage %d" bytes static;
    bytes
  | None ->
    let _, _, bx, by = geometry l in
    auto_carveout cfg l ~tb_threads:(bx * by)

(* The canonical identity of a launch: every field the simulation reads,
   with the carveout resolved, since a [None] and the [Some c] it resolves
   to run identically.  Both records are destructured with no wildcard,
   so a new field fails to compile here until it is rendered or excluded
   with a reason.  Marshal without sharing is a structural encoding
   (floats by their bits), so equal renderings mean equal values.  The
   program is rendered by its own digest, so a sequence that launches
   one program many times marshals it once ({!launch_digests}). *)
let program_digest prog =
  let {
    Bytecode.name;
    code;
    num_regs;
    args = params;
    scalar_param_regs;
    array_ids;
    shared_arrays;
    shared_bytes;
    global_load_ids;
    src_locs;
  } =
    prog
  in
  Digest.string
    (Marshal.to_string
       ( name,
         code,
         num_regs,
         params,
         scalar_param_regs,
         array_ids,
         shared_arrays,
         shared_bytes,
         global_load_ids,
         src_locs )
       [ Marshal.No_sharing ])

let digest_with ~program cfg l =
  let {
    prog = _;  (* rendered by [program] *)
    grid;
    block;
    args;
    smem_carveout = _;  (* rendered resolved, below *)
    sched;
    trace;
    runtime_throttle;
    bypass_arrays;
    (* an observer: its hooks never change a counter, and profiled runs
       are never cached *)
    profile = _;
  } =
    l
  in
  Digest.string
    (Marshal.to_string
       ( program,
         ( grid,
           block,
           args,
           resolve_carveout cfg l,
           sched,
           trace,
           runtime_throttle,
           bypass_arrays ) )
       [ Marshal.No_sharing ])

let launch_digest cfg l = digest_with ~program:(program_digest l.prog) cfg l

let launch_digests cfg ls =
  let digested = ref [] in
  List.map
    (fun l ->
      let program =
        match List.assq_opt l.prog !digested with
        | Some d -> d
        | None ->
          let d = program_digest l.prog in
          digested := (l.prog, d) :: !digested;
          d
      in
      digest_with ~program cfg l)
    ls

let occupancy dev l =
  let _, _, bx, by = geometry l in
  let carveout = resolve_carveout dev.cfg l in
  let tb_threads = bx * by in
  let tbs =
    Cta_scheduler.max_tbs_per_sm dev.cfg ~tb_threads
      ~num_regs:l.prog.Bytecode.num_regs
      ~shared_bytes:l.prog.Bytecode.shared_bytes ~smem_carveout:carveout
  in
  if tbs <= 0 then
    launch_error "kernel %s: zero occupancy (TB needs more resources than an SM has)"
      l.prog.Bytecode.name;
  tbs

(* Bind launch arguments: build the id-indexed global array table with
   line-aligned, non-overlapping base addresses, and the scalar register
   preload list.  [base] is where the first array lands — [launch_pair]
   binds its second kernel after the first one's top address, so the two
   kernels' working sets occupy disjoint cache-visible ranges. *)
let bind_args_from dev ~base l =
  let prog = l.prog in
  let expected = List.length prog.Bytecode.args in
  let got = List.length l.args in
  if expected <> got then
    launch_error "kernel %s expects %d arguments, got %d" prog.Bytecode.name
      expected got;
  let num_ids = List.length prog.Bytecode.array_ids in
  let arrays = Array.make num_ids None in
  let scalars = ref [] in
  let next_base = ref base in
  let align n =
    let line = dev.cfg.Config.line_bytes in
    (n + line - 1) / line * line
  in
  List.iter2
    (fun binding arg ->
      match (binding, arg) with
      | Bytecode.Array_arg param, Arr name ->
        let data = get dev name in
        let id = List.assoc param prog.Bytecode.array_ids in
        let base = !next_base in
        next_base := align (base + (Array.length data * 4)) + dev.cfg.Config.line_bytes;
        arrays.(id) <- Some { Sm.data; base }
      | Bytecode.Scalar_arg param, Scalar value ->
        let reg = List.assoc param prog.Bytecode.scalar_param_regs in
        scalars := (reg, value) :: !scalars
      | Bytecode.Array_arg param, Scalar _ ->
        launch_error "argument %s: expected an array, got a scalar" param
      | Bytecode.Scalar_arg param, Arr _ ->
        launch_error "argument %s: expected a scalar, got an array" param)
    prog.Bytecode.args l.args;
  (arrays, !scalars, !next_base)

(* The exclusive top address [bind_args_from] would reach — layout
   planning only, nothing is bound.  Lets callers place a second
   kernel's working set above every launch of the first one. *)
let args_top dev ~base l =
  let _, _, top = bind_args_from dev ~base l in
  top

let bypass_flags l =
  let num_ids = List.length l.prog.Bytecode.array_ids in
  let flags = Array.make num_ids false in
  List.iter
    (fun name ->
      match List.assoc_opt name l.prog.Bytecode.array_ids with
      | Some id -> flags.(id) <- true
      | None ->
        launch_error "bypass_arrays: kernel %s has no array %s"
          l.prog.Bytecode.name name)
    l.bypass_arrays;
  flags

(* process-wide launch accounting (always on; see Obs.Metrics) *)
let m_launches = Obs.Metrics.counter "gpu.launches"
let m_sim_cycles = Obs.Metrics.counter "gpu.sim_cycles"
let m_pool_fills = Obs.Metrics.counter "gpu.pool_fills"

(* The one place a launch's [runtime_throttle] becomes an SM policy. *)
let policy dev l (job : Sm.job) ~max_tbs ~l1_bytes l1 =
  match l.runtime_throttle with
  | `None -> Sm.no_policy
  | `Dyncta -> Sm.dyncta (Dynamic_throttle.create ~init_cap:max_tbs ())
  | `Ccws -> Sm.ccws (Ccws.create ~max_warps:(max_tbs * job.Sm.warps_per_tb) ())
  | `Daws ->
    Sm.daws
      (Daws.create
         ~l1_lines:(l1_bytes / dev.cfg.Config.line_bytes)
         ~extents:(Bytecode.loop_extents l.prog))
  | `Swl limit ->
    if limit < 1 then launch_error "static warp limit must be >= 1";
    Sm.swl limit
  | `Ciao -> Sm.ciao (Interference.create ()) l1
  | `Ata ->
    (* the same L1D geometry plus two shadow tag-only ways per set *)
    Sm.ata job.Sm.stats (Ata.create ~ways:2 l1)

let new_l1 cfg ~l1_bytes =
  Cache.create ~bytes:l1_bytes ~assoc:cfg.Config.l1d_assoc
    ~line_bytes:cfg.Config.line_bytes ~mshrs:cfg.Config.l1d_mshrs ()

(* One kernel of a launch: its job, its contexts (one per physical SM)
   and its thread-block budget. *)
type kernel = {
  job : Sm.job;
  sms : Sm.t array;
  max_tbs : int;  (* resident TBs per SM *)
  total_tbs : int;
  mutable next_tb : int;
}

(* [l1 i] is physical SM [i]'s L1D; co-resident kernels pass the same
   one. *)
let kernel dev l ~arrays ~scalars ~dram_free ~max_tbs ~l1_bytes ~l1 =
  let gx, gy, bx, by = geometry l in
  let tb_threads = bx * by in
  let warps_per_tb = Cta_scheduler.warps_per_tb dev.cfg ~tb_threads in
  let code =
    match
      Decode.decode ~ws:dev.cfg.Config.warp_size
        ~global:(fun id -> Option.is_some arrays.(id))
        ~grid:(gx, gy) ~block:(bx, by) ~warps_per_tb l.prog
    with
    | Ok code -> code
    | Error (pc, reason) ->
      launch_error "kernel %s: pc %d: %s" l.prog.Bytecode.name pc reason
  in
  (* the lane loops shift a byte address to its line: [Config.validate]
     refuses other line sizes, but [Config.t] is a plain record *)
  let line_bytes = dev.cfg.Config.line_bytes in
  if line_bytes <= 0 || line_bytes land (line_bytes - 1) <> 0 then
    launch_error "line size %d is not a power of two" line_bytes;
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  let job =
    {
      Sm.cfg = dev.cfg;
      prog = l.prog;
      code;
      arrays;
      shared_specs =
        List.map (fun (_, id, size) -> (id, size)) l.prog.Bytecode.shared_arrays;
      scalar_values = scalars;
      grid_x = gx;
      grid_y = gy;
      block_x = bx;
      block_y = by;
      tb_threads;
      warps_per_tb;
      sched = l.sched;
      stats = Stats.create ();
      trace =
        (if l.trace then Trace.create ~sm:0 () else Trace.disabled);
      l2 = dev.l2;
      line_shift = log2 line_bytes;
      dram_free;
      bypass = bypass_flags l;
      prof = l.profile;
    }
  in
  let sms =
    Array.init dev.cfg.Config.num_sms (fun i ->
        let l1 = l1 i in
        Sm.create job i ~l1 ~policy:(policy dev l job ~max_tbs ~l1_bytes l1))
  in
  { job; sms; max_tbs; total_tbs = gx * gy; next_tb = 0 }

let room k sm = sm.Sm.resident_tbs < k.max_tbs && k.next_tb < k.total_tbs

let launch_next k sm =
  Sm.launch_tb sm k.next_tb;
  k.next_tb <- k.next_tb + 1

(* Run the kernels' contexts to completion.  Initial distribution, kernel
   by kernel: one TB per SM round-robin until capacity.  Then one event
   loop over every context, A's before B's: always step the context
   whose next issue is earliest, first index on ties.  Each context's
   next-event time is cached and recomputed only after that context
   steps (and is refilled): stepping one cannot change another's ready
   times — warps, barriers and policies are all per-context state, and
   the shared caches and DRAM only affect transaction times computed at
   issue.  The argmin scan is a flat int-array walk. *)
let run kernels =
  List.iter
    (fun k ->
      let continue_rr = ref true in
      while !continue_rr && k.next_tb < k.total_tbs do
        continue_rr := false;
        Array.iter
          (fun sm ->
            if room k sm then begin
              launch_next k sm;
              continue_rr := true
            end)
          k.sms
      done)
    kernels;
  let ctx_sm = Array.concat (List.map (fun k -> k.sms) kernels) in
  let ctx_kernel =
    Array.concat (List.map (fun k -> Array.map (fun _ -> k) k.sms) kernels)
  in
  let n_ctx = Array.length ctx_sm in
  let next_at = Array.make n_ctx max_int in
  let refresh c =
    let sm = ctx_sm.(c) in
    if Sm.has_warps sm then begin
      let t = Sm.next_event sm in
      if t = max_int then
        Sm.sim_error "kernel %s: barrier deadlock on SM %d"
          sm.Sm.job.Sm.prog.Bytecode.name sm.Sm.id;
      next_at.(c) <- t  (* already clamped to the SM's clock *)
    end
    else next_at.(c) <- max_int  (* drained *)
  in
  for c = 0 to n_ctx - 1 do
    refresh c
  done;
  let running = ref true in
  while !running do
    let best = ref (-1) in
    let best_at = ref max_int in
    for c = 0 to n_ctx - 1 do
      if next_at.(c) < !best_at then begin
        best := c;
        best_at := next_at.(c)
      end
    done;
    if !best < 0 then running := false  (* all contexts drained *)
    else begin
      let sm = ctx_sm.(!best) in
      (* the argmin already knows this SM's next event time: stepping at
         it skips a second scheduler scan *)
      Sm.step_at sm ~t:!best_at;
      let k = ctx_kernel.(!best) in
      while room k sm do
        launch_next k sm
      done;
      refresh !best
    end
  done;
  List.iter
    (fun k ->
      assert (k.next_tb = k.total_tbs);
      k.job.Sm.stats.Stats.cycles <-
        Array.fold_left (fun acc sm -> max acc sm.Sm.now) 0 k.sms)
    kernels

let launch ?args_base dev l =
  Obs.Span.with_span "gpu.launch"
    ~attrs:
      [
        ("kernel", Obs.Span.Str l.prog.Bytecode.name);
        ("grid", Obs.Span.Str (Printf.sprintf "%dx%d" (fst l.grid) (snd l.grid)));
        ( "block",
          Obs.Span.Str (Printf.sprintf "%dx%d" (fst l.block) (snd l.block)) );
      ]
  @@ fun launch_span ->
  (* the cycle clock restarts per launch; the warm L2 must not carry
     in-flight fill times from the previous kernel *)
  Cache.settle dev.l2;
  (* checks geometry, then the carveout, then occupancy *)
  let max_tbs = occupancy dev l in
  let carveout = resolve_carveout dev.cfg l in
  let base =
    match args_base with Some b -> b | None -> dev.cfg.Config.line_bytes
  in
  let arrays, scalars, _ = bind_args_from dev ~base l in
  let l1_bytes = Config.l1d_bytes dev.cfg ~smem_carveout:carveout in
  let k =
    kernel dev l ~arrays ~scalars ~dram_free:(ref 0) ~max_tbs ~l1_bytes
      ~l1:(fun _ -> new_l1 dev.cfg ~l1_bytes)
  in
  (match l.profile with
  | Some p ->
    let arrays_meta =
      List.filter_map
        (fun (name, id) ->
          match arrays.(id) with
          | Some ga ->
            Some
              {
                Profile.Collector.name;
                id;
                base = ga.Sm.base;
                bytes = Array.length ga.Sm.data * 4;
              }
          | None -> None)
        l.prog.Bytecode.array_ids
    in
    Profile.Collector.init p ~num_sms:dev.cfg.Config.num_sms
      ~l1_sets:(Cache.sets k.sms.(0).Sm.l1)
      ~line_bytes:dev.cfg.Config.line_bytes ~arrays:arrays_meta
      ~locs:l.prog.Bytecode.src_locs
  | None -> ());
  run [ k ];
  let stats = k.job.Sm.stats in
  (match l.profile with
  | Some p ->
    Array.iter
      (fun sm -> Profile.Collector.add_sm_cycles p ~sm:sm.Sm.id ~cycles:sm.Sm.now)
      k.sms
  | None -> ());
  Obs.Metrics.incr m_launches;
  Obs.Metrics.add m_sim_cycles stats.Stats.cycles;
  Obs.Metrics.add m_pool_fills
    (Array.fold_left (fun acc sm -> acc + sm.Sm.pool_gen - 1) 0 k.sms);
  Option.iter
    (fun s -> Obs.Span.add_attr s "cycles" (Obs.Span.Int stats.Stats.cycles))
    launch_span;
  (stats, k.job.Sm.trace)

(* ------------------------------------------------------------------ *)
(* Co-resident launches (CIAO-style spatial sharing)                    *)
(* ------------------------------------------------------------------ *)

(** Two kernels co-scheduled on the same SMs, each in a half partition:
    register file, warp slots and TB slots split evenly
    ({!Cta_scheduler.partitioned_max_tbs_per_sm}), each kernel keeping
    its own shared-memory carveout, with the remaining on-chip bytes a
    single L1D the two contend for.  Both kernels also share the L2 and
    the DRAM ports, so the interference regime CIAO targets — one
    kernel's misses evicting the other's working set — shows up in the
    per-kernel counters, which stay fully attributed (each context
    charges its own {!Stats.t}).

    Restrictions: both launches must come from devices created by
    {!create_shared_l2} off one another (disjoint memory namespaces,
    one L2), use compile-time schemes only ([runtime_throttle = `None] —
    the runtime controllers carry per-SM state that cannot be attributed
    to one kernel), and request neither traces nor profiles. *)
let launch_pair ?args_base_b dev_a la dev_b lb =
  if dev_a == dev_b then
    launch_error
      "launch_pair: the kernels need separate devices (create_shared_l2)";
  if dev_a.l2 != dev_b.l2 then
    launch_error "launch_pair: devices must share an L2 (create_shared_l2)";
  if dev_a.cfg <> dev_b.cfg then
    launch_error "launch_pair: devices must share one configuration";
  let check_simple which l =
    if l.runtime_throttle <> `None then
      launch_error
        "launch_pair: kernel %s (%s) uses runtime throttling; co-resident \
         mode supports compile-time schemes only"
        l.prog.Bytecode.name which;
    if l.trace then
      launch_error "launch_pair: tracing is not supported (kernel %s)"
        l.prog.Bytecode.name;
    if Option.is_some l.profile then
      launch_error "launch_pair: profiling is not supported (kernel %s)"
        l.prog.Bytecode.name
  in
  check_simple "A" la;
  check_simple "B" lb;
  let cfg = dev_a.cfg in
  Obs.Span.with_span "gpu.launch_pair"
    ~attrs:
      [
        ("kernel_a", Obs.Span.Str la.prog.Bytecode.name);
        ("kernel_b", Obs.Span.Str lb.prog.Bytecode.name);
      ]
  @@ fun _ ->
  Cache.settle dev_a.l2;
  let _, _, bxa, bya = geometry la in
  let _, _, bxb, byb = geometry lb in
  let carve_a = resolve_carveout cfg la in
  let carve_b = resolve_carveout cfg lb in
  let l1_bytes = cfg.Config.onchip_bytes - carve_a - carve_b in
  if l1_bytes <= 0 then
    launch_error
      "launch_pair: carveouts %dB + %dB leave no L1D of the %dB on-chip \
       memory"
      carve_a carve_b cfg.Config.onchip_bytes;
  let part_tbs which l carve ~tb_threads =
    let tbs =
      Cta_scheduler.partitioned_max_tbs_per_sm cfg ~parts:2 ~tb_threads
        ~num_regs:l.prog.Bytecode.num_regs
        ~shared_bytes:l.prog.Bytecode.shared_bytes ~smem_carveout:carve
    in
    if tbs <= 0 then
      launch_error
        "launch_pair: kernel %s (%s) has zero occupancy in its half-SM \
         partition"
        l.prog.Bytecode.name which;
    tbs
  in
  let max_tbs_a = part_tbs "A" la carve_a ~tb_threads:(bxa * bya) in
  let max_tbs_b = part_tbs "B" lb carve_b ~tb_threads:(bxb * byb) in
  (* disjoint cache-visible address ranges: B binds after A's top address
     (or at the caller-chosen [args_base_b], clamped to stay above it —
     callers interleaving pair and solo launches pass a fixed base so B's
     arrays keep stable addresses across the whole sequence) *)
  let arrays_a, scalars_a, top_a =
    bind_args_from dev_a ~base:cfg.Config.line_bytes la
  in
  let base_b =
    match args_base_b with Some b -> max b top_a | None -> top_a
  in
  let arrays_b, scalars_b, _ = bind_args_from dev_b ~base:base_b lb in
  let dram_free = ref 0 in
  let ka =
    kernel dev_a la ~arrays:arrays_a ~scalars:scalars_a ~dram_free
      ~max_tbs:max_tbs_a ~l1_bytes ~l1:(fun _ -> new_l1 cfg ~l1_bytes)
  in
  let kb =
    kernel dev_b lb ~arrays:arrays_b ~scalars:scalars_b ~dram_free
      ~max_tbs:max_tbs_b ~l1_bytes ~l1:(fun i -> ka.sms.(i).Sm.l1)
  in
  run [ ka; kb ];
  let stats_a = ka.job.Sm.stats and stats_b = kb.job.Sm.stats in
  Obs.Metrics.add m_launches 2;
  Obs.Metrics.add m_sim_cycles (stats_a.Stats.cycles + stats_b.Stats.cycles);
  (stats_a, stats_b)
