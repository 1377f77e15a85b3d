(** Executes a workload on the simulator under a throttling scheme.

    Schemes:
    - [Baseline] — untouched kernels at full TLP;
    - [Catt] — each kernel goes through the full {!Catt.Driver} pass
      (per-loop decisions, Figs. 4/5 transforms, carveout choice);
    - [Fixed (n, m)] — the BFTT-style uniform transformation: every loop of
      every kernel split by [n] (clamped per kernel to a divisor of its
      warp count) and TB residency reduced by [m].  Both rewrites go
      through {!Catt.Transform.gated_rewrite}, the sanitizer-gated
      fallback chain CATT's plans take too.

    Every run re-seeds the workload's inputs identically, executes the full
    launch sequence on a fresh device, and checks the CPU oracle — so a
    miscompiled transformation fails loudly rather than producing a fast
    wrong answer.  Results are memoized per (config, workload, scheme),
    and a cell whose scheme compiles to a launch sequence its cache shard
    already simulated is answered from that entry (the launch index). *)

module Config = Gpusim.Config
module Gpu = Gpusim.Gpu

let seed = 42

(** Re-exported from {!Scheme} so [Runner.Baseline] etc. keep working;
    the single definition lives there, shared with CLI flags, the serve
    wire protocol, and cache keys. *)
type scheme = Scheme.t =
  | Baseline
  | Catt
  | Fixed of int * int
  | Dynamic
  | CcwsSched
  | DawsSched
  | Swl of int
  | Bypass
  | CattSa
  | Ciao
  | Ata

let scheme_label = Scheme.label
let scheme_of_string = Scheme.of_string

type kernel_stats = {
  kernel_name : string;
  stats : Gpusim.Stats.t;  (** aggregated over repeated launches *)
  tlp : int * int;  (** active (warps per TB, TBs per SM) *)
  trace : Gpusim.Trace.t option;
  profile : Profile.Collector.t option;
      (** when profiled, one collector per kernel, aggregated over its
          repeated launches *)
}

type app_run = {
  workload : string;
  scheme : scheme;
  kernels : kernel_stats list;  (** launch order, deduplicated by name *)
  total_cycles : int;
  verified : (unit, string) result;
  catt_analyses : (string * Catt.Driver.t) list;  (** only for [Catt] *)
  manifest : Manifest.t option;
      (** provenance of a simulated (not memo-served) run; persisted
          with the cache entry but never part of the simulated payload *)
}

(* ------------------------------------------------------------------ *)
(* Requests: the one description of "run this cell like so"            *)
(* ------------------------------------------------------------------ *)

(** A single record describing one execution of a (config, workload,
    scheme) cell, sim flags included.  Build one with {!Request.make} and
    hand it to {!exec} (cached) or {!exec_uncached}; {!run} is the one
    flag-free shorthand left, for the sweeps below. *)
module Request = struct
  type t = {
    cfg : Config.t;
    workload : Workloads.Workload.t;
    scheme : Scheme.t;
    trace : bool;  (** collect per-kernel access traces (bypasses cache) *)
    profile : bool;  (** attach a {!Profile.Collector} per kernel *)
    timeline : bool;  (** with [profile], also record the cycle timeline *)
    tenant : string option;
        (** disk-cache shard; [None] uses the shared top-level cache *)
    on_device : (Gpu.device -> unit) option;
        (** observe the final device state before it is dropped *)
  }

  let make ?(trace = false) ?(profile = false) ?(timeline = false) ?tenant
      ?on_device cfg workload scheme =
    { cfg; workload; scheme; trace; profile; timeline; tenant; on_device }

  (** Trace/profile/timeline payloads and device observers are never
      persisted, so such requests always simulate. *)
  let bypasses_cache r =
    r.trace || r.profile || r.timeline || Option.is_some r.on_device
end

(** Where {!exec_with_source} found the result.  [Disk] covers the
    cell's own entry and an entry simulated under the same launch key.
    [Coalesced] marks a request that joined an identical in-flight
    computation (the single-flight table) and received the leader's
    result without simulating — served without simulation work, like a
    memo hit. *)
type source = Memo | Disk | Simulated | Coalesced

let source_label = function
  | Memo -> "memo"
  | Disk -> "cache hit"
  | Simulated -> "cache miss"
  | Coalesced -> "coalesced"

(* ------------------------------------------------------------------ *)
(* Per-kernel preparation under a scheme                               *)
(* ------------------------------------------------------------------ *)

type prepared = {
  prog : Gpusim.Bytecode.program;
  carveout : int option;
  prepared_tlp : int * int;
  analysis : Catt.Driver.t option;
}

let largest_divisor_leq value cap =
  List.fold_left
    (fun acc d -> if d <= cap then d else acc)
    1
    (Catt.Throttle.divisors value)

(** The source a [Fixed (n, m)] scheme actually executes, with its TLP and
    carveout.  Shared with the sanitize-all artifact, so what that sweep
    checks is exactly what runs. *)
type fixed_variant = {
  fixed_kernel : Minicuda.Ast.kernel;
  fixed_tlp : int * int;
      (** (warps per TB, TBs per SM) of [fixed_kernel]: the whole TB's
          warps when the gate kept no split *)
  fixed_carveout : int option;
}

(* the occupancy [prog] reaches at [geo]'s launch shape *)
let occupancy cfg (geo : Catt.Analysis.geometry) prog =
  Catt.Occupancy.configure cfg
    ~grid_tbs:(geo.Catt.Analysis.grid_x * geo.Catt.Analysis.grid_y)
    ~tb_threads:(geo.Catt.Analysis.block_x * geo.Catt.Analysis.block_y)
    ~num_regs:prog.Gpusim.Bytecode.num_regs
    ~shared_bytes:prog.Gpusim.Bytecode.shared_bytes ()

let fixed_variant cfg kernel geo ~n ~m =
  let prog0 = Gpusim.Codegen.compile_kernel kernel in
  let tb_threads = geo.Catt.Analysis.block_x * geo.Catt.Analysis.block_y in
  match occupancy cfg geo prog0 with
  | Error msg -> Error msg
  | Ok occ ->
    let warps_per_tb = occ.Catt.Occupancy.warps_per_tb in
    let tbs = occ.Catt.Occupancy.tbs_per_sm in
    let n' = largest_divisor_leq warps_per_tb n in
    let m' = min m (tbs - 1) in
    let pad =
      if m' > 0 then
        Catt.Transform.plan_tb_throttle cfg ~tb_threads
          ~num_regs:prog0.Gpusim.Bytecode.num_regs
          ~shared_bytes:prog0.Gpusim.Bytecode.shared_bytes
          ~target_tbs:(tbs - m')
      else None
    in
    (* every loop split by n', through the gate CATT's plans go through *)
    let plan =
      List.init (Catt.Transform.count_top_loops kernel) (fun id -> (id, n'))
    in
    let g =
      Catt.Transform.gated_rewrite ?pad_bytes:(Option.map snd pad) geo kernel
        ~plan ~warps_per_tb ~warp_size:cfg.Config.warp_size
    in
    let carveout, tbs' =
      match pad with
      | Some (c, _) when g.Catt.Transform.pad_kept -> (Some c, tbs - m')
      | _ -> (None, tbs)
    in
    let warps =
      if g.Catt.Transform.splits = [] then warps_per_tb else warps_per_tb / n'
    in
    Ok
      {
        fixed_kernel = g.Catt.Transform.rewritten;
        fixed_tlp = (warps, tbs');
        fixed_carveout = carveout;
      }

let prepare_fixed cfg kernel geo ~n ~m =
  match fixed_variant cfg kernel geo ~n ~m with
  | Error _ as e -> e
  | Ok v ->
    Ok
      {
        prog = Gpusim.Codegen.compile_kernel v.fixed_kernel;
        carveout = v.fixed_carveout;
        prepared_tlp = v.fixed_tlp;
        analysis = None;
      }

let prepare_catt ?model cfg kernel geo =
  match Catt.Driver.analyze ?model cfg kernel geo with
  | Error _ as e -> e
  | Ok t ->
    let transformed = t.Catt.Driver.transformed in
    (* the kernel-level TLP: the strongest of the per-loop selections *)
    let tlp =
      List.fold_left
        (fun (bw, bt) (l : Catt.Driver.loop_decision) ->
          let d = l.Catt.Driver.decision in
          if d.Catt.Throttle.throttled then
            ( min bw d.Catt.Throttle.active_warps_per_tb,
              min bt d.Catt.Throttle.active_tbs )
          else (bw, bt))
        (fst t.Catt.Driver.baseline_tlp, t.Catt.Driver.resident_tbs)
        t.Catt.Driver.loops
    in
    Ok
      {
        prog = Gpusim.Codegen.compile_kernel transformed;
        carveout = Some t.Catt.Driver.final_carveout;
        prepared_tlp = tlp;
        analysis = Some t;
      }

let prepare_baseline cfg kernel geo =
  let prog = Gpusim.Codegen.compile_kernel kernel in
  let tlp =
    match occupancy cfg geo prog with
    | Ok occ -> (occ.Catt.Occupancy.warps_per_tb, occ.Catt.Occupancy.tbs_per_sm)
    | Error _ -> (0, 0)
  in
  { prog; carveout = None; prepared_tlp = tlp; analysis = None }

(* ------------------------------------------------------------------ *)
(* Whole-application execution                                         *)
(* ------------------------------------------------------------------ *)

(* geometry per kernel comes from its first launch *)
let geometry_of_kernel (w : Workloads.Workload.t) name =
  match
    List.find_opt
      (fun (l : Workloads.Workload.kernel_launch) -> l.kernel_name = name)
      w.Workloads.Workload.launches
  with
  | Some l -> Workloads.Workload.geometry_of l
  | None -> invalid_arg (Printf.sprintf "kernel %s is never launched" name)

(* one simulated (workload, scheme) cell — the unit the bench gate's
   cells/sec throughput counts *)
let m_cells = Obs.Metrics.counter "sim.cells"

(** Prepare every kernel of [w] under [scheme], in source order. *)
let prepare_all cfg (w : Workloads.Workload.t) scheme =
  let prepared =
    List.fold_left
      (fun acc (name, kernel) ->
        match acc with
        | Error _ -> acc
        | Ok ps ->
          let geo = geometry_of_kernel w name in
          let p =
            match scheme with
            | Baseline | Dynamic | CcwsSched | DawsSched | Swl _ | Bypass
            | Ciao | Ata ->
              Ok (prepare_baseline cfg kernel geo)
            | Catt -> prepare_catt cfg kernel geo
            | CattSa -> prepare_catt ~model:`Sa cfg kernel geo
            | Fixed (n, m) -> prepare_fixed cfg kernel geo ~n ~m
          in
          (match p with
          | Ok p -> Ok ((name, p) :: ps)
          | Error msg ->
            Error
              (Printf.sprintf "%s, kernel %s, scheme %s:\n%s"
                 w.Workloads.Workload.name name (scheme_label scheme) msg)))
      (Ok [])
      (Workloads.Workload.kernels w)
  in
  Result.map List.rev prepared

(* repeated launches of one kernel aggregate into a single entry, with
   cycles summed (Stats.accumulate alone takes the max) *)
let note_kernel acc ~name ~tlp ~trace ~profile stats =
  match List.assoc_opt name !acc with
  | Some ks ->
    ks.stats.Gpusim.Stats.cycles <-
      ks.stats.Gpusim.Stats.cycles + stats.Gpusim.Stats.cycles;
    let cycles = ks.stats.Gpusim.Stats.cycles in
    Gpusim.Stats.accumulate ~into:ks.stats stats;
    ks.stats.Gpusim.Stats.cycles <- cycles
  | None ->
    acc := !acc @ [ (name, { kernel_name = name; stats; tlp; trace; profile }) ]

(* One launch of [w]'s kernel under [scheme], with its prepared TLP.  A
   compile-time scheme throttles nothing at run time, which is what lets
   co-resident pairs share this. *)
let launch_of ?(trace = false) ?profile cfg (w : Workloads.Workload.t) scheme
    prepared (l : Workloads.Workload.kernel_launch) =
  let p = List.assoc l.kernel_name prepared in
  ( Gpu.default_launch ?smem_carveout:p.carveout ~trace
      ~runtime_throttle:
        (match scheme with
        | Dynamic -> `Dyncta
        | CcwsSched -> `Ccws
        | DawsSched -> `Daws
        | Swl k -> `Swl k
        | Ciao -> `Ciao
        | Ata -> `Ata
        | Baseline | Catt | CattSa | Fixed _ | Bypass -> `None)
      ~bypass_arrays:
        (if scheme = Bypass then
           Catt.Bypass.divergent_arrays cfg
             (Workloads.Workload.find_kernel w l.kernel_name)
             (Workloads.Workload.geometry_of l)
         else [])
      ~prog:p.prog ~grid:l.grid ~block:l.block ?profile l.args,
    p.prepared_tlp )

(* the run of [kernels] (launch order, deduplicated by name) with its
   verdict; tlp and analyses are the cell's own preparation *)
let app_run_of (w : Workloads.Workload.t) scheme prepared kernels ~verified
    ~manifest =
  {
    workload = w.Workloads.Workload.name;
    scheme;
    kernels;
    total_cycles =
      List.fold_left (fun t ks -> t + ks.stats.Gpusim.Stats.cycles) 0 kernels;
    verified;
    catt_analyses =
      List.filter_map
        (fun (name, p) ->
          match p.analysis with Some a -> Some (name, a) | None -> None)
        prepared;
    manifest;
  }

(* the run whose launches noted their stats into [acc], verified against
   the final device state *)
let verified_run_of (w : Workloads.Workload.t) scheme prepared acc dev ~manifest
    =
  app_run_of w scheme prepared (List.map snd !acc)
    ~verified:(w.Workloads.Workload.verify dev) ~manifest

(** [w]'s launch sequence under [scheme]: each launch with its kernel's
    name and prepared TLP, in order. *)
let launches_of ?(trace = false) ?(collector_for = fun _ -> None) cfg
    (w : Workloads.Workload.t) scheme prepared =
  List.map
    (fun (l : Workloads.Workload.kernel_launch) ->
      let launch, tlp =
        launch_of ~trace ?profile:(collector_for l.kernel_name) cfg w scheme
          prepared l
      in
      (l.kernel_name, launch, tlp))
    w.Workloads.Workload.launches

(** The {!Cache.launch_key} of a launch sequence; [None] when a launch
    cannot be rendered (a carveout {!Gpu.launch} refuses, which the
    simulation then reports). *)
let launch_key_of cfg (w : Workloads.Workload.t) launches =
  match Gpu.launch_digests cfg (List.map (fun (_, l, _) -> l) launches) with
  | digests ->
    Some (Cache.launch_key cfg ~workload:w.Workloads.Workload.name ~seed digests)
  | exception Gpu.Launch_error _ -> None

(* Run a prepared launch sequence on a fresh device from the input seed,
   verify it, and hand the final device state to [on_device] (e.g. to
   digest the memory image for the golden-grid bit-identity snapshots)
   before it goes out of scope. *)
let simulate ?on_device ~trace ~launch_key ~started cfg
    (w : Workloads.Workload.t) scheme prepared launches =
  let dev = Gpu.create cfg in
  w.Workloads.Workload.setup dev (Gpu_util.Rng.create seed);
  let acc : (string * kernel_stats) list ref = ref [] in
  List.iter
    (fun (name, launch, tlp) ->
      let stats, tr = Gpu.launch dev launch in
      note_kernel acc ~name ~tlp
        ~trace:(if trace then Some tr else None)
        ~profile:launch.Gpu.profile stats)
    launches;
  (match on_device with Some f -> f dev | None -> ());
  Obs.Metrics.incr m_cells;
  verified_run_of w scheme prepared acc dev
    ~manifest:
      (Some
         (Manifest.make ?launch_key cfg ~workload:w.Workloads.Workload.name
            ~scheme:(scheme_label scheme) ~seed
            ~wall_seconds:(Unix.gettimeofday () -. started)))

(* ------------------------------------------------------------------ *)
(* JSON round-trip (the persistent cache's wire format)                *)
(* ------------------------------------------------------------------ *)

module Json = Gpu_util.Json

(* bump when the layout below changes — or when the transformation a scheme
   applies changes, since cached cycles would then describe a kernel that is
   no longer produced (v2: sanitizer-gated BFTT splitting; v3: a BFTT
   kernel whose splits the gate refused reports its whole TB's warps) *)
let cache_format_version = 3

let kernel_stats_to_json (ks : kernel_stats) =
  Json.Obj
    [
      ("kernel", Json.String ks.kernel_name);
      ( "tlp",
        Json.List [ Json.Int (fst ks.tlp); Json.Int (snd ks.tlp) ] );
      ("stats", Gpusim.Stats.to_json ks.stats);
    ]

(** Everything except traces (trace runs bypass the cache) and the CATT
    analyses, which are static, deterministic and cheap — {!run_of_json}
    recomputes them instead of persisting the whole analysis tree. *)
let run_to_json (r : app_run) =
  Json.Obj
    [
      ("version", Json.Int cache_format_version);
      ("workload", Json.String r.workload);
      ("scheme", Json.String (scheme_label r.scheme));
      ("total_cycles", Json.Int r.total_cycles);
      ( "verified",
        match r.verified with
        | Ok () -> Json.Null
        | Error msg -> Json.String msg );
      ("kernels", Json.List (List.map kernel_stats_to_json r.kernels));
      ( "manifest",
        match r.manifest with
        | Some m -> Manifest.to_json m
        | None -> Json.Null );
    ]

let analyses_for cfg (w : Workloads.Workload.t) scheme =
  let collect model =
    List.filter_map
      (fun (name, kernel) ->
        match
          Catt.Driver.analyze ~model cfg kernel (geometry_of_kernel w name)
        with
        | Ok t -> Some (name, t)
        | Error _ -> None)
      (Workloads.Workload.kernels w)
  in
  match scheme with
  | Catt -> collect `Eq8
  | CattSa -> collect `Sa
  | Baseline | Fixed _ | Dynamic | CcwsSched | DawsSched | Swl _ | Bypass
  | Ciao | Ata ->
    []

(* the simulated payload of an entry of [w] in the current format:
   per-kernel stats with the stored tlp, and the verdict *)
let payload_of_json (w : Workloads.Workload.t) j =
  if Json.to_int (Json.member "version" j) <> cache_format_version then
    raise (Json.Type_error "stale cache format");
  if Json.to_str (Json.member "workload" j) <> w.Workloads.Workload.name then
    raise (Json.Type_error "workload mismatch");
  let kernels =
    List.map
      (fun kj ->
        let stats =
          match Gpusim.Stats.of_json (Json.member "stats" kj) with
          | Ok s -> s
          | Error msg -> raise (Json.Type_error msg)
        in
        let tlp =
          match Json.to_list (Json.member "tlp" kj) with
          | [ a; b ] -> (Json.to_int a, Json.to_int b)
          | _ -> raise (Json.Type_error "tlp must be a pair")
        in
        {
          kernel_name = Json.to_str (Json.member "kernel" kj);
          stats;
          tlp;
          trace = None;
          profile = None;
        })
      (Json.to_list (Json.member "kernels" j))
  in
  let verified =
    match Json.member "verified" j with
    | Json.Null -> Ok ()
    | v -> Error (Json.to_str v)
  in
  (kernels, verified)

let run_of_json cfg (w : Workloads.Workload.t) scheme json =
  Json.decode
    (fun j ->
      let kernels, verified = payload_of_json w j in
      if Json.to_str (Json.member "scheme" j) <> scheme_label scheme then
        raise (Json.Type_error "scheme mismatch");
      {
        workload = w.Workloads.Workload.name;
        scheme;
        kernels;
        total_cycles = Json.to_int (Json.member "total_cycles" j);
        verified;
        catt_analyses = analyses_for cfg w scheme;
        manifest =
          (* lenient: entries written before manifests existed (or with a
             stale manifest version) still yield their simulated payload *)
          (match Json.member_opt "manifest" j with
          | None | Some Json.Null -> None
          | Some mj -> (
            match Manifest.of_json mj with Ok m -> Some m | Error _ -> None));
      })
    json

(* ------------------------------------------------------------------ *)
(* One cell past the disk cache: prepare, key, reuse or simulate        *)
(* ------------------------------------------------------------------ *)

let m_reused = Obs.Metrics.counter "runner.reused"
(** Cells answered from an entry simulated under the same launch key. *)

(* The stats and verdict of the entry the launch index names, decoded
   without the CATT pass, and only from an entry of this workload that
   carries this very launch key; each kernel takes the tlp of this
   cell's own preparation. *)
let reused_of_json (w : Workloads.Workload.t) prepared ~launch_key json =
  Json.decode
    (fun j ->
      let carried =
        Option.bind (Json.member_opt "manifest" j) (fun m ->
            match Json.member_opt "launch_key" m with
            | Some (Json.String k) -> Some k
            | Some _ | None -> None)
      in
      if carried <> Some launch_key then
        raise (Json.Type_error "the entry carries another launch key");
      let kernels, verified = payload_of_json w j in
      ( List.map
          (fun ks ->
            match List.assoc_opt ks.kernel_name prepared with
            | Some p -> { ks with tlp = p.prepared_tlp }
            | None -> raise (Json.Type_error "a kernel the workload lacks"))
          kernels,
        verified ))
    json

(* the cell's run from the entry simulated under [launch_key], if the
   shard's launch index names a usable one *)
let reuse ?tenant cfg (w : Workloads.Workload.t) scheme prepared ~launch_key
    ~started =
  Cache.find_launch ?tenant launch_key (reused_of_json w prepared ~launch_key)
  |> Option.map (fun (kernels, verified) ->
         Obs.Metrics.incr m_reused;
         app_run_of w scheme prepared kernels ~verified
           ~manifest:
             (Some
                (Manifest.make ~launch_key cfg
                   ~workload:w.Workloads.Workload.name
                   ~scheme:(scheme_label scheme) ~seed
                   ~wall_seconds:(Unix.gettimeofday () -. started))))

(* [req]'s cell, prepared and then simulated.  With [reuse], the launch
   key sits between the two: a cell whose launch sequence the shard's
   index already names is answered from that entry as a [Disk] hit, and
   a simulated one carries its key into the manifest, so its store
   indexes it. *)
let exec_cell ~reuse:reusing (req : Request.t) =
  let { Request.cfg; workload = w; scheme; trace; profile; timeline; tenant;
        on_device } =
    req
  in
  Obs.Span.with_span "runner.simulate"
    ~attrs:
      [
        ("workload", Obs.Span.Str w.Workloads.Workload.name);
        ("scheme", Obs.Span.Str (scheme_label scheme));
      ]
  @@ fun _ ->
  let started = Unix.gettimeofday () in
  (* one collector per kernel name: repeated launches of the same kernel
     aggregate into it, matching how stats accumulate *)
  let collectors : (string, Profile.Collector.t) Hashtbl.t = Hashtbl.create 4 in
  let collector_for name =
    if not profile then None
    else
      Some
        (match Hashtbl.find_opt collectors name with
        | Some c -> c
        | None ->
          let c = Profile.Collector.create () in
          if timeline then Profile.Collector.enable_timeline c;
          Hashtbl.add collectors name c;
          c)
  in
  match prepare_all cfg w scheme with
  | Error _ as e -> e
  | Ok prepared -> (
    let launches = launches_of ~trace ~collector_for cfg w scheme prepared in
    let launch_key = if reusing then launch_key_of cfg w launches else None in
    match
      Option.bind launch_key (fun launch_key ->
          reuse ?tenant cfg w scheme prepared ~launch_key ~started)
    with
    | Some r -> Ok (r, Disk)
    | None ->
      Ok
        ( simulate ?on_device ~trace ~launch_key ~started cfg w scheme prepared
            launches,
          Simulated ))

(** One cell, always simulated: no cache is read or written. *)
let exec_uncached req = Result.map fst (exec_cell ~reuse:false req)

(* ------------------------------------------------------------------ *)
(* The cache ladder: memo, single flight, disk, launch index, simulation *)
(* ------------------------------------------------------------------ *)

(** One kind of cached result — a solo cell's run, or a co-resident
    pair's two — with what the ladder needs to keep, persist, find and
    compute it.  ['req] is what decoding and simulating need beyond the
    config.  Each instance is built once, at module initialisation. *)
type ('req, 'a) ladder = {
  memo : (string, 'a) Hashtbl.t;  (** keyed by {!memo_key_raw} *)
  flights : ('a * source, string) result Gpu_util.Single_flight.t;
  encode : 'a -> Json.t;
  decode : Config.t -> 'req -> Json.t -> ('a, string) result;
  launch_key : 'a -> string option;
      (** the launch sequence a stored result is indexed under *)
  compute : Config.t -> 'req -> ('a * source, string) result;
      (** past a disk miss: a reused ([Disk]) or [Simulated] result *)
}

(* pool workers race on the memos, so every access is locked; simulation
   itself runs outside the lock (each run owns its device) *)
let memo_lock = Mutex.create ()

(* the in-process memo is tenant-qualified like the disk shards: tenant
   B's first request must not be short-circuited by tenant A's memo entry,
   or B's shard would never be populated *)
let memo_key_raw ?tenant cfg ~workload ~scheme =
  let base = Cache.key cfg ~workload ~scheme ~seed in
  match tenant with None -> base | Some t -> base ^ "|tenant=" ^ t

let memo_key cfg (w : Workloads.Workload.t) scheme =
  memo_key_raw cfg ~workload:w.Workloads.Workload.name
    ~scheme:(scheme_label scheme)

let m_coalesced = Obs.Metrics.counter "runner.coalesced"
(** Requests that joined an in-flight identical computation. *)

let coalesced_total () = Obs.Metrics.value m_coalesced

(** Cells answered from another scheme's entry with the same launch key. *)
let reused_total () = Obs.Metrics.value m_reused

(** Cells actually simulated ({!exec_uncached} completions, co-resident
    pairs included) — the denominator the dedup proof counts. *)
let simulated_total () = Obs.Metrics.value m_cells

(* Leaders deposit their trace id on the flight; joiners record it, so a
   coalesced request's span links to the flight that computed it. *)
let flight_tag () =
  match Obs.Span.current_trace_id () with Some tid -> tid | None -> ""

let progress : bool ref = ref false
(** When set, one line per simulated or cache-loaded run goes to stderr. *)

(* a string attribute on [span], when tracing is on *)
let add_str span key v =
  match span with Some s -> Obs.Span.add_attr s key (Obs.Span.Str v) | None -> ()

(* the memo-hit path, without a closure: [find_opt] cannot raise *)
let memo_find memo key =
  Mutex.lock memo_lock;
  let r = Hashtbl.find_opt memo key in
  Mutex.unlock memo_lock;
  r

(** Climb [ladder] for the cell labelled [workload] and [scheme]: the
    in-process memo, then the single-flight table, then the disk cache,
    then the ladder's [compute] — for a solo cell the launch index, then
    a real simulation — persisted on completion.  Concurrent
    identical cells — pool workers racing on the same cell, from any
    tenant — coalesce: exactly one leader reads the disk or simulates,
    every follower blocks on the flight entry and receives the leader's
    result as [Coalesced], adopting it into its own tenant's memo entry
    and disk shard.  Simulation failures (occupancy refusals, sanitizer
    diagnostics) come back as [Error] with the located report, are
    fanned out to every waiter, and are never cached.  A joiner records
    the leader's trace id on [span]. *)
let climb ladder ~span ?tenant cfg ~workload ~scheme req =
  let key = memo_key_raw ?tenant cfg ~workload ~scheme in
  match memo_find ladder.memo key with
  | Some r -> Ok (r, Memo)
  | None -> (
    let adopt r =
      Mutex.protect memo_lock (fun () -> Hashtbl.replace ladder.memo key r)
    in
    let store r =
      Cache.store ?tenant ?launch_key:(ladder.launch_key r) cfg ~workload
        ~scheme ~seed (ladder.encode r)
    in
    let compute () =
      match
        Cache.find ?tenant cfg ~workload ~scheme ~seed (ladder.decode cfg req)
      with
      | Some r -> Ok (r, Disk)
      | None -> (
        match ladder.compute cfg req with
        | Error _ as e -> e
        | Ok (r, _) as ok ->
          store r;
          ok)
    in
    let joined leader_tag =
      Obs.Metrics.incr m_coalesced;
      if leader_tag <> "" then add_str span "leader_trace_id" leader_tag
    in
    (* Keyed by the tenant-INDEPENDENT cache key: results are
       deterministic per cell, so concurrent identical requests from
       different tenants can share one computation — each follower still
       adopts the result into its own memo entry and disk shard, so
       per-tenant isolation of stored results survives coalescing. *)
    match
      Gpu_util.Single_flight.run_tagged ladder.flights
        (memo_key_raw cfg ~workload ~scheme)
        ~tag:(flight_tag ()) compute
    with
    | `Led (Error _ as e) -> e
    | `Led (Ok (r, _) as ok) ->
      adopt r;
      ok
    | `Joined (leader_tag, (Error _ as e)) ->
      joined leader_tag;
      e
    | `Joined (leader_tag, Ok (r, _)) ->
      joined leader_tag;
      (* fan-out: this request did no simulation work, but its tenant
         still gets its own shard entry (so the next cold process hits
         disk) and its own memo entry.  A shard that already holds the
         entry — the one the leader just read, when both share a
         tenant — is left alone. *)
      if not (Cache.mem ?tenant cfg ~workload ~scheme ~seed) then store r;
      adopt r;
      Ok (r, Coalesced))

(** Solo cells, one run per (config, workload, scheme). *)
let cell_ladder : (Request.t, app_run) ladder =
  {
    memo = Hashtbl.create 64;
    flights = Gpu_util.Single_flight.create ();
    encode = run_to_json;
    decode = (fun cfg r -> run_of_json cfg r.Request.workload r.Request.scheme);
    launch_key =
      (fun r -> Option.bind r.manifest (fun m -> m.Manifest.launch_key));
    compute = (fun _ req -> exec_cell ~reuse:true req);
  }

(** One cell through {!cell_ladder} ({!climb}); a request whose payload
    is never persisted ({!Request.bypasses_cache}) always simulates.  The
    second component says where the result came from — the serve layer
    uses it for per-tenant hit/miss attribution. *)
let exec_with_source (req : Request.t) =
  let w = req.Request.workload and scheme = req.Request.scheme in
  Obs.Span.with_span "runner.run"
    ~attrs:
      [
        ("workload", Obs.Span.Str w.Workloads.Workload.name);
        ("scheme", Obs.Span.Str (scheme_label scheme));
      ]
  @@ fun span ->
  if Request.bypasses_cache req then begin
    add_str span "source" "simulated (uncached)";
    Result.map (fun r -> (r, Simulated)) (exec_uncached req)
  end
  else
    match
      climb cell_ladder ~span ?tenant:req.Request.tenant req.Request.cfg
        ~workload:w.Workloads.Workload.name ~scheme:(scheme_label scheme) req
    with
    | Error _ as e -> e
    | Ok (r, source) as ok ->
      add_str span "source" (source_label source);
      if !progress && source <> Memo then
        Printf.eprintf "[run] %-12s %-16s %10d cycles  (%s)\n%!" r.workload
          (scheme_label r.scheme) r.total_cycles (source_label source);
      ok

(** The single entry point every caller funnels through. *)
let exec req = Result.map fst (exec_with_source req)

(** {!exec}, unwrapped: the one place a preparation failure turns into an
    exception, carrying the full located diagnostic report. *)
let run cfg w scheme =
  match exec (Request.make cfg w scheme) with
  | Ok r -> r
  | Error msg -> failwith msg

(* ------------------------------------------------------------------ *)
(* Co-resident pairs (CIAO direction: two kernels, one SM partition)   *)
(* ------------------------------------------------------------------ *)

(* co-resident mode accepts only compile-time schemes: runtime throttlers
   carry per-SM scheduler state the pair mode cannot attribute *)
let check_static wa sa wb sb =
  let refuse (w : Workloads.Workload.t) s =
    Error
      (Printf.sprintf
         "co-resident mode requires a compile-time scheme; %s requested %s"
         w.Workloads.Workload.name (scheme_label s))
  in
  if not (Scheme.is_static sa) then refuse wa sa
  else if not (Scheme.is_static sb) then refuse wb sb
  else Ok ()

(** Run two workloads co-resident on one simulated GPU: launches are
    zipped in order, each common position co-scheduled through
    {!Gpu.launch_pair} (half-SM partitions, one shared L1D/L2/DRAM),
    and whichever workload has launches left over finishes solo on the
    then-idle machine — under the same disjoint address split as the
    pair phase, so the warm shared L2 can never serve it the other
    kernel's lines.  Both CPU oracles still verify, and every counter
    stays attributed to its kernel.  Only compile-time schemes are
    accepted ({!Scheme.is_static}).  This entry point always simulates;
    {!run_co_resident_with_source} layers the pair-aware cache (memo,
    disk shard, single flight) on top. *)
let run_co_resident_uncached cfg (wa : Workloads.Workload.t) scheme_a
    (wb : Workloads.Workload.t) scheme_b =
  match check_static wa scheme_a wb scheme_b with
  | Error _ as e -> e
  | Ok () -> (
    match (prepare_all cfg wa scheme_a, prepare_all cfg wb scheme_b) with
    | Error e, _ | _, Error e -> Error e
    | Ok prep_a, Ok prep_b -> (
      Obs.Span.with_span "runner.co_resident"
        ~attrs:
          [
            ("workload_a", Obs.Span.Str wa.Workloads.Workload.name);
            ("workload_b", Obs.Span.Str wb.Workloads.Workload.name);
          ]
      @@ fun _ ->
      let dev_a = Gpu.create cfg in
      let dev_b = Gpu.create_shared_l2 dev_a in
      wa.Workloads.Workload.setup dev_a (Gpu_util.Rng.create seed);
      wb.Workloads.Workload.setup dev_b (Gpu_util.Rng.create seed);
      let mk_launch_a = launch_of cfg wa scheme_a prep_a
      and mk_launch_b = launch_of cfg wb scheme_b prep_b in
      let acc_a : (string * kernel_stats) list ref = ref [] in
      let acc_b : (string * kernel_stats) list ref = ref [] in
      let note acc (l : Workloads.Workload.kernel_launch) tlp stats =
        note_kernel acc ~name:l.kernel_name ~tlp ~trace:None ~profile:None
          stats
      in
      try
        (* one fixed address split for the whole sequence: A binds from
           the default base, B from above the top address of A's largest
           launch.  The shared L2 stays warm across launches, so solo
           tail launches (unequal launch counts) must keep the same
           disjoint layout as the pair phase — otherwise the solo kernel
           would alias the other kernel's still-resident lines and
           collect spurious hits. *)
        let base_b =
          List.fold_left
            (fun acc la ->
              let launch_a, _ = mk_launch_a la in
              max acc
                (Gpu.args_top dev_a ~base:cfg.Config.line_bytes launch_a))
            cfg.Config.line_bytes wa.Workloads.Workload.launches
        in
        let rec go las lbs =
          match (las, lbs) with
          | [], [] -> ()
          | la :: ras, lb :: rbs ->
            let launch_a, tlp_a = mk_launch_a la in
            let launch_b, tlp_b = mk_launch_b lb in
            let stats_a, stats_b =
              Gpu.launch_pair ~args_base_b:base_b dev_a launch_a dev_b
                launch_b
            in
            note acc_a la tlp_a stats_a;
            note acc_b lb tlp_b stats_b;
            go ras rbs
          | la :: ras, [] ->
            let launch_a, tlp_a = mk_launch_a la in
            let stats, _ = Gpu.launch dev_a launch_a in
            note acc_a la tlp_a stats;
            go ras []
          | [], lb :: rbs ->
            let launch_b, tlp_b = mk_launch_b lb in
            let stats, _ = Gpu.launch ~args_base:base_b dev_b launch_b in
            note acc_b lb tlp_b stats;
            go [] rbs
        in
        go wa.Workloads.Workload.launches wb.Workloads.Workload.launches;
        Obs.Metrics.incr m_cells;
        Ok
          ( verified_run_of wa scheme_a prep_a acc_a dev_a ~manifest:None,
            verified_run_of wb scheme_b prep_b acc_b dev_b ~manifest:None )
      with Gpu.Launch_error msg -> Error msg))

(* --- pair-aware caching --------------------------------------------- *)

(* bump when the pair layout (or launch_pair semantics) changes *)
let pair_cache_format_version = 1

let pair_to_json (ra, rb) =
  Json.Obj
    [
      ("version", Json.Int pair_cache_format_version);
      ("a", run_to_json ra);
      ("b", run_to_json rb);
    ]

let pair_of_json cfg ((w1, s1), (w2, s2)) json =
  match
    Json.decode
      (fun j ->
        if Json.to_int (Json.member "version" j) <> pair_cache_format_version
        then raise (Json.Type_error "stale pair cache format");
        (Json.member "a" j, Json.member "b" j))
      json
  with
  | Error _ as e -> e
  | Ok (ja, jb) -> (
    match (run_of_json cfg w1 s1 ja, run_of_json cfg w2 s2 jb) with
    | Ok ra, Ok rb -> Ok (ra, rb)
    | Error msg, _ | _, Error msg -> Error msg)

(** The canonical (order-normalized) identity of a co-resident cell: the
    pair is a *set* of two (workload, scheme) members, so (A, B) and
    (B, A) address the same cache entry.  Returns the members in
    canonical order, the cache labels, and whether the caller's order
    was swapped to get there — lookups swap attribution back on the way
    out. *)
let pair_identity (wa : Workloads.Workload.t) sa (wb : Workloads.Workload.t) sb
    =
  let member (w : Workloads.Workload.t) s =
    w.Workloads.Workload.name ^ "+" ^ scheme_label s
  in
  let swap = member wb sb < member wa sa in
  let (((w1, s1), (w2, s2)) as members) =
    if swap then ((wb, sb), (wa, sa)) else ((wa, sa), (wb, sb))
  in
  let workload_label =
    w1.Workloads.Workload.name ^ "+" ^ w2.Workloads.Workload.name
  in
  let scheme_pair_label =
    Printf.sprintf "co(%s,%s)" (scheme_label s1) (scheme_label s2)
  in
  (members, workload_label, scheme_pair_label, swap)

(** Co-resident pairs, in canonical member order: the ladder's second
    instance. *)
let pair_ladder =
  {
    memo = Hashtbl.create 8;
    flights = Gpu_util.Single_flight.create ();
    encode = pair_to_json;
    decode = pair_of_json;
    launch_key = (fun _ -> None);
    compute =
      (fun cfg ((w1, s1), (w2, s2)) ->
        Result.map
          (fun pr -> (pr, Simulated))
          (run_co_resident_uncached cfg w1 s1 w2 s2));
  }

(** Cached co-resident execution: {!pair_ladder} ({!climb}), exactly as
    for single cells.  The cache key fingerprints BOTH members
    (order-normalized), so co-resident results persist to disk shards
    and count as hits; a lookup with the members swapped finds the same
    entry and swaps per-kernel attribution back to the caller's order.
    Simulation always runs in canonical member order, so (A, B) and
    (B, A) return bit-identical per-kernel counters on miss as well as
    on hit. *)
let run_co_resident_with_source ?tenant cfg wa scheme_a wb scheme_b =
  match check_static wa scheme_a wb scheme_b with
  | Error msg -> Error msg
  | Ok () -> (
    let members, workload, scheme, swap =
      pair_identity wa scheme_a wb scheme_b
    in
    match climb pair_ladder ~span:None ?tenant cfg ~workload ~scheme members with
    | Error _ as e -> e
    | Ok (((r1, r2) as pr), source) ->
      Ok ((if swap then (r2, r1) else pr), source))

let flights_in_progress () =
  Gpu_util.Single_flight.in_flight cell_ladder.flights
  + Gpu_util.Single_flight.in_flight pair_ladder.flights

(* live gauge: sampled at Metrics.snapshot time, so the admin plane sees
   the current dedup pressure, not a stale mirror *)
let () =
  Obs.Metrics.gauge_fn "runner.flights_in_progress" (fun () ->
      float_of_int (flights_in_progress ()))

(** Drops every in-process result (the disk cache is untouched) — lets
    tests exercise the cold-start path of a fresh process. *)
let clear_memo () =
  Mutex.lock memo_lock;
  Hashtbl.reset cell_ladder.memo;
  Hashtbl.reset pair_ladder.memo;
  Mutex.unlock memo_lock;
  Cache.forget_fingerprints ()

(** Fan a (config, workload, scheme) grid out across a domain pool.
    Results come back element-wise in input order, identical to what the
    same calls would return sequentially (every cell simulates on its
    own fresh device from the same seed).  Duplicate cells are computed
    once.  [jobs <= 1] runs sequentially on the calling domain. *)
let run_many ?(jobs = 1) cells =
  let keyed =
    List.map (fun (cfg, w, scheme) -> (memo_key cfg w scheme, (cfg, w, scheme))) cells
  in
  let unique =
    List.rev
      (List.fold_left
         (fun acc (key, cell) ->
           if List.mem_assoc key acc then acc else (key, cell) :: acc)
         [] keyed)
  in
  let computed =
    Gpu_util.Pool.parallel_map ~jobs
      (fun (key, (cfg, w, scheme)) -> (key, run cfg w scheme))
      unique
  in
  List.map (fun (key, _) -> List.assoc key computed) keyed

(* ------------------------------------------------------------------ *)
(* Sweeps and BFTT                                                     *)
(* ------------------------------------------------------------------ *)

(* the occupancy of each launch of [w] that fits the device *)
let launch_occupancies cfg (w : Workloads.Workload.t) =
  List.filter_map
    (fun (l : Workloads.Workload.kernel_launch) ->
      Result.to_option
        (occupancy cfg
           (Workloads.Workload.geometry_of l)
           (Gpusim.Codegen.compile_kernel
              (Workloads.Workload.find_kernel w l.kernel_name))))
    w.Workloads.Workload.launches

(* 1, 2, 4, ... up to [n] *)
let powers_of_two_upto n =
  let rec from k = if k > n then [] else k :: from (2 * k) in
  from 1

(** Throttling-factor candidates for one workload, ordered from maximum to
    minimum TLP — the x-axis of Fig. 9 and BFTT's search space.  Warp
    splitting first, then TB reduction, mirroring Eq. 9's phases. *)
let candidates cfg (w : Workloads.Workload.t) =
  let max_warps, max_tbs =
    List.fold_left
      (fun (mw, mt) occ ->
        ( max mw occ.Catt.Occupancy.warps_per_tb,
          max mt occ.Catt.Occupancy.tbs_per_sm ))
      (1, 1) (launch_occupancies cfg w)
  in
  let warp_part = List.map (fun n -> (n, 0)) (powers_of_two_upto max_warps) in
  (* TB-level factors matter most for single-warp TBs (where no warp
     splitting is possible), so allow a deeper sweep there *)
  let tb_range = if max_warps = 1 then 12 else 3 in
  let tb_part =
    List.init (min tb_range (max_tbs - 1)) (fun i -> (max_warps, i + 1))
  in
  warp_part @ tb_part

let sweep cfg w =
  List.map
    (fun (n, m) ->
      let scheme = if n = 1 && m = 0 then Baseline else Fixed (n, m) in
      ((n, m), run cfg w scheme))
    (candidates cfg w)

(** Per-SM warp-limit candidates for Best-SWL: powers of two up to the
    workload's maximum concurrent warp count. *)
let swl_candidates cfg (w : Workloads.Workload.t) =
  let max_warps =
    List.fold_left
      (fun acc occ -> max acc occ.Catt.Occupancy.concurrent_warps)
      1 (launch_occupancies cfg w)
  in
  powers_of_two_upto max_warps

(* the (candidate, run) with the fewest total cycles, earliest on a tie *)
let fewest_cycles = function
  | [] -> invalid_arg "Runner.fewest_cycles: no candidates"
  | first :: rest ->
    List.fold_left
      (fun ((_, best) as acc) ((_, r) as cand) ->
        if r.total_cycles < best.total_cycles then cand else acc)
      first rest

(** Best-SWL (Rogers et al., MICRO-45; discussed in the paper's
    Section 2.2): the best static scheduler-level warp limit, found by
    exhaustive offline search over per-SM warp counts. *)
let best_swl cfg w =
  fewest_cycles (List.map (fun k -> (k, run cfg w (Swl k))) (swl_candidates cfg w))

(** BFTT: the best-performing fixed combination, found by exhaustive
    offline search (paper Section 5: "best-fixed thread throttling"). *)
let bftt cfg w = fewest_cycles (sweep cfg w)
