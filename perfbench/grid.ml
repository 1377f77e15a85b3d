(* grid-static and grid-runtime: experiment-grid cells regenerated cold,
   in process, on one domain, through [Experiments.Runner.exec]. *)

module Runner = Experiments.Runner
module Cache = Experiments.Cache
module Json = Gpu_util.Json

type kind = Static | Runtime

let schemes = function
  | Static -> Runner.[ Baseline; Catt; CattSa; Fixed (2, 1) ]
  | Runtime -> Runner.[ Dynamic; CcwsSched; DawsSched; Swl 4; Ciao; Ata ]

let scheme_key : Runner.scheme -> string = function
  | Baseline -> "baseline"
  | Catt -> "catt"
  | CattSa -> "catt-sa"
  | Fixed _ -> "fixed"
  | Dynamic -> "dynamic"
  | CcwsSched -> "ccws"
  | DawsSched -> "daws"
  | Swl _ -> "swl"
  | Ciao -> "ciao"
  | Ata -> "ata"
  | Bypass -> "bypass"

let all_scheme_keys =
  List.map scheme_key (schemes Static @ schemes Runtime)

(* DAWS holds warps by re-issuing the loop-entry or back-edge instruction
   every 16 cycles and [Stats.instructions] counts each retry, so its
   counts legitimately exceed baseline's; every other runtime policy only
   reorders the same instruction stream *)
let instruction_checked : Runner.scheme -> bool = function
  | Dynamic | CcwsSched | Swl _ | Ciao | Ata -> true
  | DawsSched | Baseline | Catt | CattSa | Fixed _ | Bypass -> false

(* grid-runtime keeps 17 of the 23 workloads.  The six it leaves out
   (BICG, PF, GEMM, 2MM, 3MM, LVMD) are those CCWS takes 2.6-7 s each on
   (29 of CCWS's 41 s over the registry on the README's host), which
   would not fit a round in a run.  ATAX, MVT and SYR2K stay, so CCWS's
   3-5x cost over baseline still shows, and so does CORR, DAWS's most
   expensive workload. *)
let runtime_workloads =
  [ "ATAX"; "MVT"; "SYR2K"; "CORR"; "GSMV"; "KM"; "BFS"; "CFD"; "SYRK";
    "GRAM"; "BP"; "LUD"; "HP"; "BT"; "MC"; "HM"; "HW" ]

let workloads = function
  | Static -> Workloads.Registry.all
  | Runtime -> List.map Workloads.Registry.find runtime_workloads

(* tail_ms: the highest of p75/p90/p95/p99 that leaves at least ten
   cells of one round beyond it *)
let tail_quantile = function Static -> 0.75 | Runtime -> 0.9

let cells kind =
  List.concat_map
    (fun w -> List.map (fun s -> (w, s)) (schemes kind))
    (workloads kind)

(* the benchmark seed orders the cells; the program's own input seed
   ([Runner.seed]) is untouched *)
let shuffle seed xs =
  let a = Array.of_list xs in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let cfg () = Experiments.Configs.max_l1d ()

(* Everything the grid does before its first cell.  [setup_s] is timed
   from process start to the end of this function. *)
let prepare ~seed kind =
  let cells = shuffle seed (cells kind) in
  Cache.enabled := true;
  Runner.progress := false;
  (cfg (), cells)

(* a fresh, empty result-cache directory for one round *)
let fresh_cache scratch round =
  let d = Filename.concat scratch (Printf.sprintf "cache-%d" round) in
  Host.rm_rf d;
  Cache.dir := d;
  Runner.clear_memo ()

let label = Runner.scheme_label

let stored cfg (w : Workloads.Workload.t) scheme =
  Cache.load cfg ~workload:w.Workloads.Workload.name ~scheme:(label scheme)
    ~seed:Runner.seed

(* ------------------------------------------------------------------ *)
(* Baseline instruction counts for grid-runtime's equality check        *)
(* ------------------------------------------------------------------ *)

(* Simulated once per build of this executable through the runner's own
   persistent cache, outside every timed interval. *)
let baselines cfg kind =
  match kind with
  | Static -> Hashtbl.create 1
  | Runtime ->
    let saved = !Cache.dir in
    Cache.dir :=
      Filename.concat Host.work_root
        ("baseline-cache-" ^ Host.build_key [ Sys.executable_name ]);
    let t = Hashtbl.create 32 in
    List.iter
      (fun (w : Workloads.Workload.t) ->
        match Runner.exec (Runner.Request.make cfg w Runner.Baseline) with
        | Ok r -> Hashtbl.replace t w.Workloads.Workload.name r
        | Error msg -> failwith ("baseline reference: " ^ msg))
      (workloads kind);
    Cache.dir := saved;
    Runner.clear_memo ();
    t

let check_cell ~baselines cfg (w : Workloads.Workload.t) scheme
    (r : Runner.app_run) =
  Checks.all
    [
      (fun () -> Checks.verified r);
      (fun () ->
        if instruction_checked scheme then
          Checks.same_instructions
            ~baseline:(Hashtbl.find baselines w.Workloads.Workload.name)
            r
        else Ok ());
      (fun () -> Checks.round_trip cfg w scheme r (stored cfg w scheme));
    ]

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics                                *)
(* ------------------------------------------------------------------ *)

(* Each cell starts from the same heap, outside the timed interval: an
   empty memo (no two cells of a grid share a key, so the memo never
   serves one) and a full major collection.  The GC work a cell pays for
   is then its own, not debt left by the cells before it, and the
   allocation count moves far less with the order the seed chose (OCaml
   5.1's minor-word counter reads differently with the state of the major
   GC; see the README).  The meter also settles after each cell, before
   its probe. *)
let settle () =
  Runner.clear_memo ();
  Gc.full_major ()

(* whole rounds of every cell that fit in [seconds], at least one *)
let rounds ~seconds f =
  let started = Host.now () in
  let round = ref 0 and last = ref 0. in
  (* another round only if one as long as the last still fits *)
  while !round = 0 || Host.now () -. started +. !last <= seconds do
    let t0 = Host.now () in
    f !round;
    last := Host.now () -. t0;
    incr round
  done;
  !round

let run ~seed ~seconds ~scratch ~tally kind =
  let cfg, cells = prepare ~seed kind in
  let baselines = baselines cfg kind in
  let meter = Host.meter ~settle () in
  let words = ref 0. in
  let rounds =
    rounds ~seconds (fun round ->
        fresh_cache scratch round;
        List.iter
          (fun ((w : Workloads.Workload.t), scheme) ->
            settle ();
            let (result, n), _ =
              Host.measure meter (fun () ->
                  Host.alloc_words (fun () ->
                      Runner.exec (Runner.Request.make cfg w scheme)))
            in
            words := !words +. n;
            Checks.Tally.op tally
              ~what:(w.Workloads.Workload.name ^ "/" ^ label scheme)
              (match result with
              | Error msg -> Error (`Error msg)
              | Ok r -> check_cell ~baselines cfg w scheme r))
          cells)
  in
  let times = Array.to_list (Host.reference meter) in
  let n = List.length times in
  let total = List.fold_left ( +. ) 0. times in
  Printf.eprintf "perfbench: %d cells in %d rounds, %.3f wall s, %.3f reference s\n%!" n
    rounds (List.fold_left ( +. ) 0. meter.Host.walls) total;
  let sorted_ms = Host.sorted (List.map (fun t -> 1000. *. t) times) in
  [
    ("ops_per_s", float_of_int n /. total);
    ("p50_ms", Host.band_quantile sorted_ms 0.5);
    ("tail_ms", Host.band_quantile sorted_ms (tail_quantile kind));
    ("peak_rss_mb", Host.peak_rss_mb "self");
    ("alloc_mb_per_op", !words *. 8. /. 1e6 /. float_of_int n);
  ]

(* ------------------------------------------------------------------ *)
(* Traced run: the same cells, each layer's public call timed           *)
(* ------------------------------------------------------------------ *)

(* Replays [Runner.exec_uncached] plus the store step by calling each
   layer's public entry point in the same order, so each call can be
   timed on its own.  Two calls are extra work that the untraced path
   does not do: the sanitizer gate is run once more on each final rewrite
   (the CATT driver and the BFTT splitter gate internally), and the entry
   is serialized once outside [Cache.store] to time the encoder. *)

type acc = {
  layer : (string, float) Hashtbl.t;  (** raw seconds per layer, this cell *)
  mutable instrs : int;
  mutable launch_words : float;
}

let span acc name f =
  let t0 = Host.now () in
  let r = f () in
  let dt = Host.now () -. t0 in
  Hashtbl.replace acc.layer name
    (dt +. Option.value ~default:0. (Hashtbl.find_opt acc.layer name));
  r

let runtime_throttle : Runner.scheme -> _ = function
  | Dynamic -> `Dyncta
  | CcwsSched -> `Ccws
  | DawsSched -> `Daws
  | Swl k -> `Swl k
  | Ciao -> `Ciao
  | Ata -> `Ata
  | Baseline | Catt | CattSa | Fixed _ -> `None
  | Bypass -> invalid_arg "perfbench does not replay the bypass scheme"

let gate acc geo ~original ~transformed =
  if transformed != original then
    match
      span acc "sanitize.gate" (fun () ->
          Sanitize.Check.gate geo ~original ~transformed)
    with
    | Ok () -> Ok ()
    | Error _ -> Error "the final rewrite does not pass the sanitizer gate"
  else Ok ()

let prepare_kernel acc cfg scheme geo kernel :
    (Runner.prepared, string) result =
  let codegen k = span acc "gpusim.codegen" (fun () -> Gpusim.Codegen.compile_kernel k) in
  let ( let* ) = Result.bind in
  match (scheme : Runner.scheme) with
  | Catt | CattSa ->
    let model = if scheme = CattSa then `Sa else `Eq8 in
    let* t =
      span acc "catt.analyze" (fun () -> Catt.Driver.analyze ~model cfg kernel geo)
    in
    let transformed = t.Catt.Driver.transformed in
    let* () = gate acc geo ~original:kernel ~transformed in
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
        Runner.prog = codegen transformed;
        carveout = Some t.Catt.Driver.final_carveout;
        prepared_tlp = tlp;
        analysis = Some t;
      }
  | Fixed (n, m) ->
    let* v =
      span acc "experiments.fixed_variant" (fun () ->
          Runner.fixed_variant cfg kernel geo ~n ~m)
    in
    let* () = gate acc geo ~original:kernel ~transformed:v.Runner.fixed_kernel in
    Ok
      {
        Runner.prog = codegen v.Runner.fixed_kernel;
        carveout = v.Runner.fixed_carveout;
        prepared_tlp = v.Runner.fixed_tlp;
        analysis = None;
      }
  | _ ->
    (* codegen plus an occupancy lookup that costs next to nothing *)
    Ok (span acc "gpusim.codegen" (fun () -> Runner.prepare_baseline cfg kernel geo))

let replay_cell acc cfg (w : Workloads.Workload.t) scheme :
    (Runner.app_run, string) result =
  let started = Host.now () in
  let kernels = span acc "minicuda.parse" (fun () -> Workloads.Workload.kernels w) in
  let prepared =
    List.fold_left
      (fun prev (name, kernel) ->
        match prev with
        | Error _ -> prev
        | Ok ps -> (
          match
            prepare_kernel acc cfg scheme (Runner.geometry_of_kernel w name) kernel
          with
          | Ok p -> Ok ((name, p) :: ps)
          | Error msg -> Error msg))
      (Ok []) kernels
  in
  match prepared with
  | Error _ as e -> e
  | Ok prepared ->
    let prepared = List.rev prepared in
    let dev = Gpusim.Gpu.create cfg in
    span acc "workloads.setup" (fun () ->
        w.Workloads.Workload.setup dev (Gpu_util.Rng.create Runner.seed));
    let ks = ref [] in
    List.iter
      (fun (l : Workloads.Workload.kernel_launch) ->
        let p = List.assoc l.Workloads.Workload.kernel_name prepared in
        let launch =
          Gpusim.Gpu.default_launch ?smem_carveout:p.Runner.carveout
            ~runtime_throttle:(runtime_throttle scheme) ~prog:p.Runner.prog
            ~grid:l.Workloads.Workload.grid ~block:l.Workloads.Workload.block
            l.Workloads.Workload.args
        in
        let (stats, _), words =
          Host.alloc_words (fun () ->
              span acc "gpusim.launch" (fun () -> Gpusim.Gpu.launch dev launch))
        in
        acc.instrs <- acc.instrs + stats.Gpusim.Stats.instructions;
        acc.launch_words <- acc.launch_words +. words;
        Runner.note_kernel ks ~name:l.Workloads.Workload.kernel_name
          ~tlp:p.Runner.prepared_tlp ~trace:None ~profile:None stats)
      w.Workloads.Workload.launches;
    let kernels = List.map snd !ks in
    let verified = span acc "workloads.verify" (fun () -> w.Workloads.Workload.verify dev) in
    let r =
      {
        Runner.workload = w.Workloads.Workload.name;
        scheme;
        kernels;
        total_cycles =
          List.fold_left
            (fun t (k : Runner.kernel_stats) -> t + k.Runner.stats.Gpusim.Stats.cycles)
            0 kernels;
        verified;
        catt_analyses =
          List.filter_map
            (fun (name, p) -> Option.map (fun a -> (name, a)) p.Runner.analysis)
            prepared;
        manifest =
          Some
            (Experiments.Manifest.make cfg ~workload:w.Workloads.Workload.name
               ~scheme:(label scheme) ~seed:Runner.seed
               ~wall_seconds:(Host.now () -. started));
      }
    in
    let text =
      span acc "experiments.encode" (fun () ->
          Json.to_string ~pretty:true (Runner.run_to_json r))
    in
    Hashtbl.replace acc.layer "experiments.entry_bytes"
      (float_of_int (String.length text + 1));
    span acc "experiments.store" (fun () ->
        Cache.store cfg ~workload:w.Workloads.Workload.name ~scheme:(label scheme)
          ~seed:Runner.seed (Runner.run_to_json r));
    Ok r

(* per-cell layer metrics: (metric, layer span, scale to the unit) *)
let cell_layers =
  [
    ("minicuda.parse_ms", "minicuda.parse", 1000.);
    ("catt.analyze_ms", "catt.analyze", 1000.);
    ("sanitize.gate_ms", "sanitize.gate", 1000.);
    ("experiments.fixed_variant_ms", "experiments.fixed_variant", 1000.);
    ("gpusim.codegen_ms", "gpusim.codegen", 1000.);
    ("workloads.setup_ms", "workloads.setup", 1000.);
    ("workloads.verify_ms", "workloads.verify", 1000.);
    ("experiments.encode_ms", "experiments.encode", 1000.);
    ("experiments.store_ms", "experiments.store", 1000.);
  ]

let geomean = function
  | [] -> 0.
  | xs ->
    exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (List.length xs))

type traced_cell = {
  scheme_key : string;
  layers : acc;
  plain : int;  (** meter interval of the untraced execution *)
  replay : int;  (** meter interval of the traced replay *)
}

let traced ~seed ~seconds ~scratch ~tally kind =
  let cfg, cells = prepare ~seed kind in
  let baselines = baselines cfg kind in
  let meter = Host.meter ~settle () in
  let interval = ref 0 in
  let measure f =
    let r, _ = Host.measure meter f in
    incr interval;
    (r, !interval - 1)
  in
  let done_ = ref [] in
  let model = Hashtbl.create 4 and cycles = Hashtbl.create 64 in
  let bump key v =
    Hashtbl.replace model key (v + Option.value ~default:0 (Hashtbl.find_opt model key))
  in
  let rounds =
    rounds ~seconds (fun round ->
        (* each cell runs twice, back to back and both cold: untraced
           through the runner, then replayed with every layer call timed *)
        List.iter
          (fun ((w : Workloads.Workload.t), scheme) ->
            fresh_cache scratch (2 * round);
            settle ();
            let _, plain = measure (fun () -> Runner.exec (Runner.Request.make cfg w scheme)) in
            fresh_cache scratch ((2 * round) + 1);
            settle ();
            let acc = { layer = Hashtbl.create 16; instrs = 0; launch_words = 0. } in
            let result, replay = measure (fun () -> replay_cell acc cfg w scheme) in
            done_ := { scheme_key = scheme_key scheme; layers = acc; plain; replay } :: !done_;
            Checks.Tally.op tally
              ~what:(w.Workloads.Workload.name ^ "/" ^ label scheme)
              (match result with
              | Error msg -> Error (`Error msg)
              | Ok r ->
                if round = 0 then begin
                  List.iter
                    (fun (k : Runner.kernel_stats) ->
                      let s = k.Runner.stats in
                      bump "instructions" s.Gpusim.Stats.instructions;
                      bump "cycles" s.Gpusim.Stats.cycles;
                      bump "l1d_misses" s.Gpusim.Stats.l1_misses)
                    r.Runner.kernels;
                  Hashtbl.replace cycles
                    (w.Workloads.Workload.name, scheme_key scheme)
                    r.Runner.total_cycles
                end;
                check_cell ~baselines cfg w scheme r))
          cells)
  in
  let ref_s = Host.reference meter in
  let walls = Array.of_list (List.rev meter.Host.walls) in
  let totals = Hashtbl.create 16 and per_scheme = Hashtbl.create 16 in
  let add tbl name v =
    Hashtbl.replace tbl name (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name))
  in
  let untraced = ref 0. and traced_total = ref 0. in
  List.iter
    (fun c ->
      let scale = ref_s.(c.replay) /. walls.(c.replay) in
      untraced := !untraced +. ref_s.(c.plain);
      traced_total := !traced_total +. ref_s.(c.replay);
      Hashtbl.iter
        (fun name v ->
          add totals name (if name = "experiments.entry_bytes" then v else v *. scale))
        c.layers.layer;
      let launch = scale *. Option.value ~default:0. (Hashtbl.find_opt c.layers.layer "gpusim.launch") in
      add per_scheme (c.scheme_key ^ "/s") launch;
      add per_scheme (c.scheme_key ^ "/instrs") (float_of_int c.layers.instrs);
      add per_scheme (c.scheme_key ^ "/words") c.layers.launch_words;
      add per_scheme "all/s" launch;
      add per_scheme "all/instrs" (float_of_int c.layers.instrs);
      add per_scheme "all/words" c.layers.launch_words)
    !done_;
  let cells_n = float_of_int (List.length !done_) in
  let get tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name) in
  let per_instr key what =
    let instrs = get per_scheme (key ^ "/instrs") in
    if instrs = 0. then 0. else get per_scheme (key ^ "/" ^ what) /. instrs
  in
  let model_count key = float_of_int (Option.value ~default:0 (Hashtbl.find_opt model key)) in
  let cs_speedup =
    geomean
      (List.filter_map
         (fun (w : Workloads.Workload.t) ->
           match
             ( Hashtbl.find_opt cycles (w.Workloads.Workload.name, "baseline"),
               Hashtbl.find_opt cycles (w.Workloads.Workload.name, "catt") )
           with
           | Some b, Some c -> Some (float_of_int b /. float_of_int c)
           | _ -> None)
         Workloads.Registry.cs)
  in
  List.map (fun (metric, layer, unit) -> (metric, unit *. get totals layer /. cells_n)) cell_layers
  @ [
      ("experiments.entry_kb", get totals "experiments.entry_bytes" /. 1024. /. cells_n);
      ("gpusim.launch_s", get per_scheme "all/s" /. float_of_int rounds);
      ("gpusim.host_ns_per_instr", 1e9 *. per_instr "all" "s");
      ("gpusim.alloc_words_per_instr", per_instr "all" "words");
    ]
  @ List.concat_map
      (fun key ->
        [
          ("gpusim.host_ns_per_instr." ^ key, 1e9 *. per_instr key "s");
          ("gpusim.alloc_words_per_instr." ^ key, per_instr key "words");
        ])
      all_scheme_keys
  @ [
      ("gpusim.sim_minstr", model_count "instructions" /. 1e6);
      ("gpusim.sim_mcycles", model_count "cycles" /. 1e6);
      ("gpusim.l1d_misses", model_count "l1d_misses");
      ("catt.cs_speedup", cs_speedup);
      ("trace.ops_per_s", cells_n /. !traced_total);
      ("trace.overhead_pct", 100. *. ((!traced_total /. !untraced) -. 1.));
    ]
