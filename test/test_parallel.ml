(** Tests for the parallel experiment engine: the domain pool, the
    parallel (workload × scheme) sweep, and the persistent result cache.

    The load-bearing property is that parallelism and caching are pure
    plumbing — a sweep fanned across domains, or reloaded from disk,
    must be element-wise identical to a fresh sequential simulation. *)

module Runner = Experiments.Runner
module Cache = Experiments.Cache
module Json = Gpu_util.Json
module Pool = Gpu_util.Pool

let cfg = Gpusim.Config.scaled ~num_sms:4 ~onchip_bytes:(32 * 1024) ()

(* ------------------------------- pool ------------------------------ *)

let test_pool_preserves_order () =
  let n = 100 in
  let inputs = List.init n (fun i -> i) in
  Pool.with_pool ~jobs:4 (fun pool ->
      let doubled = Pool.map pool (fun i -> 2 * i) inputs in
      Alcotest.(check (list int))
        "results in input order"
        (List.map (fun i -> 2 * i) inputs)
        doubled;
      (* a second batch on the same pool still works *)
      let squared = Pool.map pool (fun i -> i * i) inputs in
      Alcotest.(check (list int))
        "second batch too"
        (List.map (fun i -> i * i) inputs)
        squared)

let test_pool_uses_domains () =
  (* each task records the domain it ran on; 8 tasks that each block
     until all 4 workers have picked one up can only finish if 4 distinct
     domains are serving the queue *)
  let jobs = 4 in
  let barrier = Atomic.make 0 in
  let ids =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map pool
          (fun _ ->
            Atomic.incr barrier;
            while Atomic.get barrier < jobs do
              Domain.cpu_relax ()
            done;
            (Domain.self () :> int))
          (List.init jobs (fun i -> i)))
  in
  let distinct = List.sort_uniq compare ids in
  Alcotest.(check int) "ran on 4 distinct domains" jobs (List.length distinct)

let test_pool_propagates_exceptions () =
  Alcotest.check_raises "first failure re-raised" (Failure "task 3") (fun () ->
      ignore
        (Pool.parallel_map ~jobs:3
           (fun i -> if i = 3 then failwith "task 3" else i)
           [ 0; 1; 2; 3; 4 ]))

(* ----------------------- parallel sweeps --------------------------- *)

let check_run_equal msg (a : Runner.app_run) (b : Runner.app_run) =
  Alcotest.(check string) (msg ^ ": workload") a.Runner.workload b.Runner.workload;
  Alcotest.(check string)
    (msg ^ ": scheme")
    (Runner.scheme_label a.Runner.scheme)
    (Runner.scheme_label b.Runner.scheme);
  Alcotest.(check int) (msg ^ ": total cycles") a.Runner.total_cycles b.Runner.total_cycles;
  Alcotest.(check bool)
    (msg ^ ": verified")
    (a.Runner.verified = Ok ())
    (b.Runner.verified = Ok ());
  Alcotest.(check (list (pair string (pair int int))))
    (msg ^ ": per-kernel stats")
    (List.map
       (fun (ks : Runner.kernel_stats) ->
         ( ks.Runner.kernel_name,
           (ks.Runner.stats.Gpusim.Stats.cycles, ks.Runner.stats.Gpusim.Stats.l1_hits) ))
       a.Runner.kernels)
    (List.map
       (fun (ks : Runner.kernel_stats) ->
         ( ks.Runner.kernel_name,
           (ks.Runner.stats.Gpusim.Stats.cycles, ks.Runner.stats.Gpusim.Stats.l1_hits) ))
       b.Runner.kernels)

let sweep_cells =
  List.concat_map
    (fun name ->
      let w = Workloads.Registry.find name in
      [ (cfg, w, Runner.Baseline); (cfg, w, Runner.Fixed (2, 0)) ])
    [ "ATAX"; "BICG"; "BT" ]

let test_parallel_sweep_matches_sequential () =
  (* ground truth: fresh, memo-free sequential simulations *)
  let sequential =
    List.map
      (fun (cfg, w, s) ->
        match Runner.exec_uncached (Runner.Request.make cfg w s) with
        | Ok r -> r
        | Error msg -> Alcotest.fail msg)
      sweep_cells
  in
  let parallel = Runner.run_many ~jobs:4 sweep_cells in
  Alcotest.(check int)
    "one result per cell" (List.length sweep_cells) (List.length parallel);
  List.iter2 (fun a b -> check_run_equal "parallel vs sequential" a b)
    sequential parallel

let test_run_many_preserves_order () =
  let results = Runner.run_many ~jobs:4 sweep_cells in
  List.iter2
    (fun (_, (w : Workloads.Workload.t), scheme) (r : Runner.app_run) ->
      Alcotest.(check string) "workload order" w.Workloads.Workload.name r.Runner.workload;
      Alcotest.(check string)
        "scheme order"
        (Runner.scheme_label scheme)
        (Runner.scheme_label r.Runner.scheme))
    sweep_cells results

(* ------------------------------ cache ------------------------------ *)

let test_json_round_trip () =
  let w = Workloads.Registry.find "BT" in
  List.iter
    (fun scheme ->
      let r =
        match Runner.exec_uncached (Runner.Request.make cfg w scheme) with
        | Ok r -> r
        | Error msg -> Alcotest.fail msg
      in
      match Runner.run_of_json cfg w scheme (Runner.run_to_json r) with
      | Error msg -> Alcotest.failf "decode failed: %s" msg
      | Ok r' -> check_run_equal (Runner.scheme_label scheme) r r')
    [ Runner.Baseline; Runner.Fixed (2, 1) ]

let test_json_round_trip_through_text () =
  (* the same round trip, but through the actual on-disk representation *)
  let w = Workloads.Registry.find "BT" in
  let r =
    match Runner.exec_uncached (Runner.Request.make cfg w Runner.Baseline) with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  let text = Json.to_string ~pretty:true (Runner.run_to_json r) in
  match Json.of_string text with
  | Error msg -> Alcotest.failf "reparse failed: %s" msg
  | Ok json -> (
    match Runner.run_of_json cfg w Runner.Baseline json with
    | Error msg -> Alcotest.failf "decode failed: %s" msg
    | Ok r' -> check_run_equal "pretty-printed text" r r')

let test_scheme_label_round_trip () =
  List.iter
    (fun scheme ->
      match Runner.scheme_of_string (Runner.scheme_label scheme) with
      | Ok s ->
        Alcotest.(check string)
          "label round-trips"
          (Runner.scheme_label scheme)
          (Runner.scheme_label s)
      | Error msg -> Alcotest.fail msg)
    [
      Runner.Baseline; Runner.Catt; Runner.Fixed (4, 1); Runner.Dynamic;
      Runner.CcwsSched; Runner.DawsSched; Runner.Swl 8; Runner.Bypass;
    ];
  match Runner.scheme_of_string "no-such-scheme" with
  | Ok _ -> Alcotest.fail "junk must not parse"
  | Error _ -> ()

(* one variant of [base] per simulation-relevant config field *)
let config_variants base =
    [
      ("num_sms", { base with Gpusim.Config.num_sms = base.Gpusim.Config.num_sms + 1 });
      ("warp_size", { base with Gpusim.Config.warp_size = 16 });
      ( "max_warps_per_sm",
        { base with Gpusim.Config.max_warps_per_sm = base.Gpusim.Config.max_warps_per_sm + 1 } );
      ( "max_tbs_per_sm",
        { base with Gpusim.Config.max_tbs_per_sm = base.Gpusim.Config.max_tbs_per_sm + 1 } );
      ( "register_file_bytes",
        { base with Gpusim.Config.register_file_bytes = base.Gpusim.Config.register_file_bytes * 2 } );
      ( "onchip_bytes",
        { base with Gpusim.Config.onchip_bytes = base.Gpusim.Config.onchip_bytes * 2 } );
      ( "smem_carveout_options",
        { base with Gpusim.Config.smem_carveout_options = [ 0 ] } );
      ("line_bytes", { base with Gpusim.Config.line_bytes = 64 });
      ("l1d_assoc", { base with Gpusim.Config.l1d_assoc = base.Gpusim.Config.l1d_assoc * 2 });
      ("l1d_mshrs", { base with Gpusim.Config.l1d_mshrs = base.Gpusim.Config.l1d_mshrs + 1 });
      ("l2_bytes", { base with Gpusim.Config.l2_bytes = base.Gpusim.Config.l2_bytes * 2 });
      ("l2_assoc", { base with Gpusim.Config.l2_assoc = base.Gpusim.Config.l2_assoc * 2 });
      ( "l1d_hit_latency",
        { base with Gpusim.Config.l1d_hit_latency = base.Gpusim.Config.l1d_hit_latency + 1 } );
      ( "l2_hit_latency",
        { base with Gpusim.Config.l2_hit_latency = base.Gpusim.Config.l2_hit_latency + 1 } );
      ( "dram_latency",
        { base with Gpusim.Config.dram_latency = base.Gpusim.Config.dram_latency + 1 } );
      ( "dram_slot_cycles",
        { base with Gpusim.Config.dram_slot_cycles = base.Gpusim.Config.dram_slot_cycles + 1 } );
      ( "alu_latency",
        { base with Gpusim.Config.alu_latency = base.Gpusim.Config.alu_latency + 1 } );
      ( "issue_width",
        { base with Gpusim.Config.issue_width = base.Gpusim.Config.issue_width + 1 } );
    ]

let test_fingerprint_sensitive_to_every_field () =
  let base = Gpusim.Config.volta () in
  let fp = Cache.config_fingerprint base in
  (* if the fingerprint misses a field, its variant aliases the base
     config and this test fails *)
  let variants = config_variants base in
  List.iter
    (fun (field, variant) ->
      Alcotest.(check bool)
        (field ^ " changes the fingerprint")
        false
        (String.equal fp (Cache.config_fingerprint variant)))
    variants;
  (* all variants must also be pairwise distinct: a field rendered into
     the wrong slot would collide with another variant, not the base *)
  let fps = fp :: List.map (fun (_, v) -> Cache.config_fingerprint v) variants in
  Alcotest.(check int)
    "fingerprints pairwise distinct" (List.length fps)
    (List.length (List.sort_uniq compare fps));
  (* the cell key goes through the once-per-config fingerprint: asked in
     any order, the variants' keys stay distinct from the base's and from
     each other *)
  let key c = Cache.key c ~workload:"BT" ~scheme:"baseline" ~seed:42 in
  let base_key = key base in
  let keys = List.map (fun (_, v) -> key v) variants in
  Alcotest.(check int)
    "cell keys pairwise distinct"
    (List.length variants + 1)
    (List.length (List.sort_uniq compare (base_key :: keys)));
  Alcotest.(check string) "base key stable" base_key (key base);
  Alcotest.(check (list string)) "variant keys stable" keys
    (List.map (fun (_, v) -> key v) variants)

let with_temp_cache f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "catt-cache-test-%d" (Unix.getpid ()))
  in
  let old_dir = !Cache.dir and old_enabled = !Cache.enabled in
  Cache.dir := dir;
  Cache.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Cache.clear ();
      (try Unix.rmdir dir with Unix.Unix_error _ -> ());
      Cache.dir := old_dir;
      Cache.enabled := old_enabled)
    (fun () -> f ())

let test_warm_second_run_hits_cache () =
  with_temp_cache (fun () ->
      (* a config no other test uses, so the memo is genuinely cold *)
      let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(32 * 1024) () in
      let w = Workloads.Registry.find "BT" in
      let scheme = Runner.Baseline in
      let first = Runner.run cfg w scheme in
      let file =
        Cache.path cfg ~workload:w.Workloads.Workload.name
          ~scheme:(Runner.scheme_label scheme) ~seed:Runner.seed
      in
      Alcotest.(check bool) "entry persisted" true (Sys.file_exists file);
      (* plant a sentinel in the stored entry; if the second (cold-memo)
         run returns it, the result really came from disk *)
      let sentinel = 123456789 in
      let planted =
        match Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
        | Ok (Json.Obj fields) ->
          Json.Obj
            (List.map
               (fun (k, v) ->
                 if k = "total_cycles" then (k, Json.Int sentinel) else (k, v))
               fields)
        | Ok _ | Error _ -> Alcotest.fail "unreadable cache entry"
      in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (Json.to_string planted));
      Runner.clear_memo ();
      let second = Runner.run cfg w scheme in
      Alcotest.(check int) "served from disk" sentinel second.Runner.total_cycles;
      (* drop the poisoned entry and memo so later tests recompute *)
      Runner.clear_memo ();
      Cache.clear ();
      let third = Runner.run cfg w scheme in
      check_run_equal "recomputed after clear" first third)

(* [Runner.analyses_for] runs the CATT pass once per config, workload and
   model: a repeat answers the memo's list, a CATT entry decoded from disk
   carries that list, another record under the same name is analysed
   afresh to the same verdicts, and [clear_memo] drops the memo. *)
let test_analyses_memoized () =
  with_temp_cache (fun () ->
      let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(32 * 1024) () in
      let w = Workloads.Registry.find "BT" in
      let verdicts analyses =
        List.map
          (fun (name, t) -> (name, Json.to_string (Catt.Explain.to_json cfg t)))
          analyses
      in
      Runner.clear_memo ();
      let first = Runner.analyses_for cfg w Runner.Catt in
      Alcotest.(check bool) "BT is analysed" true (first <> []);
      Alcotest.(check bool) "a repeat answers the memo's list" true
        (Runner.analyses_for cfg w Runner.Catt == first);
      ignore (Runner.run cfg w Runner.Catt);
      Runner.clear_memo ();
      let decoded = Runner.run cfg w Runner.Catt in
      let after_clear = Runner.analyses_for cfg w Runner.Catt in
      Alcotest.(check bool) "clear_memo drops the analyses" true
        (after_clear != first);
      Alcotest.(check bool) "a decoded entry carries the memo's list" true
        (decoded.Runner.catt_analyses == after_clear);
      let copy = { w with Workloads.Workload.description = "a copy" } in
      let fresh = Runner.analyses_for cfg copy Runner.Catt in
      Alcotest.(check bool) "another record is analysed afresh" true
        (fresh != after_clear);
      Alcotest.(check (list (pair string string))) "to the same verdicts"
        (verdicts first) (verdicts fresh);
      Runner.clear_memo ();
      Cache.clear ())

(* Every state a disk entry can be in, for both instances of the runner's
   cache ladder.  Only an entry that decodes is a hit; an absent one is a
   miss, and any other is a miss and an eviction; both simulate the cell
   again and store it valid.  Each state maps the last valid entry's text
   to what the file holds ([None]: no file). *)
let entry_states =
  let rewrite f text =
    match Json.of_string text with
    | Ok j -> Json.to_string (f j)
    | Error msg -> Alcotest.failf "valid entry does not parse: %s" msg
  in
  let rec drop_kernels = function
    | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) -> if k = "kernels" then None else Some (k, drop_kernels v))
           fields)
    | j -> j
  in
  let stale = function
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k = "version" then (k, Json.Int (Json.to_int v - 1)) else (k, v))
           fields)
    | j -> j
  in
  [
    ("absent", `Miss, fun _ -> None);
    ("valid", `Hit, fun valid -> Some valid);
    ("corrupt", `Evicted, fun _ -> Some "{ not json");
    ( "truncated",
      `Evicted,
      fun valid -> Some (String.sub valid 0 (String.length valid / 2)) );
    ("empty", `Evicted, fun _ -> Some "");
    ("stale version", `Evicted, fun valid -> Some (rewrite stale valid));
    ("wrong shape: a list", `Evicted, fun _ -> Some "[1,2,3]");
    ("wrong shape: no kernels", `Evicted, fun valid -> Some (rewrite drop_kernels valid));
  ]

(* [climb] answers the cell through the ladder as (payload JSON, source);
   [fresh] is a fresh simulation's payload; [decodes] is the ladder's own
   decoder *)
let check_entry_states instance ~file ~climb ~fresh ~decodes =
  let valid = ref "" in
  List.iter
    (fun (state, outcome, content) ->
      let what = Printf.sprintf "%s, %s entry" instance state in
      (match content !valid with
      | None -> if Sys.file_exists file then Sys.remove file
      | Some text ->
        Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc text));
      Runner.clear_memo ();
      let c0 = Cache.stats () and sim0 = Runner.simulated_total () in
      let payload, source = climb () in
      let c1 = Cache.stats () and sim1 = Runner.simulated_total () in
      let hit = outcome = `Hit and one b = if b then 1 else 0 in
      Alcotest.(check (list (pair string int)))
        (what ^ ": counter deltas")
        [
          ("hits", one hit); ("misses", one (not hit)); ("evictions", one (outcome = `Evicted));
          ("stores", one (not hit)); ("simulated", one (not hit));
        ]
        [
          ("hits", c1.Cache.hits - c0.Cache.hits);
          ("misses", c1.Cache.misses - c0.Cache.misses);
          ("evictions", c1.Cache.evictions - c0.Cache.evictions);
          ("stores", c1.Cache.stores - c0.Cache.stores);
          ("simulated", sim1 - sim0);
        ];
      Alcotest.(check bool) (what ^ ": source") true
        (source = if hit then Runner.Disk else Runner.Simulated);
      Alcotest.(check string) (what ^ ": answer equals a fresh simulation")
        (Json.to_string fresh) (Json.to_string payload);
      let text = In_channel.with_open_bin file In_channel.input_all in
      (match Json.of_string text with
      | Ok json when decodes json -> ()
      | Ok _ | Error _ -> Alcotest.failf "%s: the rewritten entry does not decode" what);
      valid := text)
    entry_states

let test_corrupt_cache_entry_is_recomputed () =
  with_temp_cache (fun () ->
      let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(16 * 1024) () in
      let ok = function Ok v -> v | Error msg -> Alcotest.fail msg in
      (* the simulated payload: a manifest records wall time, not results *)
      let payload (r : Runner.app_run) =
        Runner.run_to_json { r with Runner.manifest = None }
      in
      let bt = Workloads.Registry.find "BT" and atax = Workloads.Registry.find "ATAX" in
      let req = Runner.Request.make cfg bt Runner.Baseline in
      check_entry_states "cell"
        ~file:
          (Cache.path cfg ~workload:"BT"
             ~scheme:(Runner.scheme_label Runner.Baseline) ~seed:Runner.seed)
        ~climb:(fun () ->
          let r, source = ok (Runner.exec_with_source req) in
          (payload r, source))
        ~fresh:(payload (ok (Runner.exec_uncached req)))
        ~decodes:(fun json ->
          Result.is_ok (Runner.cell_ladder.Runner.decode cfg req json));
      (* members already in canonical order, so the uncached run is the
         one the ladder simulates *)
      let members, workload, scheme, swap =
        Runner.pair_identity atax Runner.Baseline bt Runner.Baseline
      in
      Alcotest.(check bool) "pair members in canonical order" false swap;
      let pair_payload (ra, rb) = Json.List [ payload ra; payload rb ] in
      check_entry_states "pair"
        ~file:(Cache.path cfg ~workload ~scheme ~seed:Runner.seed)
        ~climb:(fun () ->
          let pr, source =
            ok
              (Runner.run_co_resident_with_source cfg atax Runner.Baseline bt
                 Runner.Baseline)
          in
          (pair_payload pr, source))
        ~fresh:
          (pair_payload
             (ok
                (Runner.run_co_resident_uncached cfg atax Runner.Baseline bt
                   Runner.Baseline)))
        ~decodes:(fun json ->
          Result.is_ok (Runner.pair_ladder.Runner.decode cfg members json)))

(* Two domains storing one key over and over: every rename publishes a
   whole entry, so the survivor decodes, and no temp file is left. *)
let test_two_writers_one_key () =
  with_temp_cache (fun () ->
      let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(16 * 1024) () in
      let pad = String.make 8192 'x' in
      let writer i =
        Domain.spawn (fun () ->
            for _ = 1 to 200 do
              Cache.store cfg ~workload:"W" ~scheme:"S" ~seed:1
                (Json.Obj [ ("writer", Json.Int i); ("pad", Json.String pad) ])
            done)
      in
      List.iter Domain.join [ writer 1; writer 2 ];
      let decode =
        Json.decode (fun j ->
            (Json.to_int (Json.member "writer" j), Json.to_str (Json.member "pad" j)))
      in
      (match Cache.find cfg ~workload:"W" ~scheme:"S" ~seed:1 decode with
      | Some ((1 | 2), p) when p = pad -> ()
      | Some _ | None -> Alcotest.fail "the entry is not one writer's whole value");
      let dir = Filename.dirname (Cache.path cfg ~workload:"W" ~scheme:"S" ~seed:1) in
      Alcotest.(check (list string)) "no temp file left" []
        (List.filter
           (fun f -> Filename.check_suffix f ".tmp")
           (Array.to_list (Sys.readdir dir))))

(* A failed store publishes nothing, leaves no temp file and raises
   nothing: it only counts [cache.store_errors]. *)
let store_fails_cleanly what ~prepare =
  with_temp_cache (fun () ->
      let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(32 * 1024) () in
      let file = Cache.path cfg ~workload:"W" ~scheme:"S" ~seed:1 in
      let tmp =
        Printf.sprintf "%s.%d.%d.tmp" file (Unix.getpid ())
          (Domain.self () :> int)
      in
      Cache.mkdir_p (Filename.dirname file);
      let cleanup = prepare ~file ~tmp in
      Fun.protect ~finally:cleanup (fun () ->
          let errors = Obs.Metrics.counter "cache.store_errors" in
          let before = Obs.Metrics.value errors
          and stores = (Cache.stats ()).Cache.stores in
          Cache.store cfg ~workload:"W" ~scheme:"S" ~seed:1
            (Gpu_util.Json.Obj [ ("x", Gpu_util.Json.Int 1) ]);
          Alcotest.(check int) (what ^ ": error counted") (before + 1)
            (Obs.Metrics.value errors);
          Alcotest.(check int) (what ^ ": not counted as stored") stores
            (Cache.stats ()).Cache.stores;
          Alcotest.(check bool) (what ^ ": temp file removed") false
            (Sys.file_exists tmp);
          Alcotest.(check bool) (what ^ ": nothing published") true
            (Cache.load cfg ~workload:"W" ~scheme:"S" ~seed:1 = None)))

let test_store_full_disk () =
  (* the temp file is /dev/full: the final flush fails with ENOSPC *)
  store_fails_cleanly "full disk" ~prepare:(fun ~file:_ ~tmp ->
      Unix.symlink "/dev/full" tmp;
      fun () -> try Sys.remove tmp with Sys_error _ -> ())

let test_store_rename_fails () =
  (* a directory sits at the entry's path: the rename fails *)
  store_fails_cleanly "rename" ~prepare:(fun ~file ~tmp:_ ->
      Unix.mkdir file 0o755;
      fun () -> Unix.rmdir file)

let tests =
  [
    ( "parallel.pool",
      [
        Alcotest.test_case "map preserves order" `Quick test_pool_preserves_order;
        Alcotest.test_case "runs on K domains" `Quick test_pool_uses_domains;
        Alcotest.test_case "propagates exceptions" `Quick test_pool_propagates_exceptions;
      ] );
    ( "parallel.sweep",
      [
        Alcotest.test_case "matches sequential" `Quick test_parallel_sweep_matches_sequential;
        Alcotest.test_case "preserves order" `Quick test_run_many_preserves_order;
      ] );
    ( "parallel.cache",
      [
        Alcotest.test_case "JSON round trip" `Quick test_json_round_trip;
        Alcotest.test_case "round trip through text" `Quick test_json_round_trip_through_text;
        Alcotest.test_case "scheme labels round trip" `Quick test_scheme_label_round_trip;
        Alcotest.test_case "fingerprint covers every field" `Quick
          test_fingerprint_sensitive_to_every_field;
        Alcotest.test_case "second run hits cache" `Quick test_warm_second_run_hits_cache;
        Alcotest.test_case "CATT analyses memoized" `Quick test_analyses_memoized;
        Alcotest.test_case "corrupt entry recomputed" `Quick test_corrupt_cache_entry_is_recomputed;
        Alcotest.test_case "two writers on one key" `Quick test_two_writers_one_key;
        Alcotest.test_case "store on a full disk" `Quick test_store_full_disk;
        Alcotest.test_case "store whose rename fails" `Quick test_store_rename_fails;
      ] );
  ]
