(** Profiler unit + regression tests: ring buffer, rank correlation,
    cache-eviction edge cases, bypassed-array non-allocation, carveout
    resize, trace memory bounding, JSON round-trips and golden profiles.

    Golden snapshots live in [test/golden_profiles/*.json]; regenerate
    after an intentional format change with

      dune build test/profile_check.exe && \
      GOLDEN_REGEN=$PWD/test/golden_profiles _build/default/test/profile_check.exe *)

module Config = Gpusim.Config
module Gpu = Gpusim.Gpu
module Cache = Gpusim.Cache
module Json = Gpu_util.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)
(* ------------------------------------------------------------------ *)

let test_ring_basics () =
  let r = Profile.Ring.create ~cap:3 ~dummy:0 in
  check_int "empty" 0 (Profile.Ring.length r);
  Profile.Ring.push r 1;
  Profile.Ring.push r 2;
  Alcotest.(check (array int)) "partial, in order" [| 1; 2 |] (Profile.Ring.to_array r);
  List.iter (Profile.Ring.push r) [ 3; 4; 5 ];
  check_int "length capped" 3 (Profile.Ring.length r);
  check_int "capacity" 3 (Profile.Ring.capacity r);
  check_int "dropped" 2 (Profile.Ring.dropped r);
  Alcotest.(check (array int)) "oldest survivors first" [| 3; 4; 5 |]
    (Profile.Ring.to_array r);
  Profile.Ring.clear r;
  check_int "cleared" 0 (Profile.Ring.length r);
  check_int "dropped reset" 0 (Profile.Ring.dropped r)

let test_ring_bad_capacity () =
  Alcotest.check_raises "cap 0 rejected"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Profile.Ring.create ~cap:0 ~dummy:()))

(* ------------------------------------------------------------------ *)
(* Spearman rank correlation                                           *)
(* ------------------------------------------------------------------ *)

let check_float = Alcotest.(check (float 1e-9))

let test_spearman () =
  let sp xs ys = Gpu_util.Stats.spearman (Array.of_list xs) (Array.of_list ys) in
  check_float "monotone" 1.0 (sp [ 1.; 2.; 3.; 4. ] [ 10.; 20.; 30.; 40. ]);
  check_float "nonlinear monotone" 1.0 (sp [ 1.; 2.; 3. ] [ 1.; 10.; 100. ]);
  check_float "reversed" (-1.0) (sp [ 1.; 2.; 3.; 4. ] [ 9.; 7.; 5.; 3. ]);
  check_float "ties averaged"
    (4.5 /. sqrt 22.5)
    (sp [ 1.; 2.; 2.; 3. ] [ 1.; 2.; 3.; 4. ]);
  check_float "constant side is 0" 0.0 (sp [ 5.; 5.; 5. ] [ 1.; 2.; 3. ]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Stats.spearman: length mismatch") (fun () ->
      ignore (sp [ 1.; 2. ] [ 1. ]))

(* ------------------------------------------------------------------ *)
(* Cache eviction edge cases                                           *)
(* ------------------------------------------------------------------ *)

(* one set, four ways *)
let tiny_cache () = Cache.create ~bytes:(4 * 128) ~assoc:4 ~line_bytes:128 ~mshrs:8 ()

(* One read through the SM's miss sequence (probe, miss_issue, fill),
   reporting a displaced valid line with its set, as the profiler sees
   it; the outcome: [`Hit], [`Pending] or [`Miss]. *)
let access c ~evs ~line ~latency =
  let r = Cache.probe c ~now:0 ~line in
  if r >= 0 then if Cache.probe_pending r then `Pending else `Hit
  else begin
    let issue = Cache.miss_issue c ~now:0 in
    let victim = Cache.victim c r in
    if victim <> -1 then evs := (Cache.miss_set c r, victim) :: !evs;
    Cache.fill c ~miss:r ~line ~ready:(issue + latency);
    `Miss
  end

let test_conflict_eviction () =
  let c = tiny_cache () in
  check_int "single set" 1 (Cache.sets c);
  let evs = ref [] in
  let access line = access c ~evs ~line ~latency:0 in
  List.iter (fun l -> ignore (access l)) [ 0; 1; 2; 3 ];
  check "no eviction while filling" true (!evs = []);
  ignore (access 4);
  check "LRU victim reported" true (!evs = [ (0, 0) ]);
  check "victim gone" true (Cache.probe c ~now:0 ~line:0 < 0);
  check "newcomer present" true (Cache.probe c ~now:0 ~line:4 >= 0);
  ignore (access 0);
  (* line 1 is now least recently used *)
  check "second victim is next LRU" true (List.hd !evs = (0, 1))

let test_pending_merge_no_evict () =
  let c = tiny_cache () in
  let evs = ref [] in
  let access () = access c ~evs ~line:7 ~latency:100 in
  check "first access misses" true (access () = `Miss);
  check "second merges into in-flight fill" true (access () = `Pending);
  check "merge evicts nothing" true (!evs = [])

(* ------------------------------------------------------------------ *)
(* Simulator-driven profiler checks                                    *)
(* ------------------------------------------------------------------ *)

let two_array_src =
  "__global__ void k(float *a, float *b, float *out) {\n\
   int i = blockIdx.x * blockDim.x + threadIdx.x;\n\
   for (int j = 0; j < 16; j++) {\n\
   out[i] += a[i * 16 + j] + b[j];\n\
   }\n\
   }"

let run_two_array cfg ~bypass ~carveout ~profile =
  let kernel = Minicuda.Parser.parse_kernel two_array_src in
  let prog = Gpusim.Codegen.compile_kernel kernel in
  let dev = Gpu.create cfg in
  let threads = 128 in
  Gpu.upload dev "a" (Array.init (threads * 16) (fun i -> float_of_int (i land 7)));
  Gpu.upload dev "b" (Array.init 16 float_of_int);
  Gpu.alloc dev "out" threads;
  let launch =
    Gpu.default_launch ?smem_carveout:carveout
      ~bypass_arrays:(if bypass then [ "a" ] else [])
      ?profile ~prog ~grid:(2, 1) ~block:(64, 1)
      [ Gpu.Arr "a"; Gpu.Arr "b"; Gpu.Arr "out" ]
  in
  Gpu.launch dev launch

let find_array_id c name =
  match List.find_opt (fun a -> a.Profile.Collector.name = name) (Profile.Collector.arrays c) with
  | Some a -> a.Profile.Collector.id
  | None -> Alcotest.failf "array %s not registered with the collector" name

let cfg2 = Config.scaled ~num_sms:2 ()

let test_bypassed_array_not_allocated () =
  let c = Profile.Collector.create () in
  let stats, _ = run_two_array cfg2 ~bypass:true ~carveout:None ~profile:(Some c) in
  check "bypass transactions happened" true (stats.Gpusim.Stats.bypass_transactions > 0);
  let a_id = find_array_id c "a" and b_id = find_array_id c "b" in
  let a_loads, _ = Profile.Collector.array_miss_rate c ~arr_id:a_id in
  let b_loads, _ = Profile.Collector.array_miss_rate c ~arr_id:b_id in
  check_int "bypassed array never allocates in L1" 0 a_loads;
  check "cached array still loads through L1" true (b_loads > 0);
  let a_bypassed =
    List.fold_left
      (fun acc ((id, _), cell) -> if id = a_id then acc + cell.Profile.Heatmap.bypassed else acc)
      0
      (Profile.Heatmap.rows (Profile.Collector.heat c))
  in
  check "bypass counted per site" true (a_bypassed > 0);
  (* bypassed loads skip the sets entirely, so set accesses = L1 accesses *)
  check_int "set accesses match L1 accesses"
    stats.Gpusim.Stats.l1_accesses
    (Array.fold_left ( + ) 0 (Profile.Collector.heat c).Profile.Heatmap.set_accesses)

let test_carveout_resize () =
  (* 32 KB on-chip: carveout 0 leaves 64 sets, carveout 16 KB leaves 32 *)
  let sets ~carveout =
    let c = Profile.Collector.create () in
    ignore (run_two_array cfg2 ~bypass:false ~carveout ~profile:(Some c));
    Profile.Heatmap.num_sets (Profile.Collector.heat c)
  in
  check_int "full L1D" 64 (sets ~carveout:None);
  check_int "half carved out" 32 (sets ~carveout:(Some (16 * 1024)));
  (* one collector across both geometries grows to the larger set count
     and the accounting identity still holds *)
  let c = Profile.Collector.create () in
  ignore (run_two_array cfg2 ~bypass:false ~carveout:(Some (16 * 1024)) ~profile:(Some c));
  check_int "starts small" 32 (Profile.Heatmap.num_sets (Profile.Collector.heat c));
  ignore (run_two_array cfg2 ~bypass:false ~carveout:None ~profile:(Some c));
  check_int "grows, never shrinks" 64 (Profile.Heatmap.num_sets (Profile.Collector.heat c));
  check_int "aggregates both launches" 2 (Profile.Collector.launches c);
  check "identity across resize" true (Profile.Collector.check_identity c = Ok ())

let test_trace_bounded () =
  let cap = 64 in
  let trace = Gpusim.Trace.create ~cap ~sm:0 () in
  for i = 1 to 3 * cap do
    Gpusim.Trace.record trace ~sm:0 ~pc:i ~requests:1 ~cycle:i;
    (* another SM's events are not this ring's *)
    Gpusim.Trace.record trace ~sm:1 ~pc:0 ~requests:1 ~cycle:i
  done;
  check_int "ring capacity is its cap" cap (Gpusim.Trace.capacity trace);
  check_int "stored entries bounded" cap (Gpusim.Trace.length trace);
  check_int "older entries were dropped, not stored" (2 * cap)
    (Gpusim.Trace.dropped trace);
  check_int "the most recent window survives" ((2 * cap) + 1)
    (Gpusim.Trace.to_array trace).(0).Gpusim.Trace.pc;
  check_int "series matches ring" cap
    (Array.length (Gpusim.Trace.request_series trace));
  (* a traced launch records into a ring of the default cap *)
  let kernel = Minicuda.Parser.parse_kernel two_array_src in
  let prog = Gpusim.Codegen.compile_kernel kernel in
  let dev = Gpu.create cfg2 in
  Gpu.upload dev "a" (Array.make (128 * 16) 1.0);
  Gpu.upload dev "b" (Array.make 16 1.0);
  Gpu.alloc dev "out" 128;
  let launch =
    Gpu.default_launch ~trace:true ~prog ~grid:(2, 1) ~block:(64, 1)
      [ Gpu.Arr "a"; Gpu.Arr "b"; Gpu.Arr "out" ]
  in
  let _, launched = Gpu.launch dev launch in
  check_int "launch ring at the default cap" Gpusim.Trace.default_cap
    (Gpusim.Trace.capacity launched);
  check "launch recorded" true (Gpusim.Trace.length launched > 0)

let test_json_roundtrip () =
  let c = Profile.Collector.create () in
  ignore (run_two_array cfg2 ~bypass:false ~carveout:None ~profile:(Some c));
  let j = Profile.Collector.to_json c in
  match Profile.Collector.of_json j with
  | Error msg -> Alcotest.failf "of_json: %s" msg
  | Ok c2 ->
    Alcotest.(check string)
      "to_json . of_json . to_json = to_json"
      (Json.to_string j)
      (Json.to_string (Profile.Collector.to_json c2))

(* ------------------------------------------------------------------ *)
(* Golden profiles                                                     *)
(* ------------------------------------------------------------------ *)

let golden_cfg = Config.scaled ~num_sms:2 ()

let workload_bundle name =
  let w = Workloads.Registry.find name in
  let run =
    match
      Experiments.Runner.exec
        (Experiments.Runner.Request.make ~profile:true golden_cfg w
           Experiments.Runner.Baseline)
    with
    | Ok r -> r
    | Error msg -> failwith msg
  in
  let pairs =
    List.filter_map
      (fun k ->
        Option.map
          (fun p -> (k.Experiments.Runner.kernel_name, p))
          k.Experiments.Runner.profile)
      run.Experiments.Runner.kernels
  in
  if pairs = [] then Alcotest.failf "%s produced no profiled kernels" name;
  pairs

let microbench_bundle () =
  let cfg = golden_cfg in
  let t =
    Workloads.Microbench.variant ~l1d_bytes:cfg.Config.onchip_bytes
      ~line_bytes:cfg.Config.line_bytes ~warp_size:cfg.Config.warp_size
      ~fill_warps:8 ~reps:2
  in
  let c = Profile.Collector.create () in
  ignore (Workloads.Microbench.run ~profile:c cfg t ~warps:16);
  [ (t.Workloads.Microbench.label, c) ]

(* one CS workload, one CI workload, one microbenchmark *)
let goldens =
  [
    ("atax", fun () -> workload_bundle "ATAX");
    ("bp", fun () -> workload_bundle "BP");
    ("microbench", microbench_bundle);
  ]

let golden_string pairs =
  Json.to_string ~pretty:true (Experiments.Profile_all.bundle_to_json pairs) ^ "\n"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden name build () =
  let pairs = build () in
  List.iter
    (fun (kernel, c) ->
      match Profile.Collector.check_identity c with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s/%s: %s" name kernel msg)
    pairs;
  let path = Filename.concat "golden_profiles" (name ^ ".json") in
  if not (Sys.file_exists path) then
    Alcotest.failf "missing golden %s — regenerate (see header comment)" path;
  Alcotest.(check string)
    (Printf.sprintf "%s profile matches golden snapshot" name)
    (read_file path) (golden_string pairs)

(** Manual regeneration entry point, driven by profile_check.ml. *)
let regen_goldens dir =
  List.iter
    (fun (name, build) ->
      let path = Filename.concat dir (name ^ ".json") in
      let oc = open_out_bin path in
      output_string oc (golden_string (build ()));
      close_out oc;
      Printf.printf "wrote %s\n%!" path)
    goldens

let tests =
  [
    ( "profile-units",
      [
        Alcotest.test_case "ring basics" `Quick test_ring_basics;
        Alcotest.test_case "ring bad capacity" `Quick test_ring_bad_capacity;
        Alcotest.test_case "spearman" `Quick test_spearman;
        Alcotest.test_case "conflict eviction callback" `Quick test_conflict_eviction;
        Alcotest.test_case "pending merge evicts nothing" `Quick test_pending_merge_no_evict;
      ] );
    ( "profile-sim",
      [
        Alcotest.test_case "bypassed array never allocates" `Quick
          test_bypassed_array_not_allocated;
        Alcotest.test_case "carveout resize" `Quick test_carveout_resize;
        Alcotest.test_case "trace memory bounded" `Quick test_trace_bounded;
        Alcotest.test_case "profile JSON round-trip" `Quick test_json_roundtrip;
      ] );
    ( "golden-profiles",
      List.map
        (fun (name, build) ->
          Alcotest.test_case name `Slow (test_golden name build))
        goldens );
  ]
