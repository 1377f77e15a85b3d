(** Tests for the GPU simulator: cache, coalescer, occupancy, code
    generation and SIMT execution semantics (divergence, loops, barriers,
    early return), plus a differential property checking the simulator
    against direct evaluation on randomly generated kernels. *)

module Cache = Gpusim.Cache
module Cta = Gpusim.Cta_scheduler
module Config = Gpusim.Config
module Gpu = Gpusim.Gpu

(* ---------------------------- Cache -------------------------------- *)

(* the library cache through the SM's miss sequence; [flush] exists only
   on the reference model, the pre-refactor cache kept in the test tree *)
let access = Cache_driver.access

let no_mem = fun ~issue -> issue + 100

let test_cache_miss_then_hit () =
  let c = Cache.create ~bytes:(4 * 1024) ~assoc:4 ~line_bytes:128 ~mshrs:8 () in
  let _, o1 = access c ~now:0 ~line:5 ~miss_ready:no_mem in
  Alcotest.(check bool) "first is miss" true (o1 = Cache_driver.Miss);
  let t2, o2 = access c ~now:200 ~line:5 ~miss_ready:no_mem in
  Alcotest.(check bool) "second is hit" true (o2 = Cache_driver.Hit);
  Alcotest.(check int) "hit at now" 200 t2

let test_cache_pending_hit () =
  let c = Cache.create ~bytes:(4 * 1024) ~assoc:4 ~line_bytes:128 ~mshrs:8 () in
  let ready, _ = access c ~now:0 ~line:7 ~miss_ready:no_mem in
  Alcotest.(check int) "fill at 100" 100 ready;
  let t, o = access c ~now:50 ~line:7 ~miss_ready:no_mem in
  Alcotest.(check bool) "pending hit" true (o = Cache_driver.Pending_hit);
  Alcotest.(check int) "waits for fill" 100 t

let test_cache_lru_eviction () =
  (* one-set cache: 2 ways *)
  let c = Cache.create ~bytes:256 ~assoc:2 ~line_bytes:128 ~mshrs:8 () in
  Alcotest.(check int) "single set" 1 (Cache.sets c);
  ignore (access c ~now:0 ~line:1 ~miss_ready:no_mem);
  ignore (access c ~now:1 ~line:2 ~miss_ready:no_mem);
  ignore (access c ~now:2 ~line:1 ~miss_ready:no_mem);
  (* line 1 is MRU; inserting line 3 must evict line 2 *)
  ignore (access c ~now:3 ~line:3 ~miss_ready:no_mem);
  Alcotest.(check bool) "line 1 kept" true (Cache_driver.present c ~line:1);
  Alcotest.(check bool) "line 2 evicted" false (Cache_driver.present c ~line:2)

let test_cache_mshr_stall () =
  let c = Cache.create ~bytes:(64 * 1024) ~assoc:4 ~line_bytes:128 ~mshrs:2 () in
  let r1, _ = access c ~now:0 ~line:10 ~miss_ready:no_mem in
  let r2, _ = access c ~now:0 ~line:20 ~miss_ready:no_mem in
  Alcotest.(check int) "r1" 100 r1;
  Alcotest.(check int) "r2" 100 r2;
  (* both MSHRs busy: the third miss's issue is delayed to the earliest fill *)
  let r3, _ = access c ~now:1 ~line:30 ~miss_ready:no_mem in
  Alcotest.(check int) "r3 delayed" 200 r3

let test_cache_write_no_allocate () =
  let c = Cache.create ~bytes:(4 * 1024) ~assoc:4 ~line_bytes:128 ~mshrs:8 () in
  Alcotest.(check bool) "absent write" false (Cache.write_update c ~line:9);
  Alcotest.(check bool) "still absent" false (Cache_driver.present c ~line:9);
  ignore (access c ~now:0 ~line:9 ~miss_ready:no_mem);
  Alcotest.(check bool) "present write" true (Cache.write_update c ~line:9)

let test_cache_flush () =
  let c =
    Cache_reference.create ~bytes:(4 * 1024) ~assoc:4 ~line_bytes:128 ~mshrs:8 ()
  in
  ignore (Cache_reference.access c ~now:0 ~line:3 ~miss_ready:no_mem);
  Cache_reference.flush c;
  Alcotest.(check bool) "gone after flush" false (Cache_reference.contains c ~line:3)

let prop_cache_capacity =
  QCheck.Test.make ~name:"working set <= ways per set never re-misses" ~count:100
    QCheck.(int_range 0 1000)
    (fun start ->
      let c = Cache.create ~bytes:(8 * 1024) ~assoc:4 ~line_bytes:128 ~mshrs:16 () in
      (* four lines that map to the same set under any hashing still fit *)
      let lines = [ start; start + 1; start + 2; start + 3 ] in
      List.iter (fun l -> ignore (access c ~now:0 ~line:l ~miss_ready:no_mem)) lines;
      List.for_all
        (fun l -> snd (access c ~now:500 ~line:l ~miss_ready:no_mem) = Cache_driver.Hit)
        lines)

(* -------------------------- Coalescer ------------------------------ *)

let test_coalescer_broadcast () =
  let addrs = Array.make 32 4096 in
  Alcotest.(check int) "same address -> 1 line" 1
    (Cache_driver.count ~line_bytes:128 ~addrs ~mask:0xFFFFFFFF)

let test_coalescer_contiguous () =
  let addrs = Array.init 32 (fun i -> i * 4) in
  Alcotest.(check int) "contiguous floats -> 1 line" 1
    (Cache_driver.count ~line_bytes:128 ~addrs ~mask:0xFFFFFFFF)

let test_coalescer_divergent () =
  let addrs = Array.init 32 (fun i -> i * 4096) in
  Alcotest.(check int) "4KB stride -> 32 lines" 32
    (Cache_driver.count ~line_bytes:128 ~addrs ~mask:0xFFFFFFFF)

let test_coalescer_stride_8 () =
  (* the paper's example: inter-thread distance of 8 elements (32 B) means
     every four threads share a line: 8 requests per warp *)
  let addrs = Array.init 32 (fun i -> i * 32) in
  Alcotest.(check int) "8 lines" 8
    (Cache_driver.count ~line_bytes:128 ~addrs ~mask:0xFFFFFFFF)

let test_coalescer_mask () =
  let addrs = Array.init 32 (fun i -> i * 4096) in
  Alcotest.(check int) "only active lanes" 4
    (Cache_driver.count ~line_bytes:128 ~addrs ~mask:0b1111)

let prop_coalescer_bounds =
  QCheck.Test.make ~name:"1 <= requests <= active lanes" ~count:300
    QCheck.(pair (list_of_size (Gen.return 32) (int_range 0 100000)) (int_range 1 0xFFFFFFFF))
    (fun (addr_list, mask) ->
      let addrs = Array.of_list addr_list in
      let active = ref 0 in
      for lane = 0 to 31 do
        if mask land (1 lsl lane) <> 0 then incr active
      done;
      let n = Cache_driver.count ~line_bytes:128 ~addrs ~mask in
      n >= min 1 !active && n <= max 1 !active)

(* ------------------------- Occupancy ------------------------------- *)

let cfg = Config.scaled ~num_sms:4 ~onchip_bytes:(32 * 1024) ()

let test_occupancy_warp_limit () =
  (* 256-thread TBs, no shared, few registers: warp slots bind (32/8 = 4) *)
  Alcotest.(check int) "warp-slot bound" 4
    (Cta.max_tbs_per_sm cfg ~tb_threads:256 ~num_regs:8 ~shared_bytes:0 ~smem_carveout:0)

let test_occupancy_register_limit () =
  (* Eq. 2: 64KB regfile / (64 regs * 4B * 256 threads) = 1 *)
  Alcotest.(check int) "register bound" 1
    (Cta.max_tbs_per_sm cfg ~tb_threads:256 ~num_regs:64 ~shared_bytes:0 ~smem_carveout:0)

let test_occupancy_shared_limit () =
  (* Eq. 1: 8KB carveout / 3KB per TB = 2 *)
  Alcotest.(check int) "shared bound" 2
    (Cta.max_tbs_per_sm cfg ~tb_threads:64 ~num_regs:8 ~shared_bytes:3072
       ~smem_carveout:8192)

let test_occupancy_zero_when_oversized () =
  Alcotest.(check int) "impossible TB" 0
    (Cta.max_tbs_per_sm cfg ~tb_threads:256 ~num_regs:128 ~shared_bytes:0 ~smem_carveout:0)

let test_warps_per_tb_rounds_up () =
  Alcotest.(check int) "65 threads = 3 warps" 3 (Cta.warps_per_tb cfg ~tb_threads:65)

(* --------------------------- Codegen ------------------------------- *)

let compile src = Gpusim.Codegen.compile_kernel (Minicuda.Parser.parse_kernel src)

let test_codegen_register_recycling () =
  (* two sibling loops with identical bodies must not double the register
     count: block-scoped locals are recycled *)
  let one = compile
    "__global__ void k(float *a) { for (int i = 0; i < 4; i++) { float t = a[i]; a[i] = t * 2.0; } }" in
  let two = compile
    "__global__ void k(float *a) { for (int i = 0; i < 4; i++) { float t = a[i]; a[i] = t * 2.0; } for (int i = 0; i < 4; i++) { float t = a[i]; a[i] = t * 2.0; } }" in
  Alcotest.(check int) "same register demand"
    one.Gpusim.Bytecode.num_regs two.Gpusim.Bytecode.num_regs

let test_codegen_global_load_ids () =
  let p = compile "__global__ void k(float *a, float *b) { b[0] = a[1] + a[2]; }" in
  Alcotest.(check int) "two global loads" 2 (List.length p.Gpusim.Bytecode.global_load_ids)

let test_codegen_shared_metadata () =
  let p = compile "__global__ void k(float *a) { __shared__ float s[128]; s[0] = a[0]; a[1] = s[0]; }" in
  Alcotest.(check int) "shared bytes" 512 p.Gpusim.Bytecode.shared_bytes;
  Alcotest.(check int) "one shared array" 1 (List.length p.Gpusim.Bytecode.shared_arrays)

let test_codegen_scalar_params () =
  let p = compile "__global__ void k(float *a, int n, float alpha) { if (threadIdx.x < n) { a[threadIdx.x] = alpha; } }" in
  Alcotest.(check int) "two preloaded scalars" 2
    (List.length p.Gpusim.Bytecode.scalar_param_regs)

(* ------------------------ Execution semantics ---------------------- *)

(* run a one-kernel program over given named arrays, return device *)
let run_kernel ?(grid = (1, 1)) ?(block = (32, 1)) ?(config = cfg) src arrays =
  let prog = compile src in
  let dev = Gpu.create config in
  List.iter (fun (name, data) -> Gpu.upload dev name data) arrays;
  let args = List.map (fun (name, _) -> Gpu.Arr name) arrays in
  let stats, _ = Gpu.launch dev (Gpu.default_launch ~prog ~grid ~block args) in
  (dev, stats)

let farray = Alcotest.testable (Fmt.Dump.array Fmt.float) (fun a b ->
    Array.length a = Array.length b
    && Array.for_all2 (fun x y -> abs_float (x -. y) < 1e-9) a b)

let test_exec_if_divergence () =
  let dev, _ =
    run_kernel
      "__global__ void k(float *out) { int i = threadIdx.x; if (i % 2 == 0) { out[i] = 1.0; } else { out[i] = 2.0; } }"
      [ ("out", Array.make 32 0.) ]
  in
  Alcotest.check farray "alternating"
    (Array.init 32 (fun i -> if i mod 2 = 0 then 1. else 2.))
    (Gpu.get dev "out")

let test_exec_nested_divergence () =
  let dev, _ =
    run_kernel
      "__global__ void k(float *out) { int i = threadIdx.x; if (i < 16) { if (i < 8) { out[i] = 1.0; } else { out[i] = 2.0; } } else { out[i] = 3.0; } }"
      [ ("out", Array.make 32 0.) ]
  in
  Alcotest.check farray "three regions"
    (Array.init 32 (fun i -> if i < 8 then 1. else if i < 16 then 2. else 3.))
    (Gpu.get dev "out")

let test_exec_divergent_trip_counts () =
  (* each lane iterates a different number of times *)
  let dev, _ =
    run_kernel
      "__global__ void k(float *out) { int i = threadIdx.x; float acc = 0.0; for (int j = 0; j < i; j++) { acc += 1.0; } out[i] = acc; }"
      [ ("out", Array.make 32 0.) ]
  in
  Alcotest.check farray "lane i counts to i"
    (Array.init 32 float_of_int) (Gpu.get dev "out")

let test_exec_early_return () =
  let dev, _ =
    run_kernel
      "__global__ void k(float *out) { int i = threadIdx.x; if (i >= 10) { return; } out[i] = 5.0; }"
      [ ("out", Array.make 32 1.) ]
  in
  Alcotest.check farray "lanes >= 10 untouched"
    (Array.init 32 (fun i -> if i < 10 then 5. else 1.))
    (Gpu.get dev "out")

let test_exec_barrier_ordering () =
  (* warp 1 reads what warp 0 wrote before the barrier *)
  let dev, _ =
    run_kernel ~block:(64, 1)
      "__global__ void k(float *out) { __shared__ float s[64]; int i = threadIdx.x; s[i] = (float)i * 10.0; __syncthreads(); out[i] = s[63 - i]; }"
      [ ("out", Array.make 64 0.) ]
  in
  Alcotest.check farray "cross-warp exchange"
    (Array.init 64 (fun i -> float_of_int (63 - i) *. 10.))
    (Gpu.get dev "out")

let test_exec_shared_is_per_tb () =
  (* two TBs write different values into "the same" shared slot *)
  let dev, _ =
    run_kernel ~grid:(2, 1) ~block:(32, 1)
      "__global__ void k(float *out) { __shared__ float s[32]; s[threadIdx.x] = (float)blockIdx.x + 1.0; __syncthreads(); out[blockIdx.x * 32 + threadIdx.x] = s[threadIdx.x]; }"
      [ ("out", Array.make 64 0.) ]
  in
  Alcotest.check farray "private shared"
    (Array.init 64 (fun i -> if i < 32 then 1. else 2.))
    (Gpu.get dev "out")

let test_exec_integer_division_truncates () =
  let dev, _ =
    run_kernel
      "__global__ void k(float *out) { int i = threadIdx.x; out[i] = (float)(i / 4) * 100.0 + (float)(i % 4); }"
      [ ("out", Array.make 32 0.) ]
  in
  Alcotest.check farray "div/mod"
    (Array.init 32 (fun i -> (float_of_int (i / 4) *. 100.) +. float_of_int (i mod 4)))
    (Gpu.get dev "out")

let test_exec_2d_block () =
  let dev, _ =
    run_kernel ~block:(8, 4)
      "__global__ void k(float *out) { int x = threadIdx.x; int y = threadIdx.y; out[y * 8 + x] = (float)(y * 100 + x); }"
      [ ("out", Array.make 32 0.) ]
  in
  Alcotest.check farray "2d ids"
    (Array.init 32 (fun i -> float_of_int ((i / 8 * 100) + (i mod 8))))
    (Gpu.get dev "out")

let test_exec_partial_warp () =
  (* 40 threads: the second warp has only 8 active lanes *)
  let dev, _ =
    run_kernel ~block:(40, 1)
      "__global__ void k(float *out) { out[threadIdx.x] = 1.0; }"
      [ ("out", Array.make 64 0.) ]
  in
  Alcotest.check farray "exactly 40 writes"
    (Array.init 64 (fun i -> if i < 40 then 1. else 0.))
    (Gpu.get dev "out")

let test_exec_while_loop () =
  let dev, _ =
    run_kernel
      "__global__ void k(float *out) { int i = threadIdx.x; int v = i; int steps = 0; while (v > 0) { v = v / 2; steps++; } out[i] = (float)steps; }"
      [ ("out", Array.make 32 0.) ]
  in
  let expected =
    Array.init 32 (fun i ->
        let rec count v acc = if v > 0 then count (v / 2) (acc + 1) else acc in
        float_of_int (count i 0))
  in
  Alcotest.check farray "log steps" expected (Gpu.get dev "out")

let test_exec_out_of_bounds_detected () =
  try
    ignore
      (run_kernel "__global__ void k(float *out) { out[threadIdx.x + 100] = 1.0; }"
         [ ("out", Array.make 32 0.) ]);
    Alcotest.fail "expected bounds error"
  with Gpusim.Sm.Sim_error _ -> ()

let test_exec_division_by_zero_detected () =
  try
    ignore
      (run_kernel "__global__ void k(float *out) { int z = 0; out[threadIdx.x / z] = 1.0; }"
         [ ("out", Array.make 32 0.) ]);
    Alcotest.fail "expected division error"
  with Gpusim.Sm.Sim_error _ -> ()

let test_exec_deterministic_cycles () =
  let src =
    "__global__ void k(float *a, float *out) { int i = blockIdx.x * blockDim.x + threadIdx.x; float acc = 0.0; for (int j = 0; j < 64; j++) { acc += a[i * 64 + j]; } out[i] = acc; }"
  in
  let run () =
    let _, stats =
      run_kernel ~grid:(4, 1) ~block:(64, 1) src
        [ ("a", Array.init (256 * 64) float_of_int); ("out", Array.make 256 0.) ]
    in
    stats.Gpusim.Stats.cycles
  in
  Alcotest.(check int) "same cycles" (run ()) (run ())

let test_exec_launch_arg_mismatch () =
  let prog = compile "__global__ void k(float *a, float *b) { b[0] = a[0]; }" in
  let dev = Gpu.create cfg in
  Gpu.upload dev "a" (Array.make 8 0.);
  Alcotest.check_raises "missing argument"
    (Gpu.Launch_error "kernel k expects 2 arguments, got 1") (fun () ->
      ignore (Gpu.launch dev (Gpu.default_launch ~prog ~grid:(1, 1) ~block:(32, 1) [ Gpu.Arr "a" ])))

(* the lane loops shift addresses to lines, so a launch refuses a line
   size that is not a power of two, even in a record built around
   [Config.validate] *)
let test_exec_line_size_refused () =
  let prog = compile "__global__ void k(float *a) { a[0] = 1.0; }" in
  let dev = Gpu.create { cfg with Config.line_bytes = 96 } in
  Gpu.upload dev "a" (Array.make 8 0.);
  Alcotest.check_raises "96-byte lines"
    (Gpu.Launch_error "line size 96 is not a power of two") (fun () ->
      ignore (Gpu.launch dev (Gpu.default_launch ~prog ~grid:(1, 1) ~block:(32, 1) [ Gpu.Arr "a" ])))

(* --------------------- Differential property ----------------------- *)

(* random arithmetic kernels: out[i] = f(i, in[i]) with f drawn from a
   small expression grammar; simulator result must equal direct eval *)
type dexpr =
  | D_in  (* in[i] *)
  | D_i  (* thread index as float *)
  | D_const of float
  | D_add of dexpr * dexpr
  | D_sub of dexpr * dexpr
  | D_mul of dexpr * dexpr
  | D_min of dexpr * dexpr
  | D_sqrt_abs of dexpr

let rec dexpr_to_src = function
  | D_in -> "inv[i]"
  | D_i -> "(float)i"
  | D_const f -> Printf.sprintf "%.17g" f
  | D_add (a, b) -> Printf.sprintf "(%s + %s)" (dexpr_to_src a) (dexpr_to_src b)
  | D_sub (a, b) -> Printf.sprintf "(%s - %s)" (dexpr_to_src a) (dexpr_to_src b)
  | D_mul (a, b) -> Printf.sprintf "(%s * %s)" (dexpr_to_src a) (dexpr_to_src b)
  | D_min (a, b) -> Printf.sprintf "fminf(%s, %s)" (dexpr_to_src a) (dexpr_to_src b)
  | D_sqrt_abs a -> Printf.sprintf "sqrtf(fabsf(%s))" (dexpr_to_src a)

let rec dexpr_eval ~i ~input = function
  | D_in -> input
  | D_i -> float_of_int i
  | D_const f -> f
  | D_add (a, b) -> dexpr_eval ~i ~input a +. dexpr_eval ~i ~input b
  | D_sub (a, b) -> dexpr_eval ~i ~input a -. dexpr_eval ~i ~input b
  | D_mul (a, b) -> dexpr_eval ~i ~input a *. dexpr_eval ~i ~input b
  | D_min (a, b) -> min (dexpr_eval ~i ~input a) (dexpr_eval ~i ~input b)
  | D_sqrt_abs a -> sqrt (abs_float (dexpr_eval ~i ~input a))

let gen_dexpr =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n = 0 then
          oneof
            [ return D_in; return D_i; map (fun f -> D_const f) (float_range (-4.) 4.) ]
        else
          oneof
            [
              map2 (fun a b -> D_add (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> D_sub (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> D_mul (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> D_min (a, b)) (self (n / 2)) (self (n / 2));
              map (fun a -> D_sqrt_abs a) (self (n - 1));
            ]))

let prop_sim_matches_direct_eval =
  QCheck.Test.make ~name:"simulator = direct evaluation" ~count:60
    (QCheck.make ~print:dexpr_to_src gen_dexpr)
    (fun e ->
      let src =
        Printf.sprintf
          "__global__ void k(float *inv, float *out) { int i = threadIdx.x; out[i] = %s; }"
          (dexpr_to_src e)
      in
      let input = Array.init 32 (fun i -> float_of_int (((i * 13) mod 17) - 8) /. 3.) in
      let dev, _ = run_kernel src [ ("inv", input); ("out", Array.make 32 0.) ] in
      let out = Gpu.get dev "out" in
      let ok = ref true in
      for i = 0 to 31 do
        let expected = dexpr_eval ~i ~input:input.(i) e in
        if abs_float (expected -. out.(i)) > 1e-6 *. max 1. (abs_float expected) then
          ok := false
      done;
      !ok)

let tests =
  [
    ( "gpusim.cache",
      [
        Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
        Alcotest.test_case "pending hit" `Quick test_cache_pending_hit;
        Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "MSHR stall" `Quick test_cache_mshr_stall;
        Alcotest.test_case "write no-allocate" `Quick test_cache_write_no_allocate;
        Alcotest.test_case "flush" `Quick test_cache_flush;
        QCheck_alcotest.to_alcotest prop_cache_capacity;
      ] );
    ( "gpusim.coalescer",
      [
        Alcotest.test_case "broadcast" `Quick test_coalescer_broadcast;
        Alcotest.test_case "contiguous" `Quick test_coalescer_contiguous;
        Alcotest.test_case "fully divergent" `Quick test_coalescer_divergent;
        Alcotest.test_case "paper's stride-8 example" `Quick test_coalescer_stride_8;
        Alcotest.test_case "respects mask" `Quick test_coalescer_mask;
        QCheck_alcotest.to_alcotest prop_coalescer_bounds;
      ] );
    ( "gpusim.occupancy",
      [
        Alcotest.test_case "warp-slot limit" `Quick test_occupancy_warp_limit;
        Alcotest.test_case "register limit (Eq.2)" `Quick test_occupancy_register_limit;
        Alcotest.test_case "shared limit (Eq.1)" `Quick test_occupancy_shared_limit;
        Alcotest.test_case "zero occupancy" `Quick test_occupancy_zero_when_oversized;
        Alcotest.test_case "warps round up" `Quick test_warps_per_tb_rounds_up;
      ] );
    ( "gpusim.codegen",
      [
        Alcotest.test_case "register recycling" `Quick test_codegen_register_recycling;
        Alcotest.test_case "global load ids" `Quick test_codegen_global_load_ids;
        Alcotest.test_case "shared metadata" `Quick test_codegen_shared_metadata;
        Alcotest.test_case "scalar params" `Quick test_codegen_scalar_params;
      ] );
    ( "gpusim.exec",
      [
        Alcotest.test_case "if divergence" `Quick test_exec_if_divergence;
        Alcotest.test_case "nested divergence" `Quick test_exec_nested_divergence;
        Alcotest.test_case "divergent trip counts" `Quick test_exec_divergent_trip_counts;
        Alcotest.test_case "early return" `Quick test_exec_early_return;
        Alcotest.test_case "barrier ordering" `Quick test_exec_barrier_ordering;
        Alcotest.test_case "shared is per-TB" `Quick test_exec_shared_is_per_tb;
        Alcotest.test_case "integer division" `Quick test_exec_integer_division_truncates;
        Alcotest.test_case "2-D thread block" `Quick test_exec_2d_block;
        Alcotest.test_case "partial warp" `Quick test_exec_partial_warp;
        Alcotest.test_case "while loop" `Quick test_exec_while_loop;
        Alcotest.test_case "bounds checking" `Quick test_exec_out_of_bounds_detected;
        Alcotest.test_case "division by zero" `Quick test_exec_division_by_zero_detected;
        Alcotest.test_case "deterministic timing" `Quick test_exec_deterministic_cycles;
        Alcotest.test_case "argument mismatch" `Quick test_exec_launch_arg_mismatch;
        Alcotest.test_case "line size not a power of two" `Quick
          test_exec_line_size_refused;
        QCheck_alcotest.to_alcotest prop_sim_matches_direct_eval;
      ] );
  ]
