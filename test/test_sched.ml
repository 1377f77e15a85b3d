(** Pins for the pooled scheduler under loose round-robin.

    DYNCTA, CCWS, SWL and CIAO choose the schedulable warps through a
    pool filter, and LRR picks from that pool by its own cursor.  The
    golden grid runs GTO only, and the differential properties compare a
    build only with itself, so these digests are what holds LRR's pool
    path still: each cell's stats (every launch, in order) and final
    device memory must digest to the committed values.  They were taken
    before the pool was kept across picks, and a change to when it is
    refilled must leave them unchanged. *)

module Gpu = Gpusim.Gpu

let policies =
  [ ("dynamic", `Dyncta); ("ccws", `Ccws); ("swl(4)", `Swl 4); ("ciao", `Ciao) ]

(* one launch per element under LRR on [dev]; the hex digests of the
   launches' stats and of the final device memory *)
let run_lrr dev throttle launches =
  let stats =
    List.map
      (fun (prog, grid, block, args) ->
        let l =
          Gpu.default_launch ~sched:Gpusim.Sm.Lrr ~runtime_throttle:throttle
            ~prog ~grid ~block args
        in
        let stats, _ = Gpu.launch dev l in
        Gpu_util.Json.to_string (Gpusim.Stats.to_json stats))
      launches
  in
  ( Digest.to_hex (Digest.string (String.concat "\n" stats)),
    Digest.to_hex (Experiments.Golden_grid.digest_memory dev) )

let atax throttle =
  let w = Workloads.Registry.find "ATAX" in
  let kernels = Workloads.Workload.kernels w in
  let dev = Gpu.create (Experiments.Configs.max_l1d ()) in
  w.Workloads.Workload.setup dev (Gpu_util.Rng.create Experiments.Runner.seed);
  let digests =
    run_lrr dev throttle
      (List.map
         (fun (l : Workloads.Workload.kernel_launch) ->
           ( Gpusim.Codegen.compile_kernel
               (List.assoc l.Workloads.Workload.kernel_name kernels),
             l.Workloads.Workload.grid,
             l.Workloads.Workload.block,
             l.Workloads.Workload.args ))
         w.Workloads.Workload.launches)
  in
  (match w.Workloads.Workload.verify dev with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "ATAX under LRR: %s" msg);
  digests

(* The barrier shape of the differential properties, on their 2-SM,
   16 KB device.  Their grids of one to three blocks end before DYNCTA's
   first epoch and CIAO's warm-up; 256 blocks keep 32 warps resident per
   SM, more than SWL(4) schedules, so the barrier-drain rule decides the
   pool, and every policy's stats differ from every other's. *)
let barrier_blocks = 256

let barrier throttle =
  let src =
    "__global__ void k(float *a, float *out) {\n\
     __shared__ float buf[64];\n\
     int t = threadIdx.x;\n\
     int i = blockIdx.x * blockDim.x + t;\n\
     buf[t] = a[i];\n\
     __syncthreads();\n\
     out[i] = buf[63 - t] + buf[t];\n\
     }"
  in
  let prog = Gpusim.Codegen.compile_kernel (Minicuda.Parser.parse_kernel src) in
  let dev = Gpu.create (Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(16 * 1024) ()) in
  let len = barrier_blocks * 64 in
  List.iter
    (fun name ->
      Gpu.upload dev name
        (Array.init len (fun i -> float_of_int (((i * 7) + 3) land 31))))
    [ "a"; "out" ];
  run_lrr dev throttle
    [ (prog, (barrier_blocks, 1), (64, 1), [ Gpu.Arr "a"; Gpu.Arr "out" ]) ]

(* (policy, stats digest, memory digest) *)
let atax_pins =
  [
    ("dynamic", "b19192e998979c04936ffacaf4e0612c", "133461b54bcc64ebfaa8e3e13dde3169");
    ("ccws", "9788fc9f22b9f0a64af8c4d8276cfd90", "133461b54bcc64ebfaa8e3e13dde3169");
    ("swl(4)", "818d92eb59142c71b1726b2e1097c5f7", "133461b54bcc64ebfaa8e3e13dde3169");
    ("ciao", "8b1ae6884349a55e5e0d3427fb97258b", "133461b54bcc64ebfaa8e3e13dde3169");
  ]

let barrier_pins =
  [
    ("dynamic", "d1f527386033d1c7e8b769feb44034a9", "6ec88933e973850741529df2d6782f23");
    ("ccws", "28d63d2145ec0a7b698562da342069d8", "6ec88933e973850741529df2d6782f23");
    ("swl(4)", "c63fa0ec11610ab46ca2170e8600309f", "6ec88933e973850741529df2d6782f23");
    ("ciao", "e40379766bd8a35bc0cb4d2e23a32345", "6ec88933e973850741529df2d6782f23");
  ]

let check_pins what run pins =
  List.iter2
    (fun (label, throttle) (pinned, stats, memory) ->
      Alcotest.(check string) "pin order" pinned label;
      let got_stats, got_memory = run throttle in
      Alcotest.(check string) (what ^ " " ^ label ^ " stats") stats got_stats;
      Alcotest.(check string) (what ^ " " ^ label ^ " memory") memory got_memory)
    policies pins

(* Pool refills per issued instruction on ATAX at max L1D, read from
   the [gpu.pool_fills] counter.  These are counts, not timings: a pool
   refilled at every pick reads 1.4 to 1.8 under every policy, while a
   pool kept until an input of its filter changes reads about 0.005
   under DYNCTA, 0.0001 under SWL(4), 0.001 under CIAO and 0.47 under
   CCWS, whose raised scores decay, and so move, at every issue step. *)
let test_refills () =
  let cfg = Experiments.Configs.max_l1d () in
  let w = Workloads.Registry.find "ATAX" in
  let fills = Obs.Metrics.counter "gpu.pool_fills" in
  List.iter
    (fun (scheme, limit) ->
      let label = Experiments.Runner.scheme_label scheme in
      let before = Obs.Metrics.value fills in
      match
        Experiments.Runner.exec_uncached
          (Experiments.Runner.Request.make cfg w scheme)
      with
      | Error msg -> Alcotest.failf "ATAX %s: %s" label msg
      | Ok r ->
        let issued =
          List.fold_left
            (fun acc (ks : Experiments.Runner.kernel_stats) ->
              acc + ks.Experiments.Runner.stats.Gpusim.Stats.issued_instructions)
            0 r.Experiments.Runner.kernels
        in
        let per_instr =
          float_of_int (Obs.Metrics.value fills - before) /. float_of_int issued
        in
        if per_instr > limit then
          Alcotest.failf "ATAX %s refills its pool %.4f times per issued \
                          instruction (limit %.2f)"
            label per_instr limit)
    [
      (Experiments.Runner.Dynamic, 0.01);
      (Experiments.Runner.Swl 4, 0.01);
      (Experiments.Runner.Ciao, 0.01);
      (Experiments.Runner.CcwsSched, 0.6);
    ]

let tests =
  [
    ( "gpusim.sched",
      [
        Alcotest.test_case "LRR pins, ATAX" `Quick (fun () ->
            check_pins "ATAX" atax atax_pins);
        Alcotest.test_case "LRR pins, barrier kernel" `Quick (fun () ->
            check_pins "barrier" barrier barrier_pins);
        Alcotest.test_case "pool refills per issued instruction" `Quick
          test_refills;
      ] );
  ]
