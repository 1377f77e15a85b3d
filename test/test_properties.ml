(** Cross-layer differential properties: the static estimators checked
    against the executable machinery they model.

    The strongest is Eq. 7 vs the coalescer: for a random affine index the
    analyzer's per-warp request count must equal the number of lines the
    hardware coalescer produces for the same warp's addresses — the static
    model and the simulator share no code on this path. *)

module Affine = Catt.Affine

let warp_size = 32
let line_bytes = 128

(* ------------------ Eq. 7 vs the coalescer ------------------------- *)

let coalescer_ground_truth ~block_x aff =
  (* addresses lane by lane, exactly as the SM computes them at iteration 0
     of block 0, shifted to lines and through the SM's own dedup *)
  let addrs =
    Array.init warp_size (fun lane ->
        let idx = Affine.eval_lane aff ~bdim_x:block_x ~lane ~base_linear_tid:0 in
        idx * 4)
  in
  (* the coalescer counts distinct lines; negative addresses need the same
     floor convention as the analyzer, so shift everything non-negative
     (a uniform shift by whole lines cannot change the count) *)
  let min_addr = Array.fold_left min addrs.(0) addrs in
  let shift = if min_addr < 0 then (-min_addr + line_bytes - 1) / line_bytes * line_bytes else 0 in
  let addrs = Array.map (fun a -> a + shift) addrs in
  Cache_driver.count ~line_bytes ~addrs ~mask:0xFFFFFFFF

let prop_eq7_matches_coalescer =
  QCheck.Test.make ~name:"Eq. 7 = coalescer line count" ~count:500
    QCheck.(
      quad
        (int_range (-5000) 5000) (* c_tx *)
        (int_range (-500) 500) (* c_ty *)
        (int_range 0 100000) (* const *)
        (oneofl [ 8; 16; 32; 64; 128; 256 ]) (* block_x *))
    (fun (c_tx, c_ty, const, block_x) ->
      let aff = { (Affine.const const) with Affine.c_tx; c_ty } in
      let estimated =
        Catt.Footprint.req_warp ~line_bytes ~warp_size ~block_x
          (Affine.Affine aff)
      in
      let actual = coalescer_ground_truth ~block_x aff in
      if estimated <> actual then
        QCheck.Test.fail_reportf
          "c_tx=%d c_ty=%d const=%d bdim_x=%d: Eq.7 says %d, coalescer says %d"
          c_tx c_ty const block_x estimated actual
      else true)

(* --------------- analysis vs executed address stream ---------------- *)

(* For a kernel whose index is an affine function of (tid, j), the access
   recorded by the analyzer, evaluated at lane/iteration, must equal the
   address the interpreter actually touches.  We check by writing a
   sentinel at the predicted location and reading it back. *)
let prop_analysis_predicts_addresses =
  QCheck.Test.make ~name:"affine analysis predicts executed indices" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 0 64))
    (fun (c_tid, const) ->
      let trip = 4 in
      let src =
        Printf.sprintf
          "__global__ void k(float *a, float *out) {\n\
           int i = threadIdx.x;\n\
           float acc = 0.0;\n\
           for (int j = 0; j < %d; j++) { acc += a[i * %d + j * 2 + %d]; }\n\
           out[i] = acc;\n\
           }"
          trip c_tid const
      in
      let kernel = Minicuda.Parser.parse_kernel src in
      (* analyzer's view *)
      let geo = { Catt.Analysis.grid_x = 1; grid_y = 1; block_x = 32; block_y = 1 } in
      let reports = Catt.Analysis.analyze_kernel kernel geo in
      let access =
        match reports with
        | [ loop ] ->
          List.find
            (fun (x : Catt.Analysis.access) -> x.Catt.Analysis.array = "a")
            loop.Catt.Analysis.accesses
        | _ -> QCheck.Test.fail_report "expected one loop"
      in
      let aff =
        match access.Catt.Analysis.index with
        | Affine.Affine a -> a
        | Affine.Unknown -> QCheck.Test.fail_report "index should be affine"
      in
      (* executed view: run the kernel with a = identity ramp; each lane's
         accumulated sum must equal the sum of predicted indices *)
      let len = (31 * c_tid) + (trip * 2) + const + 8 in
      let cfg = Gpusim.Config.scaled ~num_sms:1 () in
      let prog = Gpusim.Codegen.compile_kernel kernel in
      let dev = Gpusim.Gpu.create cfg in
      Gpusim.Gpu.upload dev "a" (Array.init len float_of_int);
      Gpusim.Gpu.alloc dev "out" 32;
      ignore
        (Gpusim.Gpu.launch dev
           (Gpusim.Gpu.default_launch ~prog ~grid:(1, 1) ~block:(32, 1)
              [ Gpusim.Gpu.Arr "a"; Gpusim.Gpu.Arr "out" ]));
      let out = Gpusim.Gpu.get dev "out" in
      let ok = ref true in
      for lane = 0 to 31 do
        let predicted = ref 0 in
        for j = 0 to trip - 1 do
          let base =
            Affine.eval_lane
              (Affine.drop_iter aff "j")
              ~bdim_x:32 ~lane ~base_linear_tid:0
          in
          predicted := !predicted + base + (Affine.coeff_of_iter aff "j" * j)
        done;
        if abs_float (float_of_int !predicted -. out.(lane)) > 1e-9 then ok := false
      done;
      !ok)

(* ------------------- Fig. 3 U-shape invariant ----------------------- *)

let test_fig3_u_shape () =
  (* the filling warp count must be the best measured point, and both
     under- and over-subscription must be measurably worse *)
  let cfg = Experiments.Configs.max_l1d () in
  let v =
    Workloads.Microbench.variant
      ~l1d_bytes:(Gpusim.Config.l1d_bytes cfg ~smem_carveout:0)
      ~line_bytes:128 ~warp_size:32 ~fill_warps:8 ~reps:8
  in
  let time warps =
    (Workloads.Microbench.run cfg v ~warps).Gpusim.Stats.cycles
  in
  let at_fill = time 8 in
  Alcotest.(check bool) "1 warp much slower" true (time 1 > 3 * at_fill);
  Alcotest.(check bool) "4 warps slower" true (time 4 > at_fill);
  Alcotest.(check bool) "16 warps slower (thrash)" true (time 16 > at_fill);
  Alcotest.(check bool) "32 warps slower (thrash)" true (time 32 > at_fill)

(* --------------- transformed kernels stay analyzable ----------------- *)

let test_transformed_source_reparses () =
  (* CATT's output is valid mini-CUDA that round-trips and re-typechecks
     for every CS kernel *)
  let cfg = Experiments.Configs.max_l1d () in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      List.iter
        (fun (l : Workloads.Workload.kernel_launch) ->
          let kernel = Workloads.Workload.find_kernel w l.Workloads.Workload.kernel_name in
          match Catt.Driver.analyze cfg kernel (Workloads.Workload.geometry_of l) with
          | Error e -> Alcotest.fail e
          | Ok t ->
            let printed = Minicuda.Pretty.kernel t.Catt.Driver.transformed in
            let reparsed = Minicuda.Parser.parse_kernel printed in
            ignore (Minicuda.Typecheck.check_kernel reparsed);
            Alcotest.(check bool)
              (w.Workloads.Workload.name ^ "/" ^ l.Workloads.Workload.kernel_name)
              true
              (Minicuda.Ast.equal_kernel t.Catt.Driver.transformed reparsed))
        w.Workloads.Workload.launches)
    Workloads.Registry.cs

(* ------------- CATT pipeline preserves semantics (random) ----------- *)

(* random divergent-ish kernels through the full analyze→transform→simulate
   pipeline: the throttled kernel must compute bit-identical results *)
let prop_catt_preserves_semantics =
  QCheck.Test.make ~name:"CATT transform preserves results" ~count:25
    QCheck.(
      triple (oneofl [ 16; 48; 64; 96 ]) (* inter-thread stride *)
        (oneofl [ 8; 16; 32 ]) (* trip count *)
        (int_range 0 3) (* extra vector term *))
    (fun (stride, trip, flavor) ->
      let src =
        Printf.sprintf
          "__global__ void k(float *data, float *vec, float *out) {\n\
           int i = blockIdx.x * blockDim.x + threadIdx.x;\n\
           if (i < 512) {\n\
           float acc = 0.0;\n\
           for (int j = 0; j < %d; j++) { acc += data[i * %d + j] %s; }\n\
           out[i] += acc;\n\
           }\n\
           }"
          trip stride
          (match flavor with
          | 0 -> ""
          | 1 -> "+ vec[j]"
          | 2 -> "* vec[j]"
          | _ -> "- 0.5 * vec[i]")
      in
      let kernel = Minicuda.Parser.parse_kernel src in
      let cfg = Experiments.Configs.max_l1d () in
      let geo = { Catt.Analysis.grid_x = 2; grid_y = 1; block_x = 256; block_y = 1 } in
      let transformed, carveout =
        match Catt.Driver.analyze cfg kernel geo with
        | Ok t -> (t.Catt.Driver.transformed, t.Catt.Driver.final_carveout)
        | Error msg -> QCheck.Test.fail_reportf "analyze failed: %s" msg
      in
      let run k carveout =
        let prog = Gpusim.Codegen.compile_kernel k in
        let dev = Gpusim.Gpu.create cfg in
        let rng = Gpu_util.Rng.create 99 in
        Gpusim.Gpu.upload dev "data"
          (Array.init ((511 * stride) + trip) (fun _ -> Gpu_util.Rng.float rng 1.));
        Gpusim.Gpu.upload dev "vec"
          (Array.init 512 (fun _ -> Gpu_util.Rng.float rng 1.));
        Gpusim.Gpu.alloc dev "out" 512;
        let launch =
          Gpusim.Gpu.default_launch ?smem_carveout:carveout ~prog ~grid:(2, 1)
            ~block:(256, 1)
            [ Gpusim.Gpu.Arr "data"; Gpusim.Gpu.Arr "vec"; Gpusim.Gpu.Arr "out" ]
        in
        ignore (Gpusim.Gpu.launch dev launch);
        Array.copy (Gpusim.Gpu.get dev "out")
      in
      let before = run kernel None in
      let after = run transformed (Some carveout) in
      if before = after then true
      else QCheck.Test.fail_reportf "results differ for:\n%s" src)

let tests =
  [
    ( "properties.differential",
      [
        QCheck_alcotest.to_alcotest prop_eq7_matches_coalescer;
        QCheck_alcotest.to_alcotest prop_analysis_predicts_addresses;
        QCheck_alcotest.to_alcotest prop_catt_preserves_semantics;
      ] );
    ( "properties.shape",
      [
        Alcotest.test_case "Fig. 3 U-shape" `Quick test_fig3_u_shape;
        Alcotest.test_case "transformed kernels reparse" `Quick
          test_transformed_source_reparses;
      ] );
  ]
