(** Quickstart: the paper's running example (ATAX kernel 1, Figs. 1 & 4)
    end to end — parse, analyze, transform, and measure the effect on the
    simulated GPU.

    Run with: dune exec examples/quickstart.exe *)

let source =
  {|
#define NX 2048
#define NY 512
__global__ void atax_kernel1(float *A, float *x, float *tmp) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < NX) {
    for (int j = 0; j < NY; j++) {
      tmp[i] += A[i * NY + j] * x[j];
    }
  }
}
|}

let simulate cfg kernel ~label =
  let prog = Gpusim.Codegen.compile_kernel kernel in
  let dev = Gpusim.Gpu.create cfg in
  let nx = 2048 and ny = 512 in
  let rng = Gpu_util.Rng.create 7 in
  Gpusim.Gpu.upload dev "A" (Array.init (nx * ny) (fun _ -> Gpu_util.Rng.float rng 1.));
  Gpusim.Gpu.upload dev "x" (Array.init ny (fun _ -> Gpu_util.Rng.float rng 1.));
  Gpusim.Gpu.alloc dev "tmp" nx;
  let launch =
    Gpusim.Gpu.default_launch ~prog ~grid:(nx / 256, 1) ~block:(256, 1)
      [ Gpusim.Gpu.Arr "A"; Gpusim.Gpu.Arr "x"; Gpusim.Gpu.Arr "tmp" ]
  in
  let stats, _ = Gpusim.Gpu.launch dev launch in
  Printf.printf "%-12s %9d cycles, L1D hit rate %5.1f%%\n" label
    stats.Gpusim.Stats.cycles
    (Gpusim.Stats.l1_hit_rate stats *. 100.);
  stats.Gpusim.Stats.cycles

let () =
  print_endline "=== CATT quickstart: the paper's ATAX example ===\n";
  (* 1. parse *)
  let kernel = Minicuda.Parser.parse_kernel source in
  Printf.printf "parsed kernel %s\n\n" kernel.Minicuda.Ast.kernel_name;
  (* 2. analyze: Eqs. 1-9 *)
  let cfg = Gpusim.Config.scaled ~num_sms:4 ~onchip_bytes:(32 * 1024) () in
  let geo = { Catt.Analysis.grid_x = 8; grid_y = 1; block_x = 256; block_y = 1 } in
  let t =
    match Catt.Driver.analyze cfg kernel geo with
    | Ok t -> t
    | Error msg -> failwith msg
  in
  print_string (Catt.Explain.render cfg t);
  (* 3. the transformed source (paper Fig. 4) *)
  print_endline "\n--- throttled source ---";
  print_endline (Minicuda.Pretty.kernel t.Catt.Driver.transformed);
  (* 4. measure *)
  print_endline "\n--- simulation ---";
  let before = simulate cfg kernel ~label:"baseline" in
  let after = simulate cfg t.Catt.Driver.transformed ~label:"CATT" in
  Printf.printf "\nspeedup: %.2fx\n" (float_of_int before /. float_of_int after)
