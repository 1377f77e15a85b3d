(** Cache-insensitive Polybench/GPU workloads (paper Table 2, CI group).

    These kernels either coalesce perfectly (GEMM-family: within a warp all
    lanes read the same A element broadcast and consecutive B elements) or
    keep their working set comfortably inside the L1D, so CATT must select
    the baseline TLP for all of them — the paper's Fig. 8 "no regression"
    requirement. *)

let launch ~name ~grid ~block args =
  { Workload.kernel_name = name; grid; block; args }

let arr name = Gpusim.Gpu.Arr name

(* CPU reference: C = A(n×k) · B(k×m) + beta·C *)
let matmul ~n ~k ~m ?(alpha = 1.) ?(beta = 0.) a b c =
  let out = Array.make (n * m) 0. in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      let acc = ref 0. in
      for p = 0 to k - 1 do
        acc := !acc +. (a.((i * k) + p) *. b.((p * m) + j))
      done;
      out.((i * m) + j) <- (alpha *. !acc) +. (beta *. c.((i * m) + j))
    done
  done;
  out

(* ------------------------------------------------------------------ *)
(* GEMM                                                                *)
(* ------------------------------------------------------------------ *)

let gemm_n = 128

let gemm_kernel_source ~name ~size =
  Printf.sprintf
    {|
__global__ void %s(float *A, float *B, float *C) {
  int j = blockIdx.x * blockDim.x + threadIdx.x;
  int i = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < %d && j < %d) {
    float acc = 0.0;
    for (int k = 0; k < %d; k++) {
      acc += A[i * %d + k] * B[k * %d + j];
    }
    C[i * %d + j] = acc;
  }
}
|}
    name size size size size size size

let gemm_launch ~name ~size args =
  launch ~name ~grid:(size / 32, size / 8) ~block:(32, 8) args

let gemm : Workload.t =
  let n = gemm_n in
  {
    name = "GEMM";
    group = Workload.Ci;
    description = "dense matrix multiplication (coalesced)";
    source = gemm_kernel_source ~name:"gemm_kernel" ~size:n;
    setup =
      (fun dev rng ->
        ignore (Workload.upload_random dev rng "A" (n * n));
        ignore (Workload.upload_random dev rng "B" (n * n));
        Gpusim.Gpu.upload dev "C" (Array.make (n * n) 0.));
    launches = [ gemm_launch ~name:"gemm_kernel" ~size:n [ arr "A"; arr "B"; arr "C" ] ];
    verify =
      (fun dev ->
        let a = Gpusim.Gpu.get dev "A" in
        let b = Gpusim.Gpu.get dev "B" in
        let c_ref = matmul ~n ~k:n ~m:n a b (Array.make (n * n) 0.) in
        Workload.expect_close ~what:"C" c_ref (Gpusim.Gpu.get dev "C"));
  }

(* ------------------------------------------------------------------ *)
(* 2MM: D = A·B, E = D·C                                               *)
(* ------------------------------------------------------------------ *)

let mm2_n = 96

let mm2 : Workload.t =
  let n = mm2_n in
  {
    name = "2MM";
    group = Workload.Ci;
    description = "two chained matrix multiplications";
    source =
      gemm_kernel_source ~name:"mm2_kernel1" ~size:n
      ^ gemm_kernel_source ~name:"mm2_kernel2" ~size:n;
    setup =
      (fun dev rng ->
        ignore (Workload.upload_random dev rng "A" (n * n));
        ignore (Workload.upload_random dev rng "B" (n * n));
        ignore (Workload.upload_random dev rng "Cm" (n * n));
        Gpusim.Gpu.upload dev "D" (Array.make (n * n) 0.);
        Gpusim.Gpu.upload dev "E" (Array.make (n * n) 0.));
    launches =
      [
        gemm_launch ~name:"mm2_kernel1" ~size:n [ arr "A"; arr "B"; arr "D" ];
        gemm_launch ~name:"mm2_kernel2" ~size:n [ arr "D"; arr "Cm"; arr "E" ];
      ];
    verify =
      (fun dev ->
        let a = Gpusim.Gpu.get dev "A" in
        let b = Gpusim.Gpu.get dev "B" in
        let c = Gpusim.Gpu.get dev "Cm" in
        let d_ref = matmul ~n ~k:n ~m:n a b (Array.make (n * n) 0.) in
        let e_ref = matmul ~n ~k:n ~m:n d_ref c (Array.make (n * n) 0.) in
        Workload.expect_close ~what:"E" e_ref (Gpusim.Gpu.get dev "E"));
  }

(* ------------------------------------------------------------------ *)
(* 3MM: E = A·B, F = C·D, G = E·F                                      *)
(* ------------------------------------------------------------------ *)

let mm3_n = 96

let mm3 : Workload.t =
  let n = mm3_n in
  {
    name = "3MM";
    group = Workload.Ci;
    description = "three chained matrix multiplications";
    source =
      gemm_kernel_source ~name:"mm3_kernel1" ~size:n
      ^ gemm_kernel_source ~name:"mm3_kernel2" ~size:n
      ^ gemm_kernel_source ~name:"mm3_kernel3" ~size:n;
    setup =
      (fun dev rng ->
        ignore (Workload.upload_random dev rng "A" (n * n));
        ignore (Workload.upload_random dev rng "B" (n * n));
        ignore (Workload.upload_random dev rng "Cm" (n * n));
        ignore (Workload.upload_random dev rng "D" (n * n));
        Gpusim.Gpu.upload dev "E" (Array.make (n * n) 0.);
        Gpusim.Gpu.upload dev "F" (Array.make (n * n) 0.);
        Gpusim.Gpu.upload dev "G" (Array.make (n * n) 0.));
    launches =
      [
        gemm_launch ~name:"mm3_kernel1" ~size:n [ arr "A"; arr "B"; arr "E" ];
        gemm_launch ~name:"mm3_kernel2" ~size:n [ arr "Cm"; arr "D"; arr "F" ];
        gemm_launch ~name:"mm3_kernel3" ~size:n [ arr "E"; arr "F"; arr "G" ];
      ];
    verify =
      (fun dev ->
        let a = Gpusim.Gpu.get dev "A" in
        let b = Gpusim.Gpu.get dev "B" in
        let c = Gpusim.Gpu.get dev "Cm" in
        let d = Gpusim.Gpu.get dev "D" in
        let e_ref = matmul ~n ~k:n ~m:n a b (Array.make (n * n) 0.) in
        let f_ref = matmul ~n ~k:n ~m:n c d (Array.make (n * n) 0.) in
        let g_ref = matmul ~n ~k:n ~m:n e_ref f_ref (Array.make (n * n) 0.) in
        Workload.expect_close ~eps:1e-3 ~what:"G" g_ref (Gpusim.Gpu.get dev "G"));
  }

(* ------------------------------------------------------------------ *)
(* SYRK: C += A·Aᵀ — some divergence but a resident-set that fits      *)
(* ------------------------------------------------------------------ *)

let syrk_n = 32
let syrk_m = 256

let syrk_source =
  Printf.sprintf
    {|
#define N %d
#define M %d
__global__ void syrk_kernel(float *A, float *C) {
  int j = blockIdx.x * blockDim.x + threadIdx.x;
  int i = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < N && j < N) {
    for (int k = 0; k < M; k++) {
      C[i * N + j] += A[i * M + k] * A[j * M + k];
    }
  }
}
|}
    syrk_n syrk_m

let syrk : Workload.t =
  let n = syrk_n and m = syrk_m in
  {
    name = "SYRK";
    group = Workload.Ci;
    description = "symmetric rank-k update, small resident set";
    source = syrk_source;
    setup =
      (fun dev rng ->
        ignore (Workload.upload_random dev rng "A" (n * m));
        Gpusim.Gpu.upload dev "C" (Array.make (n * n) 0.));
    launches =
      [
        launch ~name:"syrk_kernel" ~grid:(n / 16, n / 8) ~block:(16, 8)
          [ arr "A"; arr "C" ];
      ];
    verify =
      (fun dev ->
        let a = Gpusim.Gpu.get dev "A" in
        let c_ref = Array.make (n * n) 0. in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            for k = 0 to m - 1 do
              c_ref.((i * n) + j) <-
                c_ref.((i * n) + j) +. (a.((i * m) + k) *. a.((j * m) + k))
            done
          done
        done;
        Workload.expect_close ~what:"C" c_ref (Gpusim.Gpu.get dev "C"));
  }

(* ------------------------------------------------------------------ *)
(* GRAM: Gram–Schmidt column normalization/projection (coalesced)      *)
(* ------------------------------------------------------------------ *)

let gram_n = 256

let gram_source =
  Printf.sprintf
    {|
#define N %d
__global__ void gram_norms(float *A, float *norms) {
  int j = blockIdx.x * blockDim.x + threadIdx.x;
  if (j < N) {
    float acc = 0.0;
    for (int i = 0; i < N; i++) {
      acc += A[i * N + j] * A[i * N + j];
    }
    norms[j] = sqrtf(acc);
  }
}
__global__ void gram_normalize(float *A, float *norms, float *Q) {
  int j = blockIdx.x * blockDim.x + threadIdx.x;
  if (j < N) {
    for (int i = 0; i < N; i++) {
      Q[i * N + j] = A[i * N + j] / norms[j];
    }
  }
}
__global__ void gram_project(float *A, float *Q, float *R) {
  int j = blockIdx.x * blockDim.x + threadIdx.x;
  if (j < N) {
    float acc = 0.0;
    for (int i = 0; i < N; i++) {
      acc += Q[i * N + 0] * A[i * N + j];
    }
    R[j] = acc;
  }
}
|}
    gram_n

let gram : Workload.t =
  let n = gram_n in
  {
    name = "GRAM";
    group = Workload.Ci;
    description = "Gram-Schmidt process steps (coalesced column ops)";
    source = gram_source;
    setup =
      (fun dev rng ->
        (* offset away from zero so norms are well-conditioned *)
        let a = Array.create_float (n * n) in
        Gpu_util.Rng.fill_float rng a 1.;
        for i = 0 to (n * n) - 1 do
          a.(i) <- 0.5 +. a.(i)
        done;
        Gpusim.Gpu.upload dev "A" a;
        Gpusim.Gpu.upload dev "norms" (Array.make n 0.);
        Gpusim.Gpu.upload dev "Q" (Array.make (n * n) 0.);
        Gpusim.Gpu.upload dev "R" (Array.make n 0.));
    launches =
      [
        launch ~name:"gram_norms" ~grid:(n / 128, 1) ~block:(128, 1)
          [ arr "A"; arr "norms" ];
        launch ~name:"gram_normalize" ~grid:(n / 128, 1) ~block:(128, 1)
          [ arr "A"; arr "norms"; arr "Q" ];
        launch ~name:"gram_project" ~grid:(n / 128, 1) ~block:(128, 1)
          [ arr "A"; arr "Q"; arr "R" ];
      ];
    verify =
      (fun dev ->
        let a = Gpusim.Gpu.get dev "A" in
        let norms_ref = Array.make n 0. in
        for j = 0 to n - 1 do
          let acc = ref 0. in
          for i = 0 to n - 1 do
            acc := !acc +. (a.((i * n) + j) *. a.((i * n) + j))
          done;
          norms_ref.(j) <- sqrt !acc
        done;
        let q_ref =
          Array.init (n * n) (fun idx -> a.(idx) /. norms_ref.(idx mod n))
        in
        let r_ref = Array.make n 0. in
        for j = 0 to n - 1 do
          let acc = ref 0. in
          for i = 0 to n - 1 do
            acc := !acc +. (q_ref.(i * n) *. a.((i * n) + j))
          done;
          r_ref.(j) <- !acc
        done;
        Result.bind
          (Workload.expect_close ~what:"norms" norms_ref
             (Gpusim.Gpu.get dev "norms"))
          (fun () ->
            Result.bind
              (Workload.expect_close ~what:"Q" q_ref (Gpusim.Gpu.get dev "Q"))
              (fun () ->
                Workload.expect_close ~eps:1e-3 ~what:"R" r_ref
                  (Gpusim.Gpu.get dev "R"))));
  }

let all = [ gemm; mm2; mm3; syrk; gram ]
