(** Tests for the kernel sanitizer: seeded-bad kernels must produce the
    expected located diagnostics, clean kernels (including every CATT /
    BFTT rewrite of every registered workload) must stay silent, and the
    transform gate must refuse exactly the rewrites that mint new
    diagnostics.  Also covers the {!Catt.Transform.warp_throttle_plan}
    edge cases the gate leans on. *)

module Ast = Minicuda.Ast
module Parser = Minicuda.Parser
module Diag = Sanitize.Diag
module Check = Sanitize.Check
module Transform = Catt.Transform

let geo ?(grid = (4, 1)) ?(block = (32, 1)) () =
  {
    Sanitize.Geom.grid_x = fst grid;
    grid_y = snd grid;
    block_x = fst block;
    block_y = snd block;
  }

let check ?grid ?block src =
  Check.check_kernel (geo ?grid ?block ()) (Parser.parse_kernel src)

let kinds = List.map (fun (d : Diag.t) -> (d.Diag.severity, d.Diag.kind))

(* ---------------------- barrier divergence ------------------------- *)

let test_divergent_barrier () =
  let diags =
    check
      "__global__ void k(float* out) {\n\
      \  int t = threadIdx.x;\n\
      \  if (t < 16) {\n\
      \    __syncthreads();\n\
      \  }\n\
      \  out[t] = 1.0;\n\
       }"
  in
  match diags with
  | [ d ] ->
    Alcotest.(check bool) "is error" true (d.Diag.severity = Diag.Error);
    Alcotest.(check bool) "is barrier kind" true
      (d.Diag.kind = Diag.Barrier_divergence);
    Alcotest.(check int) "line of the barrier" 4 d.Diag.loc.Ast.line;
    Alcotest.(check string) "kernel" "k" d.Diag.kernel
  | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds)

let test_barrier_after_divergent_return () =
  let diags =
    check
      "__global__ void k(float* out) {\n\
      \  int t = threadIdx.x;\n\
      \  if (t < 16) {\n\
      \    return;\n\
      \  }\n\
      \  __syncthreads();\n\
      \  out[t] = 1.0;\n\
       }"
  in
  match kinds diags with
  | [ (Diag.Error, Diag.Barrier_divergence) ] ->
    let d = List.hd diags in
    Alcotest.(check int) "barrier line" 6 d.Diag.loc.Ast.line
  | _ -> Alcotest.failf "expected escape error:\n%s" (Diag.to_report diags)

let test_divergent_loop_trip_barrier () =
  let diags =
    check
      "__global__ void k(float* out) {\n\
      \  int t = threadIdx.x;\n\
      \  for (int i = 0; i < t; i++) {\n\
      \    __syncthreads();\n\
      \  }\n\
      \  out[t] = 1.0;\n\
       }"
  in
  Alcotest.(check bool) "flags the loop barrier" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.kind = Diag.Barrier_divergence)
       diags)

let test_uniform_guard_barrier_clean () =
  (* a launch-constant guard and a block-index guard are both uniform
     within a block: every thread takes the same side *)
  Alcotest.(check int) "param guard" 0
    (List.length
       (check
          "__global__ void k(float* out, int n) {\n\
          \  if (n > 5) {\n\
          \    __syncthreads();\n\
          \  }\n\
          \  out[threadIdx.x] = 1.0;\n\
           }"));
  Alcotest.(check int) "blockIdx guard" 0
    (List.length
       (check
          "__global__ void k(float* out) {\n\
          \  if (blockIdx.x < 2) {\n\
          \    __syncthreads();\n\
          \  }\n\
          \  out[threadIdx.x] = 1.0;\n\
           }"))

let test_block_uniform_proof () =
  (* 32 threads per block: tid < 32 cuts exactly on a block boundary, so
     `blockIdx.x * 32 + threadIdx.x < 32` is true of every thread of block
     0 and false of every thread of blocks 1..3 — uniform, not divergent *)
  Alcotest.(check int) "block-aligned guard is uniform" 0
    (List.length
       (check
          "__global__ void k(float* out) {\n\
          \  int tid = blockIdx.x * 32 + threadIdx.x;\n\
          \  if (tid < 32) {\n\
          \    __syncthreads();\n\
          \  }\n\
          \  out[tid] = 1.0;\n\
           }"));
  (* shift the cut mid-block and the same shape must be flagged *)
  Alcotest.(check bool) "mid-block guard is divergent" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.kind = Diag.Barrier_divergence)
       (check
          "__global__ void k(float* out) {\n\
          \  int tid = blockIdx.x * 32 + threadIdx.x;\n\
          \  if (tid < 48) {\n\
          \    __syncthreads();\n\
          \  }\n\
          \  out[tid] = 1.0;\n\
           }"))

(* ------------------------- shared races ---------------------------- *)

let race_src =
  "__global__ void k(float* out) {\n\
  \  __shared__ float s[32];\n\
  \  int t = threadIdx.x;\n\
  \  s[0] = t;\n\
  \  out[t] = s[t];\n\
   }"

let test_shared_race () =
  (* two races hide here: thread 0's s[0] store against every other
     thread's store, and against every thread's s[t] read of slot 0 *)
  let diags = check race_src in
  match kinds diags with
  | [ (Diag.Error, Diag.Shared_race); (Diag.Error, Diag.Shared_race) ] ->
    Alcotest.(check (list int))
      "store line, then read line" [ 4; 5 ]
      (List.map (fun (d : Diag.t) -> d.Diag.loc.Ast.line) diags)
  | _ -> Alcotest.failf "expected two races:\n%s" (Diag.to_report diags)

let test_race_write_then_unsynced_read () =
  let diags =
    check
      "__global__ void k(float* out) {\n\
      \  __shared__ float s[32];\n\
      \  int t = threadIdx.x;\n\
      \  s[t] = 1.0;\n\
      \  out[t] = s[31 - t];\n\
       }"
  in
  Alcotest.(check bool) "write/read race" true
    (List.exists (fun (d : Diag.t) -> d.Diag.kind = Diag.Shared_race) diags)

let test_barrier_separates_race () =
  Alcotest.(check int) "barrier orders the accesses" 0
    (List.length
       (check
          "__global__ void k(float* out) {\n\
          \  __shared__ float s[32];\n\
          \  int t = threadIdx.x;\n\
          \  s[t] = 1.0;\n\
          \  __syncthreads();\n\
          \  out[t] = s[31 - t];\n\
           }"))

let test_disjoint_indices_no_race () =
  (* each thread owns its own slot: never a race, no barrier needed *)
  Alcotest.(check int) "per-thread slots" 0
    (List.length
       (check
          "__global__ void k(float* out) {\n\
          \  __shared__ float s[32];\n\
          \  int t = threadIdx.x;\n\
          \  s[t] = 1.0;\n\
          \  out[t] = s[t];\n\
           }"))

let test_broadcast_store_benign () =
  (* every thread stores the same value at the same place — the idiom
     tb_throttle's pad write uses; flagged as a write/write race it would
     gate every TB-throttled rewrite.  A later read still needs a barrier:
     a reader could otherwise see the pre-store contents. *)
  Alcotest.(check int) "uniform broadcast stores" 0
    (List.length
       (check
          "__global__ void k(float* out) {\n\
          \  __shared__ float s[32];\n\
          \  s[0] = 0.0;\n\
          \  s[0] = 0.0;\n\
          \  out[threadIdx.x] = 1.0;\n\
           }"));
  Alcotest.(check bool) "unsynced read of a broadcast still races" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.kind = Diag.Shared_race)
       (check
          "__global__ void k(float* out) {\n\
          \  __shared__ float s[32];\n\
          \  s[0] = 0.0;\n\
          \  out[threadIdx.x] = s[0];\n\
           }"))

let test_loop_carried_race_needs_wrap_barrier () =
  (* one barrier inside the loop orders iteration i with itself, but not
     iteration i with i+1: writes of the next trip race with reads of the
     previous one unless a second barrier closes the loop *)
  let racy =
    check
      "__global__ void k(float* out) {\n\
      \  __shared__ float s[32];\n\
      \  int t = threadIdx.x;\n\
      \  for (int i = 0; i < 8; i++) {\n\
      \    s[t] = i;\n\
      \    __syncthreads();\n\
      \    out[t] = s[31 - t];\n\
      \  }\n\
       }"
  in
  Alcotest.(check bool) "loop-carried race" true
    (List.exists (fun (d : Diag.t) -> d.Diag.kind = Diag.Shared_race) racy);
  let closed =
    check
      "__global__ void k(float* out) {\n\
      \  __shared__ float s[32];\n\
      \  int t = threadIdx.x;\n\
      \  for (int i = 0; i < 8; i++) {\n\
      \    s[t] = i;\n\
      \    __syncthreads();\n\
      \    out[t] = s[31 - t];\n\
      \    __syncthreads();\n\
      \  }\n\
       }"
  in
  Alcotest.(check int) "wrap barrier closes it" 0 (List.length closed)

(* --------------------------- bounds -------------------------------- *)

let test_oob_read_warning () =
  let diags =
    check ~block:(16, 1)
      "__global__ void k(float* out) {\n\
      \  __shared__ float s[16];\n\
      \  int t = threadIdx.x;\n\
      \  s[t] = 1.0;\n\
      \  __syncthreads();\n\
      \  out[t] = s[t + 2];\n\
       }"
  in
  match kinds diags with
  | [ (Diag.Warning, Diag.Out_of_bounds) ] ->
    let d = List.hd diags in
    Alcotest.(check int) "at the read" 6 d.Diag.loc.Ast.line
  | _ -> Alcotest.failf "expected one bounds warning:\n%s" (Diag.to_report diags)

let test_oob_negative_index () =
  let diags =
    check ~block:(16, 1)
      "__global__ void k(float* out) {\n\
      \  __shared__ float s[16];\n\
      \  int t = threadIdx.x;\n\
      \  s[t - 2] = 1.0;\n\
      \  __syncthreads();\n\
      \  out[t] = s[t];\n\
       }"
  in
  Alcotest.(check bool) "negative extent warned" true
    (List.exists (fun (d : Diag.t) -> d.Diag.kind = Diag.Out_of_bounds) diags)

let test_in_bounds_silent () =
  Alcotest.(check int) "exact fit" 0
    (List.length
       (check ~block:(16, 1)
          "__global__ void k(float* out) {\n\
          \  __shared__ float s[16];\n\
          \  int t = threadIdx.x;\n\
          \  s[t] = 1.0;\n\
          \  __syncthreads();\n\
          \  out[t] = s[15 - t];\n\
           }"))

(* ------------------------ diagnostics ------------------------------ *)

let test_diag_to_string () =
  let d =
    {
      Diag.severity = Diag.Error;
      kind = Diag.Barrier_divergence;
      kernel = "k";
      loc = { Ast.line = 4; col = 5 };
      message = "boom";
    }
  in
  Alcotest.(check string) "located, with file"
    "a.cu:4:5: error: [barrier-divergence] k: boom"
    (Diag.to_string ~file:"a.cu" d);
  Alcotest.(check string) "no file prefix" "4:5: error: [barrier-divergence] k: boom"
    (Diag.to_string d)

(* --------------------------- the gate ------------------------------ *)

let clean_src =
  "__global__ void k(float* out) {\n\
  \  int t = blockIdx.x * blockDim.x + threadIdx.x;\n\
  \  for (int i = 0; i < 64; i++) {\n\
  \    out[t] = out[t] + 1.0;\n\
  \  }\n\
   }"

let test_gate_identity () =
  let k = Parser.parse_kernel race_src in
  (* same value: nothing to compare, even though the kernel is dirty *)
  Alcotest.(check bool) "identity is Ok" true
    (Check.gate (geo ()) ~original:k ~transformed:k = Ok ())

let test_gate_rejects_fresh_divergence () =
  let original = Parser.parse_kernel clean_src in
  let transformed =
    Parser.parse_kernel
      "__global__ void k(float* out) {\n\
      \  int t = blockIdx.x * blockDim.x + threadIdx.x;\n\
      \  for (int i = 0; i < 64; i++) {\n\
      \    if (threadIdx.x < 16) {\n\
      \      __syncthreads();\n\
      \    }\n\
      \    out[t] = out[t] + 1.0;\n\
      \  }\n\
       }"
  in
  match Check.gate (geo ()) ~original ~transformed with
  | Ok () -> Alcotest.fail "gate must refuse a freshly divergent barrier"
  | Error diags ->
    Alcotest.(check bool) "reports the barrier" true
      (List.exists
         (fun (d : Diag.t) -> d.Diag.kind = Diag.Barrier_divergence)
         diags)

let test_gate_keeps_preexisting_diags () =
  (* the original's own diagnostics belong to the programmer; a rewrite
     that merely preserves them (fresh parse = distinct value) passes *)
  let original = Parser.parse_kernel race_src in
  let transformed = Parser.parse_kernel race_src in
  Alcotest.(check bool) "same diagnostics pass" true
    (Check.gate (geo ()) ~original ~transformed = Ok ())

let test_gate_accepts_warp_split () =
  (* the guarded-phase pattern the CATT transform emits must be PROVED
     safe, not special-cased: the phase guard is thread-dependent, but the
     rendezvous barrier sits after the guarded body, where every thread of
     the block arrives again *)
  let k = Parser.parse_kernel clean_src in
  let split =
    Transform.warp_throttle k ~loop_id:0 ~n:2 ~warps_per_tb:8 ~warp_size:32
      ~one_dim_block:true
  in
  Alcotest.(check bool) "split differs" false (Ast.equal_kernel k split);
  (match Check.gate (geo ~block:(256, 1) ()) ~original:k ~transformed:split with
  | Ok () -> ()
  | Error diags ->
    Alcotest.failf "gate refused a sound warp split:\n%s" (Diag.to_report diags));
  Alcotest.(check int) "split checks clean outright" 0
    (List.length (Check.check_kernel (geo ~block:(256, 1) ()) split))

(* loop 0 splits cleanly; loop 1 sits under a thread-divergent guard,
   where a split's barrier would not be reached by the whole block *)
let mixed_loops_src =
  "__global__ void k(float* out) {\n\
  \  int t = blockIdx.x * blockDim.x + threadIdx.x;\n\
  \  for (int i = 0; i < 4; i++) {\n\
  \    out[t] = out[t] + 1.0;\n\
  \  }\n\
  \  if (threadIdx.x < 100) {\n\
  \    for (int j = 0; j < 4; j++) {\n\
  \      out[t] = out[t] * 2.0;\n\
  \    }\n\
  \  }\n\
   }"

let test_gated_rewrite_chain () =
  let k = Parser.parse_kernel mixed_loops_src in
  let g = geo ~block:(256, 1) () in
  let rewrite ?pad_bytes plan =
    Transform.gated_rewrite ?pad_bytes g k ~plan ~warps_per_tb:8 ~warp_size:32
  in
  let has_pad (r : Transform.gated) =
    List.exists
      (fun (s : Ast.stmt) ->
        match s.Ast.sk with
        | Ast.Shared_decl (_, name, _) -> name = Transform.dummy_array_name
        | _ -> false)
      r.Transform.rewritten.Ast.body
  in
  (* the whole plan is refused; loop 0's split survives with the pad *)
  let r = rewrite ~pad_bytes:1024 [ (0, 2); (1, 2) ] in
  Alcotest.(check (list (pair int int))) "loop 0 kept" [ (0, 2) ]
    r.Transform.splits;
  Alcotest.(check bool) "pad kept" true (r.Transform.pad_kept && has_pad r);
  Alcotest.(check int) "loop 0 in two phases" 3
    (Transform.count_top_loops r.Transform.rewritten);
  (* only the refused loop: the pad alone *)
  let r = rewrite ~pad_bytes:1024 [ (1, 2) ] in
  Alcotest.(check (list (pair int int))) "no split" [] r.Transform.splits;
  Alcotest.(check bool) "pad alone" true (r.Transform.pad_kept && has_pad r);
  (* no pad to fall back on: the original value itself *)
  let r = rewrite [ (1, 2) ] in
  Alcotest.(check bool) "untouched" true (r.Transform.rewritten == k);
  Alcotest.(check bool) "no pad" false r.Transform.pad_kept;
  (* factors of 1 split nothing, so nothing is gated *)
  Alcotest.(check bool) "n = 1 is the original" true
    ((rewrite [ (0, 1); (1, 1) ]).Transform.rewritten == k)

let test_driver_gates_transform () =
  (* end-to-end: Driver.analyze re-checks its own output and would error
     out rather than ship a rewrite that mints a diagnostic *)
  let cfg = Gpusim.Config.scaled ~num_sms:4 ~onchip_bytes:(32 * 1024) () in
  let w = Workloads.Registry.find "ATAX" in
  List.iter
    (fun (l : Workloads.Workload.kernel_launch) ->
      let kernel = Workloads.Workload.find_kernel w l.Workloads.Workload.kernel_name in
      let g = Workloads.Workload.geometry_of l in
      match Catt.Driver.analyze cfg kernel g with
      | Ok t ->
        Alcotest.(check int)
          (l.Workloads.Workload.kernel_name ^ " transformed clean") 0
          (List.length (Check.check_kernel g t.Catt.Driver.transformed))
      | Error msg -> Alcotest.fail msg)
    w.Workloads.Workload.launches

let test_sanitize_all_clean () =
  Alcotest.(check int) "registered kernels and variants all clean" 0
    (List.length (Experiments.Sanitize_all.violations ()))

(* ----------------- warp_throttle_plan edge cases ------------------- *)

let barrier_loop_src =
  "__global__ void k(float* out) {\n\
  \  __shared__ float s[256];\n\
  \  int t = threadIdx.x;\n\
  \  for (int i = 0; i < 8; i++) {\n\
  \    s[t] = out[t];\n\
  \    __syncthreads();\n\
  \    out[t] = s[255 - t] + 1.0;\n\
  \    __syncthreads();\n\
  \  }\n\
   }"

let test_split_refuses_barrier_loop () =
  let k = Parser.parse_kernel barrier_loop_src in
  let split =
    Transform.warp_throttle k ~loop_id:0 ~n:2 ~warps_per_tb:8 ~warp_size:32
      ~one_dim_block:true
  in
  (* the loop is kept whole rather than split into phases that would
     rendezvous at different barrier sites *)
  Alcotest.(check bool) "barrier loop left intact" true (Ast.equal_kernel k split)

let three_loops_src =
  "__global__ void k(float* out) {\n\
  \  int t = blockIdx.x * blockDim.x + threadIdx.x;\n\
  \  for (int i = 0; i < 4; i++) {\n\
  \    out[t] = out[t] + 1.0;\n\
  \  }\n\
  \  for (int j = 0; j < 4; j++) {\n\
  \    out[t] = out[t] * 2.0;\n\
  \  }\n\
  \  for (int l = 0; l < 4; l++) {\n\
  \    out[t] = out[t] - 3.0;\n\
  \  }\n\
   }"

let test_plan_renumbering_multiple_splits () =
  (* ids refer to the ORIGINAL kernel even though splitting loop 0 inserts
     new top-level loops before loop 2's rewrite site *)
  let k = Parser.parse_kernel three_loops_src in
  let split =
    Transform.warp_throttle_plan k
      ~plan:[ (0, 2); (2, 4) ]
      ~warps_per_tb:8 ~warp_size:32 ~one_dim_block:true
  in
  Alcotest.(check int) "2 + 1 + 4 loops" 7 (Transform.count_top_loops split);
  (* the middle loop must survive untouched: its body still multiplies *)
  let still_has_mul =
    Ast.fold_block
      (fun acc (s : Ast.stmt) ->
        acc
        ||
        match s.Ast.sk with
        | Ast.For { Ast.loop_var = "j"; body; _ } ->
          List.exists
            (fun (b : Ast.stmt) ->
              match b.Ast.sk with
              | Ast.Assign (_, Ast.Assign_eq, Ast.Binop (Ast.Mul, _, _)) -> true
              | _ -> false)
            body
        | _ -> false)
      false split.Ast.body
  in
  Alcotest.(check bool) "loop j intact" true still_has_mul;
  (* and the whole plan still passes the sanitizer *)
  Alcotest.(check int) "split plan clean" 0
    (List.length (Check.check_kernel (geo ~block:(256, 1) ()) split))

let test_split_nondividing_factor_rejected () =
  let k = Parser.parse_kernel three_loops_src in
  Alcotest.check_raises "n must divide warps_per_tb"
    (Invalid_argument "Transform.warp_throttle: n must divide warps_per_tb")
    (fun () ->
      ignore
        (Transform.warp_throttle k ~loop_id:0 ~n:3 ~warps_per_tb:8
           ~warp_size:32 ~one_dim_block:true))

let test_plan_unknown_loop_id_rejected () =
  let k = Parser.parse_kernel three_loops_src in
  Alcotest.check_raises "no loop 7"
    (Invalid_argument "Transform.warp_throttle: kernel k has no loop 7")
    (fun () ->
      ignore
        (Transform.warp_throttle k ~loop_id:7 ~n:2 ~warps_per_tb:8
           ~warp_size:32 ~one_dim_block:true))

let tests =
  [
    ( "sanitize.barrier",
      [
        Alcotest.test_case "divergent guard" `Quick test_divergent_barrier;
        Alcotest.test_case "divergent return escape" `Quick
          test_barrier_after_divergent_return;
        Alcotest.test_case "divergent loop trip" `Quick
          test_divergent_loop_trip_barrier;
        Alcotest.test_case "uniform guards clean" `Quick
          test_uniform_guard_barrier_clean;
        Alcotest.test_case "block-uniform proof" `Quick test_block_uniform_proof;
      ] );
    ( "sanitize.races",
      [
        Alcotest.test_case "write/write race" `Quick test_shared_race;
        Alcotest.test_case "write/read race" `Quick
          test_race_write_then_unsynced_read;
        Alcotest.test_case "barrier separates" `Quick test_barrier_separates_race;
        Alcotest.test_case "disjoint slots" `Quick test_disjoint_indices_no_race;
        Alcotest.test_case "broadcast store benign" `Quick
          test_broadcast_store_benign;
        Alcotest.test_case "loop-carried race" `Quick
          test_loop_carried_race_needs_wrap_barrier;
      ] );
    ( "sanitize.bounds",
      [
        Alcotest.test_case "overflow read" `Quick test_oob_read_warning;
        Alcotest.test_case "negative index" `Quick test_oob_negative_index;
        Alcotest.test_case "exact fit silent" `Quick test_in_bounds_silent;
      ] );
    ( "sanitize.gate",
      [
        Alcotest.test_case "diag rendering" `Quick test_diag_to_string;
        Alcotest.test_case "identity" `Quick test_gate_identity;
        Alcotest.test_case "fresh divergence refused" `Quick
          test_gate_rejects_fresh_divergence;
        Alcotest.test_case "pre-existing diags pass" `Quick
          test_gate_keeps_preexisting_diags;
        Alcotest.test_case "warp split proved safe" `Quick
          test_gate_accepts_warp_split;
        Alcotest.test_case "gated rewrite degrades per loop" `Quick
          test_gated_rewrite_chain;
        Alcotest.test_case "driver gates its output" `Quick
          test_driver_gates_transform;
        Alcotest.test_case "all workload variants clean" `Quick
          test_sanitize_all_clean;
      ] );
    ( "sanitize.transform-edges",
      [
        Alcotest.test_case "barrier loop unsplit" `Quick
          test_split_refuses_barrier_loop;
        Alcotest.test_case "renumbering across splits" `Quick
          test_plan_renumbering_multiple_splits;
        Alcotest.test_case "non-dividing factor" `Quick
          test_split_nondividing_factor_rejected;
        Alcotest.test_case "unknown loop id" `Quick
          test_plan_unknown_loop_id_rejected;
      ] );
  ]
