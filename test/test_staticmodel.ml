(** Tests for the static cache-behavior analyzer (PR 7): the interval
    domain, the value-range walker ({!Staticmodel.Gaccess}), the
    reuse/working-set model ({!Staticmodel.Reuse}), the sharpened Eq. 8
    footprint ([Footprint.of_loop_sa], scheme [catt-sa]), the
    over-throttling dedupe regression, and the kernel lint.

    Soundness is checked two ways: a QCheck property (the interval bound
    on a warp's lane lines dominates the exact Eq. 7 enumeration) and a
    simulator cross-validation (the catt-sa footprint dominates the
    measured distinct-line count of a microbenchmark whose every line
    misses exactly once). *)

module Interval = Sanitize.Interval
module Affine = Sanitize.Affine
module Gaccess = Staticmodel.Gaccess
module Reuse = Staticmodel.Reuse
module Lint = Staticmodel.Lint
module Analysis = Catt.Analysis
module Footprint = Catt.Footprint
module Throttle = Catt.Throttle

let geo ?(grid = (16, 1)) ?(block = (256, 1)) () =
  {
    Analysis.grid_x = fst grid;
    grid_y = snd grid;
    block_x = fst block;
    block_y = snd block;
  }

let parse src = Minicuda.Parser.parse_kernel src

let itv = Alcotest.testable (Fmt.of_to_string Interval.to_string) ( = )

(* ---------------------------- Interval ----------------------------- *)

let test_interval_meet_count () =
  Alcotest.check itv "meet overlaps" (Interval.make 5 10)
    (Interval.meet (Interval.make 0 10) (Interval.make 5 20));
  Alcotest.check itv "meet with top is identity" (Interval.make 3 7)
    (Interval.meet (Interval.make 3 7) Interval.top);
  Alcotest.(check (option int)) "count [3,7]" (Some 5)
    (Interval.count (Interval.make 3 7));
  Alcotest.(check (option int)) "count of top" None (Interval.count Interval.top);
  Alcotest.(check bool) "empty meet detected" true
    (Interval.is_empty (Interval.meet (Interval.make 0 2) (Interval.make 5 9)))

let test_interval_div_mod () =
  Alcotest.check itv "div by positive" (Interval.make 2 5)
    (Interval.div_const (Interval.make 10 20) 4);
  Alcotest.check itv "div by negative flips ends" (Interval.make (-10) (-5))
    (Interval.div_const (Interval.make 10 20) (-2));
  Alcotest.check itv "already-reduced mod passes through" (Interval.make 0 4)
    (Interval.mod_const (Interval.make 0 4) 8);
  Alcotest.check itv "nonneg dividend lands in [0,k-1]" (Interval.make 0 7)
    (Interval.mod_const (Interval.make 0 100) 8);
  Alcotest.check itv "unknown-sign dividend is symmetric"
    (Interval.make (-7) 7)
    (Interval.mod_const Interval.top 8)

(* ---------------------------- Gaccess ------------------------------ *)

let atax_src =
  "#define NX 4096\n\
   __global__ void atax_kernel1(float *A, float *B, float *tmp) {\n\
   int i = blockIdx.x * blockDim.x + threadIdx.x;\n\
   if (i < NX) { for (int j = 0; j < NX; j++) { tmp[i] += A[i * NX + j] * B[j]; } }\n\
   }"

let test_gaccess_atax () =
  let sa = Gaccess.analyze (parse atax_src) (geo ()) in
  match sa.Gaccess.loops with
  | [ li ] ->
    Alcotest.(check int) "loop id matches Analysis numbering" 0 li.Gaccess.gloop_id;
    Alcotest.(check string) "iterator" "j" li.Gaccess.gloop_var;
    Alcotest.(check int) "three deduped accesses" 3
      (List.length li.Gaccess.gaccesses);
    let find arr =
      List.find (fun (a : Gaccess.gaccess) -> a.Gaccess.garray = arr)
        li.Gaccess.gaccesses
    in
    (match (find "A").Gaccess.gindex with
    | Affine.Affine a -> Alcotest.(check int) "A's C_tid = NX" 4096 a.Affine.c_tx
    | Affine.Unknown -> Alcotest.fail "A affine");
    Alcotest.(check bool) "A's index range is finite (guard + geometry)" true
      (Interval.is_finite (find "A").Gaccess.gitv);
    (match (find "B").Gaccess.gindex with
    | Affine.Affine a -> Alcotest.(check int) "B's C_tid = 0" 0 a.Affine.c_tx
    | Affine.Unknown -> Alcotest.fail "B affine");
    Alcotest.(check (option string)) "B's innermost iterator" (Some "j")
      (find "B").Gaccess.ginnermost;
    let tmp = find "tmp" in
    Alcotest.(check bool) "tmp merged ld/st" true
      (tmp.Gaccess.gload && tmp.Gaccess.gstore)
  | loops -> Alcotest.failf "expected 1 loop, found %d" (List.length loops)

(* a data-dependent index reduced mod a small constant keeps a finite
   interval even though its affine form is lost *)
let mod_src =
  "__global__ void modk(int *idx, float *x, float *y) {\n\
   int i = blockIdx.x * blockDim.x + threadIdx.x;\n\
   for (int j = 0; j < 100; j++) {\n\
   int c = idx[i] % 5;\n\
   y[i] += x[c];\n\
   }\n\
   }"

let test_gaccess_mod_bounded () =
  let sa = Gaccess.analyze (parse mod_src) (geo ()) in
  let li = List.hd sa.Gaccess.loops in
  let x =
    List.find (fun (a : Gaccess.gaccess) -> a.Gaccess.garray = "x")
      li.Gaccess.gaccesses
  in
  Alcotest.(check bool) "x's index is not affine" true
    (x.Gaccess.gindex = Affine.Unknown);
  Alcotest.check itv "x's interval is the mod image" (Interval.make (-4) 4)
    x.Gaccess.gitv;
  Alcotest.(check (option int)) "two lines of span" (Some 2)
    (Reuse.span_lines ~line_bytes:128 x.Gaccess.gitv);
  (match Reuse.classify ~line_bytes:128 x with
  | Reuse.Irregular_bounded 2 -> ()
  | k -> Alcotest.failf "expected irregular(<=2), got %s" (Reuse.kind_to_string k))

(* ----------------------- Reuse / loop_lines ------------------------ *)

let test_reuse_classify () =
  let acc ?(innermost = Some "j") index itv =
    {
      Gaccess.garray = "a";
      gindex = index;
      gitv = itv;
      guniform = false;
      gload = true;
      gstore = false;
      ginnermost = innermost;
      gloc = Minicuda.Ast.dummy_loc;
    }
  in
  let aff ?(c_j = 0) c_tx =
    Affine.Affine
      {
        (Affine.const 0) with
        Affine.c_tx;
        iters = (if c_j = 0 then [] else [ ("j", c_j) ]);
      }
  in
  let k a = Reuse.classify ~line_bytes:128 a in
  Alcotest.(check string) "zero iterator coeff is invariant" "invariant"
    (Reuse.kind_to_string (k (acc (aff 1) Interval.top)));
  Alcotest.(check string) "unit stride is spatial" "spatial(stride=1)"
    (Reuse.kind_to_string (k (acc (aff ~c_j:1 1) Interval.top)));
  Alcotest.(check string) "stride past the line streams"
    "streaming(stride=64)"
    (Reuse.kind_to_string (k (acc (aff ~c_j:64 1) Interval.top)));
  Alcotest.(check string) "unbounded unknown is irregular" "irregular"
    (Reuse.kind_to_string (k (acc Affine.Unknown Interval.top)));
  Alcotest.(check bool) "invariant/spatial/bounded have reuse" true
    (Reuse.has_reuse Reuse.Invariant
    && Reuse.has_reuse (Reuse.Spatial 1)
    && Reuse.has_reuse (Reuse.Irregular_bounded 4));
  Alcotest.(check bool) "streaming/irregular do not" false
    (Reuse.has_reuse (Reuse.Streaming 64) || Reuse.has_reuse Reuse.Irregular)

(* a ±1 stencil on one array shares lines: the union is 2 lines, not 3 *)
let test_reuse_stencil_union () =
  let acc const =
    {
      Gaccess.garray = "a";
      gindex = Affine.Affine { (Affine.const const) with Affine.c_tx = 1 };
      gitv = Interval.top;
      guniform = false;
      gload = true;
      gstore = false;
      ginnermost = None;
      gloc = Minicuda.Ast.dummy_loc;
    }
  in
  let ll =
    Reuse.loop_lines ~line_bytes:128 ~warp_size:32 ~block_x:256 ~tbs:1
      [ acc (-1); acc 0; acc 1 ]
  in
  (* a[tid] is 1 line, a[tid-1] straddles into line -1, a[tid+1] into
     line 1: the union is 3 distinct lines where summing standalone
     counts (1 + 2 + 2) would charge 5 *)
  Alcotest.(check int) "stencil union, not sum" 3 ll.Reuse.per_warp;
  Alcotest.(check int) "nothing shared across warps" 0 ll.Reuse.shared

(* ----------------- Footprint: dedupe + over-throttling -------------- *)

let mk_access ~load ~store index =
  {
    Analysis.array = "a";
    index;
    is_load = load;
    is_store = store;
    innermost_iter = Some "j";
  }

(* a read-modify-write written as separate load and store accesses is ONE
   request stream; double-counting it doubles Eq. 8 and throttles a loop
   that fits.  The second half of the test pins exactly that failure mode:
   the artificially doubled footprint must throttle where the deduped one
   does not. *)
let test_footprint_dedupe_no_overthrottle () =
  let index = Affine.Affine { (Affine.const 0) with Affine.c_tx = 32 } in
  let report =
    {
      Analysis.loop_id = 0;
      loop_var = "j";
      accesses =
        [ mk_access ~load:true ~store:false index;
          mk_access ~load:false ~store:true index ];
      has_barrier = false;
    }
  in
  let fp = Footprint.of_loop ~line_bytes:128 ~warp_size:32 ~block_x:256 report in
  Alcotest.(check int) "load+store merge to one summary" 1
    (List.length fp.Footprint.summaries);
  Alcotest.(check int) "one warp's 32 lines counted once" 32
    fp.Footprint.req_per_warp;
  Alcotest.(check bool) "invariant access has locality" true
    fp.Footprint.has_locality;
  let decide fp =
    Throttle.decide ~line_bytes:128 ~l1d_bytes:(32 * 1024) ~warps_per_tb:8
      ~tbs:1 fp
  in
  (* 32 lines x 8 warps x 128 B = exactly the 32 KB L1D: fits untouched *)
  let d = decide fp in
  Alcotest.(check bool) "deduped footprint fits" false d.Throttle.throttled;
  (* the pre-dedupe double count would have been 64 lines/warp *)
  let d2 = decide { fp with Footprint.req_per_warp = 64 } in
  Alcotest.(check bool) "double-counted footprint over-throttles" true
    d2.Throttle.throttled

(* catt-sa and profile-all take their loop reports from the Gaccess walk:
   on every registry launch they must be Analysis's own *)
let test_gaccess_reports_match_analysis () =
  let launches = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      List.iter
        (fun (l : Workloads.Workload.kernel_launch) ->
          incr launches;
          let kernel = Workloads.Workload.find_kernel w l.kernel_name in
          let g = Workloads.Workload.geometry_of l in
          let expected = Analysis.analyze_kernel kernel g in
          let got =
            List.map Analysis.report_of_gaccess
              (Gaccess.analyze kernel g).Gaccess.loops
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s" w.Workloads.Workload.name l.kernel_name)
            true (expected = got))
        w.Workloads.Workload.launches)
    Workloads.Registry.all;
  Alcotest.(check int) "launches" 55 !launches

(* ------------------------- of_loop_sa ------------------------------ *)

let sa_footprints src g ~tbs =
  List.map
    (Footprint.of_loop_sa ~line_bytes:128 ~warp_size:32
       ~block_x:g.Analysis.block_x ~tbs)
    (Gaccess.analyze (parse src) g).Gaccess.loops

let test_of_loop_sa_atax () =
  match sa_footprints atax_src (geo ()) ~tbs:2 with
  | [ fp ] ->
    (* A: 32 per-warp lines; tmp: 1; B[j] has no thread or block term, so
       it is one line for the whole SM instead of one more per warp *)
    Alcotest.(check int) "per-warp keeps A and tmp" 33 fp.Footprint.req_per_warp;
    Alcotest.(check int) "B counted once per SM" 1 fp.Footprint.shared_lines;
    let eq8 =
      Footprint.of_loop ~line_bytes:128 ~warp_size:32 ~block_x:256
        (parse atax_src |> fun k -> List.hd (Analysis.analyze_kernel k (geo ())))
    in
    Alcotest.(check int) "Eq. 8 charges B per warp" 34 eq8.Footprint.req_per_warp;
    let cw = 16 in
    Alcotest.(check bool) "catt-sa footprint is strictly sharper" true
      (Footprint.size_req_lines fp ~concurrent_warps:cw
      < Footprint.size_req_lines eq8 ~concurrent_warps:cw)
  | fps -> Alcotest.failf "expected 1 loop, found %d" (List.length fps)

let test_of_loop_sa_mod_bounded () =
  match sa_footprints mod_src (geo ()) ~tbs:1 with
  | [ fp ] ->
    (* idx[i] and y[i] stay per-warp (1 line each); x[c] collapses from a
       full warp of lines to its 2-line interval span, shared SM-wide *)
    Alcotest.(check int) "per-warp lines" 2 fp.Footprint.req_per_warp;
    Alcotest.(check int) "bounded irregular access shared" 2
      fp.Footprint.shared_lines;
    Alcotest.(check int) "Eq. 8' at 8 warps" ((2 * 8) + 2)
      (Footprint.size_req_lines fp ~concurrent_warps:8)
  | fps -> Alcotest.failf "expected 1 loop, found %d" (List.length fps)

(* ------------------------ QCheck soundness ------------------------- *)

(* the interval bound on one warp's lane lines dominates the exact Eq. 7
   enumeration for every affine index the generator can produce *)
let prop_lane_lines_bound_sound =
  QCheck.Test.make ~name:"interval lane-line bound >= exact Eq. 7 count"
    ~count:500
    QCheck.(
      quad (int_range (-64) 512) (int_range (-8) 8) (int_range (-8) 8)
        (oneofl [ 32; 64; 128; 256 ]))
    (fun (const, c_tx, c_ty, block_x) ->
      let a = { (Affine.const const) with Affine.c_tx; c_ty } in
      Reuse.lane_lines_bound ~line_bytes:128 ~warp_size:32 ~block_x a
      >= Footprint.req_warp ~line_bytes:128 ~warp_size:32 ~block_x
           (Affine.Affine a))

(* --------------- Microbench cross-validation (soundness) ------------ *)

(* With [reps = 1] every element is read exactly once, so every distinct
   line of [data] misses exactly once regardless of evictions: the
   measured miss count IS the distinct-line count.  At [warps = 32] each
   warp owns exactly one slice, so the whole run equals the instantaneous
   working set that Eq. 8 models — the catt-sa footprint must dominate
   it. *)
let test_sa_footprint_covers_measured_lines () =
  let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(16 * 1024) () in
  let mb =
    Workloads.Microbench.variant ~l1d_bytes:(16 * 1024) ~line_bytes:128
      ~warp_size:32 ~fill_warps:8 ~reps:1
  in
  let warps = 32 in
  let c = Profile.Collector.create () in
  ignore (Workloads.Microbench.run ~profile:c cfg mb ~warps);
  let measured =
    List.fold_left
      (fun acc ((arr_id, _site), cell) ->
        if Profile.Collector.array_name c arr_id = "data" then
          acc + cell.Profile.Heatmap.misses
        else acc)
      0
      (Profile.Heatmap.rows (Profile.Collector.heat c))
  in
  (* slices x span lines per SM, once each *)
  Alcotest.(check int) "every data line misses exactly once"
    (cfg.Gpusim.Config.num_sms * mb.Workloads.Microbench.slices
    * mb.Workloads.Microbench.span)
    measured;
  let g =
    geo
      ~grid:(cfg.Gpusim.Config.num_sms, 1)
      ~block:(warps * 32, 1)
      ()
  in
  let sa_total =
    cfg.Gpusim.Config.num_sms
    * List.fold_left
        (fun acc fp ->
          acc + Footprint.size_req_lines fp ~concurrent_warps:warps)
        0
        (sa_footprints (Workloads.Microbench.source mb ~warps) g ~tbs:1)
  in
  Alcotest.(check bool)
    (Printf.sprintf "catt-sa footprint (%d) covers measured lines (%d)"
       sa_total measured)
    true (sa_total >= measured)

(* ------------------------------ Lint ------------------------------- *)

let machine =
  { Lint.line_bytes = 128; warp_size = 32; banks = Lint.default_banks;
    num_sms = 4 }

let lint ?occupancy ?(g = geo ()) src =
  Lint.run machine ?occupancy g (parse src)

let kinds ds = List.map (fun d -> d.Lint.dkind) ds

let test_lint_uncoalesced () =
  let src =
    "__global__ void colmajor(float *A) {\n\
     int i = blockIdx.x * blockDim.x + threadIdx.x;\n\
     A[i * 64] = 2.0;\n\
     }"
  in
  match lint src with
  | [ d ] ->
    Alcotest.(check bool) "kind" true (d.Lint.dkind = Lint.Uncoalesced);
    Alcotest.(check bool) "fully uncoalesced is high severity" true
      (d.Lint.dsev = Lint.High);
    Alcotest.(check (option string)) "array named" (Some "A") d.Lint.darray;
    Alcotest.(check bool) "located" true (d.Lint.dloc.Minicuda.Ast.line > 0)
  | ds -> Alcotest.failf "expected exactly 1 diagnostic, got %d" (List.length ds)

let test_lint_bank_conflict () =
  let src =
    "__global__ void bank(float *out) {\n\
     __shared__ float s[1024];\n\
     int tid = threadIdx.x;\n\
     s[tid * 16] = 1.0;\n\
     __syncthreads();\n\
     out[tid + blockIdx.x * blockDim.x] = s[tid * 16];\n\
     }"
  in
  let ds = lint ~g:(geo ~grid:(4, 1) ~block:(64, 1) ()) src in
  Alcotest.(check bool) "flags the strided shared access" true
    (List.mem Lint.Bank_conflict (kinds ds));
  Alcotest.(check bool) "32-way conflict is high severity" true
    (List.exists
       (fun d -> d.Lint.dkind = Lint.Bank_conflict && d.Lint.dsev = Lint.High)
       ds);
  Alcotest.(check bool) "nothing else flagged" true
    (List.for_all (fun d -> d.Lint.dkind = Lint.Bank_conflict) ds)

let test_lint_invariant_load () =
  let src =
    "__global__ void invload(float *w, float *out) {\n\
     int i = blockIdx.x * blockDim.x + threadIdx.x;\n\
     float acc = 0.0;\n\
     for (int j = 0; j < 64; j++) { acc = acc + w[i]; }\n\
     out[i] = acc;\n\
     }"
  in
  match lint src with
  | [ d ] ->
    Alcotest.(check bool) "kind" true (d.Lint.dkind = Lint.Invariant_load);
    Alcotest.(check (option string)) "array named" (Some "w") d.Lint.darray
  | ds -> Alcotest.failf "expected exactly 1 diagnostic, got %d" (List.length ds)

let test_lint_occupancy_limits () =
  let src =
    "__global__ void occ(float *out) {\n\
     out[threadIdx.x + blockIdx.x * blockDim.x] = 1.0;\n\
     }"
  in
  let ds = lint ~g:(geo ~grid:(2, 1) ~block:(48, 1) ()) src in
  Alcotest.(check int) "under-filled grid + partial warp" 2 (List.length ds);
  Alcotest.(check bool) "both are occupancy diagnostics" true
    (List.for_all (fun d -> d.Lint.dkind = Lint.Occupancy_limit) ds);
  (* severity order: the idle-SM diagnostic outranks the padded warp *)
  match ds with
  | [ a; b ] ->
    Alcotest.(check bool) "medium before low" true
      (a.Lint.dsev = Lint.Medium && b.Lint.dsev = Lint.Low)
  | _ -> assert false

let test_lint_capacity_hint () =
  (* the ATAX loop at 16 concurrent warps: 33x16+1 lines x 128 B > 16 KB *)
  let hint =
    { Lint.concurrent_warps = 16; tbs_per_sm = 2; l1d_bytes = 16 * 1024 }
  in
  let ds = lint ~occupancy:hint atax_src in
  Alcotest.(check bool) "working set over capacity flagged" true
    (List.mem Lint.Capacity (kinds ds));
  Alcotest.(check bool) "absent without a hint" false
    (List.mem Lint.Capacity (kinds (lint atax_src)))

let test_lint_clean_kernel () =
  let src =
    "__global__ void clean(float *inp, float *out) {\n\
     int i = blockIdx.x * blockDim.x + threadIdx.x;\n\
     out[i] = inp[i] + 1.0;\n\
     }"
  in
  Alcotest.(check int) "coalesced kernel lints clean" 0
    (List.length (lint src))

let test_lint_json_deterministic () =
  let ds = lint atax_src in
  let render () = Gpu_util.Json.to_string (Lint.list_to_json ds) in
  Alcotest.(check string) "json stable across renders" (render ()) (render ());
  Alcotest.(check bool) "kebab-case kinds on the wire" true
    (List.for_all
       (fun d ->
         String.for_all
           (fun ch -> ch = '-' || (ch >= 'a' && ch <= 'z'))
           (Lint.kind_to_string d.Lint.dkind))
       ds)

let tests =
  [
    ( "staticmodel.interval",
      [
        Alcotest.test_case "meet and count" `Quick test_interval_meet_count;
        Alcotest.test_case "div/mod transfer functions" `Quick
          test_interval_div_mod;
      ] );
    ( "staticmodel.gaccess",
      [
        Alcotest.test_case "ATAX accesses with ranges" `Quick test_gaccess_atax;
        Alcotest.test_case "mod keeps a finite range" `Quick
          test_gaccess_mod_bounded;
        Alcotest.test_case "registry reports equal Analysis" `Quick
          test_gaccess_reports_match_analysis;
      ] );
    ( "staticmodel.reuse",
      [
        Alcotest.test_case "reuse classifier" `Quick test_reuse_classify;
        Alcotest.test_case "stencil union shares lines" `Quick
          test_reuse_stencil_union;
        QCheck_alcotest.to_alcotest prop_lane_lines_bound_sound;
      ] );
    ( "staticmodel.footprint",
      [
        Alcotest.test_case "rmw dedupe pins over-throttling" `Quick
          test_footprint_dedupe_no_overthrottle;
        Alcotest.test_case "catt-sa sharpens ATAX" `Quick test_of_loop_sa_atax;
        Alcotest.test_case "catt-sa bounds a mod index" `Quick
          test_of_loop_sa_mod_bounded;
        Alcotest.test_case "catt-sa covers measured microbench lines" `Slow
          test_sa_footprint_covers_measured_lines;
      ] );
    ( "staticmodel.lint",
      [
        Alcotest.test_case "uncoalesced column-major store" `Quick
          test_lint_uncoalesced;
        Alcotest.test_case "shared-memory bank conflict" `Quick
          test_lint_bank_conflict;
        Alcotest.test_case "loop-invariant global load" `Quick
          test_lint_invariant_load;
        Alcotest.test_case "occupancy limiters" `Quick
          test_lint_occupancy_limits;
        Alcotest.test_case "capacity needs the hint" `Quick
          test_lint_capacity_hint;
        Alcotest.test_case "clean kernel stays clean" `Quick
          test_lint_clean_kernel;
        Alcotest.test_case "deterministic kebab-case json" `Quick
          test_lint_json_deterministic;
      ] );
  ]
