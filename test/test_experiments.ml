(** Tests for the experiment harness: runner memoization, the BFTT search,
    sweep candidate generation, and the report plumbing. *)

let cfg = Gpusim.Config.scaled ~num_sms:4 ~onchip_bytes:(32 * 1024) ()

let fast_workload = Workloads.Registry.find "BT"  (* smallest runtime *)

let test_memoization_returns_same () =
  let a = Experiments.Runner.run cfg fast_workload Experiments.Runner.Baseline in
  let b = Experiments.Runner.run cfg fast_workload Experiments.Runner.Baseline in
  Alcotest.(check bool) "physically equal (memoized)" true (a == b)

let test_memo_distinguishes_configs () =
  let small = Gpusim.Config.scaled ~num_sms:4 ~onchip_bytes:(16 * 1024) () in
  let a = Experiments.Runner.run cfg fast_workload Experiments.Runner.Baseline in
  let b = Experiments.Runner.run small fast_workload Experiments.Runner.Baseline in
  Alcotest.(check bool) "different cache entries" true (a != b)

let test_candidates_ordering () =
  let w = Workloads.Registry.find "ATAX" in
  let cands = Experiments.Runner.candidates cfg w in
  (match cands with
  | (1, 0) :: _ -> ()
  | _ -> Alcotest.fail "first candidate must be the baseline");
  (* warp factors strictly increase before TB factors start *)
  let rec check_phases seen_tb = function
    | [] -> ()
    | (_, m) :: rest ->
      if m > 0 then check_phases true rest
      else if seen_tb then Alcotest.fail "warp candidate after TB candidates"
      else check_phases false rest
  in
  check_phases false cands

let test_bftt_is_minimum_of_sweep () =
  let w = Workloads.Registry.find "BT" in
  let sweep = Experiments.Runner.sweep cfg w in
  let _, best = Experiments.Runner.bftt cfg w in
  List.iter
    (fun (_, (r : Experiments.Runner.app_run)) ->
      Alcotest.(check bool) "bftt <= candidate" true
        (best.Experiments.Runner.total_cycles <= r.Experiments.Runner.total_cycles))
    sweep

(* every registry kernel at both L1D sizes, with its launch geometry *)
let registry_kernels f =
  List.iter
    (fun cfg ->
      List.iter
        (fun (w : Workloads.Workload.t) ->
          List.iter
            (fun (name, kernel) ->
              f cfg w name kernel (Experiments.Runner.geometry_of_kernel w name))
            (Workloads.Workload.kernels w))
        Workloads.Registry.all)
    [ Experiments.Configs.max_l1d (); Experiments.Configs.small_l1d () ]

(* the BFTT factors every kernel of [w] is rewritten under *)
let bftt_factors cfg w = (2, 1) :: Experiments.Runner.candidates cfg w

(* [Runner.fixed_variant] goes through the gated rewrite CATT shares; on
   every registry kernel and BFTT candidate at both L1D sizes it must emit
   what the earlier BFTT-only chain ({!Bftt_reference}) did *)
let test_fixed_variant_matches_reference () =
  let cases = ref 0 in
  registry_kernels (fun cfg w name kernel geo ->
      List.iter
        (fun (n, m) ->
          incr cases;
          let what =
            Printf.sprintf "%s %s fixed(%d,%d) at %s" w.Workloads.Workload.name
              name n m
              (Experiments.Configs.label cfg)
          in
          match
            ( Bftt_reference.fixed_variant cfg kernel geo ~n ~m,
              Experiments.Runner.fixed_variant cfg kernel geo ~n ~m )
          with
          | Ok (k, tlp, carveout), Ok v ->
            let got = v.Experiments.Runner.fixed_kernel in
            Alcotest.(check bool)
              (what ^ ": kernel") true
              (Minicuda.Ast.equal_kernel k got);
            (* a kernel left untouched is the original value, so later
               gates skip it *)
            if k == kernel then
              Alcotest.(check bool)
                (what ^ ": untouched stays physical") true (got == kernel);
            Alcotest.(check (pair int int))
              (what ^ ": tlp") tlp v.Experiments.Runner.fixed_tlp;
            Alcotest.(check (option int))
              (what ^ ": carveout") carveout
              v.Experiments.Runner.fixed_carveout
          | Error a, Error b -> Alcotest.(check string) what a b
          | _ -> Alcotest.failf "%s: only one side configures" what)
        (bftt_factors cfg w));
  Alcotest.(check int) "cases" 498 !cases

(* the top-level loops of [k], in the pre-order Analysis numbers them *)
let top_loops (k : Minicuda.Ast.kernel) =
  let rec of_block acc b = List.fold_left of_stmt acc b
  and of_stmt acc (s : Minicuda.Ast.stmt) =
    match s.Minicuda.Ast.sk with
    | Minicuda.Ast.For _ | Minicuda.Ast.While _ -> s :: acc
    | Minicuda.Ast.If (_, then_b, else_b) -> of_block (of_block acc then_b) else_b
    | Minicuda.Ast.Block body -> of_block acc body
    | _ -> acc
  in
  List.rev (of_block [] k.Minicuda.Ast.body)

(* the warp-group phases [emitted] runs the original [loop] in: a warp
   split puts the loop statement itself under each phase's guard, and a
   loop left whole appears once *)
let phases emitted loop =
  List.length (List.filter (fun s -> s == loop) (top_loops emitted))

(* Eq. 3 occupancy of the compiled [prog] at [carveout] (at the Eq. 4
   carveout when [None]), capped by the grid as Catt.Occupancy caps it *)
let emitted_tbs cfg (geo : Catt.Analysis.geometry)
    (prog : Gpusim.Bytecode.program) carveout =
  let grid_tbs = geo.Catt.Analysis.grid_x * geo.Catt.Analysis.grid_y in
  let tb_threads = geo.Catt.Analysis.block_x * geo.Catt.Analysis.block_y in
  let num_regs = prog.Gpusim.Bytecode.num_regs in
  let shared_bytes = prog.Gpusim.Bytecode.shared_bytes in
  match carveout with
  | Some smem_carveout ->
    let sms = cfg.Gpusim.Config.num_sms in
    min
      ((grid_tbs + sms - 1) / sms)
      (Gpusim.Cta_scheduler.max_tbs_per_sm cfg ~tb_threads ~num_regs
         ~shared_bytes ~smem_carveout)
  | None -> (
    match
      Catt.Occupancy.configure cfg ~grid_tbs ~tb_threads ~num_regs
        ~shared_bytes ()
    with
    | Ok occ -> occ.Catt.Occupancy.tbs_per_sm
    | Error msg -> Alcotest.fail msg)

(* The TLP every CATT, catt-sa and BFTT report reads is what the emitted
   program runs: each loop at the whole TB's warps over its phases, the
   kernel at its most split loop's, and the TBs the emitted program's
   Eq. 3 occupancy allows at the reported carveout. *)
let test_record_equals_emitted () =
  let catt = ref 0 and bftt = ref 0 in
  registry_kernels (fun cfg w name kernel geo ->
      let what =
        Printf.sprintf "%s %s at %s" w.Workloads.Workload.name name
          (Experiments.Configs.label cfg)
      in
      let warps_per_tb =
        Gpusim.Cta_scheduler.warps_per_tb cfg
          ~tb_threads:(geo.Catt.Analysis.block_x * geo.Catt.Analysis.block_y)
      in
      let loops = top_loops kernel in
      let check_kernel what emitted prog carveout (warps, tbs) =
        let most =
          List.fold_left (fun acc l -> max acc (phases emitted l)) 1 loops
        in
        Alcotest.(check int) (what ^ ": warps") (warps_per_tb / most) warps;
        Alcotest.(check int)
          (what ^ ": TBs")
          (emitted_tbs cfg geo prog carveout)
          tbs
      in
      List.iter
        (fun (label, model) ->
          match Experiments.Runner.prepare_catt ~model cfg kernel geo with
          | Error msg -> Alcotest.failf "%s %s: %s" what label msg
          | Ok p ->
            incr catt;
            let what = what ^ " " ^ label in
            let t = Option.get p.Experiments.Runner.analysis in
            let emitted = t.Catt.Driver.transformed in
            List.iteri
              (fun loop_id loop ->
                Alcotest.(check (pair int int))
                  (Printf.sprintf "%s loop %d" what loop_id)
                  ( warps_per_tb / phases emitted loop,
                    snd p.Experiments.Runner.prepared_tlp )
                  (Catt.Driver.selected_tlp t ~loop_id))
              loops;
            check_kernel what emitted p.Experiments.Runner.prog
              p.Experiments.Runner.carveout p.Experiments.Runner.prepared_tlp)
        [ ("CATT", `Eq8); ("catt-sa", `Sa) ];
      List.iter
        (fun (n, m) ->
          match Experiments.Runner.fixed_variant cfg kernel geo ~n ~m with
          | Error _ -> ()
          | Ok v ->
            incr bftt;
            let emitted = v.Experiments.Runner.fixed_kernel in
            check_kernel
              (Printf.sprintf "%s fixed(%d,%d)" what n m)
              emitted
              (Gpusim.Codegen.compile_kernel emitted)
              v.Experiments.Runner.fixed_carveout v.Experiments.Runner.fixed_tlp)
        (bftt_factors cfg w));
  Alcotest.(check int) "CATT and catt-sa cases" 156 !catt;
  Alcotest.(check int) "BFTT cases" 498 !bftt

(* Fig. 9 stars the first sweep point that runs CATT's kernel TLP; both
   sides are prepared here, without simulating *)
let test_fig9_star_tlp () =
  let cfg = Experiments.Configs.max_l1d () in
  List.iter
    (fun (app, name, star) ->
      let w = Workloads.Registry.find app in
      let kernel = Workloads.Workload.find_kernel w name in
      let geo = Experiments.Runner.geometry_of_kernel w name in
      let tlp_at (n, m) =
        if (n, m) = (1, 0) then
          (Experiments.Runner.prepare_baseline cfg kernel geo)
            .Experiments.Runner.prepared_tlp
        else
          match Experiments.Runner.fixed_variant cfg kernel geo ~n ~m with
          | Ok v -> v.Experiments.Runner.fixed_tlp
          | Error msg -> Alcotest.fail msg
      in
      match Experiments.Runner.prepare_catt cfg kernel geo with
      | Error msg -> Alcotest.fail msg
      | Ok p ->
        let catt = p.Experiments.Runner.prepared_tlp in
        Alcotest.(check (pair int int)) (name ^ " at the star") catt
          (tlp_at star);
        Alcotest.(check (option (pair int int)))
          (name ^ ": the first such sweep point") (Some star)
          (List.find_opt
             (fun f -> tlp_at f = catt)
             (Experiments.Runner.candidates cfg w)))
    [ ("BFS", "bfs_expand", (8, 1)); ("SYR2K", "syr2k_kernel", (1, 10)) ]

let contains line phrase =
  let n = String.length phrase in
  let rec from i =
    i + n <= String.length line && (String.sub line i n = phrase || from (i + 1))
  in
  from 0

(* no explain verdict calls a loop untouched or unthrottled when the
   emitted program splits it or pads its kernel *)
let test_explain_verdicts () =
  let changed = ref 0 in
  List.iter
    (fun cfg ->
      List.iter
        (fun (w : Workloads.Workload.t) ->
          List.iter
            (fun (name, (t : Catt.Driver.t)) ->
              let emitted = t.Catt.Driver.transformed in
              let padded =
                List.exists
                  (fun (s : Minicuda.Ast.stmt) ->
                    match s.Minicuda.Ast.sk with
                    | Minicuda.Ast.Shared_decl (_, array, _) ->
                      array = Catt.Transform.dummy_array_name
                    | _ -> false)
                  emitted.Minicuda.Ast.body
              in
              let loops = top_loops t.Catt.Driver.kernel in
              let decisions =
                List.filter
                  (String.starts_with ~prefix:"    decision:")
                  (String.split_on_char '\n' (Catt.Explain.render cfg t))
              in
              Alcotest.(check int)
                (name ^ ": one decision per loop")
                (List.length t.Catt.Driver.loops)
                (List.length decisions);
              List.iter2
                (fun (l : Catt.Driver.loop_decision) line ->
                  let id =
                    l.Catt.Driver.footprint.Catt.Footprint.loop
                      .Catt.Analysis.loop_id
                  in
                  if padded || phases emitted (List.nth loops id) > 1 then begin
                    incr changed;
                    List.iter
                      (fun phrase ->
                        if contains line phrase then
                          Alcotest.failf "%s %s loop %d at %s:%s" w.Workloads.Workload.name
                            name id (Experiments.Configs.label cfg) line)
                      [ "left untouched"; "no throttling" ]
                  end)
                t.Catt.Driver.loops decisions)
            (Experiments.Explain.analyses cfg w))
        Workloads.Registry.cs)
    [ Experiments.Configs.max_l1d (); Experiments.Configs.small_l1d () ];
  Alcotest.(check int) "loops the rewrite changed" 20 !changed

let test_scheme_labels () =
  Alcotest.(check string) "baseline" "baseline"
    (Experiments.Runner.scheme_label Experiments.Runner.Baseline);
  Alcotest.(check string) "fixed" "fixed(N=4,M=1)"
    (Experiments.Runner.scheme_label (Experiments.Runner.Fixed (4, 1)))

(* Two distinct schemes must never alias one persistent-cache entry.
   [Cache.key] embeds the scheme label, so this holds iff labels are
   pairwise distinct across the whole [Scheme.samples] corpus — the same
   corpus the round-trip property iterates, so a new constructor lands
   here automatically (via the [sample_of] exhaustiveness guard). *)
let test_cache_keys_distinct () =
  let keys =
    List.map
      (fun s ->
        ( Experiments.Scheme.label s,
          Experiments.Cache.key cfg ~workload:"ATAX"
            ~scheme:(Experiments.Scheme.label s) ~seed:42 ))
      Experiments.Scheme.samples
  in
  List.iteri
    (fun i (li, ki) ->
      List.iteri
        (fun j (lj, kj) ->
          if i < j && ki = kj then
            Alcotest.failf "schemes %s and %s share cache key %s" li lj ki)
        keys)
    keys

let test_report_registry () =
  Alcotest.(check int) "fourteen artifacts" 14 (List.length Experiments.Report.artifacts);
  List.iter
    (fun id ->
      match Experiments.Report.find id with
      | Some _ -> ()
      | None -> Alcotest.failf "artifact %s not found" id)
    [ "table3"; "fig2"; "fig3"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10";
      "overhead"; "sanitize-all"; "profile-all" ]

let test_configs () =
  Alcotest.(check int) "max" (32 * 1024)
    (Experiments.Configs.max_l1d ()).Gpusim.Config.onchip_bytes;
  Alcotest.(check int) "small" (16 * 1024)
    (Experiments.Configs.small_l1d ()).Gpusim.Config.onchip_bytes

let test_trace_runs_are_uncached () =
  let traced () =
    match
      Experiments.Runner.exec
        (Experiments.Runner.Request.make ~trace:true cfg fast_workload
           Experiments.Runner.Baseline)
    with
    | Ok r -> r
    | Error msg -> failwith msg
  in
  let a = traced () in
  let b = traced () in
  Alcotest.(check bool) "not memoized" true (a != b);
  (* trace data must be present *)
  Alcotest.(check bool) "has traces" true
    (List.for_all
       (fun (ks : Experiments.Runner.kernel_stats) -> ks.Experiments.Runner.trace <> None)
       a.Experiments.Runner.kernels)

let test_overhead_measures_all () =
  let entry = Experiments.Overhead.measure cfg (Workloads.Registry.find "ATAX") in
  Alcotest.(check int) "two kernels" 2 entry.Experiments.Overhead.kernels;
  Alcotest.(check bool) "fast" true (entry.Experiments.Overhead.seconds < 1.)

let tests =
  [
    ( "experiments.runner",
      [
        Alcotest.test_case "memoization" `Quick test_memoization_returns_same;
        Alcotest.test_case "memo per config" `Quick test_memo_distinguishes_configs;
        Alcotest.test_case "candidate ordering" `Quick test_candidates_ordering;
        Alcotest.test_case "BFTT minimizes" `Quick test_bftt_is_minimum_of_sweep;
        Alcotest.test_case "fixed_variant matches BFTT reference" `Quick
          test_fixed_variant_matches_reference;
        Alcotest.test_case "TLP record equals emitted program" `Quick
          test_record_equals_emitted;
        Alcotest.test_case "Fig. 9 star is CATT's TLP" `Quick test_fig9_star_tlp;
        Alcotest.test_case "explain verdicts match the rewrite" `Quick
          test_explain_verdicts;
        Alcotest.test_case "scheme labels" `Quick test_scheme_labels;
        Alcotest.test_case "trace runs uncached" `Quick test_trace_runs_are_uncached;
        Alcotest.test_case "cache keys distinct per scheme" `Quick
          test_cache_keys_distinct;
      ] );
    ( "experiments.report",
      [
        Alcotest.test_case "artifact registry" `Quick test_report_registry;
        Alcotest.test_case "configs" `Quick test_configs;
        Alcotest.test_case "overhead measurement" `Quick test_overhead_measures_all;
      ] );
  ]
