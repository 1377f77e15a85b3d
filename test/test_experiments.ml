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

(* [Runner.fixed_variant] goes through the gated rewrite CATT shares; on
   every registry kernel and BFTT candidate at both L1D sizes it must emit
   what the earlier BFTT-only chain ({!Bftt_reference}) did *)
let test_fixed_variant_matches_reference () =
  let cases = ref 0 in
  List.iter
    (fun cfg ->
      List.iter
        (fun (w : Workloads.Workload.t) ->
          List.iter
            (fun (name, kernel) ->
              let geo = Experiments.Runner.geometry_of_kernel w name in
              List.iter
                (fun (n, m) ->
                  incr cases;
                  let what =
                    Printf.sprintf "%s %s fixed(%d,%d) at %s"
                      w.Workloads.Workload.name name n m
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
                    (* a kernel left untouched is the original value,
                       so later gates skip it *)
                    if k == kernel then
                      Alcotest.(check bool)
                        (what ^ ": untouched stays physical") true
                        (got == kernel);
                    Alcotest.(check (pair int int))
                      (what ^ ": tlp") tlp v.Experiments.Runner.fixed_tlp;
                    Alcotest.(check (option int))
                      (what ^ ": carveout") carveout
                      v.Experiments.Runner.fixed_carveout
                  | Error a, Error b -> Alcotest.(check string) what a b
                  | _ -> Alcotest.failf "%s: only one side configures" what)
                ((2, 1) :: Experiments.Runner.candidates cfg w))
            (Workloads.Workload.kernels w))
        Workloads.Registry.all)
    [ Experiments.Configs.max_l1d (); Experiments.Configs.small_l1d () ];
  Alcotest.(check int) "cases" 498 !cases

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
