(* The repository benchmark.

   bench --workload W --seed N --seconds S --trace 0|1

   Runs one workload and prints, as its last stdout line, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  See README.md
   for what each workload and metric is. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("p50_ms", "ms");
    ("tail_ms", "ms");
    ("peak_rss_mb", "MB");
    ("alloc_mb_per_op", "MB");
  ]

let per_layer =
  List.map (fun (m, _, _) -> (m, "ms")) Grid.cell_layers
  @ [
      ("experiments.entry_kb", "kB");
      ("gpusim.launch_s", "s");
      ("gpusim.host_ns_per_instr", "ns");
      ("gpusim.alloc_words_per_instr", "words");
    ]
  @ List.concat_map
      (fun key ->
        [
          ("gpusim.host_ns_per_instr." ^ key, "ns");
          ("gpusim.alloc_words_per_instr." ^ key, "words");
        ])
      Grid.all_scheme_keys
  @ [
      ("gpusim.sim_minstr", "Minstr");
      ("gpusim.sim_mcycles", "Mcycles");
      ("gpusim.l1d_misses", "count");
      ("catt.cs_speedup", "x");
      ("serve.decode_us", "us");
      ("serve.encode_us", "us");
      ("serve.handler_us.memo", "us");
      ("serve.wire_us", "us");
      ("serve.handler_us.disk", "us");
      ("experiments.cache_load_us", "us");
      ("experiments.decode_us", "us");
      ("serve.handler_us.pair", "us");
      ("serve.handler_us.analyze", "us");
      ("serve.handler_us.explain", "us");
      ("serve.request_self_us", "us");
      ("util.pool_task_self_us", "us");
      ("experiments.runner_self_us", "us");
      ("experiments.cache_hits", "count");
      ("experiments.simulated", "count");
      ("experiments.cache_stores", "count");
      ("trace.ops_per_s", "1/s");
      ("trace.overhead_pct", "%");
    ]

type workload = Grid_static | Grid_runtime | Serve_warm

let workloads =
  [ ("grid-static", Grid_static); ("grid-runtime", Grid_runtime); ("serve-warm", Serve_warm) ]

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* setup_s: several set-ups in one run, median reported                *)
(* ------------------------------------------------------------------ *)

(* The grid's set-up runs from process start to the first cell handed to
   the runner, so it is measured on fresh copies of this executable that
   stop right there ([--setup-probe SPAWN_TIME]) and print the elapsed
   seconds. *)
let grid_setup_s ~workload ~seed =
  let self = Sys.executable_name in
  let once () =
    let r, w = Unix.pipe ~cloexec:true () in
    let spawned = Host.now () in
    let pid =
      Unix.create_process self
        [|
          self; "--workload"; workload; "--seed"; string_of_int seed;
          "--setup-probe"; Printf.sprintf "%.6f" spawned;
        |]
        Unix.stdin w Unix.stderr
    in
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> die "setup probe failed");
    match float_of_string_opt (String.trim line) with
    | Some s -> s
    | None -> die "setup probe printed %S" line
  in
  Host.median_reference once

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let print_result ~tally catalog values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalog) then die "metric %s is not declared" name)
    values;
  let field (name, unit) =
    (* a layer the workload never calls reads 0 *)
    let v = Option.value ~default:0. (List.assoc_opt name values) in
    if not (Float.is_finite v) then die "metric %s is not a number" name;
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (Checks.Tally.correct tally) tally.Checks.Tally.attempted
    tally.Checks.Tally.failed
    (String.concat ", " (List.map field catalog))

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  (* a daemon that dies mid-run must surface as an error, not kill us
     before we stop the rest *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref nan and trace = ref 0 in
  let probe = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME grid-static | grid-runtime | serve-warm");
      ("--seed", Arg.Set_int seed, "N benchmark seed (cell order, request stream)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--setup-probe", Arg.Float (fun t -> probe := Some t), "T (internal) time set-up from T");
      ("--catt-d", Arg.Set_string Serve_warm.catt_d, "PATH the daemon binary (default: the one built beside this)");
    ]
    (fun a -> die "unexpected argument %S" a)
    "bench --workload W --seed N --seconds S --trace 0|1";
  if Float.is_nan !seconds && !probe = None then die "--seconds is required";
  let kind =
    match List.assoc_opt !workload workloads with
    | Some k -> k
    | None ->
      die "unknown workload %S (expected %s)" !workload
        (String.concat ", " (List.map fst workloads))
  in
  if !Serve_warm.catt_d = "" then
    Serve_warm.catt_d :=
      Filename.concat
        (Filename.dirname (Filename.dirname Sys.executable_name))
        (Filename.concat "bin" "catt_d.exe");
  let grid_kind = function
    | Grid_static -> Grid.Static
    | Grid_runtime | Serve_warm -> Grid.Runtime
  in
  match (!probe, kind) with
  | Some spawned, (Grid_static | Grid_runtime) ->
    ignore (Grid.prepare ~seed:!seed (grid_kind kind));
    Printf.printf "%.9f\n%!" (Host.now () -. spawned)
  | Some _, Serve_warm -> die "--setup-probe is for the grid workloads"
  | None, _ -> (
    let tally = Checks.Tally.create () in
    let scratch = Host.scratch_dir () in
    let finish () = Host.rm_rf scratch in
    match (kind, !trace) with
    | (Grid_static | Grid_runtime), 0 ->
      let setup = grid_setup_s ~workload:!workload ~seed:!seed in
      let m = Grid.run ~seed:!seed ~seconds:!seconds ~scratch ~tally (grid_kind kind) in
      finish ();
      print_result ~tally end_to_end (("setup_s", setup) :: m)
    | (Grid_static | Grid_runtime), _ ->
      let m = Grid.traced ~seed:!seed ~seconds:!seconds ~scratch ~tally (grid_kind kind) in
      finish ();
      print_result ~tally per_layer m
    | Serve_warm, t ->
      let m =
        if t = 0 then Serve_warm.run ~seed:!seed ~seconds:!seconds ~scratch ~tally
        else Serve_warm.traced ~seed:!seed ~seconds:!seconds ~scratch ~tally
      in
      finish ();
      print_result ~tally (if t = 0 then end_to_end else per_layer) m)
