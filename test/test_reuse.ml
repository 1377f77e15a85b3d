(** Tests for the launch-key rung of the runner's cell ladder: a cell
    whose schemes compile to a launch sequence already simulated in its
    shard is answered from that entry instead of simulating again.

    The load-bearing properties: the launch key covers everything a
    launch reads, so two cells share one only when they simulate alike;
    a reused answer equals the cell's own simulation; and every way the
    referenced entry can be unusable falls back to a simulation. *)

module Runner = Experiments.Runner
module Cache = Experiments.Cache
module Gpu = Gpusim.Gpu
module Json = Gpu_util.Json

let with_temp_cache = Test_parallel.with_temp_cache
let ok = function Ok v -> v | Error msg -> Alcotest.fail msg
let bt () = Workloads.Registry.find "BT"
let bfs () = Workloads.Registry.find "BFS"

(* the launch key of a cell, after its preparation *)
let key_of cfg w scheme =
  let prepared = ok (Runner.prepare_all cfg w scheme) in
  match Runner.launch_key_of cfg w (Runner.launches_of cfg w scheme prepared) with
  | Some k -> k
  | None -> Alcotest.failf "%s has no launch key" (Runner.scheme_label scheme)

(* ------------------------------------------------------------------ *)
(* The key                                                             *)
(* ------------------------------------------------------------------ *)

(* At the maximum L1D, CATT and catt-sa leave BT's kernel as baseline
   compiles it; baseline passes no carveout where CATT passes the one it
   resolves to. *)
let test_bt_schemes_share_a_key () =
  let cfg = Experiments.Configs.max_l1d () and w = bt () in
  let base = key_of cfg w Runner.Baseline in
  Alcotest.(check string) "CATT" base (key_of cfg w Runner.Catt);
  Alcotest.(check string) "catt-sa" base (key_of cfg w Runner.CattSa);
  List.iter
    (fun s ->
      Alcotest.(check bool) (Runner.scheme_label s ^ " differs") false
        (String.equal base (key_of cfg w s)))
    [ Runner.Fixed (2, 1); Runner.Dynamic; Runner.Swl 4; Runner.Ciao ]

(* BT's first launch under baseline, as the runner builds it *)
let bt_launch cfg scheme =
  let w = bt () in
  let prepared = ok (Runner.prepare_all cfg w scheme) in
  match Runner.launches_of cfg w scheme prepared with
  | (_, l, _) :: _ -> l
  | [] -> Alcotest.fail "BT has no launch"

let test_key_covers_every_input () =
  let cfg = Experiments.Configs.max_l1d () in
  let l = bt_launch cfg Runner.Baseline in
  let digest = Gpu.launch_digest cfg in
  let d = digest l in
  let differs what l' =
    Alcotest.(check bool) (what ^ " changes the launch digest") false
      (Digest.equal d (digest l'))
  in
  (* the carveout is compared resolved: [None] is the option it picks *)
  let resolved =
    List.find
      (fun c -> Digest.equal d (digest { l with Gpu.smem_carveout = Some c }))
      cfg.Gpusim.Config.smem_carveout_options
  in
  List.iter
    (fun c ->
      if c <> resolved then
        differs
          (Printf.sprintf "carveout %d" c)
          { l with Gpu.smem_carveout = Some c })
    cfg.Gpusim.Config.smem_carveout_options;
  differs "the program"
    { l with Gpu.prog = (bt_launch cfg (Runner.Fixed (2, 1))).Gpu.prog };
  differs "a register count"
    { l with Gpu.prog = { l.Gpu.prog with Gpusim.Bytecode.num_regs = l.Gpu.prog.Gpusim.Bytecode.num_regs + 1 } };
  differs "the grid" { l with Gpu.grid = (fst l.Gpu.grid + 1, snd l.Gpu.grid) };
  differs "the block" { l with Gpu.block = (fst l.Gpu.block, snd l.Gpu.block + 1) };
  differs "the arguments" { l with Gpu.args = List.rev l.Gpu.args };
  differs "the scheduler" { l with Gpu.sched = Gpusim.Sm.Lrr };
  differs "the trace flag" { l with Gpu.trace = true };
  differs "the bypass arrays" { l with Gpu.bypass_arrays = [ "keys" ] };
  let policies =
    [ `None; `Dyncta; `Ccws; `Daws; `Swl 4; `Swl 8; `Ciao; `Ata ]
  in
  Alcotest.(check int) "every runtime policy has its own digest"
    (List.length policies)
    (List.length
       (List.sort_uniq compare
          (List.map (fun p -> digest { l with Gpu.runtime_throttle = p }) policies)));
  (* the profile collector observes and is left out *)
  Alcotest.(check bool) "a profile collector does not" true
    (Digest.equal d
       (digest { l with Gpu.profile = Some (Profile.Collector.create ()) }));
  (* the sequence key: config, workload, seed and launch order *)
  let key ?(cfg = cfg) ?(workload = "BT") ?(seed = Runner.seed) ds =
    Cache.launch_key cfg ~workload ~seed ds
  in
  let other = digest { l with Gpu.trace = true } in
  let k = key [ d; other ] in
  let keys =
    [
      key ~workload:"BFS" [ d; other ];
      key ~seed:(Runner.seed + 1) [ d; other ];
      key [ other; d ];
      key [ d ];
    ]
    @ List.map
        (fun (_, c) -> key ~cfg:c [ d; other ])
        (Test_parallel.config_variants cfg)
  in
  Alcotest.(check int) "sequence keys pairwise distinct"
    (List.length keys + 1)
    (List.length (List.sort_uniq compare (k :: keys)))

(* BFS launches each of its two programs six times: the sequence's
   digests, each program rendered once, are its launches' digests. *)
let test_sequence_digests () =
  let cfg = Experiments.Configs.max_l1d () and w = bfs () in
  let prepared = ok (Runner.prepare_all cfg w Runner.Baseline) in
  let launches = List.map (fun (_, l, _) -> l) (Runner.launches_of cfg w Runner.Baseline prepared) in
  Alcotest.(check int) "BFS launches" 12 (List.length launches);
  Alcotest.(check (list string)) "one digest per launch"
    (List.map (fun l -> Digest.to_hex (Gpu.launch_digest cfg l)) launches)
    (List.map Digest.to_hex (Gpu.launch_digests cfg launches))

(* ------------------------------------------------------------------ *)
(* Counts and answers over a small static grid                         *)
(* ------------------------------------------------------------------ *)

let static_schemes = Runner.[ Baseline; Catt; CattSa; Fixed (2, 1) ]

(* what an entry carries, and what the cell's own preparation adds *)
let answer cfg (r : Runner.app_run) =
  ( ( r.Runner.total_cycles,
      r.Runner.verified,
      List.map
        (fun (k : Runner.kernel_stats) ->
          ( k.Runner.kernel_name,
            k.Runner.tlp,
            Json.to_string (Gpusim.Stats.to_json k.Runner.stats) ))
        r.Runner.kernels ),
    List.map
      (fun (name, t) -> (name, Json.to_string (Catt.Explain.to_json cfg t)))
      r.Runner.catt_analyses )

(* BT and BFS under the four static schemes plus one runtime scheme, in
   both orders, each against an empty cache: the 8 static cells hold 5
   distinct launch sequences whatever the order, and every answer is
   the cell's own simulation. *)
let test_static_grid_counts () =
  let cfg = Experiments.Configs.max_l1d () in
  let cells =
    List.concat_map (fun w -> List.map (fun s -> (w, s)) static_schemes) [ bt (); bfs () ]
    @ [ (bt (), Runner.Dynamic) ]
  in
  let fresh =
    List.map
      (fun (w, s) -> answer cfg (ok (Runner.exec_uncached (Runner.Request.make cfg w s))))
      cells
  in
  List.iter
    (fun (order, cells, fresh) ->
      with_temp_cache (fun () ->
          Runner.clear_memo ();
          let sim0 = Runner.simulated_total () and reused0 = Runner.reused_total () in
          List.iter2
            (fun ((w : Workloads.Workload.t), s) want ->
              let what =
                Printf.sprintf "%s order, %s/%s" order w.Workloads.Workload.name
                  (Runner.scheme_label s)
              in
              let req = Runner.Request.make cfg w s in
              let r = ok (Runner.exec req) in
              Alcotest.(check bool) (what ^ ": answer is its own simulation") true
                (answer cfg r = want);
              match
                Cache.find cfg ~workload:w.Workloads.Workload.name
                  ~scheme:(Runner.scheme_label s) ~seed:Runner.seed
                  (Runner.cell_ladder.Runner.decode cfg req)
              with
              | Some stored ->
                Alcotest.(check bool) (what ^ ": own entry decodes to it") true
                  (fst (answer cfg stored) = fst want)
              | None -> Alcotest.failf "%s: no entry of its own" what)
            cells fresh;
          Alcotest.(check int) (order ^ " order: simulated") 6
            (Runner.simulated_total () - sim0);
          Alcotest.(check int) (order ^ " order: reused") 3
            (Runner.reused_total () - reused0)))
    [ ("given", cells, fresh); ("reversed", List.rev cells, List.rev fresh) ]

(* ------------------------------------------------------------------ *)
(* Index entry states                                                  *)
(* ------------------------------------------------------------------ *)

(* Every state the entry named by the launch index can be in.  Only a
   valid one is reused; any other is a miss that simulates and whose
   store replaces the index record.  Each state gives what the index
   record holds ([`Entry]: the referenced entry's name) and maps that
   entry's valid text to what its file holds ([None]: no file). *)
let index_states =
  let rewrite f text =
    match Json.of_string text with
    | Ok j -> Json.to_string (f j)
    | Error msg -> Alcotest.failf "valid entry does not parse: %s" msg
  in
  let rec map_member key f = function
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = key then (k, f v) else (k, map_member key f v))
           fields)
    | j -> j
  in
  let rec drop key = function
    | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) -> if k = key then None else Some (k, drop key v))
           fields)
    | j -> j
  in
  [
    ("valid", `Reused, `Entry, fun valid -> Some valid);
    ("absent", `Simulated, `Entry, fun _ -> None);
    ("corrupt", `Simulated, `Entry, fun _ -> Some "{ not json");
    ( "truncated",
      `Simulated,
      `Entry,
      fun valid -> Some (String.sub valid 0 (String.length valid / 2)) );
    ( "stale version",
      `Simulated,
      `Entry,
      fun valid ->
        Some (rewrite (map_member "version" (fun v -> Json.Int (Json.to_int v - 1))) valid)
    );
    ("wrong shape: a list", `Simulated, `Entry, fun _ -> Some "[1,2,3]");
    ("wrong shape: no kernels", `Simulated, `Entry, fun valid -> Some (rewrite (drop "kernels") valid));
    ( "another launch key",
      `Simulated,
      `Entry,
      fun valid ->
        Some (rewrite (map_member "launch_key" (fun _ -> Json.String "0123")) valid) );
    ("no launch key", `Simulated, `Entry, fun valid -> Some (rewrite (drop "launch_key") valid));
    (* a record may only name an entry of its own shard *)
    ("record names no entry", `Simulated, `Name "../escape.json", fun valid -> Some valid);
  ]

let test_index_entry_states () =
  with_temp_cache (fun () ->
      let cfg = Experiments.Configs.max_l1d () and w = bt () in
      let base_req = Runner.Request.make cfg w Runner.Baseline in
      let req = Runner.Request.make cfg w Runner.Catt in
      let path s =
        Cache.path cfg ~workload:"BT" ~scheme:(Runner.scheme_label s) ~seed:Runner.seed
      in
      let base_file = path Runner.Baseline and own_file = path Runner.Catt in
      let index = Cache.index_path (key_of cfg w Runner.Catt) in
      let read f = In_channel.with_open_bin f In_channel.input_all in
      let write f text = Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc text) in
      let payload (r : Runner.app_run) = Runner.run_to_json { r with Runner.manifest = None } in
      let fresh = Json.to_string (payload (ok (Runner.exec_uncached req))) in
      Runner.clear_memo ();
      ignore (ok (Runner.exec base_req));
      Alcotest.(check string) "the index names the simulated entry"
        (Filename.basename base_file) (read index);
      let valid = read base_file in
      List.iter
        (fun (state, outcome, record, content) ->
          let what = Printf.sprintf "%s referenced entry" state in
          (match content valid with
          | None -> if Sys.file_exists base_file then Sys.remove base_file
          | Some text -> write base_file text);
          write index
            (match record with
            | `Entry -> Filename.basename base_file
            | `Name name -> name);
          if Sys.file_exists own_file then Sys.remove own_file;
          Runner.clear_memo ();
          let c0 = Cache.stats () and sim0 = Runner.simulated_total ()
          and reused0 = Runner.reused_total () in
          let r, source = ok (Runner.exec_with_source req) in
          let c1 = Cache.stats () in
          let reused = outcome = `Reused and one b = if b then 1 else 0 in
          Alcotest.(check (list (pair string int)))
            (what ^ ": counter deltas")
            [
              ("hits", 0); ("misses", 1); ("evictions", 0); ("stores", 1);
              ("simulated", one (not reused)); ("reused", one reused);
            ]
            [
              ("hits", c1.Cache.hits - c0.Cache.hits);
              ("misses", c1.Cache.misses - c0.Cache.misses);
              ("evictions", c1.Cache.evictions - c0.Cache.evictions);
              ("stores", c1.Cache.stores - c0.Cache.stores);
              ("simulated", Runner.simulated_total () - sim0);
              ("reused", Runner.reused_total () - reused0);
            ];
          Alcotest.(check bool) (what ^ ": source") true
            (source = if reused then Runner.Disk else Runner.Simulated);
          Alcotest.(check string) (what ^ ": answer equals a fresh simulation")
            fresh (Json.to_string (payload r));
          (* the cell's own entry is stored whole and carries the key *)
          (match
             Cache.find cfg ~workload:"BT" ~scheme:"CATT" ~seed:Runner.seed
               (Runner.cell_ladder.Runner.decode cfg req)
           with
          | Some stored ->
            Alcotest.(check bool) (what ^ ": own entry carries the key") true
              (Runner.cell_ladder.Runner.launch_key stored
              = Some (key_of cfg w Runner.Catt))
          | None -> Alcotest.failf "%s: own entry does not decode" what);
          Alcotest.(check string) (what ^ ": the index names the newest store")
            (Filename.basename own_file) (read index))
        index_states)

(* ------------------------------------------------------------------ *)
(* What reuse never does                                               *)
(* ------------------------------------------------------------------ *)

(* Another tenant's shard is never consulted, and a request whose
   payload is never persisted always simulates. *)
let test_no_crossing () =
  with_temp_cache (fun () ->
      let cfg = Experiments.Configs.max_l1d () and w = bt () in
      Runner.clear_memo ();
      let run ?(trace = false) ?(profile = false) ?(timeline = false) ?tenant
          ?on_device scheme =
        let sim0 = Runner.simulated_total () and reused0 = Runner.reused_total () in
        let _, source =
          ok
            (Runner.exec_with_source
               (Runner.Request.make ~trace ~profile ~timeline ?tenant ?on_device
                  cfg w scheme))
        in
        (source, Runner.simulated_total () - sim0, Runner.reused_total () - reused0)
      in
      let check what want got =
        Alcotest.(check bool) what true (want = got)
      in
      check "tenant a simulates baseline" (Runner.Simulated, 1, 0)
        (run ~tenant:"a" Runner.Baseline);
      check "tenant b does not reuse a's entry" (Runner.Simulated, 1, 0)
        (run ~tenant:"b" Runner.Catt);
      check "tenant a reuses its own" (Runner.Disk, 0, 1)
        (run ~tenant:"a" Runner.CattSa);
      check "the shared shard does not reuse a tenant's" (Runner.Simulated, 1, 0)
        (run Runner.CattSa);
      check "a trace request simulates" (Runner.Simulated, 1, 0)
        (run ~trace:true ~tenant:"a" Runner.Catt);
      check "a profile request simulates" (Runner.Simulated, 1, 0)
        (run ~profile:true ~tenant:"a" Runner.Catt);
      check "a timeline request simulates" (Runner.Simulated, 1, 0)
        (run ~profile:true ~timeline:true ~tenant:"a" Runner.Catt);
      check "a device observer simulates" (Runner.Simulated, 1, 0)
        (run ~on_device:ignore ~tenant:"a" Runner.Catt))

let tests =
  [
    ( "reuse",
      [
        Alcotest.test_case "BT schemes share a launch key" `Quick
          test_bt_schemes_share_a_key;
        Alcotest.test_case "launch key covers every input" `Quick
          test_key_covers_every_input;
        Alcotest.test_case "sequence digests are per-launch digests" `Quick
          test_sequence_digests;
        Alcotest.test_case "static grid counts, both orders" `Quick
          test_static_grid_counts;
        Alcotest.test_case "index entry states" `Quick test_index_entry_states;
        Alcotest.test_case "never crosses a shard or a bypass" `Quick
          test_no_crossing;
      ] );
  ]
