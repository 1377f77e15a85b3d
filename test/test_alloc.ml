(** Allocation guard for the simulator's per-instruction hooks.

    Each hook runs 10^5 times after a warm-up pass (so hash tables and
    scratch arrays have reached their steady size), and the minor-heap
    words allocated in between are divided by the call count.  These are
    counts, not timings: a closure, a [Some], a boxed float or a list
    cell added to a hook shows up as a whole word per call or more, far
    above the 0.01 limit, on any host. *)

module Ata = Gpusim.Ata
module Cache = Gpusim.Cache
module Ccws = Gpusim.Ccws
module Daws = Gpusim.Daws
module Interference = Gpusim.Interference
module Sm = Gpusim.Sm

let calls = 100_000
let limit = 0.01

let words_per_call f =
  f ();
  let before = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. before) /. float_of_int calls

let check_free name f =
  let w = words_per_call f in
  if w > limit then
    Alcotest.failf "%s allocates %.3f words per call (limit %.2f)" name w limit

(* [line]'s miss through the SM's sequence, at [now], filling at [ready] *)
let miss_fill c ~now ~line ~ready =
  let r = Cache.probe c ~now ~line in
  if r < 0 then begin
    ignore (Cache.miss_issue c ~now);
    Cache.fill c ~miss:r ~line ~ready
  end

let test_cache_probes () =
  let c = Cache.create ~bytes:(4 * 1024) ~assoc:4 ~line_bytes:128 ~mshrs:8 () in
  for line = 0 to 15 do
    miss_fill c ~now:0 ~line ~ready:0
  done;
  (* lines 0..31 over a 32-line cache holding 0..15: hits and misses *)
  check_free "Cache.probe" (fun () ->
      for i = 0 to calls - 1 do
        ignore (Cache.probe c ~now:i ~line:(i land 31))
      done);
  check_free "Cache.write_update" (fun () ->
      for i = 0 to calls - 1 do
        ignore (Cache.write_update c ~line:(i land 31))
      done);
  (* every call a miss (a stream of new lines) that evicts, waits on a
     full MSHR file every few calls and fills *)
  let c = Cache.create ~bytes:(4 * 1024) ~assoc:4 ~line_bytes:128 ~mshrs:8 () in
  let next = ref 0 in
  check_free "Cache.probe/miss_issue/fill, missing" (fun () ->
      for i = 0 to calls - 1 do
        let line = !next in
        incr next;
        let r = Cache.probe c ~now:i ~line in
        let issue = Cache.miss_issue c ~now:i in
        Cache.fill c ~miss:r ~line ~ready:(issue + 40 + (line land 63))
      done)

(* The MSHR file is sized to its bound at [create] and refuses a push
   past it (a fill or note_inflight without its miss_issue) instead of
   growing. *)
let test_mshr_bound () =
  let c = Cache.create ~bytes:(4 * 1024) ~assoc:4 ~line_bytes:128 ~mshrs:2 () in
  miss_fill c ~now:0 ~line:1 ~ready:100;
  miss_fill c ~now:0 ~line:2 ~ready:200;
  let r = Cache.probe c ~now:0 ~line:3 in
  let refused f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "fill past the bound refused" true
    (refused (fun () -> Cache.fill c ~miss:r ~line:3 ~ready:300));
  Alcotest.(check bool) "note_inflight past the bound refused" true
    (refused (fun () -> Cache.note_inflight c ~ready:300));
  Alcotest.(check bool) "the refused fill installed nothing" true
    (Cache.probe c ~now:0 ~line:3 < 0);
  (* still two entries: a miss waits for the first fill, which leaves
     room for exactly one more *)
  Alcotest.(check int) "full file delays the issue" 100 (Cache.miss_issue c ~now:0);
  Cache.note_inflight c ~ready:300;
  for ready = 1 to 1000 do
    if not (refused (fun () -> Cache.note_inflight c ~ready)) then
      Alcotest.failf "a push past the bound (ready %d) was taken" ready
  done;
  (* the file holds exactly the fills at 200 and 300: none of the
     refused ones, which would retire first *)
  Alcotest.(check int) "refusals left the file unchanged" 200
    (Cache.miss_issue c ~now:150)

let full_cache () =
  let c = Cache.create ~bytes:1024 ~assoc:2 ~line_bytes:128 ~mshrs:8 () in
  for line = 0 to 63 do
    miss_fill c ~now:0 ~line ~ready:0
  done;
  c

(* warps with ages 0..n-1, for driving policy hooks directly *)
let warps n = Array.init n (fun age -> { (Sm.make_dummy_warp ()) with Sm.age })

let test_ata_admit () =
  (* every data way is valid: each absent line, asked twice in a row, is
     deferred (shadow insert) and then promoted (shadow hit) *)
  let l1 = full_cache () in
  let a = Ata.create ~ways:2 l1 in
  let decisions = Array.make 3 0 in
  check_free "Ata.admit" (fun () ->
      for i = 0 to calls - 1 do
        let line = 100 + ((i lsr 1) land 7) in
        match Ata.admit a ~line ~miss:(Cache.probe l1 ~now:0 ~line) with
        | Ata.Fill -> decisions.(0) <- decisions.(0) + 1
        | Ata.Promote -> decisions.(1) <- decisions.(1) + 1
        | Ata.Defer -> decisions.(2) <- decisions.(2) + 1
      done);
  Alcotest.(check bool) "promotions and deferrals both ran" true
    (decisions.(1) > 0 && decisions.(2) > 0);
  (* the same stream through the SM's admission hook *)
  let stats = Gpusim.Stats.create () in
  let l1 = full_cache () in
  let p = Sm.ata stats (Ata.create ~ways:2 l1) in
  let admitted = ref 0 in
  check_free "Sm.ata admit hook" (fun () ->
      for i = 0 to calls - 1 do
        let line = 100 + ((i lsr 1) land 7) in
        if p.Sm.admit line (Cache.probe l1 ~now:0 ~line) then incr admitted
      done);
  Alcotest.(check bool) "promotions counted" true
    (stats.Gpusim.Stats.ata_promotions > 0
    && stats.Gpusim.Stats.ata_promotions = !admitted)

let test_interference_hooks () =
  let ci = Interference.create () in
  (* eight warps trampling each other's lines: scores rise, epochs pass
     (warm-up 512, epoch 2048) and warps get flagged *)
  check_free "Interference.on_access/on_evict" (fun () ->
      for i = 0 to calls - 1 do
        let w = i land 7 in
        ignore (Interference.on_access ci ~warp_id:w ~line:(i land 255));
        Interference.on_evict ci ~filler:((w + 1) land 7)
          ~victim_line:(i land 255)
      done);
  Alcotest.(check bool) "some warp flagged" true (Interference.flagged ci <> []);
  (* the SM's CIAO hooks: the load hook and the fill hook, which reads
     the victim from the L1D probe's miss result *)
  let ci = Interference.create () in
  let l1 = Cache.create ~bytes:(4 * 1024) ~assoc:4 ~line_bytes:128 ~mshrs:8 () in
  let p = Sm.ciao ci l1 in
  let ws = warps 8 in
  check_free "Sm.ciao load/fill hooks" (fun () ->
      for i = 0 to calls - 1 do
        let w = ws.(i land 7) and line = i land 255 in
        if not (p.Sm.load w line) then begin
          let r = Cache.probe l1 ~now:i ~line in
          if r < 0 then begin
            ignore (Cache.miss_issue l1 ~now:i);
            p.Sm.fill w r;
            Cache.fill l1 ~miss:r ~line ~ready:0
          end
        end
      done);
  Alcotest.(check bool) "hooks flag a warp" true (Interference.flagged ci <> [])

let test_ccws_hooks () =
  let c = Ccws.create ~max_warps:48 () in
  let slots = Array.init 48 (fun _ -> Ccws.acquire c) in
  check_free "Ccws.on_miss" (fun () ->
      for i = 0 to calls - 1 do
        ignore (Ccws.on_miss c ~slot:slots.(i mod 48) ~line:(i land 31))
      done);
  check_free "Ccws.tick" (fun () ->
      for _ = 1 to calls do
        Ccws.tick c
      done);
  (* raise a few scores so the rank takes its sorting path *)
  for _ = 1 to 2 do
    ignore (Ccws.on_miss c ~slot:slots.(5) ~line:3);
    ignore (Ccws.on_miss c ~slot:slots.(9) ~line:4)
  done;
  let admitted = ref 0 in
  check_free "Ccws.rank" (fun () ->
      for _ = 1 to calls do
        Ccws.rank_clear c;
        for i = 0 to 47 do
          Ccws.rank_push c ~slot:slots.(i) ~id:i
        done;
        let k = Ccws.rank c in
        for j = 0 to k - 1 do
          admitted := !admitted + Ccws.ranked c j
        done
      done);
  Alcotest.(check bool) "rank admitted warps" true (!admitted > 0)

let test_daws_hooks () =
  let d = Daws.create ~l1_lines:64 ~extents:[ (10, 20, 4) ] in
  check_free "Daws.try_enter/may_continue/on_mem_instr" (fun () ->
      for i = 0 to calls - 1 do
        let age = i land 15 in
        if Daws.try_enter d ~loop_pc:10 ~age then
          ignore (Daws.may_continue d ~loop_pc:10 ~age);
        Daws.on_mem_instr d ~loop_pc:10 ~requests:(1 + (i land 31));
        (* an unprofiled pc takes the sentinel path *)
        ignore (Daws.try_enter d ~loop_pc:11 ~age)
      done);
  Alcotest.(check bool) "some entries denied" true (Daws.blocks d > 0)

let test_builtin_lanes () =
  let ws = 32 in
  let regs = Array.init (4 * ws) (fun i -> 0.5 +. float_of_int i) in
  check_free "Builtins.eval_lanes" (fun () ->
      for i = 0 to calls - 1 do
        let fn =
          if i land 1 = 0 then Minicuda.Builtins.Powf
          else Minicuda.Builtins.Sqrtf
        in
        Minicuda.Builtins.eval_lanes fn ~regs ~ws ~mask:0xffff_fff0 ~dst:3
          ~a:1 ~b:2
      done)

(* Workload inputs: every draw kind a setup uses, by the call.  The
   generator's state and its int64 stay unboxed, and floats go straight
   into the destination array. *)
let test_rng_draws () =
  let module Rng = Gpu_util.Rng in
  let rng = Rng.create 7 in
  let sum = ref 0 in
  check_free "Rng.int" (fun () ->
      for _ = 1 to calls do
        sum := !sum + Rng.int rng 1000
      done);
  check_free "Rng.bool" (fun () ->
      for _ = 1 to calls do
        if Rng.bool rng then incr sum
      done);
  let a = Array.create_float calls in
  check_free "Rng.fill_float" (fun () -> Rng.fill_float rng a 1.);
  let p = Array.init 1000 Fun.id in
  check_free "Rng.shuffle" (fun () ->
      for _ = 1 to calls / 1000 do
        Rng.shuffle rng p
      done);
  Alcotest.(check bool) "draws happened" true (!sum > 0 && a.(0) <> a.(1))

(* A warm memo hit through the runner's front door: the cell key (built
   on the once-per-config fingerprint), the memo lookup and the answer. *)
let test_memo_hit () =
  let module Runner = Experiments.Runner in
  let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(16 * 1024) () in
  let req = Runner.Request.make cfg (Workloads.Registry.find "BT") Runner.Baseline in
  let hit () =
    match Runner.exec req with Ok _ -> () | Error msg -> Alcotest.fail msg
  in
  hit ();
  hit ();
  let hits = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to hits do
    hit ()
  done;
  let per_hit = (Gc.minor_words () -. before) /. float_of_int hits in
  if per_hit > 400. then
    Alcotest.failf "a warm memo hit allocates %.0f words (limit 400)" per_hit

(* One whole launch per policy: the issue loop, scheduler, caches and
   the policy's hooks together.  Setup (parse, compile, device arrays) is
   inside the count too, so the bound is per simulated instruction rather
   than zero. *)
let check_launch_words_per_instr (name, throttle) =
  let cfg = Experiments.Configs.max_l1d () in
  let p =
    {
      Workloads.Fixtures.streamers = 7;
      hot_span = 32;
      stream_span = 512;
      hot_reps = 64;
    }
  in
  ignore (Workloads.Fixtures.run_interference ~throttle cfg p);
  let before = Gc.minor_words () in
  let stats = Workloads.Fixtures.run_interference ~throttle cfg p in
  let words = Gc.minor_words () -. before in
  let per_instr = words /. float_of_int stats.Gpusim.Stats.instructions in
  if per_instr > 1.0 then
    Alcotest.failf "%s launch allocates %.2f words per instruction (%d instrs)"
      name per_instr stats.Gpusim.Stats.instructions

(* What launching a warp allocates: its register file, record and mask
   stack, plus its share of the thread block — 125 words for this
   two-register kernel, 65 of them the register file.  Thread indices
   live in the launch's lane tables, so nothing but the register file
   grows with the warp size; two per-warp lane arrays would add 66 words
   and fail the bound.  Two launches that differ only in their grid size
   differ only in the warps they launch, so their difference is per
   warp. *)
let test_words_per_warp () =
  let prog =
    Gpusim.Codegen.compile_kernel
      (Minicuda.Parser.parse_kernel
         "__global__ void k(float *a) { a[blockIdx.x * blockDim.x + threadIdx.x] = 1.0; }")
  in
  let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(32 * 1024) () in
  let ws = cfg.Gpusim.Config.warp_size in
  let words grid =
    let dev = Gpusim.Gpu.create cfg in
    Gpusim.Gpu.upload dev "a" (Array.make (grid * 64) 0.);
    let l =
      Gpusim.Gpu.default_launch ~prog ~grid:(grid, 1) ~block:(64, 1)
        [ Gpusim.Gpu.Arr "a" ]
    in
    ignore (Gpusim.Gpu.launch dev l);
    (* [Gc.minor_words] for the minor heap: [Gc.counters]' minor figure
       is not exact between collections on OCaml 5.1 *)
    let _, promoted0, major0 = Gc.counters () and minor0 = Gc.minor_words () in
    ignore (Gpusim.Gpu.launch dev l);
    let _, promoted1, major1 = Gc.counters () and minor1 = Gc.minor_words () in
    minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  let small = 8 and large = 72 in
  let per_warp = (words large -. words small) /. float_of_int (2 * (large - small)) in
  let limit = float_of_int ((prog.Gpusim.Bytecode.num_regs * ws) + 96) in
  if per_warp > limit then
    Alcotest.failf "launching a warp allocates %.1f words (limit %.0f: its %d \
                    registers plus 96)"
      per_warp limit prog.Gpusim.Bytecode.num_regs

(* An uncached grid cell's manifest is never written, so it takes no
   snapshot of the metrics registry: a stage's words per cell do not
   move when more metrics are registered, as the bench's serve stage
   does when its server starts. *)
let test_cell_ignores_registry () =
  let stage () =
    Serve.Bench.grid_stage
      [ Workloads.Registry.find "ATAX" ]
      Experiments.Scheme.Baseline "grid/baseline"
  in
  ignore (stage ());
  let before = stage () in
  for i = 1 to 64 do
    ignore (Obs.Metrics.counter (Printf.sprintf "test.alloc.registry_%d" i))
  done;
  let after = stage () in
  Alcotest.(check (float 0.)) "minor words per cell"
    before.Serve.Bench.minor_words_per_cell after.Serve.Bench.minor_words_per_cell

let tests =
  [
    ( "alloc.hooks",
      [
        Alcotest.test_case "cache probe and write" `Quick test_cache_probes;
        Alcotest.test_case "MSHR file bounded" `Quick test_mshr_bound;
        Alcotest.test_case "ATA admission" `Quick test_ata_admit;
        Alcotest.test_case "CIAO monitor" `Quick test_interference_hooks;
        Alcotest.test_case "CCWS miss, tick and rank" `Quick test_ccws_hooks;
        Alcotest.test_case "DAWS gates" `Quick test_daws_hooks;
        Alcotest.test_case "builtin lanes" `Quick test_builtin_lanes;
        Alcotest.test_case "workload input draws" `Quick test_rng_draws;
        Alcotest.test_case "warm memo hit" `Quick test_memo_hit;
        Alcotest.test_case "words per warp launched" `Quick test_words_per_warp;
        Alcotest.test_case "grid cell ignores the metrics registry" `Quick
          test_cell_ignores_registry;
        Alcotest.test_case "CCWS launch per instruction" `Quick (fun () ->
            check_launch_words_per_instr ("CCWS", `Ccws));
        Alcotest.test_case "launch per instruction, other policies" `Quick
          (fun () ->
            List.iter check_launch_words_per_instr
              [
                ("baseline", `None);
                ("DYNCTA", `Dyncta);
                ("DAWS", `Daws);
                ("SWL", `Swl 4);
                ("CIAO", `Ciao);
                ("ATA", `Ata);
              ]);
      ] );
  ]
