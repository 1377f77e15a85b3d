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

let test_cache_probes () =
  let c = Cache.create ~bytes:(4 * 1024) ~assoc:4 ~line_bytes:128 ~mshrs:8 () in
  for line = 0 to 15 do
    Cache.fill c ~line ~ready:0
  done;
  (* lines 0..31 over a 32-line cache holding 0..15: hits and misses *)
  check_free "Cache.probe" (fun () ->
      for i = 0 to calls - 1 do
        ignore (Cache.probe c ~now:i ~line:(i land 31))
      done);
  check_free "Cache.write_update" (fun () ->
      for i = 0 to calls - 1 do
        ignore (Cache.write_update c ~now:i ~line:(i land 31))
      done)

let full_cache () =
  let c = Cache.create ~bytes:1024 ~assoc:2 ~line_bytes:128 ~mshrs:8 () in
  for line = 0 to 63 do
    Cache.fill c ~line ~ready:0
  done;
  c

(* warps with ages 0..n-1, for driving policy hooks directly *)
let warps n = Array.init n (fun age -> { (Sm.make_dummy_warp ()) with Sm.age })

let test_ata_admit () =
  (* every data way is valid: each absent line, asked twice in a row, is
     deferred (shadow insert) and then promoted (shadow hit) *)
  let a = Ata.create ~ways:2 (full_cache ()) in
  let decisions = Array.make 3 0 in
  check_free "Ata.admit" (fun () ->
      for i = 0 to calls - 1 do
        match Ata.admit a ~line:(100 + ((i lsr 1) land 7)) with
        | Ata.Fill -> decisions.(0) <- decisions.(0) + 1
        | Ata.Promote -> decisions.(1) <- decisions.(1) + 1
        | Ata.Defer -> decisions.(2) <- decisions.(2) + 1
      done);
  Alcotest.(check bool) "promotions and deferrals both ran" true
    (decisions.(1) > 0 && decisions.(2) > 0);
  (* the same stream through the SM's admission hook *)
  let stats = Gpusim.Stats.create () in
  let p = Sm.ata stats (Ata.create ~ways:2 (full_cache ())) in
  let admitted = ref 0 in
  check_free "Sm.ata admit hook" (fun () ->
      for i = 0 to calls - 1 do
        if p.Sm.admit (100 + ((i lsr 1) land 7)) then incr admitted
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
  (* the SM's CIAO hooks: the load hook and the fill hook, which looks up
     the victim in the L1D itself *)
  let ci = Interference.create () in
  let l1 = Cache.create ~bytes:(4 * 1024) ~assoc:4 ~line_bytes:128 ~mshrs:8 () in
  let p = Sm.ciao ci l1 in
  let ws = warps 8 in
  check_free "Sm.ciao load/fill hooks" (fun () ->
      for i = 0 to calls - 1 do
        let w = ws.(i land 7) and line = i land 255 in
        if not (p.Sm.load w line) then begin
          p.Sm.fill w line;
          Cache.fill l1 ~line ~ready:0
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

let tests =
  [
    ( "alloc.hooks",
      [
        Alcotest.test_case "cache probe and write" `Quick test_cache_probes;
        Alcotest.test_case "ATA admission" `Quick test_ata_admit;
        Alcotest.test_case "CIAO monitor" `Quick test_interference_hooks;
        Alcotest.test_case "CCWS miss, tick and rank" `Quick test_ccws_hooks;
        Alcotest.test_case "DAWS gates" `Quick test_daws_hooks;
        Alcotest.test_case "builtin lanes" `Quick test_builtin_lanes;
        Alcotest.test_case "workload input draws" `Quick test_rng_draws;
        Alcotest.test_case "warm memo hit" `Quick test_memo_hit;
        Alcotest.test_case "words per warp launched" `Quick test_words_per_warp;
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
