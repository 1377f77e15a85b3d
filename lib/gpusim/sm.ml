(** One streaming multiprocessor: warp contexts, the mask-stack SIMT
    execution engine, the warp scheduler (GTO or loose round-robin), the
    load/store unit with its coalescer, and barrier handling.

    Timing model: one instruction issues per SM per cycle.  ALU
    instructions make the warp ready again after [alu_latency]; memory
    instructions block the issuing warp until the slowest of its coalesced
    transactions returns; the LSU accepts [lsu_throughput] transactions per
    cycle, so divergent warps occupy it for many cycles — the bandwidth
    pressure that makes cache thrashing expensive.

    Data layout: stepping allocates nothing per instruction (TB launch
    and policy epochs do; [test/test_alloc.ml] counts it).  Resident
    warps live in a flat array with stable compaction on TB retirement
    (oldest first, as the GTO tie-break needs); each warp's SIMT mask
    stack is a flat int array; the scheduler pool, coalescer lines and
    per-instruction operand values go through preallocated per-SM
    scratch buffers; ALU operands are staged into unboxed float arrays
    and builtins run lane-wise inside [Minicuda.Builtins], so no
    per-lane float ever crosses a function boundary boxed.  Policy
    hooks follow the same two rules: no local closure capturing
    variables, no float returned across a module boundary (dev builds
    compile with [-opaque]).  Every simulation-visible ordering — pool
    order, transaction issue order, profiler event order — matches the
    original list-based code bit for bit (proven by the golden-grid
    digests in [test/golden_profiles/golden_grid.json]). *)

exception Sim_error of string

let sim_error fmt = Printf.ksprintf (fun msg -> raise (Sim_error msg)) fmt

(* [Stdlib.max] is polymorphic — every call is a C [compare_val] round
   trip, and the hot path takes cycle maxima on every transaction. *)
let[@inline] imax (a : int) b = if a > b then a else b

type global_array = { data : float array; base : int }

type sched = Gto | Lrr

(** Everything shared by the SMs executing one kernel launch. *)
type job = {
  cfg : Config.t;
  prog : Bytecode.program;
  arrays : global_array option array;  (* indexed by array id; None = shared *)
  shared_specs : (int * int) list;  (* shared array id, element count *)
  scalar_values : (int * float) list;  (* preloaded (register, value) *)
  grid_x : int;
  grid_y : int;
  block_x : int;
  block_y : int;
  tb_threads : int;
  warps_per_tb : int;
  sched : sched;
  stats : Stats.t;
  trace : Trace.t;
  l2 : Cache.t;
  dram_free : int ref;  (** shared DRAM-port availability (bandwidth model) *)
  bypass : bool array;  (** per array id: loads skip the L1D (ablation) *)
  prof : Profile.Collector.t option;
      (** opt-in observability sink; [None] costs one branch per event and
          must never change simulation results (differential tests) *)
}

(* The SIMT mask stack is a flat int array per warp, [frame_len] ints per
   frame, bottom first; a push writes ints in place instead of consing a
   record, so divergence and loop entry allocate nothing. *)
let frame_len = 5

let o_kind = 0  (* [k_if] or [k_loop] *)
let o_outer = 1  (* mask restored when the frame pops *)
let o_else = 2  (* lanes waiting for the else branch *)
let o_cont = 3  (* lanes parked by Cont until Rejoin *)
let o_loop = 4  (* begin pc of the innermost loop frame at or below, or -1 *)

let k_if = 0
let k_loop = 1

type warp = {
  age : int;  (* per-SM monotonic creation stamp, GTO tie-break *)
  tb : tb;
  init_mask : int;
  regs : float array;  (* num_regs * warp_size, register-major *)
  tid_x : int array;
  tid_y : int array;
  mutable pc : int;
  mutable active : int;
  mutable exited : int;
  mutable stk : int array;  (* SIMT mask stack, see [frame_len] *)
  mutable depth : int;  (* frames on [stk] *)
  mutable ready_at : int;
  mutable at_barrier : bool;
  mutable finished : bool;
  mutable pool_stamp : int;
      (* generation stamp: member of the scratch pool iff equal to the
         SM's [pool_gen] (O(1) membership without a set) *)
  ccws_slot : int;  (* this warp's CCWS state slot; -1 without CCWS *)
}

and tb = {
  tb_id : int;
  bid_x : int;
  bid_y : int;
  shared : float array array;  (* indexed by array id; [||] for globals *)
  mutable unfinished : int;
  mutable arrived : int;  (* warps waiting at the current barrier *)
  mutable tb_warps : warp list;
  mutable seen_stamp : int;
      (* generation stamp for the dyn TB-cap pool fill: this TB was
         counted against the cap iff equal to the SM's [pool_gen] *)
}

type t = {
  id : int;
  job : job;
  l1 : Cache.t;
  mutable now : int;
  mutable lsu_free : int;
  mutable warps : warp array;  (* entries 0..n_warps-1 live, oldest first *)
  mutable n_warps : int;
  mutable resident_tbs : int;
  mutable last_issued : warp;  (* == dummy_warp when none *)
  mutable rr_cursor : int;  (* LRR position *)
  mutable next_age : int;
  mutable tbs_completed : int;
  dummy_warp : warp;  (* sentinel: finished, never issuable *)
  mutable pool : warp array;  (* scratch: the schedulable pool *)
  mutable n_pool : int;
  mutable pool_gen : int;
  x_addrs : int array;  (* scratch: per-lane byte addresses *)
  x_lines : int array;  (* scratch: coalesced line indices *)
  x_opa : float array;  (* scratch: staged operand values, unboxed *)
  x_opb : float array;
  mutable x_va : float array;  (* operand views: backing array set by view_a/b *)
  mutable x_vb : float array;
  mutable x_pool_fresh : bool;
      (* the scratch pool was filled by [next_event] and no simulation
         state has changed since: the first pick of the step may reuse it *)
  mutable x_acc : int;  (* scratch int accumulator (masks, fold maxima) *)
  mutable x_next_pc : int;  (* exec_instr outputs, fields instead of refs *)
  mutable x_ready : int;
  throttled : bool;  (* any scheduler-level throttle active (cached) *)
  dyn : Dynamic_throttle.t option;  (* DYNCTA-like run-time TB-cap controller *)
  ccws : Ccws.t option;  (* CCWS-like lost-locality warp scheduler *)
  daws : Daws.t option;  (* DAWS-like proactive footprint predictor *)
  swl : int option;  (* static warp limit (Best-SWL baseline): schedulable
                        warps per SM, fixed for the whole launch *)
  ciao : Interference.t option;
      (* CIAO interference monitor: flagged warps' loads bypass the L1D
         (or, under NoC/DRAM pressure, leave the scheduler pool) *)
}

let dummy_tb =
  {
    tb_id = -1;
    bid_x = 0;
    bid_y = 0;
    shared = [||];
    unfinished = 0;
    arrived = 0;
    tb_warps = [];
    seen_stamp = 0;
  }

let make_dummy_warp () =
  {
    age = -1;
    tb = dummy_tb;
    init_mask = 0;
    regs = [||];
    tid_x = [||];
    tid_y = [||];
    pc = 0;
    active = 0;
    exited = 0;
    stk = [||];
    depth = 0;
    ready_at = max_int;
    at_barrier = false;
    finished = true;
    pool_stamp = 0;
    ccws_slot = -1;
  }

(* [?l1] shares an existing L1D instead of creating one: co-resident
   kernel contexts on the same physical SM ({!Gpu.launch_pair}) contend
   for one cache, which is exactly the interference being modeled. *)
let create ?dyn ?ccws ?daws ?swl ?ciao ?l1 job id ~l1_bytes =
  let ws = job.cfg.Config.warp_size in
  let dw = make_dummy_warp () in
  {
    id;
    job;
    l1 =
      (match l1 with
      | Some shared -> shared
      | None ->
        Cache.create ~bytes:l1_bytes ~assoc:job.cfg.Config.l1d_assoc
          ~line_bytes:job.cfg.Config.line_bytes ~mshrs:job.cfg.Config.l1d_mshrs
          ());
    now = 0;
    lsu_free = 0;
    warps = Array.make 16 dw;
    n_warps = 0;
    resident_tbs = 0;
    last_issued = dw;
    rr_cursor = 0;
    next_age = 0;
    tbs_completed = 0;
    dummy_warp = dw;
    pool = Array.make 16 dw;
    n_pool = 0;
    pool_gen = 1;
    x_addrs = Array.make ws 0;
    x_lines = Array.make ws 0;
    x_opa = Array.make ws 0.;
    x_opb = Array.make ws 0.;
    x_va = [||];
    x_vb = [||];
    x_pool_fresh = false;
    x_acc = 0;
    x_next_pc = 0;
    x_ready = 0;
    throttled =
      (match (dyn, ccws, swl, ciao) with
      | None, None, None, None -> false
      | _ -> true);
    dyn;
    ccws;
    daws;
    swl;
    ciao;
  }

(* ---------------------------------------------------------------- *)
(* Warp storage                                                      *)
(* ---------------------------------------------------------------- *)

let push_warp sm w =
  if sm.n_warps = Array.length sm.warps then begin
    let bigger = Array.make (2 * sm.n_warps) sm.dummy_warp in
    Array.blit sm.warps 0 bigger 0 sm.n_warps;
    sm.warps <- bigger
  end;
  sm.warps.(sm.n_warps) <- w;
  sm.n_warps <- sm.n_warps + 1

(* ---------------------------------------------------------------- *)
(* TB launch                                                         *)
(* ---------------------------------------------------------------- *)

let launch_tb sm tb_id =
  let job = sm.job in
  let ws = job.cfg.Config.warp_size in
  let bid_x = tb_id mod job.grid_x in
  let bid_y = tb_id / job.grid_x in
  let num_ids = List.length job.prog.Bytecode.array_ids in
  let shared = Array.make num_ids [||] in
  List.iter
    (fun (arr_id, elements) -> shared.(arr_id) <- Array.make elements 0.)
    job.shared_specs;
  let tb =
    { tb_id; bid_x; bid_y; shared; unfinished = job.warps_per_tb; arrived = 0;
      tb_warps = []; seen_stamp = 0 }
  in
  let num_regs = max 1 job.prog.Bytecode.num_regs in
  let make_warp warp_idx =
    let base_tid = warp_idx * ws in
    let lanes = min ws (job.tb_threads - base_tid) in
    let init_mask = (1 lsl lanes) - 1 in
    let tid_x = Array.make ws 0 in
    let tid_y = Array.make ws 0 in
    for lane = 0 to lanes - 1 do
      let lin = base_tid + lane in
      tid_x.(lane) <- lin mod job.block_x;
      tid_y.(lane) <- lin / job.block_x
    done;
    let regs = Array.make (num_regs * ws) 0. in
    List.iter
      (fun (reg, value) ->
        for lane = 0 to ws - 1 do
          regs.((reg * ws) + lane) <- value
        done)
      job.scalar_values;
    let warp =
      {
        age = sm.next_age;
        tb;
        init_mask;
        regs;
        tid_x;
        tid_y;
        pc = 0;
        active = init_mask;
        exited = 0;
        stk = Array.make (4 * frame_len) 0;
        depth = 0;
        ready_at = sm.now;
        at_barrier = false;
        finished = false;
        pool_stamp = 0;
        ccws_slot = (match sm.ccws with Some c -> Ccws.acquire c | None -> -1);
      }
    in
    sm.next_age <- sm.next_age + 1;
    warp
  in
  let new_warps = List.init job.warps_per_tb make_warp in
  tb.tb_warps <- new_warps;
  List.iter (fun w -> push_warp sm w) new_warps;
  sm.resident_tbs <- sm.resident_tbs + 1;
  job.stats.Stats.tbs_launched <- job.stats.Stats.tbs_launched + 1;
  if sm.n_warps > job.stats.Stats.max_resident_warps then
    job.stats.Stats.max_resident_warps <- sm.n_warps

(* ---------------------------------------------------------------- *)
(* Operand access                                                    *)
(* ---------------------------------------------------------------- *)

let ws_of sm = sm.job.cfg.Config.warp_size

let special_value sm warp lane = function
  | Bytecode.Sp_tid_x -> warp.tid_x.(lane)
  | Bytecode.Sp_tid_y -> warp.tid_y.(lane)
  | Bytecode.Sp_bid_x -> warp.tb.bid_x
  | Bytecode.Sp_bid_y -> warp.tb.bid_y
  | Bytecode.Sp_bdim_x -> sm.job.block_x
  | Bytecode.Sp_bdim_y -> sm.job.block_y
  | Bytecode.Sp_gdim_x -> sm.job.grid_x
  | Bytecode.Sp_gdim_y -> sm.job.grid_y

(* Stage an operand's per-lane values into [dst] (every lane, active or
   not: inactive entries are in bounds and never read).  Matching the
   operand once outside the lane loop keeps the floats unboxed — a
   per-lane [read] call would box its result on every one of the billions
   of lane reads a grid run performs. *)
let load_operand sm warp op (dst : float array) =
  let ws = ws_of sm in
  match op with
  | Bytecode.Reg r ->
    let base = r * ws in
    for lane = 0 to ws - 1 do
      dst.(lane) <- warp.regs.(base + lane)
    done
  | Bytecode.Imm f -> Array.fill dst 0 ws f
  | Bytecode.Special Bytecode.Sp_tid_x ->
    for lane = 0 to ws - 1 do
      dst.(lane) <- float_of_int warp.tid_x.(lane)
    done
  | Bytecode.Special Bytecode.Sp_tid_y ->
    for lane = 0 to ws - 1 do
      dst.(lane) <- float_of_int warp.tid_y.(lane)
    done
  | Bytecode.Special s -> Array.fill dst 0 ws (float_of_int (special_value sm warp 0 s))

(* Operand views: a [Reg] operand is already a contiguous unboxed slice
   of the register file, so instead of copying it into scratch the ALU
   loops read it in place — [view_a]/[view_b] set the backing array
   ([x_va]/[x_vb]) and return the base offset.  Non-register operands
   still stage into scratch.  Reading in place is safe even when the
   destination register aliases a source: each lane reads only its own
   slot, and the read happens before the store within the lane. *)
let view_a sm warp op =
  match op with
  | Bytecode.Reg r ->
    sm.x_va <- warp.regs;
    r * ws_of sm
  | _ ->
    load_operand sm warp op sm.x_opa;
    sm.x_va <- sm.x_opa;
    0

let view_b sm warp op =
  match op with
  | Bytecode.Reg r ->
    sm.x_vb <- warp.regs;
    r * ws_of sm
  | _ ->
    load_operand sm warp op sm.x_opb;
    sm.x_vb <- sm.x_opb;
    0

(* ---------------------------------------------------------------- *)
(* Mask stack                                                        *)
(* ---------------------------------------------------------------- *)

(* base index of the top frame (negative when the stack is empty) *)
let[@inline] top warp = (warp.depth - 1) * frame_len

(* Under DAWS a loop frame is pushed only once the loop admitted the
   warp, so this names the loop its memory samples and back-edge checks
   belong to. *)
let innermost_loop warp = if warp.depth = 0 then -1 else warp.stk.(top warp + o_loop)

let push_frame warp ~kind ~outer ~pending_else ~loop_pc =
  let b = warp.depth * frame_len in
  if b + frame_len > Array.length warp.stk then begin
    let bigger = Array.make ((2 * Array.length warp.stk) + frame_len) 0 in
    Array.blit warp.stk 0 bigger 0 b;
    warp.stk <- bigger
  end;
  let stk = warp.stk in
  stk.(b + o_kind) <- kind;
  stk.(b + o_outer) <- outer;
  stk.(b + o_else) <- pending_else;
  stk.(b + o_cont) <- 0;
  stk.(b + o_loop) <- loop_pc;
  warp.depth <- warp.depth + 1

(* ---------------------------------------------------------------- *)
(* Memory                                                            *)
(* ---------------------------------------------------------------- *)

let elem_bytes = 4

let global_of sm arr_id =
  match sm.job.arrays.(arr_id) with
  | Some ga -> ga
  | None -> sim_error "array id %d is not a global array" arr_id

(* cold: kept out of line so the two-compare fast path below inlines
   into the per-lane address loops *)
let bounds_error sm arr_id idx len =
  let name =
    match
      List.find_opt (fun (_, id) -> id = arr_id) sm.job.prog.Bytecode.array_ids
    with
    | Some (n, _) -> n
    | None -> "?"
  in
  sim_error "kernel %s: array %s index %d out of bounds [0, %d)"
    sm.job.prog.Bytecode.name name idx len

let[@inline] check_bounds sm arr_id idx len =
  if idx < 0 || idx >= len then bounds_error sm arr_id idx len

(* One L2 lookup (with DRAM behind it), returning the consume cycle.
   Shared by L1 misses, bypassed loads and write-through stores; the
   mutation sequence — MSHR drain, DRAM-port bump, fill — is exactly the
   closure-driven order the old [Cache.access ~miss_ready] produced. *)
let l2_arrival sm ~now:l2_now ~line =
  let cfg = sm.job.cfg in
  let stats = sm.job.stats in
  stats.Stats.l2_accesses <- stats.Stats.l2_accesses + 1;
  let arrival =
    let r = Cache.probe sm.job.l2 ~now:l2_now ~line in
    if r <> Cache.probe_miss then begin
      stats.Stats.l2_hits <- stats.Stats.l2_hits + 1;
      Cache.probe_arrival r
    end
    else begin
      stats.Stats.l2_misses <- stats.Stats.l2_misses + 1;
      let issue = Cache.miss_issue sm.job.l2 ~now:l2_now in
      (* one line at a time through the shared DRAM port *)
      let slot = imax issue !(sm.job.dram_free) in
      sm.job.dram_free := slot + cfg.Config.dram_slot_cycles;
      let ready = slot + cfg.Config.l2_hit_latency + cfg.Config.dram_latency in
      Cache.fill sm.job.l2 ~line ~ready;
      ready
    end
  in
  imax arrival (l2_now + cfg.Config.l2_hit_latency)

(* Issue one line-granular transaction through the LSU and the cache
   hierarchy; returns the cycle its data is available.  [bypass] loads go
   straight to the L2, leaving the L1D untouched — the cache-bypassing
   alternative of the paper's Section 2.2. *)
let issue_load_transaction ~bypass sm warp ~arr_id line =
  let cfg = sm.job.cfg in
  let stats = sm.job.stats in
  let issue = imax sm.now sm.lsu_free in
  (* one transaction per LSU slot; throughput > 1 shortens the slot to 0
     every lsu_throughput-th transaction, approximating wider LSUs *)
  sm.lsu_free <- issue + 1;
  (* the CIAO monitor sees every would-be L1D transaction and may redirect
     it around the cache; its bypasses share the ablation path (and its
     counters — [bypass_transactions] is the bypassed-by-policy count) *)
  let bypass =
    bypass
    ||
    match sm.ciao with
    | Some ci -> Interference.on_access ci ~warp_id:warp.age ~line
    | None -> false
  in
  if bypass then begin
    stats.Stats.bypass_transactions <- stats.Stats.bypass_transactions + 1;
    (match sm.job.prof with
    | Some p -> Profile.Collector.record_bypass p ~arr_id ~pc:warp.pc
    | None -> ());
    l2_arrival sm ~now:issue ~line
  end
  else begin
    stats.Stats.l1_accesses <- stats.Stats.l1_accesses + 1;
    let r = Cache.probe sm.l1 ~now:issue ~line in
    if r <> Cache.probe_miss then begin
      let pending = Cache.probe_pending r in
      if pending then
        stats.Stats.l1_pending_hits <- stats.Stats.l1_pending_hits + 1
      else stats.Stats.l1_hits <- stats.Stats.l1_hits + 1;
      (match sm.job.prof with
      | Some p ->
        Profile.Collector.record_l1 p ~arr_id ~pc:warp.pc
          ~set:(Cache.set_index sm.l1 line)
          ~outcome:
            (if pending then Profile.Heatmap.Pending_hit else Profile.Heatmap.Hit)
      | None -> ());
      imax (Cache.probe_arrival r) (issue + cfg.Config.l1d_hit_latency)
    end
    else begin
      stats.Stats.l1_misses <- stats.Stats.l1_misses + 1;
      (match sm.ccws with
      | Some c -> ignore (Ccws.on_miss c ~slot:warp.ccws_slot ~line)
      | None -> ());
      let miss_at = Cache.miss_issue sm.l1 ~now:issue in
      let ready = l2_arrival sm ~now:miss_at ~line in
      (match Cache.ata_admit sm.l1 ~line with
      | Cache.Ata_fill ->
        (* the plain-cache fill sequence, bit for bit *)
        (match sm.ciao with
        | Some ci ->
          let victim = Cache.evict_victim sm.l1 ~line in
          if victim <> -1 then
            Interference.on_evict ci ~filler:warp.age ~victim_line:victim
        | None -> ());
        (match sm.job.prof with
        | Some p ->
          let victim = Cache.evict_victim sm.l1 ~line in
          if victim <> -1 then
            Profile.Collector.record_evict p ~arr_id ~pc:warp.pc
              ~set:(Cache.set_index sm.l1 line) ~victim_line:victim
        | None -> ());
        Cache.fill sm.l1 ~line ~ready
      | Cache.Ata_promote ->
        (* proven reuse: the line earns data storage; the displaced
           victim's tag drops into the shadow array *)
        stats.Stats.ata_tag_hits <- stats.Stats.ata_tag_hits + 1;
        stats.Stats.ata_promotions <- stats.Stats.ata_promotions + 1;
        let victim = Cache.evict_victim sm.l1 ~line in
        (match sm.job.prof with
        | Some p ->
          if victim <> -1 then
            Profile.Collector.record_evict p ~arr_id ~pc:warp.pc
              ~set:(Cache.set_index sm.l1 line) ~victim_line:victim
        | None -> ());
        Cache.fill sm.l1 ~line ~ready;
        if victim <> -1 then Cache.ata_note sm.l1 ~line:victim
      | Cache.Ata_defer ->
        (* first conflict touch: served from L2, nothing displaced; the
           miss still holds an MSHR until the data lands *)
        Cache.note_inflight sm.l1 ~ready);
      (match sm.job.prof with
      | Some p ->
        Profile.Collector.record_l1 p ~arr_id ~pc:warp.pc
          ~set:(Cache.set_index sm.l1 line) ~outcome:Profile.Heatmap.Miss
      | None -> ());
      imax ready (issue + cfg.Config.l1d_hit_latency)
    end
  end

let issue_store_transaction sm line =
  let stats = sm.job.stats in
  let issue = imax sm.now sm.lsu_free in
  sm.lsu_free <- issue + 1;
  stats.Stats.store_transactions <- stats.Stats.store_transactions + 1;
  (* write-through: update L1 if present (no allocate), allocate in L2 *)
  ignore (Cache.write_update sm.l1 ~now:issue ~line);
  ignore (l2_arrival sm ~now:issue ~line)

let exec_global_load sm warp ~dst ~arr_id ~idx_reg =
  let ws = ws_of sm in
  let ga = global_of sm arr_id in
  let data = ga.data in
  let len = Array.length data in
  let addrs = sm.x_addrs in
  let regs = warp.regs in
  let active = warp.active in
  let ibase = idx_reg * ws in
  let dbase = dst * ws in
  if active = (1 lsl ws) - 1 then
    for lane = 0 to ws - 1 do
      let idx = int_of_float regs.(ibase + lane) in
      check_bounds sm arr_id idx len;
      addrs.(lane) <- ga.base + (idx * elem_bytes);
      regs.(dbase + lane) <- data.(idx)
    done
  else
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then begin
        let idx = int_of_float regs.(ibase + lane) in
        check_bounds sm arr_id idx len;
        addrs.(lane) <- ga.base + (idx * elem_bytes);
        regs.(dbase + lane) <- data.(idx)
      end
    done;
  let nlines =
    Coalescer.into ~line_bytes:sm.job.cfg.Config.line_bytes ~addrs ~mask:active
      ~buf:sm.x_lines
  in
  Trace.record sm.job.trace ~sm:sm.id ~pc:warp.pc ~requests:nlines ~cycle:sm.now;
  (match sm.daws with
  | Some d ->
    let loop_pc = innermost_loop warp in
    if loop_pc >= 0 then Daws.on_mem_instr d ~loop_pc ~requests:nlines
  | None -> ());
  sm.job.stats.Stats.global_load_instrs <-
    sm.job.stats.Stats.global_load_instrs + 1;
  let bypass = sm.job.bypass.(arr_id) in
  sm.x_acc <- sm.now;
  for i = 0 to nlines - 1 do
    let t = issue_load_transaction ~bypass sm warp ~arr_id sm.x_lines.(i) in
    if t > sm.x_acc then sm.x_acc <- t
  done;
  sm.x_acc

let exec_global_store sm warp ~arr_id ~idx_reg ~src =
  let ws = ws_of sm in
  let ga = global_of sm arr_id in
  let data = ga.data in
  let len = Array.length data in
  let addrs = sm.x_addrs in
  let sbase = view_a sm warp src in
  let opa = sm.x_va in
  let regs = warp.regs in
  let active = warp.active in
  let ibase = idx_reg * ws in
  if active = (1 lsl ws) - 1 then
    for lane = 0 to ws - 1 do
      let idx = int_of_float regs.(ibase + lane) in
      check_bounds sm arr_id idx len;
      addrs.(lane) <- ga.base + (idx * elem_bytes);
      data.(idx) <- opa.(sbase + lane)
    done
  else
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then begin
        let idx = int_of_float regs.(ibase + lane) in
        check_bounds sm arr_id idx len;
        addrs.(lane) <- ga.base + (idx * elem_bytes);
        data.(idx) <- opa.(sbase + lane)
      end
    done;
  let nlines =
    Coalescer.into ~line_bytes:sm.job.cfg.Config.line_bytes ~addrs ~mask:active
      ~buf:sm.x_lines
  in
  Trace.record sm.job.trace ~sm:sm.id ~pc:warp.pc ~requests:nlines ~cycle:sm.now;
  (match sm.daws with
  | Some d ->
    let loop_pc = innermost_loop warp in
    if loop_pc >= 0 then Daws.on_mem_instr d ~loop_pc ~requests:nlines
  | None -> ());
  sm.job.stats.Stats.global_store_instrs <-
    sm.job.stats.Stats.global_store_instrs + 1;
  for i = 0 to nlines - 1 do
    (match sm.job.prof with
    | Some p -> Profile.Collector.record_store p ~arr_id ~pc:warp.pc
    | None -> ());
    issue_store_transaction sm sm.x_lines.(i)
  done

let shared_of warp arr_id =
  let arr = warp.tb.shared.(arr_id) in
  if Array.length arr = 0 then sim_error "array id %d is not a shared array" arr_id
  else arr

(* shared memory: fixed latency, one LSU slot, no bank-conflict model *)
let shared_ready sm =
  sm.job.stats.Stats.shared_instrs <- sm.job.stats.Stats.shared_instrs + 1;
  let issue = imax sm.now sm.lsu_free in
  sm.lsu_free <- issue + 1;
  issue + sm.job.cfg.Config.l1d_hit_latency

(* ---------------------------------------------------------------- *)
(* Barriers and retirement                                           *)
(* ---------------------------------------------------------------- *)

let rec release_warps sm = function
  | [] -> ()
  | w :: rest ->
    if w.at_barrier then begin
      w.at_barrier <- false;
      w.ready_at <- sm.now + 1
    end;
    release_warps sm rest

let release_barrier sm tb =
  release_warps sm tb.tb_warps;
  tb.arrived <- 0

let check_barrier_release sm tb =
  if tb.unfinished > 0 && tb.arrived >= tb.unfinished then release_barrier sm tb

let retire_tb sm tb =
  (match sm.ccws with
  | Some c ->
    for i = 0 to sm.n_warps - 1 do
      let w = sm.warps.(i) in
      if w.tb == tb then Ccws.release c w.ccws_slot
    done
  | None -> ());
  (* stable compaction: survivors keep their age order *)
  let kept = ref 0 in
  for i = 0 to sm.n_warps - 1 do
    let w = sm.warps.(i) in
    if w.tb != tb then begin
      sm.warps.(!kept) <- w;
      incr kept
    end
  done;
  for i = !kept to sm.n_warps - 1 do
    sm.warps.(i) <- sm.dummy_warp
  done;
  sm.n_warps <- !kept;
  if sm.last_issued != sm.dummy_warp && sm.last_issued.tb == tb then
    sm.last_issued <- sm.dummy_warp;
  sm.resident_tbs <- sm.resident_tbs - 1;
  sm.tbs_completed <- sm.tbs_completed + 1

let exec_exit sm warp =
  warp.finished <- true;
  let tb = warp.tb in
  tb.unfinished <- tb.unfinished - 1;
  if tb.unfinished = 0 then retire_tb sm tb else check_barrier_release sm tb

(* ---------------------------------------------------------------- *)
(* Instruction dispatch                                              *)
(* ---------------------------------------------------------------- *)

(* Ret: drop the retiring lanes from every pending rejoin point. *)
let clear_retiring warp retiring =
  let stk = warp.stk in
  for d = 0 to warp.depth - 1 do
    let b = d * frame_len in
    stk.(b + o_else) <- stk.(b + o_else) land lnot retiring;
    stk.(b + o_cont) <- stk.(b + o_cont) land lnot retiring
  done

(* Brk: remove the active lanes from every frame above (and excluding) the
   innermost loop frame; the loop frame's [outer] keeps them, so they
   resume after Loop_end. *)
let rec clear_breaking (stk : int array) breaking b =
  if b < 0 then sim_error "break outside a loop"
  else if stk.(b + o_kind) <> k_loop then begin
    stk.(b + o_outer) <- stk.(b + o_outer) land lnot breaking;
    stk.(b + o_else) <- stk.(b + o_else) land lnot breaking;
    clear_breaking stk breaking (b - frame_len)
  end

(* Cont: park the active lanes in the innermost loop frame until Rejoin. *)
let rec park_continuing (stk : int array) continuing b =
  if b < 0 then sim_error "continue outside a loop"
  else if stk.(b + o_kind) = k_loop then
    stk.(b + o_cont) <- stk.(b + o_cont) lor continuing
  else begin
    stk.(b + o_outer) <- stk.(b + o_outer) land lnot continuing;
    stk.(b + o_else) <- stk.(b + o_else) land lnot continuing;
    park_continuing stk continuing (b - frame_len)
  end

let exec_instr sm warp =
  let cfg = sm.job.cfg in
  let ws = ws_of sm in
  let code = sm.job.prog.Bytecode.code in
  if warp.pc < 0 || warp.pc >= Array.length code then
    sim_error "kernel %s: pc %d out of range" sm.job.prog.Bytecode.name warp.pc;
  let instr = code.(warp.pc) in
  sm.job.stats.Stats.instructions <- sm.job.stats.Stats.instructions + 1;
  sm.x_next_pc <- warp.pc + 1;
  sm.x_ready <- sm.now + cfg.Config.alu_latency;
  let active = warp.active in
  let regs = warp.regs in
  (match instr with
  | Bytecode.Mov (dst, src) ->
    let abase = view_a sm warp src in
    let opa = sm.x_va in
    let dbase = dst * ws in
    if active = (1 lsl ws) - 1 then
      (* register slices are ws-aligned: source and destination are either
         the same slice or disjoint, so a blit is safe *)
      Array.blit opa abase regs dbase ws
    else
      for lane = 0 to ws - 1 do
        if active land (1 lsl lane) <> 0 then
          regs.(dbase + lane) <- opa.(abase + lane)
      done
  | Bytecode.Alu (op, dst, a, b) ->
    let abase = view_a sm warp a in
    let bbase = view_b sm warp b in
    let opa = sm.x_va and opb = sm.x_vb in
    let dbase = dst * ws in
    let full = (1 lsl ws) - 1 in
    (* one loop per opcode (the op match happens once per instruction, not
       once per lane); fully-active warps — the common case — take an
       unmasked loop with no per-lane bit test.  Float and int variants of
       add/sub/mul share an arm: both are exact double arithmetic. *)
    (match op with
    | Bytecode.Fadd | Bytecode.Iadd ->
      if active = full then
        for lane = 0 to ws - 1 do
          regs.(dbase + lane) <- opa.(abase + lane) +. opb.(bbase + lane)
        done
      else
        for lane = 0 to ws - 1 do
          if active land (1 lsl lane) <> 0 then
            regs.(dbase + lane) <- opa.(abase + lane) +. opb.(bbase + lane)
        done
    | Bytecode.Fsub | Bytecode.Isub ->
      if active = full then
        for lane = 0 to ws - 1 do
          regs.(dbase + lane) <- opa.(abase + lane) -. opb.(bbase + lane)
        done
      else
        for lane = 0 to ws - 1 do
          if active land (1 lsl lane) <> 0 then
            regs.(dbase + lane) <- opa.(abase + lane) -. opb.(bbase + lane)
        done
    | Bytecode.Fmul | Bytecode.Imul ->
      if active = full then
        for lane = 0 to ws - 1 do
          regs.(dbase + lane) <- opa.(abase + lane) *. opb.(bbase + lane)
        done
      else
        for lane = 0 to ws - 1 do
          if active land (1 lsl lane) <> 0 then
            regs.(dbase + lane) <- opa.(abase + lane) *. opb.(bbase + lane)
        done
    | Bytecode.Fdiv ->
      if active = full then
        for lane = 0 to ws - 1 do
          regs.(dbase + lane) <- opa.(abase + lane) /. opb.(bbase + lane)
        done
      else
        for lane = 0 to ws - 1 do
          if active land (1 lsl lane) <> 0 then
            regs.(dbase + lane) <- opa.(abase + lane) /. opb.(bbase + lane)
        done
    | Bytecode.Idiv ->
      for lane = 0 to ws - 1 do
        if active land (1 lsl lane) <> 0 then begin
          let divisor = int_of_float opb.(bbase + lane) in
          if divisor = 0 then sim_error "integer division by zero"
          else
            regs.(dbase + lane) <-
              float_of_int (int_of_float opa.(abase + lane) / divisor)
        end
      done
    | Bytecode.Imod ->
      for lane = 0 to ws - 1 do
        if active land (1 lsl lane) <> 0 then begin
          let divisor = int_of_float opb.(bbase + lane) in
          if divisor = 0 then sim_error "integer modulo by zero"
          else
            regs.(dbase + lane) <-
              float_of_int (int_of_float opa.(abase + lane) mod divisor)
        end
      done
    | Bytecode.Cmp_lt ->
      if active = full then
        for lane = 0 to ws - 1 do
          regs.(dbase + lane) <- (if opa.(abase + lane) < opb.(bbase + lane) then 1. else 0.)
        done
      else
        for lane = 0 to ws - 1 do
          if active land (1 lsl lane) <> 0 then
            regs.(dbase + lane) <- (if opa.(abase + lane) < opb.(bbase + lane) then 1. else 0.)
        done
    | Bytecode.Cmp_le ->
      if active = full then
        for lane = 0 to ws - 1 do
          regs.(dbase + lane) <- (if opa.(abase + lane) <= opb.(bbase + lane) then 1. else 0.)
        done
      else
        for lane = 0 to ws - 1 do
          if active land (1 lsl lane) <> 0 then
            regs.(dbase + lane) <- (if opa.(abase + lane) <= opb.(bbase + lane) then 1. else 0.)
        done
    | Bytecode.Cmp_gt ->
      if active = full then
        for lane = 0 to ws - 1 do
          regs.(dbase + lane) <- (if opa.(abase + lane) > opb.(bbase + lane) then 1. else 0.)
        done
      else
        for lane = 0 to ws - 1 do
          if active land (1 lsl lane) <> 0 then
            regs.(dbase + lane) <- (if opa.(abase + lane) > opb.(bbase + lane) then 1. else 0.)
        done
    | Bytecode.Cmp_ge ->
      if active = full then
        for lane = 0 to ws - 1 do
          regs.(dbase + lane) <- (if opa.(abase + lane) >= opb.(bbase + lane) then 1. else 0.)
        done
      else
        for lane = 0 to ws - 1 do
          if active land (1 lsl lane) <> 0 then
            regs.(dbase + lane) <- (if opa.(abase + lane) >= opb.(bbase + lane) then 1. else 0.)
        done
    | Bytecode.Cmp_eq ->
      if active = full then
        for lane = 0 to ws - 1 do
          regs.(dbase + lane) <- (if opa.(abase + lane) = opb.(bbase + lane) then 1. else 0.)
        done
      else
        for lane = 0 to ws - 1 do
          if active land (1 lsl lane) <> 0 then
            regs.(dbase + lane) <- (if opa.(abase + lane) = opb.(bbase + lane) then 1. else 0.)
        done
    | Bytecode.Cmp_ne ->
      if active = full then
        for lane = 0 to ws - 1 do
          regs.(dbase + lane) <- (if opa.(abase + lane) <> opb.(bbase + lane) then 1. else 0.)
        done
      else
        for lane = 0 to ws - 1 do
          if active land (1 lsl lane) <> 0 then
            regs.(dbase + lane) <- (if opa.(abase + lane) <> opb.(bbase + lane) then 1. else 0.)
        done
    | Bytecode.Band ->
      if active = full then
        for lane = 0 to ws - 1 do
          regs.(dbase + lane) <- (if opa.(abase + lane) <> 0. && opb.(bbase + lane) <> 0. then 1. else 0.)
        done
      else
        for lane = 0 to ws - 1 do
          if active land (1 lsl lane) <> 0 then
            regs.(dbase + lane) <- (if opa.(abase + lane) <> 0. && opb.(bbase + lane) <> 0. then 1. else 0.)
        done
    | Bytecode.Bor ->
      if active = full then
        for lane = 0 to ws - 1 do
          regs.(dbase + lane) <- (if opa.(abase + lane) <> 0. || opb.(bbase + lane) <> 0. then 1. else 0.)
        done
      else
        for lane = 0 to ws - 1 do
          if active land (1 lsl lane) <> 0 then
            regs.(dbase + lane) <- (if opa.(abase + lane) <> 0. || opb.(bbase + lane) <> 0. then 1. else 0.)
        done)
  | Bytecode.Neg (dst, a) ->
    let abase = view_a sm warp a in
    let opa = sm.x_va in
    let dbase = dst * ws in
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then
        regs.(dbase + lane) <- -.opa.(abase + lane)
    done
  | Bytecode.Not (dst, a) ->
    let abase = view_a sm warp a in
    let opa = sm.x_va in
    let dbase = dst * ws in
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then
        regs.(dbase + lane) <- (if opa.(abase + lane) = 0. then 1. else 0.)
    done
  | Bytecode.Trunc (dst, a) ->
    let abase = view_a sm warp a in
    let opa = sm.x_va in
    let dbase = dst * ws in
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then
        regs.(dbase + lane) <- float_of_int (int_of_float opa.(abase + lane))
    done
  | Bytecode.Sel (dst, cond, a, b) ->
    let abase = view_a sm warp a in
    let bbase = view_b sm warp b in
    let opa = sm.x_va and opb = sm.x_vb in
    let cbase = cond * ws in
    let dbase = dst * ws in
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then
        regs.(dbase + lane) <-
          (if regs.(cbase + lane) <> 0. then opa.(abase + lane)
           else opb.(bbase + lane))
    done
  | Bytecode.Call (fn, dst, args) ->
    (match args with
    | [ a ] ->
      Minicuda.Builtins.eval_lanes fn ~regs ~ws ~mask:active ~dst ~a ~b:a
    | [ a; b ] ->
      Minicuda.Builtins.eval_lanes fn ~regs ~ws ~mask:active ~dst ~a ~b
    | _ ->
      sim_error "call to %s with %d arguments"
        (Minicuda.Builtins.name fn) (List.length args));
    sm.x_ready <- sm.now + (2 * cfg.Config.alu_latency)
  | Bytecode.Ld (Bytecode.Global, dst, arr_id, idx_reg) ->
    if active <> 0 then sm.x_ready <- exec_global_load sm warp ~dst ~arr_id ~idx_reg
  | Bytecode.St (Bytecode.Global, arr_id, idx_reg, src) ->
    if active <> 0 then begin
      exec_global_store sm warp ~arr_id ~idx_reg ~src;
      sm.x_ready <- sm.now + 1
    end
  | Bytecode.Ld (Bytecode.Shared, dst, arr_id, idx_reg) ->
    if active <> 0 then begin
      let arr = shared_of warp arr_id in
      let len = Array.length arr in
      let ibase = idx_reg * ws in
      let dbase = dst * ws in
      for lane = 0 to ws - 1 do
        if active land (1 lsl lane) <> 0 then begin
          let idx = int_of_float regs.(ibase + lane) in
          check_bounds sm arr_id idx len;
          regs.(dbase + lane) <- arr.(idx)
        end
      done;
      sm.x_ready <- shared_ready sm
    end
  | Bytecode.St (Bytecode.Shared, arr_id, idx_reg, src) ->
    if active <> 0 then begin
      let arr = shared_of warp arr_id in
      let len = Array.length arr in
      let sbase = view_a sm warp src in
      let opa = sm.x_va in
      let ibase = idx_reg * ws in
      for lane = 0 to ws - 1 do
        if active land (1 lsl lane) <> 0 then begin
          let idx = int_of_float regs.(ibase + lane) in
          check_bounds sm arr_id idx len;
          arr.(idx) <- opa.(sbase + lane)
        end
      done;
      sm.x_ready <- shared_ready sm
    end
  | Bytecode.Push_if (cond_reg, skip) ->
    let cbase = cond_reg * ws in
    sm.x_acc <- 0;
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 && regs.(cbase + lane) <> 0. then
        sm.x_acc <- sm.x_acc lor (1 lsl lane)
    done;
    let then_mask = sm.x_acc in
    let else_mask = active land lnot then_mask in
    push_frame warp ~kind:k_if ~outer:active ~pending_else:else_mask
      ~loop_pc:(innermost_loop warp);
    warp.active <- then_mask;
    if then_mask = 0 then sm.x_next_pc <- skip;
    sm.x_ready <- sm.now + 1
  | Bytecode.Else_mask skip ->
    if warp.depth = 0 then sim_error "else without matching push_if";
    let b = top warp in
    warp.active <- warp.stk.(b + o_else);
    warp.stk.(b + o_else) <- 0;
    if warp.active = 0 then sm.x_next_pc <- skip;
    sm.x_ready <- sm.now + 1
  | Bytecode.Pop_mask ->
    if warp.depth = 0 then sim_error "pop on empty mask stack";
    warp.active <- warp.stk.(top warp + o_outer) land lnot warp.exited;
    warp.depth <- warp.depth - 1;
    sm.x_ready <- sm.now + 1
  | Bytecode.Loop_begin -> (
    match sm.daws with
    | None ->
      push_frame warp ~kind:k_loop ~outer:active ~pending_else:0
        ~loop_pc:warp.pc;
      sm.x_ready <- sm.now + 1
    | Some d ->
      if Daws.try_enter d ~loop_pc:warp.pc ~age:warp.age then begin
        push_frame warp ~kind:k_loop ~outer:active ~pending_else:0
          ~loop_pc:warp.pc;
        sm.x_ready <- sm.now + 1
      end
      else begin
        (* the loop is at its predicted capacity: hold the warp at the
           entry and retry later (DAWS "stops the new warp") *)
        sm.x_next_pc <- warp.pc;
        sm.x_ready <- sm.now + 16
      end)
  | Bytecode.Break_if_false (cond_reg, exit_pc) ->
    let cbase = cond_reg * ws in
    sm.x_acc <- 0;
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 && regs.(cbase + lane) <> 0. then
        sm.x_acc <- sm.x_acc lor (1 lsl lane)
    done;
    warp.active <- sm.x_acc;
    if sm.x_acc = 0 then sm.x_next_pc <- exit_pc;
    sm.x_ready <- sm.now + 1
  | Bytecode.Jump target ->
    let held =
      match sm.daws with
      | Some d ->
        let loop_pc = innermost_loop warp in
        loop_pc >= 0 && not (Daws.may_continue d ~loop_pc ~age:warp.age)
      | None -> false
    in
    if held then begin
      (* descheduled at the back edge: the loop's learned divergence says
         too many warps are inside; retry when older warps have left *)
      sm.x_next_pc <- warp.pc;
      sm.x_ready <- sm.now + 16
    end
    else begin
      sm.x_next_pc <- target;
      sm.x_ready <- sm.now + 1
    end
  | Bytecode.Loop_end ->
    (match sm.daws with
    | Some d ->
      let loop_pc = innermost_loop warp in
      if loop_pc >= 0 then Daws.on_loop_exit d ~loop_pc ~age:warp.age
    | None -> ());
    if warp.depth = 0 then sim_error "loop_end on empty mask stack";
    warp.active <- warp.stk.(top warp + o_outer) land lnot warp.exited;
    warp.depth <- warp.depth - 1;
    sm.x_ready <- sm.now + 1
  | Bytecode.Bar ->
    warp.at_barrier <- true;
    warp.tb.arrived <- warp.tb.arrived + 1;
    sm.job.stats.Stats.barriers <- sm.job.stats.Stats.barriers + 1;
    check_barrier_release sm warp.tb
  | Bytecode.Ret ->
    let retiring = active in
    warp.exited <- warp.exited lor retiring;
    warp.active <- 0;
    clear_retiring warp retiring;
    sm.x_ready <- sm.now + 1
  | Bytecode.Brk ->
    clear_breaking warp.stk active (top warp);
    warp.active <- 0;
    sm.x_ready <- sm.now + 1
  | Bytecode.Cont ->
    park_continuing warp.stk active (top warp);
    warp.active <- 0;
    sm.x_ready <- sm.now + 1
  | Bytecode.Rejoin ->
    let b = top warp in
    if b < 0 || warp.stk.(b + o_kind) <> k_loop then
      sim_error "rejoin without an innermost loop frame";
    warp.active <- (warp.active lor warp.stk.(b + o_cont)) land lnot warp.exited;
    warp.stk.(b + o_cont) <- 0;
    sm.x_ready <- sm.now + 1
  | Bytecode.Exit -> exec_exit sm warp);
  if not warp.finished then begin
    warp.pc <- sm.x_next_pc;
    warp.ready_at <- imax sm.x_ready (sm.now + 1)
  end

(* ---------------------------------------------------------------- *)
(* Scheduling                                                        *)
(* ---------------------------------------------------------------- *)

let[@inline] issuable warp sm = (not warp.finished) && (not warp.at_barrier) && warp.ready_at <= sm.now

(* barrier-drain rule shared by every scheduler-level throttle: a TB with a
   warp parked at a barrier keeps all its warps schedulable, or the barrier
   could never complete *)
let draining tb = List.exists (fun w -> w.at_barrier) tb.tb_warps

(* Without a run-time throttle the pool is every resident warp, so the
   pick/next-event scans walk [sm.warps] directly and nothing is copied or
   stamped.  This is the common case: the baseline and all compiler-side
   schemes (CATT, fixed, bypass) run with no scheduler-level throttle. *)
let no_throttle sm = not sm.throttled

let pool_add sm w =
  if sm.n_pool = Array.length sm.pool then begin
    let bigger = Array.make (2 * sm.n_pool) sm.dummy_warp in
    Array.blit sm.pool 0 bigger 0 sm.n_pool;
    sm.pool <- bigger
  end;
  sm.pool.(sm.n_pool) <- w;
  sm.n_pool <- sm.n_pool + 1;
  w.pool_stamp <- sm.pool_gen

(* Warps the scheduler may consider: the warps of the first [cap] distinct
   TBs in age order (dyn), the CCWS-admitted set, or the oldest [limit]
   live warps (swl).  TB granularity keeps barriers inside a scheduled TB
   drainable (capping individual warps could park a TB at a barrier
   forever).  Fills the scratch pool; order is warp (age) order, exactly
   as the list-based filters produced. *)
let fill_pool sm =
  sm.pool_gen <- sm.pool_gen + 1;
  sm.n_pool <- 0;
  match (sm.ciao, sm.ccws, sm.dyn, sm.swl) with
  | Some ci, _, _, _ ->
    (* CIAO throttle fallback: flagged warps leave the pool (the drain
       rule still overrides).  If exclusion would park every live warp —
       e.g. a single flagged warp is all that remains — admit everyone
       rather than deadlock the SM. *)
    let live = ref false in
    for i = 0 to sm.n_warps - 1 do
      let w = sm.warps.(i) in
      if (not (Interference.throttle_excluded ci ~warp_id:w.age)) || draining w.tb
      then begin
        pool_add sm w;
        if not w.finished then live := true
      end
    done;
    if not !live then begin
      sm.n_pool <- 0;
      for i = 0 to sm.n_warps - 1 do
        pool_add sm sm.warps.(i)
      done
    end
  | None, Some ccws, _, _ ->
    (* rank the live warps, pushed oldest first so equal scores keep age
       order; each admitted warp is marked with this fill's pool stamp
       (no warp carries the fresh generation yet), then the pool is
       filled in age order *)
    Ccws.rank_clear ccws;
    for i = 0 to sm.n_warps - 1 do
      let w = sm.warps.(i) in
      if not w.finished then Ccws.rank_push ccws ~slot:w.ccws_slot ~id:i
    done;
    for j = 0 to Ccws.rank ccws - 1 do
      sm.warps.(Ccws.ranked ccws j).pool_stamp <- sm.pool_gen
    done;
    for i = 0 to sm.n_warps - 1 do
      let w = sm.warps.(i) in
      if w.pool_stamp = sm.pool_gen || draining w.tb then pool_add sm w
    done
  | None, None, Some dyn, _ ->
    let cap = Dynamic_throttle.cap dyn in
    let seen = ref 0 in
    for i = 0 to sm.n_warps - 1 do
      let w = sm.warps.(i) in
      (* membership first, even with the cap full: a TB already counted
         keeps all its warps schedulable.  The stamp makes the check O(1)
         where the scratch-array scan was O(cap) per warp. *)
      if w.tb.seen_stamp = sm.pool_gen then pool_add sm w
      else if !seen < cap then begin
        w.tb.seen_stamp <- sm.pool_gen;
        incr seen;
        pool_add sm w
      end
    done
  | None, None, None, Some limit ->
    (* static warp limiting: the oldest [limit] live warps, in age order *)
    let admitted = ref 0 in
    for i = 0 to sm.n_warps - 1 do
      let w = sm.warps.(i) in
      if not w.finished then
        if !admitted < limit then begin
          incr admitted;
          pool_add sm w
        end
        else if draining w.tb then pool_add sm w
    done
  | None, None, None, None ->
    for i = 0 to sm.n_warps - 1 do
      pool_add sm sm.warps.(i)
    done

(* The pool filter reads only state that cannot change between a
   [next_event] query and the first pick that follows it (warp liveness,
   barrier flags, controller caps — all mutated only by executing an
   instruction on this SM).  [next_event] therefore marks its fill as
   fresh and the first pick reuses it; any later pick in the same cycle
   (issue_width > 1) refills, exactly as the per-pick filters of the
   list-based scheduler did. *)
let pool_for_pick sm =
  if sm.x_pool_fresh then sm.x_pool_fresh <- false else fill_pool sm

(* Both scan orders below exploit the same invariant: [sm.warps] (and
   therefore every pool filled from it) is strictly age-ordered — ages are
   assigned monotonically at launch and TB retirement compacts stably.
   The first issuable warp in array order IS the greedy-then-oldest pick,
   so the scan stops there instead of walking every resident warp. *)
let rec gto_scan sm (arr : warp array) n i =
  if i = n then sm.dummy_warp
  else
    let w = arr.(i) in
    if issuable w sm then w else gto_scan sm arr n (i + 1)

let pick_gto sm =
  if no_throttle sm then begin
    let last = sm.last_issued in
    if last != sm.dummy_warp && issuable last sm then last
    else gto_scan sm sm.warps sm.n_warps 0
  end
  else begin
    pool_for_pick sm;
    let last = sm.last_issued in
    if last != sm.dummy_warp && issuable last sm && last.pool_stamp = sm.pool_gen
    then last
    else gto_scan sm sm.pool sm.n_pool 0
  end

let rec lrr_scan sm (arr : warp array) n i tries =
  if tries = n then sm.dummy_warp
  else
    let w = arr.((sm.rr_cursor + i) mod n) in
    if issuable w sm then begin
      sm.rr_cursor <- (sm.rr_cursor + i + 1) mod n;
      w
    end
    else lrr_scan sm arr n (i + 1) (tries + 1)

let pick_lrr sm =
  if no_throttle sm then
    if sm.n_warps = 0 then sm.dummy_warp
    else lrr_scan sm sm.warps sm.n_warps 0 0
  else begin
    pool_for_pick sm;
    if sm.n_pool = 0 then sm.dummy_warp else lrr_scan sm sm.pool sm.n_pool 0 0
  end

(** The picked warp, or the SM's dummy sentinel when nothing can issue. *)
let pick_warp sm =
  match sm.job.sched with Gto -> pick_gto sm | Lrr -> pick_lrr sm

(* Minimum ready time over schedulable warps, with an early exit: the
   result is clamped up to [sm.now] by {!next_event}, so once any warp is
   ready at or before [sm.now] nothing later in the scan can change the
   clamped answer. *)
let rec min_ready sm (arr : warp array) n i acc =
  if i = n || acc <= sm.now then acc
  else
    let w = arr.(i) in
    let acc =
      if w.finished || w.at_barrier || w.ready_at >= acc then acc else w.ready_at
    in
    min_ready sm arr n (i + 1) acc

(** Earliest cycle at which some warp could issue, clamped up to
    [sm.now] (a warp whose latency expired while the SM was busy issues
    now, not in the past); [max_int] when every resident warp is finished
    or parked at a barrier. *)
let next_event sm =
  (* a dynamic cap must not hide the only runnable warps forever: capped
     warps still count as events (the controller raises the cap on epoch
     edges, which only happen when the SM makes progress, so the pool is
     taken from the cap but events consider everyone) *)
  let m =
    if no_throttle sm then min_ready sm sm.warps sm.n_warps 0 max_int
    else begin
      fill_pool sm;
      sm.x_pool_fresh <- true;
      min_ready sm sm.pool sm.n_pool 0 max_int
    end
  in
  if m = max_int then max_int else imax m sm.now

let has_warps sm = sm.n_warps > 0

let rec any_at_barrier (arr : warp array) n i =
  i < n && (arr.(i).at_barrier || any_at_barrier arr n (i + 1))

(* Classify a forwarded idle gap [sm.now, until) for the profiler,
   mirroring the Stats attribution (barrier wait wins when any resident
   warp is parked at a barrier) but additionally splitting non-barrier
   gaps into memory-pending vs throttled-idle.  The split needs no
   scheduler query: [next_event] took [until] as the minimum ready time
   over *schedulable* warps, so any live non-barrier warp with an earlier
   ready time is necessarily excluded by a throttling pool — from the
   moment it became ready until the gap ends, the SM idled by policy, not
   by memory latency.  Pure reads only: throttle controllers (CCWS pools,
   DYNCTA epochs) must not observe profiling. *)
let profile_gap p sm ~until =
  let now = sm.now in
  let gap = until - now in
  if any_at_barrier sm.warps sm.n_warps 0 then begin
    Profile.Collector.add_idle p ~sm:sm.id ~kind:Profile.Stall.Barrier_wait
      ~cycles:gap;
    Profile.Collector.record_gap_interval p ~sm:sm.id
      ~kind:Profile.Stall.Barrier_wait ~start:now ~stop:until
  end
  else begin
    let earliest = ref max_int in
    for i = 0 to sm.n_warps - 1 do
      let w = sm.warps.(i) in
      if (not w.finished) && (not w.at_barrier) && w.ready_at < !earliest then
        earliest := w.ready_at
    done;
    let throttled =
      if !earliest < until then until - imax !earliest now else 0
    in
    if throttled > 0 then begin
      Profile.Collector.add_idle p ~sm:sm.id ~kind:Profile.Stall.Throttle_wait
        ~cycles:throttled;
      Profile.Collector.record_gap_interval p ~sm:sm.id
        ~kind:Profile.Stall.Throttle_wait ~start:(until - throttled) ~stop:until
    end;
    if gap - throttled > 0 then begin
      Profile.Collector.add_idle p ~sm:sm.id ~kind:Profile.Stall.Mem_wait
        ~cycles:(gap - throttled);
      Profile.Collector.record_gap_interval p ~sm:sm.id
        ~kind:Profile.Stall.Mem_wait ~start:now ~stop:(until - throttled)
    end
  end;
  (* per-warp: every live warp spends the whole gap waiting on something *)
  for i = 0 to sm.n_warps - 1 do
    let w = sm.warps.(i) in
    if not w.finished then
      if w.at_barrier then
        Profile.Collector.add_warp_wait p ~sm:sm.id ~warp:w.age
          ~kind:Profile.Stall.Barrier_wait ~cycles:gap
      else if w.ready_at >= until then
        Profile.Collector.add_warp_wait p ~sm:sm.id ~warp:w.age
          ~kind:Profile.Stall.Mem_wait ~cycles:gap
      else begin
        let ready = imax w.ready_at now in
        if ready > now then
          Profile.Collector.add_warp_wait p ~sm:sm.id ~warp:w.age
            ~kind:Profile.Stall.Mem_wait ~cycles:(ready - now);
        if until - ready > 0 then
          Profile.Collector.add_warp_wait p ~sm:sm.id ~warp:w.age
            ~kind:Profile.Stall.Throttle_wait ~cycles:(until - ready)
      end
  done

let rec issue_up_to sm width issued =
  if issued >= width then issued
  else
    let warp = pick_warp sm in
    if warp == sm.dummy_warp then issued
    else begin
      (match sm.job.prof with
      | Some p -> Profile.Collector.record_warp_issue p ~sm:sm.id ~warp:warp.age
      | None -> ());
      exec_instr sm warp;
      sm.last_issued <- warp;
      sm.job.stats.Stats.issued_instructions <-
        sm.job.stats.Stats.issued_instructions + 1;
      (match sm.dyn with Some d -> Dynamic_throttle.on_issue d | None -> ());
      issue_up_to sm width (issued + 1)
    end

(** Advance this SM by one cycle, issuing up to [issue_width] instructions
    from distinct ready warps (each issue makes the warp unready for at
    least a cycle, so distinctness is automatic).  Returns [false] when
    nothing could run (idle or deadlocked — the caller distinguishes via
    {!has_warps}). *)
(* [step_at sm ~t] is {!step} with the next-event query hoisted out: the
   device event loop already computed (and cached) this SM's next event
   time to pick which SM to step, so recomputing it here would double the
   scheduler-scan cost of every step.  [t] must be the current
   [next_event sm] result (possibly clamped up to [sm.now]; values at or
   below [sm.now] mean "issue now" either way) and must not be
   [max_int]. *)
let step_at sm ~t =
  begin
    if t > sm.now then begin
      (* attribute the forwarded idle gap: barrier wait if any resident
         warp is parked at a barrier, memory-latency exposure otherwise *)
      let gap = t - sm.now in
      if any_at_barrier sm.warps sm.n_warps 0 then
        sm.job.stats.Stats.barrier_idle_cycles <-
          sm.job.stats.Stats.barrier_idle_cycles + gap
      else
        sm.job.stats.Stats.mem_idle_cycles <-
          sm.job.stats.Stats.mem_idle_cycles + gap;
      (match sm.job.prof with
      | Some p -> profile_gap p sm ~until:t
      | None -> ());
      sm.now <- t
    end;
    let issued = issue_up_to sm sm.job.cfg.Config.issue_width 0 in
    (match sm.dyn with
    | Some d -> Dynamic_throttle.on_cycle d ~now:sm.now ~max_cap:sm.resident_tbs
    | None -> ());
    (match sm.ccws with Some c -> Ccws.tick c | None -> ());
    if issued = 0 then
      sim_error "scheduler found no warp despite pending event";
    (match sm.job.prof with
    | Some p ->
      Profile.Collector.add_issue_cycle p ~sm:sm.id;
      Profile.Collector.record_issue_interval p ~sm:sm.id ~now:sm.now
    | None -> ());
    sm.now <- sm.now + 1;
    true
  end

let step sm =
  let t = next_event sm in
  if t = max_int then false else step_at sm ~t
