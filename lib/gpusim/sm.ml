(** One streaming multiprocessor: warp contexts, the mask-stack SIMT
    execution engine, the warp scheduler (GTO or loose round-robin), the
    load/store unit with its coalescer, and barrier handling.

    Timing model: one instruction issues per SM per cycle.  ALU
    instructions make the warp ready again after [alu_latency]; memory
    instructions block the issuing warp until the slowest of its coalesced
    transactions returns; the LSU accepts one transaction per cycle, so
    divergent warps occupy it for many cycles — the bandwidth pressure
    that makes cache thrashing expensive.

    Runtime policies (DYNCTA, CCWS, DAWS, SWL, CIAO, ATA) plug in
    through one {!policy} record of hooks per SM, built once per launch
    ([Gpu] maps the launch's [runtime_throttle] to one of the
    constructors at the end of this file).  The baseline is
    {!no_policy}: no-op hooks, a constant version and no pool filter, so
    the scheduler scans the resident warps directly.

    Execution: {!exec_instr} runs the launch's decoded program
    ([job.code], {!Decode.t}), built once per launch by [Gpu]: it
    dispatches on one int-coded {!Decode.op} per instruction, with
    register numbers pre-multiplied by the warp size and every branch
    target, register number, array kind and call arity checked at
    decode, so there is no pc check, no operand match and no bounds
    check on register slices here (data indices are still checked per
    lane).  An operand is read in place: a register from the warp's
    file, an immediate, launch dimension or thread index from the
    launch's lane table (thread indices by the warp's [lane_base]); only
    a block index is staged into scratch.

    Memory path: a global access's lane loop ([gather]/[scatter])
    writes each active lane's line index (its byte address [lsr]
    [job.line_shift], fixed per launch by [Gpu]), {!Coalescer.dedup}
    reduces them to distinct lines in first-touch order, and each line
    is one transaction in that order.  [Cache.probe] finds the line's
    set once; a miss result names the victim way and travels through
    [miss_issue], the L2 lookup, the policy's [admit] and [fill] hooks
    and the profiler to [Cache.fill], so nothing walks the set again.
    Nothing touches the L1 between a transaction's probe and its fill.

    Scheduling: a warp's schedulability is one word, [ready_at]
    ([max_int] while finished or parked at a barrier); the SM counts its
    parked warps, and a thread block drains a barrier iff [arrived > 0].
    With no pool filter, the resident-warp scan skips a prefix it has
    seen to be unready, and a pick that finds nothing leaves the SM's
    next event behind for {!next_event} (see [gto_scan]).  With one
    (DYNCTA, CCWS, SWL, CIAO), picks and {!next_event} scan the SM's
    pool, which is kept across picks and issue steps and refilled only
    when an input of the filter has changed: a TB launch, a warp's exit
    or a barrier arrival ([pool_stale]), or a new value of the policy's
    [version] hook (see [refill_pool]).

    Data layout: stepping allocates nothing per instruction (TB launch
    and policy epochs do; [test/test_alloc.ml] counts it).  A launch
    allocates the decoded program and its lane table; a warp, its
    record, register file and mask stack.  Resident warps live in a
    flat array with stable compaction on TB retirement (oldest first,
    as the GTO tie-break needs); each warp's SIMT mask stack is a flat
    int array; the scheduler pool, lane and coalesced line indices and
    staged block indices live in preallocated per-SM buffers;
    builtins run lane-wise inside [Minicuda.Builtins], so no per-lane
    float ever crosses a function boundary boxed.  Policy hooks follow
    the same two rules: their closures are built with the record, never
    per call, and no hook returns a float (dev builds compile with
    [-opaque]).  Every simulation-visible ordering — pool order,
    transaction issue order, profiler event order — matches the original
    list-based code bit for bit (proven by the golden-grid digests in
    [test/golden_profiles/golden_grid.json]). *)

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
  code : Decode.t;  (** [prog] decoded for this launch, lane tables included *)
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
  line_shift : int;  (** log2 of the line size: a byte address's line *)
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
  lane_base : int;  (* this warp's first lane in the launch's thread-index tables *)
  mutable pc : int;
  mutable active : int;
  mutable exited : int;
  mutable stk : int array;  (* SIMT mask stack, see [frame_len] *)
  mutable depth : int;  (* frames on [stk] *)
  mutable ready_at : int;
      (* the cycle from which the warp can issue; [max_int] while it is
         finished or parked at a barrier, so a scan reads one word *)
  mutable finished : bool;
  mutable pool_stamp : int;
      (* generation stamp: member of the scratch pool iff equal to the
         SM's [pool_gen] (O(1) membership without a set) *)
  slot : int;  (* this warp's policy state slot; -1 when the policy keeps none *)
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
  mutable pool : warp array;  (* the schedulable pool, kept across picks *)
  mutable n_pool : int;
  mutable pool_gen : int;  (* one more than the pool fills so far *)
  mutable pool_stale : bool;
      (* a TB launched, a warp exited or a warp arrived at a barrier since
         the last fill (see [refill_pool]) *)
  mutable pool_version : int;  (* the policy's [version ()] at the last fill *)
  x_lanes : int array;  (* scratch: per-lane line indices *)
  x_lines : int array;  (* scratch: coalesced line indices *)
  x_opa : float array;  (* scratch: a staged block-index operand *)
  x_opb : float array;
  mutable parked : int;  (* resident warps waiting at a barrier *)
  mutable x_next : int;
      (* the next event found by a failed pick's full scan of the
         resident warps, or -1: with no pool filter, [next_event] answers
         from it instead of scanning again *)
  mutable x_skip : int;
  mutable x_skip_min : int;
      (* with no pool filter: resident warps [0, x_skip) have ready
         cycles of at least [x_skip_min]; while that is in the future,
         scans start at [x_skip] (see [gto_scan]) *)
  policy : policy;
}

(** A runtime policy: the hooks the SM calls at its decision points.  One
    record per SM per launch; each hook closes over its policy's own
    state, so a call allocates nothing.  {!no_policy} is the baseline:
    every hook a no-op, a constant version and no pool filter, which
    keeps the direct-scan scheduler. *)
and policy = {
  launch_warp : unit -> int;  (** a warp is launching: its state slot, or -1 *)
  retire_warp : warp -> unit;  (** the warp's thread block completed *)
  load : warp -> int -> bool;
      (** a global load transaction on a line; [true] bypasses the L1D *)
  admit : int -> int -> bool;
      (** an L1D miss on a line, with its probe result ({!Cache.victim});
          [false] serves it from L2 and fills nothing *)
  miss : warp -> int -> unit;  (** an L1D load miss on a line *)
  fill : warp -> int -> unit;
      (** the warp's miss is about to fill: its probe result *)
  mem_instr : warp -> int -> unit;
      (** a global memory instruction coalesced to this many lines *)
  loop_enter : warp -> bool;  (** at [Loop_begin]; [false] holds the warp there *)
  back_edge : warp -> bool;  (** at a loop's [Jump]; [false] holds the warp there *)
  loop_exit : warp -> unit;  (** at [Loop_end] *)
  issue : unit -> unit;  (** an instruction issued *)
  step : t -> unit;  (** after each issue step *)
  pool_filter : (t -> unit) option;
      (** fills the scheduler pool ({!pool_add}, age order); [None]
          schedules every resident warp *)
  version : unit -> int;
      (** the policy side of the pool filter's inputs: changes whenever a
          decision the filter reads changes, and the pool is refilled *)
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
    lane_base = 0;
    pc = 0;
    active = 0;
    exited = 0;
    stk = [||];
    depth = 0;
    ready_at = max_int;
    finished = true;
    pool_stamp = 0;
    slot = -1;
  }

let no_policy =
  {
    launch_warp = (fun () -> -1);
    retire_warp = (fun _ -> ());
    load = (fun _ _ -> false);
    admit = (fun _ _ -> true);
    miss = (fun _ _ -> ());
    fill = (fun _ _ -> ());
    mem_instr = (fun _ _ -> ());
    loop_enter = (fun _ -> true);
    back_edge = (fun _ -> true);
    loop_exit = (fun _ -> ());
    issue = (fun () -> ());
    step = (fun _ -> ());
    pool_filter = None;
    version = (fun () -> 0);
  }

(* Co-resident kernel contexts on the same physical SM
   ({!Gpu.launch_pair}) pass the same [l1]: they contend for one cache,
   which is exactly the interference being modeled. *)
let create job id ~l1 ~policy =
  let ws = job.cfg.Config.warp_size in
  let dw = make_dummy_warp () in
  {
    id;
    job;
    l1;
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
    pool_stale = true;
    pool_version = 0;
    x_lanes = Array.make ws 0;
    x_lines = Array.make ws 0;
    x_opa = Array.make ws 0.;
    x_opb = Array.make ws 0.;
    parked = 0;
    x_next = -1;
    x_skip = 0;
    x_skip_min = max_int;
    policy;
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
    let lane_base = warp_idx * ws in
    let lanes = min ws (job.tb_threads - lane_base) in
    let init_mask = (1 lsl lanes) - 1 in
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
        lane_base;
        pc = 0;
        active = init_mask;
        exited = 0;
        stk = Array.make (4 * frame_len) 0;
        depth = 0;
        ready_at = sm.now;
        finished = false;
        pool_stamp = 0;
        slot = sm.policy.launch_warp ();
      }
    in
    sm.next_age <- sm.next_age + 1;
    warp
  in
  let new_warps = List.init job.warps_per_tb make_warp in
  tb.tb_warps <- new_warps;
  List.iter (fun w -> push_warp sm w) new_warps;
  sm.x_next <- -1;
  sm.pool_stale <- true;
  sm.resident_tbs <- sm.resident_tbs + 1;
  job.stats.Stats.tbs_launched <- job.stats.Stats.tbs_launched + 1;
  if sm.n_warps > job.stats.Stats.max_resident_warps then
    job.stats.Stats.max_resident_warps <- sm.n_warps

(* ---------------------------------------------------------------- *)
(* Operand access                                                    *)
(* ---------------------------------------------------------------- *)

let ws_of sm = sm.job.cfg.Config.warp_size

(* Unchecked lane access.  Decoding checked every register number
   against the register count and every operand against the lane table,
   so a register slice or operand view plus a lane is in bounds. *)
let[@inline] ( .%() ) (a : float array) i = Array.unsafe_get a i
let[@inline] ( .%()<- ) (a : float array) i (v : float) = Array.unsafe_set a i v

(* a block index, the one operand kind that is neither in the register
   file nor in the launch's lane table: staged into [dst] *)
let stage_block_index bid (dst : float array) =
  let v = float_of_int bid in
  for lane = 0 to Array.length dst - 1 do
    dst.%(lane) <- v
  done

(* An operand view: the float array operand argument [i] reads its lanes
   from ({!operand_lanes}) and the offset of lane 0 in it
   ({!operand_base}).  A register is its slice of the warp's file, read
   in place; an immediate or launch dimension is its slice of the lane
   table; a thread index is the warp's part of its lane-table column.
   Reading in place is safe even when the destination register aliases a
   source: each lane reads only its own slot, and the read happens before
   the store within the lane. *)
let[@inline] operand_lanes warp (code : Decode.t) i (scratch : float array) =
  match Array.unsafe_get code.Decode.srcs i with
  | Decode.Reg -> warp.regs
  | Decode.Bid_x ->
    stage_block_index warp.tb.bid_x scratch;
    scratch
  | Decode.Bid_y ->
    stage_block_index warp.tb.bid_y scratch;
    scratch
  | Decode.Imm | Decode.Bdim_x | Decode.Bdim_y | Decode.Gdim_x | Decode.Gdim_y
  | Decode.Tid_x | Decode.Tid_y ->
    code.Decode.lanes

let[@inline] operand_base warp (code : Decode.t) i =
  let payload = Array.unsafe_get code.Decode.args i in
  match Array.unsafe_get code.Decode.srcs i with
  | Decode.Tid_x | Decode.Tid_y -> payload + warp.lane_base
  | _ -> payload

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
   mutation sequence is probe, MSHR drain, DRAM-port bump, fill. *)
let l2_arrival sm ~now:l2_now ~line =
  let cfg = sm.job.cfg in
  let stats = sm.job.stats in
  stats.Stats.l2_accesses <- stats.Stats.l2_accesses + 1;
  let arrival =
    let r = Cache.probe sm.job.l2 ~now:l2_now ~line in
    if r >= 0 then begin
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
      Cache.fill sm.job.l2 ~miss:r ~line ~ready;
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
  (* the LSU accepts one transaction per cycle *)
  sm.lsu_free <- issue + 1;
  (* the policy sees every would-be L1D transaction and may redirect it
     around the cache; its bypasses share the ablation path (and its
     counters — [bypass_transactions] is the bypassed-by-policy count) *)
  let bypass = bypass || sm.policy.load warp line in
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
    if r >= 0 then begin
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
      sm.policy.miss warp line;
      let miss_at = Cache.miss_issue sm.l1 ~now:issue in
      let ready = l2_arrival sm ~now:miss_at ~line in
      if sm.policy.admit line r then begin
        sm.policy.fill warp r;
        (match sm.job.prof with
        | Some p ->
          let victim = Cache.victim sm.l1 r in
          if victim <> -1 then
            Profile.Collector.record_evict p ~arr_id ~pc:warp.pc
              ~set:(Cache.miss_set sm.l1 r) ~victim_line:victim
        | None -> ());
        Cache.fill sm.l1 ~miss:r ~line ~ready
      end
      else
        (* not admitted: served from L2, nothing displaced; the miss
           still holds an MSHR until the data lands *)
        Cache.note_inflight sm.l1 ~ready;
      (match sm.job.prof with
      | Some p ->
        Profile.Collector.record_l1 p ~arr_id ~pc:warp.pc
          ~set:(Cache.miss_set sm.l1 r) ~outcome:Profile.Heatmap.Miss
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
  ignore (Cache.write_update sm.l1 ~line);
  ignore (l2_arrival sm ~now:issue ~line)

(* Coalesce the active lanes' [x_lanes] into [x_lines] and sample the
   instruction for the Fig. 2 trace and the policy; the line count. *)
let coalesce sm warp =
  let nlines = Coalescer.dedup ~lanes:sm.x_lanes ~mask:warp.active ~buf:sm.x_lines in
  Trace.record sm.job.trace ~sm:sm.id ~pc:warp.pc ~requests:nlines ~cycle:sm.now;
  sm.policy.mem_instr warp nlines;
  nlines

(* The lane loops of a global access.  Each is a leaf that calls
   nothing, so its loop state stays in registers (a call in the loop body
   spills every live value on every lane), and takes at most ten
   arguments, all passed in registers (OCaml passes an eleventh through
   memory on every self call).  Each runs the lanes of
   [active] in lane order over the warp ([Array.length lines]; [gather]'s
   [full] says all are active), writes each one's line index (its byte
   address [lsr shift]) into [lines], and returns the first lane whose
   index is out of bounds, or -1; the caller raises, so the lanes before
   it have run, as when the check raised in the loop. *)
let rec gather (regs : float array) dbase ibase (data : float array) base
    shift (lines : int array) ~full active lane =
  if lane = Array.length lines then -1
  else if (not full) && active land (1 lsl lane) = 0 then
    gather regs dbase ibase data base shift lines ~full active (lane + 1)
  else
    let idx = int_of_float regs.%(ibase + lane) in
    if idx < 0 || idx >= Array.length data then lane
    else begin
      Array.unsafe_set lines lane ((base + (idx * elem_bytes)) lsr shift);
      regs.%(dbase + lane) <- data.%(idx);
      gather regs dbase ibase data base shift lines ~full active (lane + 1)
    end

let rec scatter (regs : float array) ibase (data : float array) base shift
    (lines : int array) (va : float array) sbase active lane =
  if lane = Array.length lines then -1
  else if active land (1 lsl lane) = 0 then
    scatter regs ibase data base shift lines va sbase active (lane + 1)
  else
    let idx = int_of_float regs.%(ibase + lane) in
    if idx < 0 || idx >= Array.length data then lane
    else begin
      Array.unsafe_set lines lane ((base + (idx * elem_bytes)) lsr shift);
      data.%(idx) <- va.%(sbase + lane);
      scatter regs ibase data base shift lines va sbase active (lane + 1)
    end

(* the out-of-bounds lane a lane loop stopped at, if any *)
let check_lane sm warp ~arr_id ~ibase ~len bad =
  if bad >= 0 then bounds_error sm arr_id (int_of_float warp.regs.(ibase + bad)) len

let exec_global_load sm warp ~dbase ~arr_id ~ibase =
  let ws = ws_of sm in
  let ga = global_of sm arr_id in
  let active = warp.active in
  check_lane sm warp ~arr_id ~ibase ~len:(Array.length ga.data)
    (gather warp.regs dbase ibase ga.data ga.base sm.job.line_shift sm.x_lanes
       ~full:(active = (1 lsl ws) - 1) active 0);
  let nlines = coalesce sm warp in
  sm.job.stats.Stats.global_load_instrs <-
    sm.job.stats.Stats.global_load_instrs + 1;
  let bypass = sm.job.bypass.(arr_id) in
  let ready = ref sm.now in
  for i = 0 to nlines - 1 do
    let t = issue_load_transaction ~bypass sm warp ~arr_id sm.x_lines.(i) in
    if t > !ready then ready := t
  done;
  !ready

let exec_global_store sm warp ~arr_id ~ibase ~src =
  let code = sm.job.code in
  let ga = global_of sm arr_id in
  let va = operand_lanes warp code src sm.x_opa and sbase = operand_base warp code src in
  check_lane sm warp ~arr_id ~ibase ~len:(Array.length ga.data)
    (scatter warp.regs ibase ga.data ga.base sm.job.line_shift sm.x_lanes va sbase
       warp.active 0);
  let nlines = coalesce sm warp in
  sm.job.stats.Stats.global_store_instrs <-
    sm.job.stats.Stats.global_store_instrs + 1;
  for i = 0 to nlines - 1 do
    (match sm.job.prof with
    | Some p -> Profile.Collector.record_store p ~arr_id ~pc:warp.pc
    | None -> ());
    issue_store_transaction sm sm.x_lines.(i)
  done

(* shared memory: fixed latency, one LSU slot, no bank-conflict model *)
let shared_ready sm =
  sm.job.stats.Stats.shared_instrs <- sm.job.stats.Stats.shared_instrs + 1;
  let issue = imax sm.now sm.lsu_free in
  sm.lsu_free <- issue + 1;
  issue + sm.job.cfg.Config.l1d_hit_latency

(* ---------------------------------------------------------------- *)
(* Barriers and retirement                                           *)
(* ---------------------------------------------------------------- *)

(* waiting at a barrier: live, with no ready cycle *)
let[@inline] parked w = w.ready_at = max_int && not w.finished

let rec release_warps sm = function
  | [] -> ()
  | w :: rest ->
    if parked w then begin
      w.ready_at <- sm.now + 1;
      sm.parked <- sm.parked - 1
    end;
    release_warps sm rest

(* a ready cycle moved earlier or a warp moved in [sm.warps]: scans start
   from the oldest warp again *)
let forget_skip sm =
  sm.x_skip <- 0;
  sm.x_skip_min <- max_int

let release_barrier sm tb =
  release_warps sm tb.tb_warps;
  forget_skip sm;
  tb.arrived <- 0

let check_barrier_release sm tb =
  if tb.unfinished > 0 && tb.arrived >= tb.unfinished then release_barrier sm tb

let retire_tb sm tb =
  (* stable compaction: survivors keep their age order; the policy sees
     each retiring warp *)
  let kept = ref 0 in
  for i = 0 to sm.n_warps - 1 do
    let w = sm.warps.(i) in
    if w.tb != tb then begin
      sm.warps.(!kept) <- w;
      incr kept
    end
    else sm.policy.retire_warp w
  done;
  for i = !kept to sm.n_warps - 1 do
    sm.warps.(i) <- sm.dummy_warp
  done;
  sm.n_warps <- !kept;
  forget_skip sm;
  if sm.last_issued != sm.dummy_warp && sm.last_issued.tb == tb then
    sm.last_issued <- sm.dummy_warp;
  sm.resident_tbs <- sm.resident_tbs - 1;
  sm.tbs_completed <- sm.tbs_completed + 1

let exec_exit sm warp =
  warp.finished <- true;
  warp.ready_at <- max_int;
  sm.pool_stale <- true;
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

(* argument [i] of the instruction whose arguments start at [at] *)
let[@inline] arg (args : int array) at i = Array.unsafe_get args (at + i)

(* [cond]'s nonzero lanes among [active], as a mask *)
let lanes_true (regs : float array) ~ws ~active ~cond =
  let m = ref 0 in
  for lane = 0 to ws - 1 do
    if active land (1 lsl lane) <> 0 && regs.%(cond + lane) <> 0. then
      m := !m lor (1 lsl lane)
  done;
  !m

(* The two-operand ALU ops: one leaf loop per opcode (the op match
   happens once per instruction, not once per lane, and a leaf keeps its
   loop state in registers); fully-active warps — the common case — take
   an unmasked loop with no per-lane bit test.  Float and int variants
   of add/sub/mul share a loop: both are exact double arithmetic. *)
let alu_add (regs : float array) d (va : float array) ab (vb : float array) bb ws
    active =
  if active = (1 lsl ws) - 1 then
    for lane = 0 to ws - 1 do
      regs.%(d + lane) <- (va.%(ab + lane) +. vb.%(bb + lane))
    done
  else
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then regs.%(d + lane) <- (va.%(ab + lane) +. vb.%(bb + lane))
    done

let alu_sub (regs : float array) d (va : float array) ab (vb : float array) bb ws
    active =
  if active = (1 lsl ws) - 1 then
    for lane = 0 to ws - 1 do
      regs.%(d + lane) <- (va.%(ab + lane) -. vb.%(bb + lane))
    done
  else
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then regs.%(d + lane) <- (va.%(ab + lane) -. vb.%(bb + lane))
    done

let alu_mul (regs : float array) d (va : float array) ab (vb : float array) bb ws
    active =
  if active = (1 lsl ws) - 1 then
    for lane = 0 to ws - 1 do
      regs.%(d + lane) <- (va.%(ab + lane) *. vb.%(bb + lane))
    done
  else
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then regs.%(d + lane) <- (va.%(ab + lane) *. vb.%(bb + lane))
    done

let alu_fdiv (regs : float array) d (va : float array) ab (vb : float array) bb ws
    active =
  if active = (1 lsl ws) - 1 then
    for lane = 0 to ws - 1 do
      regs.%(d + lane) <- (va.%(ab + lane) /. vb.%(bb + lane))
    done
  else
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then regs.%(d + lane) <- (va.%(ab + lane) /. vb.%(bb + lane))
    done

let alu_lt (regs : float array) d (va : float array) ab (vb : float array) bb ws
    active =
  if active = (1 lsl ws) - 1 then
    for lane = 0 to ws - 1 do
      regs.%(d + lane) <- (if va.%(ab + lane) < vb.%(bb + lane) then 1. else 0.)
    done
  else
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then regs.%(d + lane) <- (if va.%(ab + lane) < vb.%(bb + lane) then 1. else 0.)
    done

let alu_le (regs : float array) d (va : float array) ab (vb : float array) bb ws
    active =
  if active = (1 lsl ws) - 1 then
    for lane = 0 to ws - 1 do
      regs.%(d + lane) <- (if va.%(ab + lane) <= vb.%(bb + lane) then 1. else 0.)
    done
  else
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then regs.%(d + lane) <- (if va.%(ab + lane) <= vb.%(bb + lane) then 1. else 0.)
    done

let alu_gt (regs : float array) d (va : float array) ab (vb : float array) bb ws
    active =
  if active = (1 lsl ws) - 1 then
    for lane = 0 to ws - 1 do
      regs.%(d + lane) <- (if va.%(ab + lane) > vb.%(bb + lane) then 1. else 0.)
    done
  else
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then regs.%(d + lane) <- (if va.%(ab + lane) > vb.%(bb + lane) then 1. else 0.)
    done

let alu_ge (regs : float array) d (va : float array) ab (vb : float array) bb ws
    active =
  if active = (1 lsl ws) - 1 then
    for lane = 0 to ws - 1 do
      regs.%(d + lane) <- (if va.%(ab + lane) >= vb.%(bb + lane) then 1. else 0.)
    done
  else
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then regs.%(d + lane) <- (if va.%(ab + lane) >= vb.%(bb + lane) then 1. else 0.)
    done

let alu_eq (regs : float array) d (va : float array) ab (vb : float array) bb ws
    active =
  if active = (1 lsl ws) - 1 then
    for lane = 0 to ws - 1 do
      regs.%(d + lane) <- (if va.%(ab + lane) = vb.%(bb + lane) then 1. else 0.)
    done
  else
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then regs.%(d + lane) <- (if va.%(ab + lane) = vb.%(bb + lane) then 1. else 0.)
    done

let alu_ne (regs : float array) d (va : float array) ab (vb : float array) bb ws
    active =
  if active = (1 lsl ws) - 1 then
    for lane = 0 to ws - 1 do
      regs.%(d + lane) <- (if va.%(ab + lane) <> vb.%(bb + lane) then 1. else 0.)
    done
  else
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then regs.%(d + lane) <- (if va.%(ab + lane) <> vb.%(bb + lane) then 1. else 0.)
    done

let alu_band (regs : float array) d (va : float array) ab (vb : float array) bb ws
    active =
  if active = (1 lsl ws) - 1 then
    for lane = 0 to ws - 1 do
      regs.%(d + lane) <- (if va.%(ab + lane) <> 0. && vb.%(bb + lane) <> 0. then 1. else 0.)
    done
  else
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then regs.%(d + lane) <- (if va.%(ab + lane) <> 0. && vb.%(bb + lane) <> 0. then 1. else 0.)
    done

let alu_bor (regs : float array) d (va : float array) ab (vb : float array) bb ws
    active =
  if active = (1 lsl ws) - 1 then
    for lane = 0 to ws - 1 do
      regs.%(d + lane) <- (if va.%(ab + lane) <> 0. || vb.%(bb + lane) <> 0. then 1. else 0.)
    done
  else
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then regs.%(d + lane) <- (if va.%(ab + lane) <> 0. || vb.%(bb + lane) <> 0. then 1. else 0.)
    done

let alu_idiv (regs : float array) d (va : float array) ab (vb : float array) bb ws
    active =
  for lane = 0 to ws - 1 do
    if active land (1 lsl lane) <> 0 then begin
      let divisor = int_of_float vb.%(bb + lane) in
      if divisor = 0 then sim_error "integer division by zero"
      else regs.%(d + lane) <- float_of_int (int_of_float va.%(ab + lane) / divisor)
    end
  done

let alu_imod (regs : float array) d (va : float array) ab (vb : float array) bb ws
    active =
  for lane = 0 to ws - 1 do
    if active land (1 lsl lane) <> 0 then begin
      let divisor = int_of_float vb.%(bb + lane) in
      if divisor = 0 then sim_error "integer modulo by zero"
      else regs.%(d + lane) <- float_of_int (int_of_float va.%(ab + lane) mod divisor)
    end
  done

let exec_alu sm warp op ~d ~a ~b =
  let ws = ws_of sm in
  let code = sm.job.code in
  let regs = warp.regs and active = warp.active in
  let va = operand_lanes warp code a sm.x_opa and ab = operand_base warp code a in
  let vb = operand_lanes warp code b sm.x_opb and bb = operand_base warp code b in
  match op with
  | Decode.Fadd | Decode.Iadd -> alu_add regs d va ab vb bb ws active
  | Decode.Fsub | Decode.Isub -> alu_sub regs d va ab vb bb ws active
  | Decode.Fmul | Decode.Imul -> alu_mul regs d va ab vb bb ws active
  | Decode.Fdiv -> alu_fdiv regs d va ab vb bb ws active
  | Decode.Cmp_lt -> alu_lt regs d va ab vb bb ws active
  | Decode.Cmp_le -> alu_le regs d va ab vb bb ws active
  | Decode.Cmp_gt -> alu_gt regs d va ab vb bb ws active
  | Decode.Cmp_ge -> alu_ge regs d va ab vb bb ws active
  | Decode.Cmp_eq -> alu_eq regs d va ab vb bb ws active
  | Decode.Cmp_ne -> alu_ne regs d va ab vb bb ws active
  | Decode.Band -> alu_band regs d va ab vb bb ws active
  | Decode.Bor -> alu_bor regs d va ab vb bb ws active
  | Decode.Idiv -> alu_idiv regs d va ab vb bb ws active
  | Decode.Imod -> alu_imod regs d va ab vb bb ws active
  | _ -> invalid_arg "Sm.exec_alu: not a two-operand ALU op"

let exec_instr sm warp =
  let cfg = sm.job.cfg in
  let ws = ws_of sm in
  let code = sm.job.code in
  let pc = warp.pc in
  (* decoding proved every pc a warp can reach in range *)
  let args = code.Decode.args and at = pc * Decode.stride in
  sm.job.stats.Stats.instructions <- sm.job.stats.Stats.instructions + 1;
  let next_pc = ref (pc + 1) in
  let ready = ref (sm.now + cfg.Config.alu_latency) in
  let active = warp.active in
  let regs = warp.regs in
  (match Array.unsafe_get code.Decode.ops pc with
  | ( Decode.Fadd | Decode.Iadd | Decode.Fsub | Decode.Isub | Decode.Fmul
    | Decode.Imul | Decode.Fdiv | Decode.Idiv | Decode.Imod | Decode.Cmp_lt
    | Decode.Cmp_le | Decode.Cmp_gt | Decode.Cmp_ge | Decode.Cmp_eq
    | Decode.Cmp_ne | Decode.Band | Decode.Bor ) as op ->
    exec_alu sm warp op ~d:(arg args at 0) ~a:(at + 1) ~b:(at + 2)
  | Decode.Mov ->
    let d = arg args at 0 in
    let va = operand_lanes warp code (at + 1) sm.x_opa
    and ab = operand_base warp code (at + 1) in
    if active = (1 lsl ws) - 1 then
      (* register slices are ws-aligned: source and destination are either
         the same slice or disjoint, and the lane table is another array,
         so a blit is safe *)
      Array.blit va ab regs d ws
    else
      for lane = 0 to ws - 1 do
        if active land (1 lsl lane) <> 0 then regs.%(d + lane) <- va.%(ab + lane)
      done
  | Decode.Neg ->
    let d = arg args at 0 in
    let va = operand_lanes warp code (at + 1) sm.x_opa
    and ab = operand_base warp code (at + 1) in
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then regs.%(d + lane) <- -.va.%(ab + lane)
    done
  | Decode.Not ->
    let d = arg args at 0 in
    let va = operand_lanes warp code (at + 1) sm.x_opa
    and ab = operand_base warp code (at + 1) in
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then
        regs.%(d + lane) <- (if va.%(ab + lane) = 0. then 1. else 0.)
    done
  | Decode.Trunc ->
    let d = arg args at 0 in
    let va = operand_lanes warp code (at + 1) sm.x_opa
    and ab = operand_base warp code (at + 1) in
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then
        regs.%(d + lane) <- float_of_int (int_of_float va.%(ab + lane))
    done
  | Decode.Sel ->
    let d = arg args at 0 and c = arg args at 1 in
    let va = operand_lanes warp code (at + 2) sm.x_opa
    and ab = operand_base warp code (at + 2) in
    let vb = operand_lanes warp code (at + 3) sm.x_opb
    and bb = operand_base warp code (at + 3) in
    for lane = 0 to ws - 1 do
      if active land (1 lsl lane) <> 0 then
        regs.%(d + lane) <-
          (if regs.%(c + lane) <> 0. then va.%(ab + lane) else vb.%(bb + lane))
    done
  | Decode.Call ->
    Minicuda.Builtins.eval_lanes
      (Decode.builtin (arg args at 3))
      ~regs ~ws ~mask:active ~dst:(arg args at 0) ~a:(arg args at 1) ~b:(arg args at 2);
    ready := sm.now + (2 * cfg.Config.alu_latency)
  | Decode.Ld_global ->
    if active <> 0 then
      ready := exec_global_load sm warp ~dbase:(arg args at 0) ~arr_id:(arg args at 1) ~ibase:(arg args at 2)
  | Decode.St_global ->
    if active <> 0 then begin
      exec_global_store sm warp ~arr_id:(arg args at 0) ~ibase:(arg args at 1)
        ~src:(at + 2);
      ready := sm.now + 1
    end
  | Decode.Ld_shared ->
    if active <> 0 then begin
      let d = arg args at 0 and arr_id = arg args at 1 and ibase = arg args at 2 in
      let arr = warp.tb.shared.(arr_id) in
      let len = Array.length arr in
      for lane = 0 to ws - 1 do
        if active land (1 lsl lane) <> 0 then begin
          let idx = int_of_float regs.%(ibase + lane) in
          check_bounds sm arr_id idx len;
          regs.%(d + lane) <- arr.%(idx)
        end
      done;
      ready := shared_ready sm
    end
  | Decode.St_shared ->
    if active <> 0 then begin
      let arr_id = arg args at 0 and ibase = arg args at 1 in
      let arr = warp.tb.shared.(arr_id) in
      let len = Array.length arr in
      let va = operand_lanes warp code (at + 2) sm.x_opa
      and sbase = operand_base warp code (at + 2) in
      for lane = 0 to ws - 1 do
        if active land (1 lsl lane) <> 0 then begin
          let idx = int_of_float regs.%(ibase + lane) in
          check_bounds sm arr_id idx len;
          arr.%(idx) <- va.%(sbase + lane)
        end
      done;
      ready := shared_ready sm
    end
  | Decode.Push_if ->
    let then_mask = lanes_true regs ~ws ~active ~cond:(arg args at 0) in
    let else_mask = active land lnot then_mask in
    push_frame warp ~kind:k_if ~outer:active ~pending_else:else_mask
      ~loop_pc:(innermost_loop warp);
    warp.active <- then_mask;
    if then_mask = 0 then next_pc := arg args at 1;
    ready := sm.now + 1
  | Decode.Else_mask ->
    if warp.depth = 0 then sim_error "else without matching push_if";
    let b = top warp in
    warp.active <- warp.stk.(b + o_else);
    warp.stk.(b + o_else) <- 0;
    if warp.active = 0 then next_pc := arg args at 0;
    ready := sm.now + 1
  | Decode.Pop_mask ->
    if warp.depth = 0 then sim_error "pop on empty mask stack";
    warp.active <- warp.stk.(top warp + o_outer) land lnot warp.exited;
    warp.depth <- warp.depth - 1;
    ready := sm.now + 1
  | Decode.Loop_begin ->
    if sm.policy.loop_enter warp then begin
      push_frame warp ~kind:k_loop ~outer:active ~pending_else:0 ~loop_pc:pc;
      ready := sm.now + 1
    end
    else begin
      (* the loop is at its predicted capacity: hold the warp at the
         entry and retry later (DAWS "stops the new warp") *)
      next_pc := pc;
      ready := sm.now + 16
    end
  | Decode.Break_if_false ->
    let stay = lanes_true regs ~ws ~active ~cond:(arg args at 0) in
    warp.active <- stay;
    if stay = 0 then next_pc := arg args at 1;
    ready := sm.now + 1
  | Decode.Jump ->
    if sm.policy.back_edge warp then begin
      next_pc := arg args at 0;
      ready := sm.now + 1
    end
    else begin
      (* descheduled at the back edge: the loop's learned divergence says
         too many warps are inside; retry when older warps have left *)
      next_pc := pc;
      ready := sm.now + 16
    end
  | Decode.Loop_end ->
    sm.policy.loop_exit warp;
    if warp.depth = 0 then sim_error "loop_end on empty mask stack";
    warp.active <- warp.stk.(top warp + o_outer) land lnot warp.exited;
    warp.depth <- warp.depth - 1;
    ready := sm.now + 1
  | Decode.Bar ->
    let tb = warp.tb in
    tb.arrived <- tb.arrived + 1;
    sm.pool_stale <- true;
    sm.job.stats.Stats.barriers <- sm.job.stats.Stats.barriers + 1;
    if tb.arrived >= tb.unfinished then
      (* the last to arrive releases the parked ones and goes on after
         its own latency *)
      release_barrier sm tb
    else begin
      ready := max_int;
      sm.parked <- sm.parked + 1
    end
  | Decode.Ret ->
    warp.exited <- warp.exited lor active;
    warp.active <- 0;
    clear_retiring warp active;
    ready := sm.now + 1
  | Decode.Brk ->
    clear_breaking warp.stk active (top warp);
    warp.active <- 0;
    ready := sm.now + 1
  | Decode.Cont ->
    park_continuing warp.stk active (top warp);
    warp.active <- 0;
    ready := sm.now + 1
  | Decode.Rejoin ->
    let b = top warp in
    if b < 0 || warp.stk.(b + o_kind) <> k_loop then
      sim_error "rejoin without an innermost loop frame";
    warp.active <- (warp.active lor warp.stk.(b + o_cont)) land lnot warp.exited;
    warp.stk.(b + o_cont) <- 0;
    ready := sm.now + 1
  | Decode.Exit -> exec_exit sm warp);
  if not warp.finished then begin
    warp.pc <- !next_pc;
    warp.ready_at <- imax !ready (sm.now + 1)
  end

(* ---------------------------------------------------------------- *)
(* Scheduling                                                        *)
(* ---------------------------------------------------------------- *)

let[@inline] issuable warp sm = warp.ready_at <= sm.now

(* barrier-drain rule shared by every scheduler-level throttle: a TB with a
   warp parked at a barrier keeps all its warps schedulable, or the barrier
   could never complete *)
let draining tb = tb.arrived > 0

let pool_add sm w =
  if sm.n_pool = Array.length sm.pool then begin
    let bigger = Array.make (2 * sm.n_pool) sm.dummy_warp in
    Array.blit sm.pool 0 bigger 0 sm.n_pool;
    sm.pool <- bigger
  end;
  sm.pool.(sm.n_pool) <- w;
  sm.n_pool <- sm.n_pool + 1;
  w.pool_stamp <- sm.pool_gen

(* The pool persists across picks and steps and is refilled, as a fresh
   generation in warp (age) order, only when an input of the filter has
   changed since the last fill.  On the SM side the filters read the
   resident warps and their order, each warp's [finished] flag and its
   thread block's barrier count ([draining]); those change only at a TB
   launch, a warp's exit and a barrier arrival, which set [pool_stale]
   (TB retirement and barrier release run only inside the last two).  On
   the policy side they read one decision each (DYNCTA's cap, CCWS's
   scores, CIAO's flagged set), which moves [version ()].  So a kept pool
   is always the one a fill would build now. *)
let refill_pool sm fill =
  let v = sm.policy.version () in
  if sm.pool_stale || v <> sm.pool_version then begin
    sm.pool_stale <- false;
    sm.pool_version <- v;
    sm.pool_gen <- sm.pool_gen + 1;
    sm.n_pool <- 0;
    fill sm
  end

(* [min a b] for ready cycles (non-negative, at most [max_int]) without a
   branch: the difference cannot overflow, and its sign bit (bit 62 of
   OCaml 5's 63-bit ints) selects it.
   A scan's minimum moves at data-dependent warps, and a branch there
   mispredicts often enough to cost 4% of a grid-static round. *)
let[@inline] min_int_nb (a : int) b =
  let d = a - b in
  b + (d land (d asr 62))

(* Both scan orders below exploit the same invariant: [sm.warps] (and
   therefore every pool filled from it) is strictly age-ordered — ages are
   assigned monotonically at launch and TB retirement compacts stably.
   The first issuable warp in array order IS the greedy-then-oldest pick,
   so the scan stops there instead of walking every resident warp. *)
let rec pool_scan sm (arr : warp array) n i =
  if i = n then sm.dummy_warp
  else
    let w = arr.(i) in
    if issuable w sm then w else pool_scan sm arr n (i + 1)

(* The scan of the resident warps (no pool filter) folds the ready cycles
   it passes into [m] and leaves what it learned behind:

   - the warps before the one it picks are all unready, with ready
     cycles of at least [m], one of them exactly [m]: while [m] is in
     the future none of them can issue, and none can change (a warp
     changes its own ready cycle only by issuing; the exceptions, a
     barrier release and a TB retirement, call [forget_skip]), so later
     picks and [next_event] start after them ([x_skip], [x_skip_min]);
     once [m] has come, the next pick scans from the oldest warp again
     and rewrites the record, and until then [next_event] knows a warp
     is ready;
   - when it picks nothing it has read every warp, and [m] is the SM's
     next event once the step ends ([x_next]). *)
let rec gto_scan sm (arr : warp array) n now i m =
  if i = n then begin
    sm.x_skip <- n;
    sm.x_skip_min <- m;
    sm.x_next <- m;
    sm.dummy_warp
  end
  else
    let w = Array.unsafe_get arr i in
    let r = w.ready_at in
    if r <= now then begin
      sm.x_skip <- i;
      sm.x_skip_min <- m;
      w
    end
    else gto_scan sm arr n now (i + 1) (min_int_nb r m)

(* Without a pool filter the pool is every resident warp, so the
   pick/next-event scans walk [sm.warps] directly and nothing is copied or
   stamped.  This is the common case: the baseline and all compiler-side
   schemes (CATT, fixed, bypass) run with no scheduler-level throttle.
   The dummy warp is never issuable, so it needs no test of its own. *)
let pick_gto sm =
  match sm.policy.pool_filter with
  | None ->
    let last = sm.last_issued in
    if issuable last sm then last
    else if sm.x_skip_min > sm.now then
      gto_scan sm sm.warps sm.n_warps sm.now sm.x_skip sm.x_skip_min
    else gto_scan sm sm.warps sm.n_warps sm.now 0 max_int
  | Some fill ->
    refill_pool sm fill;
    let last = sm.last_issued in
    if issuable last sm && last.pool_stamp = sm.pool_gen then last
    else pool_scan sm sm.pool sm.n_pool 0

let rec lrr_scan sm (arr : warp array) n i =
  if i = n then sm.dummy_warp
  else
    let w = arr.((sm.rr_cursor + i) mod n) in
    if issuable w sm then begin
      sm.rr_cursor <- (sm.rr_cursor + i + 1) mod n;
      w
    end
    else lrr_scan sm arr n (i + 1)

let pick_lrr sm =
  match sm.policy.pool_filter with
  | None -> if sm.n_warps = 0 then sm.dummy_warp else lrr_scan sm sm.warps sm.n_warps 0
  | Some fill ->
    refill_pool sm fill;
    if sm.n_pool = 0 then sm.dummy_warp else lrr_scan sm sm.pool sm.n_pool 0

(** The picked warp, or the SM's dummy sentinel when nothing can issue. *)
let pick_warp sm =
  match sm.job.sched with Gto -> pick_gto sm | Lrr -> pick_lrr sm

(* Minimum ready time over the warps, with an early exit: the result is
   clamped up to [sm.now] by {!next_event}, so once any warp is ready at
   or before [sm.now] nothing later in the scan can change the clamped
   answer.  Finished and parked warps read [max_int]. *)
let rec min_ready (arr : warp array) n now i acc =
  if i = n || acc <= now then acc
  else
    let r = (Array.unsafe_get arr i).ready_at in
    min_ready arr n now (i + 1) (min_int_nb r acc)

(** Earliest cycle at which some warp could issue, clamped up to
    [sm.now] (a warp whose latency expired while the SM was busy issues
    now, not in the past); [max_int] when every resident warp is finished
    or parked at a barrier. *)
let next_event sm =
  let m =
    match sm.policy.pool_filter with
    | None ->
      (* a failed pick in the last step read every warp after its last
         instruction; only a TB launch (which resets [x_next]) changes a
         ready cycle between that scan and here *)
      let m = sm.x_next in
      if m >= 0 then begin
        sm.x_next <- -1;
        m
      end
      else if sm.x_skip_min > sm.now then
        min_ready sm.warps sm.n_warps sm.now sm.x_skip sm.x_skip_min
      else
        (* the skipped warp with the earliest ready cycle is still
           there, unchanged, and ready by now *)
        sm.x_skip_min
    | Some fill ->
      (* only the pool's warps are events: a warp outside it cannot issue
         until a refill admits it.  Every filter keeps a warp that can
         progress while any is live (DYNCTA whole TBs, CCWS its top-ranked
         warp, SWL the oldest, CIAO everyone as a fallback), and CCWS,
         SWL and CIAO keep a draining TB whole, so a barrier in the pool
         can complete. *)
      refill_pool sm fill;
      min_ready sm.pool sm.n_pool sm.now 0 max_int
  in
  if m = max_int then max_int else imax m sm.now

let has_warps sm = sm.n_warps > 0

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
  if sm.parked > 0 then begin
    Profile.Collector.add_idle p ~sm:sm.id ~kind:Profile.Stall.Barrier_wait
      ~cycles:gap;
    Profile.Collector.record_gap_interval p ~sm:sm.id
      ~kind:Profile.Stall.Barrier_wait ~start:now ~stop:until
  end
  else begin
    let earliest = ref max_int in
    for i = 0 to sm.n_warps - 1 do
      let r = sm.warps.(i).ready_at in
      if r < !earliest then earliest := r
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
      if parked w then
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
      sm.policy.issue ();
      issue_up_to sm width (issued + 1)
    end

(** Advance this SM to cycle [t] and issue there: up to [issue_width]
    instructions from distinct ready warps (each issue makes the warp
    unready for at least a cycle, so distinctness is automatic). *)
(* The next-event query is hoisted out: the device event loop already
   computed (and cached) this SM's next event time to pick which SM to
   step, so recomputing it here would double the scheduler-scan cost of
   every step.  [t] must be the current [next_event sm] result (possibly
   clamped up to [sm.now]; values at or below [sm.now] mean "issue now"
   either way) and must not be [max_int]. *)
let step_at sm ~t =
  begin
    if t > sm.now then begin
      (* attribute the forwarded idle gap: barrier wait if any resident
         warp is parked at a barrier, memory-latency exposure otherwise *)
      let gap = t - sm.now in
      if sm.parked > 0 then
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
    sm.policy.step sm;
    if issued = 0 then
      sim_error "scheduler found no warp despite pending event";
    (match sm.job.prof with
    | Some p ->
      Profile.Collector.add_issue_cycle p ~sm:sm.id;
      Profile.Collector.record_issue_interval p ~sm:sm.id ~now:sm.now
    | None -> ());
    sm.now <- sm.now + 1
  end

(* ---------------------------------------------------------------- *)
(* Runtime policies                                                  *)
(* ---------------------------------------------------------------- *)

(* DYNCTA pool: the warps of the first [cap] distinct TBs in age order.
   TB granularity keeps barriers inside a scheduled TB drainable (capping
   individual warps could park a TB at a barrier forever). *)
let dyncta_pool d sm =
  let cap = Dynamic_throttle.cap d in
  let seen = ref 0 in
  for i = 0 to sm.n_warps - 1 do
    let w = sm.warps.(i) in
    (* membership first, even with the cap full: a TB already counted
       keeps all its warps schedulable; the stamp makes the check O(1) *)
    if w.tb.seen_stamp = sm.pool_gen then pool_add sm w
    else if !seen < cap then begin
      w.tb.seen_stamp <- sm.pool_gen;
      incr seen;
      pool_add sm w
    end
  done

(** DYNCTA-like run-time TB-cap controller. *)
let dyncta d =
  {
    no_policy with
    issue = (fun () -> Dynamic_throttle.on_issue d);
    step =
      (fun sm -> Dynamic_throttle.on_cycle d ~now:sm.now ~max_cap:sm.resident_tbs);
    pool_filter = Some (dyncta_pool d);
    version = (fun () -> Dynamic_throttle.cap d);
  }

(* CCWS pool: rank the live warps, pushed oldest first so equal scores
   keep age order; each admitted warp is marked with this fill's pool
   stamp (no warp carries the fresh generation yet), then the pool is
   filled in age order *)
let ccws_pool c sm =
  Ccws.rank_clear c;
  for i = 0 to sm.n_warps - 1 do
    let w = sm.warps.(i) in
    if not w.finished then Ccws.rank_push c ~slot:w.slot ~id:i
  done;
  for j = 0 to Ccws.rank c - 1 do
    sm.warps.(Ccws.ranked c j).pool_stamp <- sm.pool_gen
  done;
  for i = 0 to sm.n_warps - 1 do
    let w = sm.warps.(i) in
    if w.pool_stamp = sm.pool_gen || draining w.tb then pool_add sm w
  done

(** CCWS-like lost-locality warp scheduler.  Each warp holds a CCWS slot
    from launch until its TB retires. *)
let ccws c =
  {
    no_policy with
    launch_warp = (fun () -> Ccws.acquire c);
    retire_warp = (fun w -> Ccws.release c w.slot);
    miss = (fun w line -> ignore (Ccws.on_miss c ~slot:w.slot ~line));
    step = (fun _ -> Ccws.tick c);
    pool_filter = Some (ccws_pool c);
    version = (fun () -> Ccws.version c);
  }

(** DAWS-like proactive footprint predictor.  A warp's loop is its
    innermost loop frame, pushed only once the loop admitted it; outside
    any loop ([-1]) every [Daws] hook is a no-op that allows. *)
let daws d =
  {
    no_policy with
    mem_instr =
      (fun w requests -> Daws.on_mem_instr d ~loop_pc:(innermost_loop w) ~requests);
    loop_enter = (fun w -> Daws.try_enter d ~loop_pc:w.pc ~age:w.age);
    back_edge = (fun w -> Daws.may_continue d ~loop_pc:(innermost_loop w) ~age:w.age);
    loop_exit = (fun w -> Daws.on_loop_exit d ~loop_pc:(innermost_loop w) ~age:w.age);
  }

(* SWL pool: the oldest [limit] live warps, in age order *)
let swl_pool limit sm =
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

(** Static warp limit (the Best-SWL baseline): schedulable warps per SM,
    fixed for the whole launch. *)
let swl limit = { no_policy with pool_filter = Some (swl_pool limit) }

(* CIAO pool, the throttle fallback: flagged warps leave the pool (the
   drain rule still overrides).  If exclusion would park every live warp
   — e.g. a single flagged warp is all that remains — admit everyone
   rather than deadlock the SM. *)
let ciao_pool ci sm =
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

(** CIAO interference monitor over [l1]: flagged warps' loads bypass the
    L1D (or, under NoC/DRAM pressure, leave the scheduler pool).  A fill
    credits the filler with the line it evicts, read from the probe's miss
    result. *)
let ciao ci l1 =
  {
    no_policy with
    retire_warp = (fun w -> Interference.retire ci ~warp_id:w.age);
    load = (fun w line -> Interference.on_access ci ~warp_id:w.age ~line);
    fill =
      (fun w miss ->
        let victim = Cache.victim l1 miss in
        if victim <> -1 then
          Interference.on_evict ci ~filler:w.age ~victim_line:victim);
    pool_filter = Some (ciao_pool ci);
    version = (fun () -> Interference.version ci);
  }

(** ATA-Cache: a missing line earns data storage only on proven reuse
    ({!Ata.admit}); promotions count in [stats]. *)
let ata (stats : Stats.t) a =
  {
    no_policy with
    admit =
      (fun line miss ->
        match Ata.admit a ~line ~miss with
        | Ata.Fill -> true
        | Ata.Promote ->
          stats.Stats.ata_tag_hits <- stats.Stats.ata_tag_hits + 1;
          stats.Stats.ata_promotions <- stats.Stats.ata_promotions + 1;
          true
        | Ata.Defer -> false);
  }
