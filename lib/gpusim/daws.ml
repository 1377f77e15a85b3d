(** Divergence-aware warp scheduling (Rogers et al., MICRO-46) — the
    {e proactive} dynamic baseline of the paper's Section 2.2, simplified.

    Where CCWS reacts to lost locality, DAWS predicts: each loop's memory
    divergence is profiled from the warps running it (EWMA of cache lines
    per off-chip instruction), giving a per-warp footprint prediction
    [ewma * mem_instrs].  The loop then admits at most
    [target = max 1 (l1_lines / prediction)] warps: newcomers wait at the
    loop entry, and — because the profile is only learned {e after} the
    first iterations — warps already inside are re-checked at every back
    edge and stall there when their age-rank exceeds the target
    (the descheduling side of DAWS).  The oldest warp inside always runs,
    so progress is guaranteed and the simulation stays deterministic. *)

type loop_state = {
  mem_instrs : int;
  mutable total_requests : int;
  mutable samples : int;
  mutable inside : int array;  (* warp ages, ascending = admission rank *)
  mutable n_inside : int;
}

type t = {
  l1_lines : int;
  loops : loop_state array;  (* indexed by loop begin pc; [unprofiled] else *)
  mutable blocks : int;  (* stat: denied entries / back-edge stalls *)
}

(* shared sentinel for every pc that begins no profiled loop: a lookup
   returns it instead of an option, so the per-instruction hooks allocate
   nothing.  Never mutated — every hook checks for it first. *)
let unprofiled =
  { mem_instrs = 0; total_requests = 0; samples = 0; inside = [||]; n_inside = 0 }

let create ~l1_lines ~extents =
  let size = List.fold_left (fun m (pc, _, _) -> max m (pc + 1)) 0 extents in
  let loops = Array.make size unprofiled in
  List.iter
    (fun (begin_pc, _end_pc, mem_instrs) ->
      loops.(begin_pc) <-
        { mem_instrs; total_requests = 0; samples = 0; inside = Array.make 8 0;
          n_inside = 0 })
    extents;
  { l1_lines; loops; blocks = 0 }

let state t loop_pc =
  if loop_pc >= 0 && loop_pc < Array.length t.loops then t.loops.(loop_pc)
  else unprofiled

let[@inline] imax (a : int) b = if a > b then a else b

(* cumulative mean rather than an EWMA: under GTO the warps phase-lock at
   the long-latency divergent load, so an instantaneous average is always
   sampled in the coalesced phase at back edges and never sees the
   divergence.  [if 1. >= p then 1. else p] is [Stdlib.max 1. p] without
   the polymorphic compare (which boxes both floats). *)
let[@inline] prediction_per_warp s =
  let lines_per_instr =
    if s.samples = 0 then 1.
    else float_of_int s.total_requests /. float_of_int s.samples
  in
  let p = lines_per_instr *. float_of_int (imax 1 s.mem_instrs) in
  if 1. >= p then 1. else p

let prediction_per_warp_lines t ~loop_pc =
  let s = state t loop_pc in
  if s == unprofiled then 0. else prediction_per_warp s

let target t s =
  imax 1 (int_of_float (float_of_int t.l1_lines /. prediction_per_warp s))

(* admission rank of [age] among the warps inside, or -1 *)
let rec rank_of (inside : int array) n age i =
  if i = n then -1 else if inside.(i) = age then i else rank_of inside n age (i + 1)

(** Admission at the loop entry.  [true] registers the warp inside. *)
let try_enter t ~loop_pc ~age =
  let s = state t loop_pc in
  if s == unprofiled then true  (* not a profiled loop (no off-chip accesses) *)
  else if rank_of s.inside s.n_inside age 0 >= 0 then
    true  (* re-entry of an outer iteration *)
  else if s.n_inside < target t s then begin
    let n = s.n_inside in
    if n = Array.length s.inside then begin
      let bigger = Array.make (2 * n) 0 in
      Array.blit s.inside 0 bigger 0 n;
      s.inside <- bigger
    end;
    (* insert keeping ages ascending *)
    let i = ref n in
    while !i > 0 && s.inside.(!i - 1) > age do
      s.inside.(!i) <- s.inside.(!i - 1);
      decr i
    done;
    s.inside.(!i) <- age;
    s.n_inside <- n + 1;
    true
  end
  else begin
    t.blocks <- t.blocks + 1;
    false
  end

(** Back-edge check: may the registered warp start another iteration?
    The oldest warp inside always may. *)
let may_continue t ~loop_pc ~age =
  let s = state t loop_pc in
  if s == unprofiled then true
  else begin
    (* an unregistered warp (shouldn't happen) ranks first: allowed *)
    let ok = imax 0 (rank_of s.inside s.n_inside age 0) < target t s in
    if not ok then t.blocks <- t.blocks + 1;
    ok
  end

let on_loop_exit t ~loop_pc ~age =
  let s = state t loop_pc in
  if s != unprofiled then begin
    let kept = ref 0 in
    for i = 0 to s.n_inside - 1 do
      let a = s.inside.(i) in
      if a <> age then begin
        s.inside.(!kept) <- a;
        incr kept
      end
    done;
    s.n_inside <- !kept
  end

(** Sample an executed off-chip instruction inside the loop at [loop_pc]:
    it produced [requests] lines after coalescing. *)
let on_mem_instr t ~loop_pc ~requests =
  let s = state t loop_pc in
  if s != unprofiled then begin
    s.samples <- s.samples + 1;
    s.total_requests <- s.total_requests + requests
  end

let blocks t = t.blocks


