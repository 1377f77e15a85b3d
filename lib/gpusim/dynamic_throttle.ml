(** Run-time thread throttling — the class of schemes the paper argues
    against (CCWS/DYNCTA, Section 2.2): a hardware monitor adjusts the
    number of schedulable warps per SM by feedback, paying detection lag
    and coarse decisions where CATT decides statically per loop.

    This is an epoch-based hill climber on per-SM IPC, in the spirit of
    DYNCTA's "neither more nor less" controller: each epoch it moves the
    thread-block cap (the scheduler draws warps from the first [cap]
    resident TBs) in the current direction and reverses when IPC drops.
    It is used by the ablation benches to reproduce the paper's
    static-vs-dynamic comparison. *)

type t = {
  epoch_cycles : int;
  min_cap : int;
  mutable cap : int;
  mutable direction : int;  (* +1 growing, -1 shrinking *)
  mutable epoch_start : int;
  mutable instrs_this_epoch : int;
  mutable last_ipc : float;
}

let create ?(epoch_cycles = 2000) ~init_cap () =
  {
    epoch_cycles;
    min_cap = 1;
    cap = init_cap;
    direction = -1;  (* first probe: try throttling down *)
    epoch_start = 0;
    instrs_this_epoch = 0;
    last_ipc = -1.;
  }

let cap t = t.cap

let on_issue t = t.instrs_this_epoch <- t.instrs_this_epoch + 1

(* called once per SM scheduling step; adjusts the cap on epoch edges *)
let on_cycle t ~now ~max_cap =
  if now - t.epoch_start >= t.epoch_cycles then begin
    let elapsed = max 1 (now - t.epoch_start) in
    let ipc = float_of_int t.instrs_this_epoch /. float_of_int elapsed in
    if t.last_ipc >= 0. && ipc < t.last_ipc then
      (* the last move hurt: go back the other way *)
      t.direction <- -t.direction;
    let proposed =
      if t.direction > 0 then min max_cap (t.cap + 1) else max t.min_cap (t.cap - 1)
    in
    t.cap <- proposed;
    t.last_ipc <- ipc;
    t.epoch_start <- now;
    t.instrs_this_epoch <- 0
  end
