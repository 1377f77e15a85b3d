(** Cache-conscious wavefront scheduling (Rogers et al., MICRO-45), the
    dynamic warp-granular baseline the paper compares against in
    Section 2.2 — simplified to what the comparison needs.

    Each warp owns a small direct-mapped victim tag array (VTA) of line
    tags it recently missed on.  A warp re-missing a line still present in
    its VTA has {e lost intra-warp locality} (the line was evicted between
    its own uses), so its lost-locality score (LLS) jumps; scores decay
    back toward the base over time.  At schedule time, warps are stacked
    by descending score under a fixed cutoff of
    [base_score * max_warps]: warps whose cumulative height exceeds the
    cutoff are de-scheduled.  High-score warps keep priority — CCWS's key
    inversion: the thrashing warp is allowed to finish its reuse while the
    TLP around it shrinks.

    Layout: per-warp state lives in dense slots (a warp takes one at
    launch and returns it when its TB retires), so scores are one unboxed
    [float array] and the VTAs one flat [int array].  The ranking sorts
    candidate positions in place and hands back only ints — a float
    returned across a module boundary is boxed in [-opaque] builds, and
    this runs on every scheduling step. *)

type t = {
  vta_entries : int;
  base_score : float;
  gain : float;  (** score added on a detected locality loss *)
  decay : float;  (** multiplicative per-update pull toward base *)
  cutoff : float;
  score : float array;  (* per slot; free slots hold the base *)
  vta : int array;  (* slot-major, direct-mapped, -1 = empty *)
  free : int array;  (* stack of free slots *)
  mutable n_free : int;
  mutable n_raised : int;
      (* at least the number of slots above the base score (exact unless
         a negative gain pulls one below it): [tick] skips its walk at 0 *)
  mutable version : int;  (* bumped whenever [on_miss] or [tick] moves a score *)
  cand_slot : int array;  (* ranking scratch, in push order *)
  cand_id : int array;
  mutable n_cand : int;
  mutable cand_off_base : bool;  (* some candidate's score is not the base *)
  order : int array;  (* candidate positions, rank order *)
}

let create ?(vta_entries = 16) ?(gain = 32.) ?(decay = 0.999) ~max_warps () =
  if max_warps <= 0 then invalid_arg "Ccws.create: max_warps must be positive";
  if vta_entries <= 0 then invalid_arg "Ccws.create: vta_entries must be positive";
  let base_score = 1. in
  {
    vta_entries;
    base_score;
    gain;
    decay;
    cutoff = base_score *. float_of_int max_warps;
    score = Array.make max_warps base_score;
    vta = Array.make (max_warps * vta_entries) (-1);
    (* slot 0 on top: slots are handed out lowest first *)
    free = Array.init max_warps (fun i -> max_warps - 1 - i);
    n_free = max_warps;
    n_raised = 0;
    version = 0;
    cand_slot = Array.make max_warps 0;
    cand_id = Array.make max_warps 0;
    n_cand = 0;
    cand_off_base = false;
    order = Array.make max_warps 0;
  }

(** A fresh slot for a launching warp: base score, empty VTA.  An SM
    never holds more than [max_warps] warps, so the stack cannot run
    dry there. *)
let acquire t =
  if t.n_free = 0 then invalid_arg "Ccws.acquire: more than max_warps live warps";
  t.n_free <- t.n_free - 1;
  t.free.(t.n_free)

(** Return a retired warp's slot, reset for its next owner. *)
let release t slot =
  if t.score.(slot) > t.base_score then t.n_raised <- t.n_raised - 1;
  t.score.(slot) <- t.base_score;
  Array.fill t.vta (slot * t.vta_entries) t.vta_entries (-1);
  t.free.(t.n_free) <- slot;
  t.n_free <- t.n_free + 1

(** Report an L1D miss by the warp in [slot] on [line].  Returns [true]
    when the miss was a detected locality loss (useful for stats/tests). *)
let on_miss t ~slot ~line =
  let ve = t.vta_entries in
  let i = (slot * ve) + (((line mod ve) + ve) mod ve) in
  let lost = t.vta.(i) = line in
  if lost then begin
    let s = t.score.(slot) in
    let s' = s +. t.gain in
    if s <= t.base_score && s' > t.base_score then t.n_raised <- t.n_raised + 1;
    t.score.(slot) <- s';
    t.version <- t.version + 1
  end;
  t.vta.(i) <- line;
  lost

(** Decay every raised score toward the base; call once per scheduling
    step.  [if base >= x then base else x] is [Stdlib.max base x] on
    floats, without the polymorphic compare. *)
let tick t =
  if t.n_raised > 0 then begin
    t.version <- t.version + 1;
    let base = t.base_score and decay = t.decay in
    let score = t.score in
    for i = 0 to Array.length score - 1 do
      let s = score.(i) in
      if s > base then begin
        let x = s *. decay in
        if base >= x then begin
          score.(i) <- base;
          t.n_raised <- t.n_raised - 1
        end
        else score.(i) <- x
      end
    done
  end

let score t ~slot = t.score.(slot)

let version t = t.version

(* --- ranking ----------------------------------------------------------- *)

let rank_clear t =
  t.n_cand <- 0;
  t.cand_off_base <- false

(** Add a candidate warp (at most [max_warps] per ranking): its slot and
    an id handed back by {!ranked}.  Candidates must be pushed oldest
    first — equal scores keep push order. *)
let rank_push t ~slot ~id =
  let n = t.n_cand in
  t.cand_slot.(n) <- slot;
  t.cand_id.(n) <- id;
  if t.score.(slot) <> t.base_score then t.cand_off_base <- true;
  t.n_cand <- n + 1

(** Rank the pushed candidates by descending score (stable: ties keep
    push order) and admit them while the cumulative score fits the
    cutoff; the top-ranked candidate is always admitted.  Returns the
    number admitted; {!ranked} reads them back in rank order.  While every
    candidate sits at the base score the rank is the push order and no
    sort runs. *)
let rank t =
  let n = t.n_cand in
  let order = t.order in
  for i = 0 to n - 1 do
    order.(i) <- i
  done;
  if t.cand_off_base then begin
    (* insertion sort over positions: stable, in place, and n is the
       resident warp count of one SM *)
    let score = t.score and cand = t.cand_slot in
    for i = 1 to n - 1 do
      let p = order.(i) in
      let s = score.(cand.(p)) in
      let j = ref i in
      while !j > 0 && score.(cand.(order.(!j - 1))) < s do
        order.(!j) <- order.(!j - 1);
        decr j
      done;
      order.(!j) <- p
    done
  end;
  let height = ref 0. and admitted = ref 0 and stop = ref false in
  while (not !stop) && !admitted < n do
    let s = t.score.(t.cand_slot.(order.(!admitted))) in
    if !admitted = 0 || !height +. s <= t.cutoff then begin
      height := !height +. s;
      incr admitted
    end
    else stop := true
  done;
  !admitted

(** The id of the [i]-th admitted candidate of the last {!rank}. *)
let ranked t i = t.cand_id.(t.order.(i))
