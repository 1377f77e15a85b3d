(* CIAO-style interference monitor (Li et al., PAPERS.md): identify the
   warps whose L1D fills keep evicting *other* warps' lines, and redirect
   their global loads around the cache — or, when bypassing itself
   saturates the NoC/DRAM path, exclude them from the scheduler pool
   instead.  One instance per SM, driven from the load path:

   - [on_access] is called once per L1D load transaction and returns
     whether this access must bypass the L1D by policy;
   - [on_evict] is called when a fill displaces a valid line, with the
     filling warp and the victim line;
   - [retire] is called when a warp's thread block completes.

   Attribution uses a small direct-mapped line-owner table (last warp to
   touch each line); a fill whose victim is owned by a different warp
   bumps the filler's interference score.  Nothing is selected during the
   warm-up interval, so short or single-warp launches never bypass at
   all (the scheme-semantics property tests rely on this).  Selection is
   re-evaluated every [epoch] accesses: the top [top_k] warps whose score
   clears [threshold] are flagged, scores are halved (stale interference
   ages out), and the mode flips to throttling when more than [pressure]
   of the previous epoch's accesses were bypassed — the CIAO fallback for
   when bypassing only moves the contention down a level.

   A retired warp's score can only fall, so its entry is dropped once it
   can never be flagged again: at retirement when the score is already
   below [threshold], else at the epoch walk that halves it below.  The
   table then holds the live warps plus a few retired ones, instead of
   every warp the SM has run. *)

type mode = Bypass_mode | Throttle_mode

type entry = { mutable score : int; mutable retired : bool }

type t = {
  warmup : int;  (* accesses before the first selection *)
  epoch : int;  (* accesses between re-evaluations *)
  threshold : int;  (* minimum score to be flagged *)
  pressure : float;  (* bypassed fraction that flips to throttling *)
  owners : int array;  (* direct-mapped: owning warp age, -1 = empty *)
  owner_lines : int array;  (* the line each owner slot describes *)
  scores : (int, entry) Hashtbl.t;  (* warp age -> interference score *)
  mutable accesses : int;
  mutable epoch_accesses : int;
  mutable epoch_bypassed : int;
  mutable mode : mode;
  flagged : int array;
      (* top_k slots: selected warp ages in rank order, [n_flagged] live *)
  flagged_score : int array;  (* their scores, for the selection *)
  mutable n_flagged : int;
  mutable version : int;  (* re-evaluations so far *)
}

let create ?(warmup = 512) ?(epoch = 2048) ?(top_k = 2) ?(threshold = 8)
    ?(pressure = 0.5) ?(owner_entries = 4096) () =
  if warmup < 1 then invalid_arg "Interference.create: warmup must be >= 1";
  if epoch < 1 then invalid_arg "Interference.create: epoch must be >= 1";
  {
    warmup;
    epoch;
    threshold = max 1 threshold;
    pressure;
    owners = Array.make (max 1 owner_entries) (-1);
    owner_lines = Array.make (max 1 owner_entries) (-1);
    scores = Hashtbl.create 64;
    accesses = 0;
    epoch_accesses = 0;
    epoch_bypassed = 0;
    mode = Bypass_mode;
    flagged = Array.make (max 0 top_k) 0;
    flagged_score = Array.make (max 0 top_k) 0;
    n_flagged = 0;
    version = 0;
  }

let mode t = t.mode

let flagged t = Array.to_list (Array.sub t.flagged 0 t.n_flagged)

let score t ~warp_id =
  match Hashtbl.find_opt t.scores warp_id with Some e -> e.score | None -> 0

let entries t = Hashtbl.length t.scores

(* flagged is tiny (top_k entries): a linear scan beats any set here.
   Top-level with explicit arguments — a local scan over [t] and
   [warp_id] would be a closure allocated per access. *)
let rec flagged_from (flagged : int array) n warp_id i =
  i < n && (flagged.(i) = warp_id || flagged_from flagged n warp_id (i + 1))

let is_flagged t warp_id = flagged_from t.flagged t.n_flagged warp_id 0

let on_evict t ~filler ~victim_line =
  let slot = victim_line mod Array.length t.owners in
  if t.owner_lines.(slot) = victim_line then begin
    let owner = t.owners.(slot) in
    if owner >= 0 && owner <> filler then begin
      (* [find] raising on a new filler, not [find_opt]: no [Some] per
         bump *)
      match Hashtbl.find t.scores filler with
      | e -> e.score <- e.score + 1
      | exception Not_found ->
        Hashtbl.add t.scores filler { score = 1; retired = false }
    end
  end

let retire t ~warp_id =
  match Hashtbl.find t.scores warp_id with
  | e ->
    if e.score < t.threshold then Hashtbl.remove t.scores warp_id
    else e.retired <- true
  | exception Not_found -> ()

(* Offer one scored warp to the top-[top_k] selection, kept in
   (score desc, age asc) order — a total order, so the result is the
   prefix a full sort would give whatever order the table is walked in. *)
let consider t w s =
  if s >= t.threshold then begin
    let k = Array.length t.flagged in
    let n = t.n_flagged in
    let p = ref 0 in
    while
      !p < n
      && (t.flagged_score.(!p) > s
         || (t.flagged_score.(!p) = s && t.flagged.(!p) < w))
    do
      incr p
    done;
    if !p < k then begin
      let last = if n < k then n else k - 1 in
      for i = last downto !p + 1 do
        t.flagged.(i) <- t.flagged.(i - 1);
        t.flagged_score.(i) <- t.flagged_score.(i - 1)
      done;
      t.flagged.(!p) <- w;
      t.flagged_score.(!p) <- s;
      if n < k then t.n_flagged <- n + 1
    end
  end

let reevaluate t =
  (* one walk per epoch: each warp's score is offered to the selection of
     the top_k warps by (score desc, age asc), score >= threshold, then
     halved (decay, so sustained interference dominates); a retired
     warp halved below the threshold is dropped after the walk *)
  t.version <- t.version + 1;
  t.n_flagged <- 0;
  let dead = ref [] in
  Hashtbl.iter
    (fun w e ->
      consider t w e.score;
      e.score <- e.score / 2;
      if e.retired && e.score < t.threshold then dead := w :: !dead)
    t.scores;
  List.iter (Hashtbl.remove t.scores) !dead;
  (* bypassing that covers most of the traffic is just contention moved
     to the NoC/DRAM: fall back to throttling the same warps *)
  t.mode <-
    (if
       t.epoch_accesses > 0
       && float_of_int t.epoch_bypassed /. float_of_int t.epoch_accesses
          > t.pressure
     then Throttle_mode
     else Bypass_mode);
  t.epoch_accesses <- 0;
  t.epoch_bypassed <- 0

let on_access t ~warp_id ~line =
  t.accesses <- t.accesses + 1;
  if t.accesses >= t.warmup && (t.accesses - t.warmup) mod t.epoch = 0 then
    reevaluate t;
  t.epoch_accesses <- t.epoch_accesses + 1;
  if t.mode = Bypass_mode && is_flagged t warp_id then begin
    t.epoch_bypassed <- t.epoch_bypassed + 1;
    true
  end
  else begin
    (* the access goes through the L1D: this warp now owns the line *)
    let slot = line mod Array.length t.owners in
    t.owners.(slot) <- warp_id;
    t.owner_lines.(slot) <- line;
    false
  end

let throttle_excluded t ~warp_id =
  t.mode = Throttle_mode && is_flagged t warp_id

let version t = t.version
