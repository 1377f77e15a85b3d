type t = {
  num_sets : int;
  sets_shift : int;
      (* log2 num_sets when num_sets is a power of two, else -1: lets the
         XOR-fold below run on shifts and masks instead of four integer
         divisions *)
  div_magic : int;
  div_shift : int;
      (* otherwise: [x / num_sets] is [(x * div_magic) lsr div_shift] for
         0 <= x < 2^30 (Granlund and Montgomery's invariant division), a
         multiply where the fold would pay an integer division *)
  assoc : int;
  tags : int array;  (* set-major, -1 = invalid *)
  data_ready : int array;  (* cycle the line's data arrives *)
  last_use : int array;  (* LRU stamps *)
  mutable tick : int;
  mshr : int array;
      (* the MSHR file: outstanding fill completion times, ascending in
         [head, tail).  A miss occupies an entry from issue until its data
         arrives; eviction of an in-flight line does not free the entry
         early (hardware MSHRs drain on fill, not on eviction). *)
  mutable head : int;
  mutable tail : int;
}

let rec log2_ceil n = if n <= 1 then 0 else 1 + log2_ceil ((n + 1) / 2)

let create ~bytes ~assoc ~line_bytes ~mshrs () =
  if assoc <= 0 then invalid_arg "Cache.create: assoc must be positive";
  if line_bytes <= 0 then invalid_arg "Cache.create: line_bytes must be positive";
  let num_sets = max 1 (bytes / (assoc * line_bytes)) in
  let ways = num_sets * assoc in
  let ceil_log2 = log2_ceil num_sets in
  {
    num_sets;
    sets_shift = (if num_sets land (num_sets - 1) = 0 then ceil_log2 else -1);
    div_magic = (1 lsl (30 + ceil_log2)) / num_sets + 1;
    div_shift = 30 + ceil_log2;
    assoc;
    tags = Array.make ways (-1);
    data_ready = Array.make ways 0;
    last_use = Array.make ways 0;
    tick = 0;
    mshr = Array.make (max 1 mshrs) 0;
    head = 0;
    tail = 0;
  }

let sets t = t.num_sets

let[@inline] div_sets t x = (x * t.div_magic) lsr t.div_shift

(* XOR-folded set hashing, as GPU L1s use: without it, the power-of-two
   row strides of dense-matrix kernels alias a warp's 32 divergent lines
   into a couple of sets and conflict-thrash even when the working set is
   far below capacity, defeating any capacity-based reasoning. *)
let set_of_general t line =
  let n = t.num_sets in
  if line >= 0 && line < 1 lsl 30 then
    let q = div_sets t line in
    (* non-negative and below 2^30, as are its quotients *)
    let folded = line lxor q lxor div_sets t q in
    folded - (n * div_sets t folded)
  else
    let q = line / n in
    let folded = line lxor q lxor (q / n) in
    (folded mod n + n) mod n

let[@inline] set_of t line =
  if t.sets_shift >= 0 && line >= 0 then
    (* same fold, on shifts: for non-negative [line] and power-of-two set
       counts, [lsr]/[land] compute exactly what the divisions do *)
    let n = t.sets_shift in
    (line lxor (line lsr n) lxor (line lsr (2 * n))) land (t.num_sets - 1)
  else set_of_general t line

let set_index t line = set_of t line

(* Set walks are top-level functions with every input an argument: a
   local [let rec] that reads [t], [line] or [base] from its scope is a
   closure, allocated on every probe. *)

(* the way in [i, stop) tagged [line], or -1 *)
let rec find (tags : int array) line i stop =
  if i = stop then -1
  else if Array.unsafe_get tags i = line then i
  else find tags line (i + 1) stop

(* the victim in [i, stop): the first invalid way, else the first least
   recently used one ([lru] so far) *)
let rec victim_way (tags : int array) (stamps : int array) i stop lru =
  if i = stop then lru
  else if Array.unsafe_get tags i = -1 then i
  else
    victim_way tags stamps (i + 1) stop
      (if Array.unsafe_get stamps i < Array.unsafe_get stamps lru then i else lru)

let[@inline] touch t slot =
  t.tick <- t.tick + 1;
  Array.unsafe_set t.last_use slot t.tick

(* A hit packs (arrival, pending) into one non-negative immediate int; a
   miss is [lnot] the slot its fill will take: no tuple, no closure,
   nothing allocated per transaction.  Tags only until the miss is
   certain, then one walk for the victim. *)
let probe t ~now ~line =
  let base = set_of t line * t.assoc in
  let stop = base + t.assoc in
  let slot = find t.tags line base stop in
  if slot >= 0 then begin
    touch t slot;
    let arrival = Array.unsafe_get t.data_ready slot in
    if arrival > now then (arrival lsl 1) lor 1 else now lsl 1
  end
  else lnot (victim_way t.tags t.last_use base stop base)

let probe_arrival r = r lsr 1
let probe_pending r = r land 1 <> 0
let victim t r = t.tags.(lnot r)
let miss_set t r = lnot r / t.assoc

(* the first index in [i, stop) whose fill time is after [now] *)
let rec retire (mshr : int array) i stop now =
  if i < stop && Array.unsafe_get mshr i <= now then retire mshr (i + 1) stop now
  else i

let drain_until t now =
  let head = retire t.mshr t.head t.tail now in
  if head = t.tail then begin
    t.head <- 0;
    t.tail <- 0
  end
  else t.head <- head

let miss_issue t ~now =
  drain_until t now;
  (* structural hazard: a full MSHR file delays the issue until its
     earliest fill lands, which is after [now] once drained *)
  if t.tail - t.head = Array.length t.mshr then begin
    let wake = t.mshr.(t.head) in
    drain_until t wake;
    wake
  end
  else now

(* shift the entries after [ready] up one slot; where [ready] goes *)
let rec make_room (mshr : int array) head i ready =
  if i > head && Array.unsafe_get mshr (i - 1) > ready then begin
    Array.unsafe_set mshr i (Array.unsafe_get mshr (i - 1));
    make_room mshr head (i - 1) ready
  end
  else i

let push t ready =
  let cap = Array.length t.mshr in
  if t.tail - t.head = cap then
    invalid_arg "Cache: MSHR file full (a miss must go through miss_issue)";
  if t.tail = cap then begin
    Array.blit t.mshr t.head t.mshr 0 (t.tail - t.head);
    t.tail <- t.tail - t.head;
    t.head <- 0
  end;
  (* fills mostly land in issue order, so the scan from the tail is short *)
  t.mshr.(make_room t.mshr t.head t.tail ready) <- ready;
  t.tail <- t.tail + 1

let fill t ~miss ~line ~ready =
  push t ready;
  let slot = lnot miss in
  t.tags.(slot) <- line;
  t.data_ready.(slot) <- ready;
  touch t slot

let note_inflight t ~ready = push t ready

let write_update t ~line =
  let base = set_of t line * t.assoc in
  let slot = find t.tags line base (base + t.assoc) in
  if slot >= 0 then touch t slot;
  slot >= 0

let settle t =
  (* keep the contents but retire all transient timing state: used at
     kernel-launch boundaries, where the cycle clock restarts at 0 but the
     cache stays warm — leftover future fill times would otherwise poison
     the next kernel's MSHR accounting *)
  Array.fill t.data_ready 0 (Array.length t.data_ready) 0;
  t.head <- 0;
  t.tail <- 0
