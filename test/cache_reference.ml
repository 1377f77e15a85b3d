(* The L1D/L2 model as it stood before the single-walk memory path: a set
   is walked once to find a line ([scan_ways]) and again for the victim
   ([victim_slot]), and the MSHR file is a growable binary min-heap.  It
   survives only as the reference for the properties in
   [test_memory_path.ml], which drive it and {!Gpusim.Cache} through the
   same operations and require identical outcomes, victims and cycles.
   [access], [outcome], [contains] and [flush] are the all-in-one entry
   points the library no longer carries. *)

(* Min-heap of outstanding fill completion times: the MSHR file.  A miss
   occupies an entry from issue until its data arrives; eviction of an
   in-flight line does not free the entry early (hardware MSHRs drain on
   fill, not on eviction). *)
module Heap = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 64 max_int; len = 0 }

  let size h = h.len

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let push h x =
    if h.len = Array.length h.data then begin
      let bigger = Array.make (2 * h.len) max_int in
      Array.blit h.data 0 bigger 0 h.len;
      h.data <- bigger
    end;
    h.data.(h.len) <- x;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && h.data.((!i - 1) / 2) > h.data.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let peek h = if h.len = 0 then max_int else h.data.(0)

  let pop h =
    if h.len > 0 then begin
      h.len <- h.len - 1;
      h.data.(0) <- h.data.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && h.data.(l) < h.data.(!smallest) then smallest := l;
        if r < h.len && h.data.(r) < h.data.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          swap h !i !smallest;
          i := !smallest
        end
        else continue := false
      done
    end

  let drain_until h now =
    while h.len > 0 && h.data.(0) <= now do
      pop h
    done

  let clear h = h.len <- 0
end

type t = {
  num_sets : int;
  sets_shift : int;
      (* log2 num_sets when num_sets is a power of two, else -1: lets the
         XOR-fold below run on shifts and masks instead of four integer
         divisions (every probe and every fill computes a set index) *)
  assoc : int;
  line_bytes : int;
  mshrs : int;
  tags : int array;  (* set-major, -1 = invalid *)
  data_ready : int array;  (* cycle the line's data arrives *)
  last_use : int array;  (* LRU stamps *)
  mutable tick : int;
  inflight : Heap.t;
}

type outcome = Hit | Pending_hit | Miss

let create ~bytes ~assoc ~line_bytes ~mshrs () =
  if assoc <= 0 then invalid_arg "Cache.create: assoc must be positive";
  if line_bytes <= 0 then invalid_arg "Cache.create: line_bytes must be positive";
  let num_sets = max 1 (bytes / (assoc * line_bytes)) in
  let ways = num_sets * assoc in
  let sets_shift =
    if num_sets land (num_sets - 1) = 0 then
      let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
      log2 num_sets 0
    else -1
  in
  {
    num_sets;
    sets_shift;
    assoc;
    line_bytes;
    mshrs = max 1 mshrs;
    tags = Array.make ways (-1);
    data_ready = Array.make ways 0;
    last_use = Array.make ways 0;
    tick = 0;
    inflight = Heap.create ();
  }

let sets t = t.num_sets
let lines t = t.num_sets * t.assoc

(* XOR-folded set hashing, as GPU L1s use: without it, the power-of-two
   row strides of dense-matrix kernels alias a warp's 32 divergent lines
   into a couple of sets and conflict-thrash even when the working set is
   far below capacity, defeating any capacity-based reasoning. *)
let set_of t line =
  if t.sets_shift >= 0 && line >= 0 then
    (* same fold, on shifts: for non-negative [line] and power-of-two set
       counts, [lsr]/[land] compute exactly what the divisions below do *)
    let n = t.sets_shift in
    (line lxor (line lsr n) lxor (line lsr (2 * n))) land (t.num_sets - 1)
  else
    let folded =
      line
      lxor (line / t.num_sets)
      lxor (line / t.num_sets / t.num_sets)
    in
    (folded mod t.num_sets + t.num_sets) mod t.num_sets

(* Way scans are top-level functions with every input an argument: a
   local [let rec] that reads [t], [line] or [base] from its scope is a
   closure, allocated on every probe. *)
let rec scan_ways (tags : int array) line base n i =
  if i = n then -1
  else if tags.(base + i) = line then base + i
  else scan_ways tags line base n (i + 1)

let find_way t line = scan_ways t.tags line (set_of t line * t.assoc) t.assoc 0

let touch t slot =
  t.tick <- t.tick + 1;
  t.last_use.(slot) <- t.tick

let victim_slot t line =
  let base = set_of t line * t.assoc in
  (* an invalid way if there is one, else LRU *)
  let best = ref (-1) in
  let lru = ref base in
  for way = 0 to t.assoc - 1 do
    let slot = base + way in
    if t.tags.(slot) = -1 then begin
      if !best = -1 then best := slot
    end
    else if t.last_use.(slot) < t.last_use.(!lru) || t.tags.(!lru) = -1 then
      lru := slot
  done;
  if !best <> -1 then !best else !lru

let set_index t line = set_of t line

(* The hot-path protocol: the caller drives the miss sequence itself
   instead of passing a [miss_ready] closure, and the probe result packs
   (arrival, hit-or-pending) into one immediate int — no tuple, no
   closure, nothing allocated per transaction.  [access] below keeps the
   original all-in-one semantics as a thin composition of these. *)

let probe_miss = -1

let probe t ~now ~line =
  let slot = find_way t line in
  if slot < 0 then probe_miss
  else begin
    touch t slot;
    let arrival = t.data_ready.(slot) in
    if arrival > now then (arrival lsl 1) lor 1 else now lsl 1
  end

let probe_arrival r = r lsr 1
let probe_pending r = r land 1 <> 0

let miss_issue t ~now =
  Heap.drain_until t.inflight now;
  (* structural hazard: a full MSHR file delays the issue *)
  if Heap.size t.inflight >= t.mshrs then begin
    let wake = Heap.peek t.inflight in
    Heap.drain_until t.inflight wake;
    if now >= wake then now else wake
  end
  else now

let evict_victim t ~line = t.tags.(victim_slot t line)

let fill t ~line ~ready =
  let slot = victim_slot t line in
  t.tags.(slot) <- line;
  t.data_ready.(slot) <- ready;
  touch t slot;
  Heap.push t.inflight ready

let access ?on_evict t ~now ~line ~miss_ready =
  let r = probe t ~now ~line in
  if r <> probe_miss then
    if probe_pending r then (probe_arrival r, Pending_hit) else (now, Hit)
  else begin
    let issue = miss_issue t ~now in
    let ready = miss_ready ~issue in
    (match on_evict with
    | Some f ->
      let victim = evict_victim t ~line in
      if victim <> -1 then f ~set:(set_of t line) ~line:victim
    | None -> ());
    fill t ~line ~ready;
    (ready, Miss)
  end

let write_update t ~now ~line =
  ignore now;
  let slot = find_way t line in
  if slot >= 0 then begin
    touch t slot;
    true
  end
  else false

let contains t ~line = find_way t line >= 0

let note_inflight t ~ready = Heap.push t.inflight ready

let settle t =
  (* keep the contents but retire all transient timing state: used at
     kernel-launch boundaries, where the cycle clock restarts at 0 but the
     cache stays warm — leftover future fill times would otherwise poison
     the next kernel's MSHR accounting *)
  Array.fill t.data_ready 0 (Array.length t.data_ready) 0;
  Heap.clear t.inflight

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.data_ready 0 (Array.length t.data_ready) 0;
  Array.fill t.last_use 0 (Array.length t.last_use) 0;
  Heap.clear t.inflight
