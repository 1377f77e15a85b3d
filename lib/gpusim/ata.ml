(* Aggregated tag array (ATA-Cache, PAPERS.md): a few tag-only shadow
   ways per L1D set remember recently evicted (or never-admitted) lines.
   A missing line earns data storage only on proven reuse: the first
   conflict miss records its tag in the shadow array and is served
   straight from L2 without displacing anything; a later miss that finds
   its tag shadowed promotes the line into a data way.  Cold fills into
   invalid ways are unchanged, so a working set that fits the cache
   behaves exactly like the plain cache.

   The shadow sits beside the L1D rather than inside it: it reads the
   set and victim of the L1D probe's miss result and keeps its own
   recency counter. *)

type t = {
  l1 : Cache.t;
  ways : int;  (* shadow ways per set *)
  tags : int array;  (* set-major shadow tags, -1 = invalid *)
  stamp : int array;  (* shadow recency stamps *)
  mutable tick : int;
}

type decision = Fill | Promote | Defer

let create ~ways l1 =
  let n = Cache.sets l1 * ways in
  { l1; ways; tags = Array.make n (-1); stamp = Array.make n 0; tick = 0 }

(* Top-level scans with every input an argument: a local [let rec] over
   [t] or [line] would be a closure allocated per call. *)
let rec find (tags : int array) line base n i =
  if i = n then -1
  else if tags.(base + i) = line then base + i
  else find tags line base n (i + 1)

(* an invalid shadow way if there is one, else the oldest stamp *)
let rec oldest t base i best =
  if i = t.ways then best
  else
    let slot = base + i in
    if t.tags.(slot) = -1 then slot
    else oldest t base (i + 1) (if t.stamp.(slot) < t.stamp.(best) then slot else best)

(* shadow a line's tag in the set at [base] unless it is already there *)
let note t base line =
  if find t.tags line base t.ways 0 < 0 then begin
    let slot = oldest t base 0 base in
    t.tick <- t.tick + 1;
    t.tags.(slot) <- line;
    t.stamp.(slot) <- t.tick
  end

let admit t ~line ~miss =
  let base = Cache.miss_set t.l1 miss * t.ways in
  let victim = Cache.victim t.l1 miss in
  let slot = find t.tags line base t.ways 0 in
  if slot >= 0 then begin
    (* proven reuse: the shadow entry converts into a data fill, and the
       data line that fill displaces (same set) drops into the shadow *)
    t.tags.(slot) <- -1;
    if victim <> -1 then note t base victim;
    Promote
  end
  else if victim = -1 then Fill
  else begin
    note t base line;
    Defer
  end
