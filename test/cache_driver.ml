(** Test drivers over the library's memory path: the all-in-one access
    the SM's load path composes from {!Gpusim.Cache}'s probe →
    miss_issue → fill protocol, and a line count over the SM's own
    {!Gpusim.Coalescer.dedup}. *)

module Cache = Gpusim.Cache

type outcome = Hit | Pending_hit | Miss

(** One read: on a miss, [miss_ready ~issue] gets the MSHR-delayed issue
    cycle and returns the fill's arrival; [on_evict] sees a displaced
    valid line with its set before the fill.  The consume cycle and the
    outcome. *)
let access ?on_evict c ~now ~line ~miss_ready =
  let r = Cache.probe c ~now ~line in
  if r >= 0 then
    if Cache.probe_pending r then (Cache.probe_arrival r, Pending_hit)
    else (now, Hit)
  else begin
    let ready = miss_ready ~issue:(Cache.miss_issue c ~now) in
    (match on_evict with
    | Some f ->
      let victim = Cache.victim c r in
      if victim <> -1 then f ~set:(Cache.miss_set c r) ~line:victim
    | None -> ());
    Cache.fill c ~miss:r ~line ~ready;
    (ready, Miss)
  end

(** Whether [line] is cached.  A probe: a present line's LRU position
    refreshes. *)
let present c ~line = Cache.probe c ~now:0 ~line >= 0

(** How many distinct lines the active lanes' byte addresses touch, as
    the SM counts them: each address shifted to its line, then
    deduplicated. *)
let count ~line_bytes ~addrs ~mask =
  let lanes = Array.map (fun a -> a / line_bytes) addrs in
  Gpusim.Coalescer.dedup ~lanes ~mask ~buf:(Array.make (Array.length lanes) 0)
