(* Warps are at most 32 lanes; dedup works directly on the caller's
   buffer, so the hot path allocates nothing.  Its loops are leaves with
   every input an argument, so their state stays in registers, and the
   one length check up front lets them index without bounds checks.

   The common case — an affine index expression — produces line indices
   that are non-decreasing in the lane id.  As long as that holds
   ([ascending]), a new line only needs comparing against the last one
   emitted (O(1) per lane); the first out-of-order line drops to
   [scattered] for the remaining lanes, which scans the lines emitted so
   far (O(count), count <= 32).  Either way the buffer keeps first-touch
   order, which callers rely on: transactions issue in this order and
   timing depends on it. *)

let[@inline] active mask lane = mask land (1 lsl lane) <> 0

let rec seen (buf : int array) line i count =
  i < count && (Array.unsafe_get buf i = line || seen buf line (i + 1) count)

let rec scattered (lanes : int array) mask (buf : int array) n lane count =
  if lane = n then count
  else if not (active mask lane) then scattered lanes mask buf n (lane + 1) count
  else
    let line = Array.unsafe_get lanes lane in
    if seen buf line 0 count then scattered lanes mask buf n (lane + 1) count
    else begin
      Array.unsafe_set buf count line;
      scattered lanes mask buf n (lane + 1) (count + 1)
    end

(* buf.(0 .. count-1) is strictly increasing and ends with [last] *)
let rec ascending (lanes : int array) mask (buf : int array) n lane count last =
  if lane = n then count
  else if not (active mask lane) then ascending lanes mask buf n (lane + 1) count last
  else
    let line = Array.unsafe_get lanes lane in
    if line = last then ascending lanes mask buf n (lane + 1) count last
    else if line > last then begin
      Array.unsafe_set buf count line;
      ascending lanes mask buf n (lane + 1) (count + 1) line
    end
    else scattered lanes mask buf n lane count

let rec first (lanes : int array) mask (buf : int array) n lane =
  if lane = n then 0
  else if not (active mask lane) then first lanes mask buf n (lane + 1)
  else begin
    let line = Array.unsafe_get lanes lane in
    Array.unsafe_set buf 0 line;
    ascending lanes mask buf n (lane + 1) 1 line
  end

let dedup ~lanes ~mask ~buf =
  let n = Array.length lanes in
  if Array.length buf < n then
    invalid_arg "Coalescer.dedup: buffer shorter than the warp";
  first lanes mask buf n 0
