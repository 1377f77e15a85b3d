(** Cycle accounting: where each SM cycle went.

    The simulator's scheduler loop ({!Gpusim.Sm.step_at}) alternates between
    forwarded idle gaps and single issue cycles.  We classify every cycle
    into exactly one of four buckets so the per-SM sums obey the identity

      issue + barrier + mem_pending + throttled_idle = sm cycles

    which the golden-profile tests assert.  [Throttle_wait] covers cycles
    where some resident warp was data-ready but excluded by a throttling
    pool (SWL / DYNCTA / CCWS / DAWS draining) — the quantity the paper's
    TLP selection trades against L1D misses. *)

type kind = Issue | Mem_wait | Barrier_wait | Throttle_wait

let num_kinds = 4
let index = function Issue -> 0 | Mem_wait -> 1 | Barrier_wait -> 2 | Throttle_wait -> 3
let of_index = function
  | 0 -> Issue
  | 1 -> Mem_wait
  | 2 -> Barrier_wait
  | 3 -> Throttle_wait
  | _ -> invalid_arg "Stall.of_index"

let label = function
  | Issue -> "issue"
  | Mem_wait -> "mem-pending"
  | Barrier_wait -> "barrier"
  | Throttle_wait -> "throttled-idle"

type t = {
  mutable per_sm : int array array; (* sm -> kind-indexed counters *)
  mutable sm_cycles : int array;    (* sm -> simulated cycles covered *)
  warps : (int * int, int array) Hashtbl.t;
      (* (sm, warp age) -> [issued instrs; mem; barrier; throttled] cycles.
         Slot 0 counts instructions, not cycles: several warps can issue in
         the same cycle under a dual-issue config, so per-warp "issue
         cycles" are not well defined — issued-instruction counts are. *)
}

let create () = { per_sm = [||]; sm_cycles = [||]; warps = Hashtbl.create 64 }

let grow arr n ~zero =
  if Array.length arr >= n then arr
  else begin
    let fresh = Array.init n (fun i -> if i < Array.length arr then arr.(i) else zero ()) in
    fresh
  end

let ensure_sm t sm =
  let n = sm + 1 in
  if Array.length t.per_sm < n then
    t.per_sm <- grow t.per_sm n ~zero:(fun () -> Array.make num_kinds 0);
  if Array.length t.sm_cycles < n then t.sm_cycles <- grow t.sm_cycles n ~zero:(fun () -> 0)

let add t ~sm ~kind ~cycles =
  ensure_sm t sm;
  let row = t.per_sm.(sm) in
  row.(index kind) <- row.(index kind) + cycles

let add_sm_cycles t ~sm ~cycles =
  ensure_sm t sm;
  t.sm_cycles.(sm) <- t.sm_cycles.(sm) + cycles

let warp_row t ~sm ~warp =
  match Hashtbl.find_opt t.warps (sm, warp) with
  | Some row -> row
  | None ->
    let row = Array.make num_kinds 0 in
    Hashtbl.add t.warps (sm, warp) row;
    row

let warp_issue t ~sm ~warp =
  let row = warp_row t ~sm ~warp in
  row.(index Issue) <- row.(index Issue) + 1

let warp_wait t ~sm ~warp ~kind ~cycles =
  let row = warp_row t ~sm ~warp in
  row.(index kind) <- row.(index kind) + cycles

(* ---- read side ---- *)

let num_sms t = Array.length t.per_sm

let get t ~sm ~kind =
  if sm < Array.length t.per_sm then t.per_sm.(sm).(index kind) else 0

let cycles t ~sm = if sm < Array.length t.sm_cycles then t.sm_cycles.(sm) else 0

let total t ~kind =
  Array.fold_left (fun acc row -> acc + row.(index kind)) 0 t.per_sm

let total_cycles t = Array.fold_left ( + ) 0 t.sm_cycles

(** Sorted [(sm, warp), counters] rows for deterministic export. *)
let warp_rows t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.warps []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
