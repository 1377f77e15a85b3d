(** L1D heat maps: hit/miss/eviction counters keyed by (array, source site),
    plus set-level occupancy histograms.

    A "site" is the (line, col) AST location of the statement the access was
    lowered from — PR 2's source positions, threaded through codegen into
    [Bytecode.src_locs].  Heat per (array x site) is the lens CUTHERMO uses
    for GPU memory inefficiency; the per-set histograms expose conflict hot
    sets that a byte-level footprint (Eq. 8) cannot distinguish. *)

type outcome = Hit | Pending_hit | Miss

type cell = {
  mutable hits : int;
  mutable pending_hits : int;
  mutable misses : int;
  mutable evictions : int; (* evictions *caused by* accesses at this cell *)
  mutable stores : int;    (* write-through stores issued from this cell *)
  mutable bypassed : int;  (* loads routed around L1 from this cell *)
}

let fresh_cell () =
  { hits = 0; pending_hits = 0; misses = 0; evictions = 0; stores = 0; bypassed = 0 }

let cell_loads c = c.hits + c.pending_hits + c.misses

type t = {
  cells : (int * (int * int), cell) Hashtbl.t; (* (arr_id, site) -> cell *)
  mutable set_accesses : int array;
  mutable set_misses : int array;
  mutable set_evictions : int array;
  victims : (int, int ref) Hashtbl.t; (* arr_id -> lines of it evicted *)
}

let create () =
  {
    cells = Hashtbl.create 64;
    set_accesses = [||];
    set_misses = [||];
    set_evictions = [||];
    victims = Hashtbl.create 8;
  }

(* A carveout resize between launches changes the number of L1D sets; keep
   whatever was already counted and widen the histograms to the max seen. *)
let grow arr n =
  if Array.length arr >= n then arr
  else begin
    let fresh = Array.make n 0 in
    Array.blit arr 0 fresh 0 (Array.length arr);
    fresh
  end

let ensure_sets t n =
  if Array.length t.set_accesses < n then begin
    t.set_accesses <- grow t.set_accesses n;
    t.set_misses <- grow t.set_misses n;
    t.set_evictions <- grow t.set_evictions n
  end

let cell t ~arr_id ~site =
  let key = (arr_id, site) in
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
    let c = fresh_cell () in
    Hashtbl.add t.cells key c;
    c

let record_access t ~arr_id ~site ~set ~outcome =
  ensure_sets t (set + 1);
  t.set_accesses.(set) <- t.set_accesses.(set) + 1;
  let c = cell t ~arr_id ~site in
  match outcome with
  | Hit -> c.hits <- c.hits + 1
  | Pending_hit -> c.pending_hits <- c.pending_hits + 1
  | Miss ->
    c.misses <- c.misses + 1;
    t.set_misses.(set) <- t.set_misses.(set) + 1

let record_evict t ~arr_id ~site ~set ~victim_arr =
  ensure_sets t (set + 1);
  t.set_evictions.(set) <- t.set_evictions.(set) + 1;
  (cell t ~arr_id ~site).evictions <- (cell t ~arr_id ~site).evictions + 1;
  match victim_arr with
  | None -> ()
  | Some v -> (
    match Hashtbl.find_opt t.victims v with
    | Some r -> incr r
    | None -> Hashtbl.add t.victims v (ref 1))

let record_store t ~arr_id ~site = (cell t ~arr_id ~site).stores <- (cell t ~arr_id ~site).stores + 1
let record_bypass t ~arr_id ~site =
  (cell t ~arr_id ~site).bypassed <- (cell t ~arr_id ~site).bypassed + 1

(* ---- read side ---- *)

let num_sets t = Array.length t.set_accesses

let victim_count t ~arr_id =
  match Hashtbl.find_opt t.victims arr_id with Some r -> !r | None -> 0

(** Sorted [(arr_id, site), cell] rows for deterministic export. *)
let rows t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.cells []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
