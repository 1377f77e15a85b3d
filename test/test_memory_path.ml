(** The single-walk memory path against the models it replaced.

    {!Cache_reference} is the cache as it stood before: a tag walk per
    lookup, a second walk for the victim and a growable min-heap of
    MSHRs.  {!Coalescer_reference} took byte addresses and divided each
    by the line size.  Random operation sequences and lane patterns
    drive each pair the way the SM does; every observable — hit, pending
    or miss, arrival cycles, victims, MSHR-delayed issue cycles, the
    lines of a warp access in first-touch order — must agree. *)

module Cache = Gpusim.Cache
module Ref = Cache_reference

(* ----------------------------- Cache ------------------------------- *)

type op =
  | Load of { line : int; dt : int; latency : int; admit : bool }
      (** a load transaction [dt] cycles on; a miss's data arrives
          [latency] after its issue, and is filled unless not admitted
          (ATA's deferral: an MSHR but no line) *)
  | Store of { line : int; dt : int }  (** a write-through update *)
  | Settle  (** a launch boundary: the clock restarts at 0 *)

let print_op = function
  | Load { line; dt; latency; admit } ->
    Printf.sprintf "load %d +%d lat %d%s" line dt latency
      (if admit then "" else " (not admitted)")
  | Store { line; dt } -> Printf.sprintf "store %d +%d" line dt
  | Settle -> "settle"

(* The three geometries the simulator builds from [Config.scaled]: the
   max-L1D cache (64 sets), the L1D left by a 2 KB carveout (60 sets,
   [set_of]'s division path) and the shared L2. *)
let geometries =
  let cfg = Gpusim.Config.scaled () in
  let open Gpusim.Config in
  let l1 bytes = (bytes, cfg.l1d_assoc, cfg.l1d_mshrs) in
  [
    ("scaled L1D", l1 cfg.onchip_bytes);
    ("60-set L1D", l1 (cfg.onchip_bytes - (2 * 1024)));
    ("L2", (cfg.l2_bytes, cfg.l2_assoc, cfg.l1d_mshrs * cfg.num_sms));
  ]

(* lines enough to overflow two of the geometry's sets, so that every
   geometry evicts, the 16-way L2 included *)
let conflicting ~bytes ~assoc =
  let r = Ref.create ~bytes ~assoc ~line_bytes:128 ~mshrs:1 () in
  let rec pick line acc n =
    if n = 0 then acc
    else if Ref.set_index r line < 2 then pick (line + 1) (line :: acc) (n - 1)
    else pick (line + 1) acc n
  in
  pick 0 [] (4 * (assoc + 2))

let gen_ops ~lines ~conflicting =
  let open QCheck.Gen in
  let line =
    frequency
      [
        (4, oneofl conflicting);
        (4, int_bound 31);  (* a hot set of lines *)
        (4, int_bound (2 * lines));  (* about twice the capacity *)
        (1, map (fun k -> k * lines) (int_bound 64));  (* strided aliases *)
        (1, int_bound (1 lsl 24));  (* far lines: every bit of the fold *)
        (1, map (fun d -> (1 lsl 30) + d) (int_range (-64) 64));
            (* either side of the multiply's 2^30 range *)
      ]
  in
  let op =
    frequency
      [
        ( 12,
          map
            (fun (line, dt, latency, admit) -> Load { line; dt; latency; admit })
            (quad line (int_bound 4) (int_range 1 600)
               (frequency [ (5, return true); (1, return false) ])) );
        (3, map2 (fun line dt -> Store { line; dt }) line (int_bound 4));
        (1, return Settle);
      ]
  in
  list_size (int_range 1 600) op

(* one sequence through both caches; the first disagreement, if any *)
let replay ~bytes ~assoc ~mshrs ops =
  let c = Cache.create ~bytes ~assoc ~line_bytes:128 ~mshrs () in
  let r = Ref.create ~bytes ~assoc ~line_bytes:128 ~mshrs () in
  let now = ref 0 in
  let fail step fmt = Printf.ksprintf (fun m -> Some (Printf.sprintf "op %d: %s" step m)) fmt in
  let rec go step = function
    | [] -> None
    | Settle :: rest ->
      Cache.settle c;
      Ref.settle r;
      now := 0;
      go (step + 1) rest
    | Store { line; dt } :: rest ->
      now := !now + dt;
      let a = Cache.write_update c ~line and b = Ref.write_update r ~now:!now ~line in
      if a <> b then fail step "write_update %b, reference %b" a b
      else go (step + 1) rest
    | Load { line; dt; latency; admit } :: rest -> (
      now := !now + dt;
      let p = Cache.probe c ~now:!now ~line and q = Ref.probe r ~now:!now ~line in
      if q <> Ref.probe_miss then
        if p < 0 then fail step "line %d misses, reference hits" line
        else if Cache.probe_arrival p <> Ref.probe_arrival q
                || Cache.probe_pending p <> Ref.probe_pending q
        then
          fail step "hit at %d (pending %b), reference at %d (pending %b)"
            (Cache.probe_arrival p) (Cache.probe_pending p) (Ref.probe_arrival q)
            (Ref.probe_pending q)
        else go (step + 1) rest
      else if p >= 0 then fail step "line %d hits, reference misses" line
      else
        let victim = Cache.victim c p and want = Ref.evict_victim r ~line in
        let set = Cache.miss_set c p and want_set = Ref.set_index r line in
        if victim <> want || set <> want_set then
          fail step "victim %d in set %d, reference %d in set %d" victim set want
            want_set
        else
          let issue = Cache.miss_issue c ~now:!now
          and want = Ref.miss_issue r ~now:!now in
          if issue <> want then fail step "miss issues at %d, reference at %d" issue want
          else begin
            let ready = issue + latency in
            if admit then begin
              Cache.fill c ~miss:p ~line ~ready;
              Ref.fill r ~line ~ready
            end
            else begin
              Cache.note_inflight c ~ready;
              Ref.note_inflight r ~ready
            end;
            go (step + 1) rest
          end)
  in
  go 0 ops

let prop_cache_matches_reference (name, (bytes, assoc, mshrs)) =
  let lines = bytes / 128 in
  QCheck.Test.make
    ~name:(Printf.sprintf "cache = reference model, %s" name)
    ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       (gen_ops ~lines ~conflicting:(conflicting ~bytes ~assoc)))
    (fun ops ->
      match replay ~bytes ~assoc ~mshrs ops with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "%s" msg)

(* --------------------------- Coalescing ---------------------------- *)

(* A warp's byte addresses in the shapes kernels produce: affine
   (monotone, any stride), reversed, with lanes repeating a few
   addresses, and unstructured. *)
let gen_addrs =
  let open QCheck.Gen in
  let base = int_bound (1 lsl 20) in
  let affine sign =
    map2
      (fun base stride ->
        Array.init 32 (fun lane ->
            base + (sign * stride * if sign > 0 then lane else lane - 31)))
      base
      (oneof [ int_bound 8; map (fun k -> k * 4) (int_bound 64); int_bound 4096 ])
  in
  frequency
    [
      (3, affine 1);
      (2, affine (-1));
      ( 2,
        map2
          (fun pool picks -> Array.map (fun i -> pool.(i)) picks)
          (array_size (return 4) base)
          (array_size (return 32) (int_bound 3)) );
      (1, array_size (return 32) base);
    ]

let gen_mask =
  let open QCheck.Gen in
  frequency
    [
      (3, return 0xFFFF_FFFF);
      (2, map (fun k -> (1 lsl k) - 1) (int_range 1 31));  (* a partial warp *)
      (2, int_bound 0xFFFF_FFFF);
      (1, map (fun k -> 1 lsl k) (int_bound 31));
    ]

let prop_dedup_matches_reference =
  QCheck.Test.make ~name:"dedup = reference coalescer, first-touch order"
    ~count:1000
    (QCheck.make
       ~print:(fun (line_bytes, addrs, mask) ->
         Printf.sprintf "line %d, mask %x, addrs [%s]" line_bytes mask
           (String.concat " " (Array.to_list (Array.map string_of_int addrs))))
       QCheck.Gen.(triple (oneofl [ 32; 64; 128; 256 ]) gen_addrs gen_mask))
    (fun (line_bytes, addrs, mask) ->
      let buf = Array.make 32 0 in
      let n = Coalescer_reference.into ~line_bytes ~addrs ~mask ~buf in
      let want = Array.to_list (Array.sub buf 0 n) in
      (* the SM's lane loops shift each address to its line *)
      let rec log2 v = if v <= 1 then 0 else 1 + log2 (v lsr 1) in
      let lanes = Array.map (fun a -> a lsr log2 line_bytes) addrs in
      let n = Gpusim.Coalescer.dedup ~lanes ~mask ~buf in
      let got = Array.to_list (Array.sub buf 0 n) in
      got = want
      || QCheck.Test.fail_reportf "dedup [%s], reference [%s]"
           (String.concat " " (List.map string_of_int got))
           (String.concat " " (List.map string_of_int want)))

let tests =
  [
    ( "memory_path",
      List.map QCheck_alcotest.to_alcotest
        (List.map prop_cache_matches_reference geometries
        @ [ prop_dedup_matches_reference ]) );
  ]
