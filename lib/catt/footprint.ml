type access_summary = {
  access : Analysis.access;
  req_warp : int;
  has_reuse : bool;
  irregular : bool;
}

type loop_footprint = {
  loop : Analysis.loop_report;
  summaries : access_summary list;
  req_per_warp : int;
  shared_lines : int;
  has_locality : bool;
  any_irregular : bool;
}

let elem_bytes = 4

let req_warp ~line_bytes ~warp_size ~block_x index =
  match index with
  | Affine.Unknown ->
    (* Section 4.2: an irregular (data-dependent) index is modeled as fully
       uncoalesced — one request per thread, i.e. [warp_size] lines per
       warp.  This is the conservative direction for a capacity bound: the
       lanes could land anywhere, so assume no line sharing. *)
    warp_size
  | Affine.Affine a ->
    (* enumerate the addresses of warp 0 of block 0 at iteration 0; only
       lane-to-lane distances matter, so this is representative of every
       aligned warp *)
    let lines = Array.make warp_size 0 in
    for lane = 0 to warp_size - 1 do
      let idx = Affine.eval_lane a ~bdim_x:block_x ~lane ~base_linear_tid:0 in
      let byte = idx * elem_bytes in
      (* floor toward -inf so negative offsets don't merge spuriously *)
      lines.(lane) <-
        (if byte >= 0 then byte / line_bytes else ((byte + 1) / line_bytes) - 1)
    done;
    (* distinct-count by sorting: O(WS log WS) instead of the former
       List.mem scan's O(WS^2) *)
    Array.sort compare lines;
    let distinct = ref 1 in
    for i = 1 to warp_size - 1 do
      if lines.(i) <> lines.(i - 1) then incr distinct
    done;
    !distinct

let has_reuse ~line_bytes (access : Analysis.access) =
  match access.Analysis.index with
  | Affine.Unknown -> false
  | Affine.Affine a ->
    let coeff =
      match access.Analysis.innermost_iter with
      | None -> 0  (* no enclosing iterator: address invariant in the loop *)
      | Some it -> Affine.coeff_of_iter a it
    in
    abs coeff * elem_bytes <= line_bytes

(* One loop body touching the same (array, index) several times — a
   read-modify-write, or a value used twice — is one request stream, not
   several: Eq. 8 must count those lines once.  [Analysis.record] already
   merges duplicates while collecting, so this is a safety net for
   reports built by other producers (tests, external tools). *)
let dedupe_accesses (accesses : Analysis.access list) =
  let same (a : Analysis.access) (b : Analysis.access) =
    a.Analysis.array = b.Analysis.array
    && Analysis.same_index a.Analysis.index b.Analysis.index
  in
  let rec merge seen = function
    | [] -> List.rev seen
    | (a : Analysis.access) :: rest ->
      let seen =
        match List.partition (same a) seen with
        | [], _ -> a :: seen
        | dup :: _, others ->
          {
            dup with
            Analysis.is_load = dup.Analysis.is_load || a.Analysis.is_load;
            is_store = dup.Analysis.is_store || a.Analysis.is_store;
          }
          :: others
      in
      merge seen rest
  in
  merge [] accesses

let of_loop ~line_bytes ~warp_size ~block_x (loop : Analysis.loop_report) =
  let summaries =
    List.map
      (fun (access : Analysis.access) ->
        {
          access;
          req_warp = req_warp ~line_bytes ~warp_size ~block_x access.Analysis.index;
          has_reuse = has_reuse ~line_bytes access;
          irregular = access.Analysis.index = Affine.Unknown;
        })
      (dedupe_accesses loop.Analysis.accesses)
  in
  {
    loop;
    summaries;
    req_per_warp = List.fold_left (fun acc s -> acc + s.req_warp) 0 summaries;
    shared_lines = 0;
    has_locality = List.exists (fun s -> s.has_reuse) summaries;
    any_irregular = List.exists (fun s -> s.irregular) summaries;
  }

(* ------------------------------------------------------------------ *)
(* Sharpened footprints (catt-sa)                                      *)
(* ------------------------------------------------------------------ *)

(** Eq. 8 with the {!Staticmodel.Reuse} refinements: cross-access line
    unions, inter-warp sharing tiers and interval-bounded irregular
    accesses.  [shared_lines] holds the once-per-SM tier (TB-tier entries
    folded in at [tbs] residency); [req_per_warp] only the truly per-warp
    lines.

    [has_locality] comes from the symbolic reuse classifier: invariant
    and intra-line-stride accesses reuse their lines, and so does an
    irregular access confined to a finite interval (pigeonhole). *)
let of_loop_sa ~line_bytes ~warp_size ~block_x ~tbs
    (li : Staticmodel.Gaccess.loop_info) =
  let loop = Analysis.report_of_gaccess li in
  let gaccs = li.Staticmodel.Gaccess.gaccesses in
  let summaries =
    List.map2
      (fun (g : Staticmodel.Gaccess.gaccess) access ->
        let kind = Staticmodel.Reuse.classify ~line_bytes g in
        {
          access;
          req_warp =
            Staticmodel.Reuse.standalone_lines ~line_bytes ~warp_size ~block_x
              g;
          has_reuse = Staticmodel.Reuse.has_reuse kind;
          irregular = g.Staticmodel.Gaccess.gindex = Affine.Unknown;
        })
      gaccs loop.Analysis.accesses
  in
  let ll =
    Staticmodel.Reuse.loop_lines ~line_bytes ~warp_size ~block_x ~tbs gaccs
  in
  {
    loop;
    summaries;
    req_per_warp = ll.Staticmodel.Reuse.per_warp;
    shared_lines = ll.Staticmodel.Reuse.shared;
    has_locality = List.exists (fun s -> s.has_reuse) summaries;
    any_irregular = List.exists (fun s -> s.irregular) summaries;
  }

let size_req_lines fp ~concurrent_warps =
  (fp.req_per_warp * concurrent_warps) + fp.shared_lines

let size_req_bytes ~line_bytes fp ~concurrent_warps =
  size_req_lines fp ~concurrent_warps * line_bytes
