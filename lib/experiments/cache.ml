(** Persistent result cache for experiment runs.

    Every completed (device config, workload, scheme, seed) simulation is
    stored as one pretty-printed JSON file under {!dir} (default
    [results/cache/]), so a crashed or repeated sweep only pays for the
    cells it has not already simulated.  The file name embeds a content
    hash of the full device configuration — every field that can change
    simulated counters — plus the workload name, scheme label and input
    seed; changing any of them (e.g. the 16 KB vs 32 KB on-chip settings)
    selects a different file, which is the whole invalidation story.
    After simulator-code changes, delete the directory.

    Beside the entries, each shard keeps a launch index: one small
    [<launch key>.launch] file per {!launch_key}, naming the entry that
    was simulated under it, so a cell of another scheme that compiles to
    the same launch sequence can be answered from that entry
    ({!find_launch}).

    The module is deliberately generic — it stores {!Gpu_util.Json}
    values by key; {!Runner} owns the [app_run] <-> JSON conversion.
    Loads and stores are safe to call from pool workers: writes go to a
    unique temp file then [Sys.rename] into place (atomic within the
    directory). *)

module Config = Gpusim.Config
module Json = Gpu_util.Json

let enabled : bool ref = ref false
(** Off by default so library users and unit tests stay hermetic; the
    CLIs flip it on (see [--no-cache]). *)

let dir : string ref = ref (Filename.concat "results" "cache")

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

(* process-wide, always on: surfaced in the experiments_main summary
   line and span attrs *)
let m_hits = Obs.Metrics.counter "cache.hits"
let m_misses = Obs.Metrics.counter "cache.misses"
let m_stores = Obs.Metrics.counter "cache.stores"

let m_evictions = Obs.Metrics.counter "cache.evictions"
(** Entries that existed on disk but could not be used: unreadable,
    corrupt, or rejected by the caller's decoder (a stale format or the
    wrong shape) — each also counted as a miss, never as a hit. *)

let m_store_errors = Obs.Metrics.counter "cache.store_errors"
(** Stores that failed (a full disk, a directory in the entry's way):
    nothing is published and the cell (or its launch-index record) is
    simply not cached. *)

type stats = { hits : int; misses : int; stores : int; evictions : int }

let stats () =
  {
    hits = Obs.Metrics.value m_hits;
    misses = Obs.Metrics.value m_misses;
    stores = Obs.Metrics.value m_stores;
    evictions = Obs.Metrics.value m_evictions;
  }

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

(** Canonical rendering of every configuration field that affects
    simulation results.  The record is destructured field-by-field with no
    wildcard, so adding a field to {!Config.t} and forgetting it here is a
    compile error (warning 9 is fatal in this tree), not a silent aliasing
    of distinct configs. *)
let config_fingerprint (c : Config.t) =
  let {
    Config.num_sms;
    warp_size;
    max_warps_per_sm;
    max_tbs_per_sm;
    register_file_bytes;
    onchip_bytes;
    smem_carveout_options;
    line_bytes;
    l1d_assoc;
    l1d_mshrs;
    l2_bytes;
    l2_assoc;
    l1d_hit_latency;
    l2_hit_latency;
    dram_latency;
    dram_slot_cycles;
    alu_latency;
    issue_width;
  } =
    c
  in
  String.concat ";"
    [
      Printf.sprintf "num_sms=%d" num_sms;
      Printf.sprintf "warp_size=%d" warp_size;
      Printf.sprintf "max_warps_per_sm=%d" max_warps_per_sm;
      Printf.sprintf "max_tbs_per_sm=%d" max_tbs_per_sm;
      Printf.sprintf "register_file_bytes=%d" register_file_bytes;
      Printf.sprintf "onchip_bytes=%d" onchip_bytes;
      Printf.sprintf "smem_carveout_options=%s"
        (String.concat "," (List.map string_of_int smem_carveout_options));
      Printf.sprintf "line_bytes=%d" line_bytes;
      Printf.sprintf "l1d_assoc=%d" l1d_assoc;
      Printf.sprintf "l1d_mshrs=%d" l1d_mshrs;
      Printf.sprintf "l2_bytes=%d" l2_bytes;
      Printf.sprintf "l2_assoc=%d" l2_assoc;
      Printf.sprintf "l1d_hit_latency=%d" l1d_hit_latency;
      Printf.sprintf "l2_hit_latency=%d" l2_hit_latency;
      Printf.sprintf "dram_latency=%d" dram_latency;
      Printf.sprintf "dram_slot_cycles=%d" dram_slot_cycles;
      Printf.sprintf "alu_latency=%d" alu_latency;
      Printf.sprintf "issue_width=%d" issue_width;
    ]

(* The configs fingerprinted so far, newest first.  Readers never lock:
   the list is immutable and swapped in whole, and a writer that loses
   the race retries.  A process sees a handful of configs; the bound
   keeps one that cycles through many from growing the list. *)
let fingerprints : (Config.t * string) list Atomic.t = Atomic.make []
let max_fingerprints = 16

(* [""] when absent: a fingerprint is never empty *)
let rec lookup cfg = function
  | [] -> ""
  | (c, fp) :: rest -> if c == cfg || c = cfg then fp else lookup cfg rest

(** {!config_fingerprint}, built once per distinct config. *)
let fingerprint cfg =
  match lookup cfg (Atomic.get fingerprints) with
  | "" ->
    let fp = config_fingerprint cfg in
    let rec publish () =
      let seen = Atomic.get fingerprints in
      if lookup cfg seen = "" then begin
        let kept = List.filteri (fun i _ -> i < max_fingerprints - 1) seen in
        if not (Atomic.compare_and_set fingerprints seen ((cfg, fp) :: kept))
        then publish ()
      end
    in
    publish ();
    fp
  | fp -> fp

(** Drops the fingerprints built so far (they are rebuilt on demand). *)
let forget_fingerprints () = Atomic.set fingerprints []

let key cfg ~workload ~scheme ~seed =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          [
            fingerprint cfg; "|workload="; workload; "|scheme="; scheme;
            "|seed="; string_of_int seed;
          ]))

(** The identity of a launch sequence, whatever scheme compiled it: the
    config, the workload (whose inputs and oracle the cell runs), the
    input seed, and one {!Gpusim.Gpu.launch_digest} per launch, in
    order.  Two cells with one launch key simulate to the same counters
    and the same verdict. *)
let launch_key cfg ~workload ~seed digests =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (fingerprint cfg :: "|workload=" :: workload :: "|seed="
          :: string_of_int seed :: "|launches=" :: digests)))

(* file names stay human-scannable: workload and scheme first, hash last *)
let sanitize label =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    label

(* Tenant names arrive over the wire ([catt_d serve]) and are untrusted:
   used verbatim, a tenant of ".." would shard to the cache root's
   *parent* and "." would alias the shared top-level cache.  The shard
   component therefore admits only [A-Za-z0-9_-]; every other byte
   (including '.' and '/') is replaced, and whenever the replacement
   changes the name — or the name is empty — a short hash of the raw
   name is appended so distinct tenants cannot collide after mapping. *)
let tenant_component t =
  let mapped =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
        | _ -> '-')
      t
  in
  if mapped = t && t <> "" then mapped
  else mapped ^ "-" ^ String.sub (Digest.to_hex (Digest.string t)) 0 8

(** Tenants shard by subdirectory only: the content-addressed key (and
    hence the file name) is tenant-independent, so two tenants that run
    the same cell end up with bit-identical files in separate shards —
    isolation without divergence. *)
let shard_dir ?tenant () =
  match tenant with
  | None -> !dir
  | Some t -> Filename.concat !dir (tenant_component t)

let path ?tenant cfg ~workload ~scheme ~seed =
  Filename.concat
    (shard_dir ?tenant ())
    (Printf.sprintf "%s-%s-%s.json" (sanitize workload) (sanitize scheme)
       (key cfg ~workload ~scheme ~seed))

(* ------------------------------------------------------------------ *)
(* Store / load                                                        *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** The cell's entry, decoded.  Only an entry that [decode] accepts is a
    hit; an unreadable, corrupt, stale or wrong-shape one is a miss and
    an eviction, so the caller recomputes and overwrites it. *)
let find ?tenant cfg ~workload ~scheme ~seed decode =
  if not !enabled then None
  else
    let file = path ?tenant cfg ~workload ~scheme ~seed in
    if not (Sys.file_exists file) then begin
      Obs.Metrics.incr m_misses;
      None
    end
    else
      match Result.bind (Json.of_string (read_file file)) decode with
      | Ok v ->
        Obs.Metrics.incr m_hits;
        Some v
      | Error _ | (exception Sys_error _) ->
        Obs.Metrics.incr m_misses;
        Obs.Metrics.incr m_evictions;
        None

(** The entry as parsed JSON, with no decoding behind the parse. *)
let load ?tenant cfg ~workload ~scheme ~seed =
  find ?tenant cfg ~workload ~scheme ~seed (fun json -> Ok json)

(** Whether the (tenant's) shard holds an entry for the cell, valid or
    not; no hit or miss is counted. *)
let mem ?tenant cfg ~workload ~scheme ~seed =
  !enabled && Sys.file_exists (path ?tenant cfg ~workload ~scheme ~seed)

(* Publishes what [write] puts out at [file], whole or not at all: the
   final flush runs inside the protected region, so a short write never
   reaches the rename, and the temp file is removed on any failure,
   which is counted in [cache.store_errors] rather than raised. *)
let publish file write =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" file (Unix.getpid ()) (Domain.self () :> int)
  in
  try
    mkdir_p (Filename.dirname file);
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        write oc;
        close_out oc);
    Sys.rename tmp file;
    true
  with Sys_error _ | Unix.Unix_error _ ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Obs.Metrics.incr m_store_errors;
    false

(* ------------------------------------------------------------------ *)
(* The launch index                                                    *)
(* ------------------------------------------------------------------ *)

(* One small file per launch key in the shard, holding the name of the
   entry simulated under that key: a name, never a second copy. *)
let index_path ?tenant launch_key =
  Filename.concat (shard_dir ?tenant ()) (launch_key ^ ".launch")

(** The entry the shard's index names for [launch_key], decoded by
    [decode] (which checks that the entry really carries the key).  Any
    failure on the way — no index record, a record that is not an entry
    name, an entry that is absent, unreadable or refused by [decode] — is
    [None]; the caller simulates and its store replaces the record.  The
    [cache.*] counters describe the cell's own entry and are left alone. *)
let find_launch ?tenant launch_key decode =
  if not !enabled then None
  else
    match read_file (index_path ?tenant launch_key) with
    | exception Sys_error _ -> None
    | name when name = "" || sanitize name <> name
                || not (Filename.check_suffix name ".json") ->
      None
    | name -> (
      match
        Result.bind
          (Json.of_string (read_file (Filename.concat (shard_dir ?tenant ()) name)))
          decode
      with
      | Ok v -> Some v
      | Error _ | (exception Sys_error _) -> None)

(** Best effort: the caller's result is already computed, so a failed
    write is counted in [cache.store_errors] instead of raised, and
    nothing is published.  With [launch_key], the shard's index then
    names this entry for that key ({!find_launch}). *)
let store ?tenant ?launch_key cfg ~workload ~scheme ~seed json =
  if !enabled then begin
    let file = path ?tenant cfg ~workload ~scheme ~seed in
    let entry oc =
      output_string oc (Json.to_string ~pretty:true json);
      output_char oc '\n'
    in
    if publish file entry then begin
      Obs.Metrics.incr m_stores;
      Option.iter
        (fun k ->
          ignore
            (publish (index_path ?tenant k) (fun oc ->
                 output_string oc (Filename.basename file))))
        launch_key
    end
  end

let clear () =
  let clear_one d =
    if Sys.file_exists d && Sys.is_directory d then
      Array.iter
        (fun entry ->
          if Filename.check_suffix entry ".json"
             || Filename.check_suffix entry ".launch"
          then
            try Sys.remove (Filename.concat d entry) with Sys_error _ -> ())
        (Sys.readdir d)
  in
  clear_one !dir;
  (* tenant shards are one level deep *)
  if Sys.file_exists !dir && Sys.is_directory !dir then
    Array.iter
      (fun entry ->
        let sub = Filename.concat !dir entry in
        if Sys.is_directory sub then clear_one sub)
      (Sys.readdir !dir)
