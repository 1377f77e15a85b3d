(** Tests for the [catt_d serve] stack: the versioned wire protocol, the
    admission-controlled dispatch loop, per-tenant cache sharding and
    metrics, the JSON-lines framing, and the co-resident pair mode the
    [simulate] request exposes.

    The subprocess smoke (boot the real binary on a socket, one request
    of each kind, clean SIGTERM shutdown) lives in [serve_check.ml]
    under the [@serve] alias; everything here runs in-process. *)

module Json = Gpu_util.Json
module Scheme = Experiments.Scheme
module Runner = Experiments.Runner
module Cache = Experiments.Cache
module Protocol = Serve.Protocol
module Tenant = Serve.Tenant
module Server = Serve.Server

let small_cfg = Gpusim.Config.scaled ~num_sms:2 ()

(* ------------------------------------------------------------------ *)
(* Protocol: schemes and round-trips                                   *)
(* ------------------------------------------------------------------ *)

let test_scheme_roundtrip () =
  List.iter
    (fun s ->
      match Scheme.of_string (Scheme.label s) with
      | Ok s' ->
        Alcotest.(check string)
          (Scheme.label s ^ " round-trips")
          (Scheme.label s) (Scheme.label s')
      | Error msg -> Alcotest.fail msg)
    (Scheme.samples @ [ Scheme.Fixed (8, 3); Scheme.Swl 17 ])

let request = Alcotest.testable (Fmt.of_to_string Protocol.request_to_line) ( = )

let roundtrip (r : Protocol.request) =
  match Protocol.request_of_line (Protocol.request_to_line r) with
  | Ok r' -> Alcotest.check request (Protocol.request_to_line r) r r'
  | Error msg -> Alcotest.fail msg

let test_request_roundtrip_all_kinds () =
  List.iter
    (fun scheme ->
      List.iter
        (fun kind -> roundtrip { Protocol.id = "r1"; tenant = "acme"; trace_id = None; kind })
        [
          Protocol.Analyze "ATAX";
          Protocol.Explain "MVT";
          Protocol.Stats;
          Protocol.Simulate
            { Protocol.workload = "ATAX"; scheme; co_resident = None };
          Protocol.Simulate
            {
              Protocol.workload = "ATAX";
              scheme;
              co_resident = Some ("MVT", scheme);
            };
        ])
    Scheme.samples

let gen_scheme =
  QCheck.Gen.(
    oneof
      [
        oneofl Scheme.samples;
        map2 (fun n m -> Scheme.Fixed (n, m)) (int_range 1 32) (int_range 0 8);
        map (fun k -> Scheme.Swl k) (int_range 1 64);
      ])

let gen_name = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 12))

let gen_request =
  QCheck.Gen.(
    let gen_kind =
      oneof
        [
          map (fun w -> Protocol.Analyze w) gen_name;
          map (fun w -> Protocol.Explain w) gen_name;
          return Protocol.Stats;
          map3
            (fun w scheme co ->
              Protocol.Simulate { Protocol.workload = w; scheme; co_resident = co })
            gen_name gen_scheme
            (opt (pair gen_name gen_scheme));
        ]
    in
    map3
      (fun id tenant kind -> { Protocol.id; tenant; trace_id = None; kind })
      gen_name gen_name gen_kind)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"wire request round-trips" ~count:300
    (QCheck.make ~print:Protocol.request_to_line gen_request)
    (fun r ->
      match Protocol.request_of_line (Protocol.request_to_line r) with
      | Ok r' -> r = r'
      | Error msg -> QCheck.Test.fail_report msg)

let response = Alcotest.testable (Fmt.of_to_string Protocol.response_to_line) ( = )

let test_response_roundtrip () =
  let roundtrip (r : Protocol.response) =
    match Protocol.response_of_json (Protocol.response_to_json r) with
    | Ok r' -> Alcotest.check response (Protocol.response_to_line r) r r'
    | Error msg -> Alcotest.fail msg
  in
  roundtrip
    {
      Protocol.resp_id = "ok-1";
      resp_tenant = "acme";
      result = Ok (Json.Obj [ ("total_cycles", Json.Int 42) ]);
    };
  List.iter
    (fun code ->
      roundtrip
        {
          Protocol.resp_id = "err-1";
          resp_tenant = Protocol.default_tenant;
          result = Error (code, "because");
        })
    [ Protocol.Bad_request; Protocol.Not_found; Protocol.Overloaded;
      Protocol.Internal ]

let test_unknown_fields_tolerated () =
  let line =
    {|{"schema_version":1,"id":"x","tenant":"t","kind":"simulate",
       "workload":"ATAX","scheme":"CATT","future_flag":true,
       "co_resident":{"workload":"MVT","scheme":"baseline","hint":9}}|}
  in
  match Protocol.request_of_line (String.concat " " (String.split_on_char '\n' line)) with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    Alcotest.check request "extra fields ignored"
      {
        Protocol.id = "x";
        tenant = "t";
        trace_id = None;
        kind =
          Protocol.Simulate
            {
              Protocol.workload = "ATAX";
              scheme = Scheme.Catt;
              co_resident = Some ("MVT", Scheme.Baseline);
            };
      }
      r

let expect_parse_error name line =
  match Protocol.request_of_line line with
  | Ok _ -> Alcotest.failf "%s: expected a parse error" name
  | Error _ -> ()

let test_bad_requests_refused () =
  expect_parse_error "wrong version"
    {|{"schema_version":99,"id":"x","kind":"stats"}|};
  expect_parse_error "missing version" {|{"id":"x","kind":"stats"}|};
  expect_parse_error "missing kind" {|{"schema_version":1,"id":"x"}|};
  expect_parse_error "unknown kind"
    {|{"schema_version":1,"id":"x","kind":"frobnicate"}|};
  expect_parse_error "missing workload"
    {|{"schema_version":1,"id":"x","kind":"simulate"}|};
  expect_parse_error "bad scheme"
    {|{"schema_version":1,"id":"x","kind":"simulate","workload":"ATAX","scheme":"warp9"}|};
  expect_parse_error "not json" {|{"schema_version":1,|}

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let collector () =
  let lock = Mutex.create () in
  let responses = ref [] in
  let respond r =
    Mutex.lock lock;
    responses := r :: !responses;
    Mutex.unlock lock
  in
  let all () =
    Mutex.lock lock;
    let rs = !responses in
    Mutex.unlock lock;
    rs
  in
  (respond, all)

let stats_req ?(tenant = "adm") id =
  { Protocol.id; tenant; trace_id = None; kind = Protocol.Stats }

(* the cap fills deterministically because in_flight counts queued +
   running from post time: no worker needs to have started anything for
   the third post to be refused *)
let test_admission_refuses_at_cap () =
  Tenant.reset ();
  let gate = Atomic.make true in
  let ran = Atomic.make 0 in
  let handler (_ : Protocol.request) : Server.outcome =
    Atomic.incr ran;
    while Atomic.get gate do
      Unix.sleepf 0.001
    done;
    Ok (Json.Null, false)
  in
  let srv = Server.create ~handler ~cfg:small_cfg ~jobs:2 ~queue_cap:2 () in
  let respond, all = collector () in
  let d1 = Server.post srv (stats_req "1") ~respond in
  let d2 = Server.post srv (stats_req "2") ~respond in
  let d3 = Server.post srv (stats_req "3") ~respond in
  Alcotest.(check bool) "first admitted" true (d1 = `Dispatched);
  Alcotest.(check bool) "second admitted" true (d2 = `Dispatched);
  Alcotest.(check bool) "third refused" true (d3 = `Rejected);
  (* the refusal is synchronous: its envelope is already here while the
     admitted two are still gated *)
  (match List.find_opt (fun r -> r.Protocol.resp_id = "3") (all ()) with
  | Some { Protocol.result = Error (Protocol.Overloaded, _); _ } -> ()
  | Some _ -> Alcotest.fail "refusal must carry the overloaded code"
  | None -> Alcotest.fail "refusal must respond synchronously");
  Atomic.set gate false;
  Server.shutdown srv;
  Alcotest.(check int) "handler never saw the refused request" 2
    (Atomic.get ran);
  Alcotest.(check int) "every request answered" 3 (List.length (all ()));
  let s = Tenant.snapshot (Tenant.find_or_create "adm") in
  Alcotest.(check int) "requests" 3 s.Tenant.snap_requests;
  Alcotest.(check int) "misses" 2 s.Tenant.snap_misses;
  Alcotest.(check int) "errors" 1 s.Tenant.snap_errors;
  Alcotest.(check int) "overloaded" 1 s.Tenant.snap_overloaded

(* ------------------------------------------------------------------ *)
(* Tenant isolation: separate shards, bit-equal results                *)
(* ------------------------------------------------------------------ *)

let with_temp_cache name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "catt-serve-%s-%d" name (Unix.getpid ()))
  in
  let old_dir = !Cache.dir and old_enabled = !Cache.enabled in
  Cache.dir := dir;
  Cache.enabled := true;
  Runner.clear_memo ();
  Fun.protect
    ~finally:(fun () ->
      Runner.clear_memo ();
      Cache.clear ();
      (try Unix.rmdir dir with Unix.Unix_error _ -> ());
      Cache.dir := old_dir;
      Cache.enabled := old_enabled)
    (fun () -> f ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* the manifest rides inside the entry but is provenance (wall time,
   metrics snapshot), not payload; the payload must digest identically *)
let payload_of_entry path =
  match Json.of_string (read_file path) with
  | Ok (Json.Obj fields) ->
    Json.to_string (Json.Obj (List.filter (fun (k, _) -> k <> "manifest") fields))
  | Ok _ | Error _ -> Alcotest.failf "unreadable cache entry %s" path

let test_tenant_shards_bit_equal () =
  with_temp_cache "shards" @@ fun () ->
  let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(16 * 1024) () in
  let w = Workloads.Registry.find "ATAX" in
  let run tenant =
    match Runner.exec (Runner.Request.make ~tenant cfg w Scheme.Baseline) with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  let ra = run "alpha" in
  let rb = run "beta" in
  Alcotest.(check int) "same cycles" ra.Runner.total_cycles rb.Runner.total_cycles;
  Alcotest.(check bool) "same kernel counters" true (ra.Runner.kernels = rb.Runner.kernels);
  let da = Cache.shard_dir ~tenant:"alpha" () in
  let db = Cache.shard_dir ~tenant:"beta" () in
  Alcotest.(check bool) "shards are distinct directories" false (da = db);
  Alcotest.(check bool) "shards live under the cache root" true
    (Filename.dirname da = !Cache.dir && Filename.dirname db = !Cache.dir);
  let path tenant =
    Cache.path ~tenant cfg ~workload:w.Workloads.Workload.name
      ~scheme:(Scheme.label Scheme.Baseline) ~seed:Runner.seed
  in
  let pa = path "alpha" and pb = path "beta" in
  Alcotest.(check bool) "alpha entry exists" true (Sys.file_exists pa);
  Alcotest.(check bool) "beta entry exists" true (Sys.file_exists pb);
  Alcotest.(check string) "content-addressed names agree across shards"
    (Filename.basename pa) (Filename.basename pb);
  Alcotest.(check string) "payloads bit-equal across shards"
    (payload_of_entry pa) (payload_of_entry pb)

(* tenant names are untrusted wire input: whatever the client sends, the
   shard must be a real subdirectory of the cache root — ".." must not
   escape it and "." must not alias the shared top-level cache — and
   distinct raw names must never collapse onto one shard *)
let test_tenant_shard_component_safe () =
  let root = !Cache.dir in
  let safe_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true
    | _ -> false
  in
  List.iter
    (fun tenant ->
      let d = Cache.shard_dir ~tenant () in
      let component = Filename.basename d in
      Alcotest.(check string)
        (Printf.sprintf "%S shards directly under the cache root" tenant)
        root (Filename.dirname d);
      Alcotest.(check bool)
        (Printf.sprintf "%S does not alias the shared cache" tenant)
        true
        (d <> root && component <> "." && component <> "..");
      Alcotest.(check bool)
        (Printf.sprintf "%S maps to [A-Za-z0-9_-]+ only" tenant)
        true
        (component <> "" && String.for_all safe_char component))
    [ ".."; "."; ""; "..."; "a/../../b"; "../../etc/passwd"; "a.b"; "x:y" ];
  let shard t = Cache.shard_dir ~tenant:t () in
  Alcotest.(check bool) "remapped names stay distinct" true
    (shard "a.b" <> shard "a-b"
    && shard "a.b" <> shard "a:b"
    && shard ".." <> shard ".")

(* a second request by the same tenant is served from the memo and the
   server attributes it as a cache hit; the first was a miss *)
let test_simulate_hit_miss_attribution () =
  with_temp_cache "attrib" @@ fun () ->
  Tenant.reset ();
  let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(16 * 1024) () in
  let srv = Server.create ~cfg ~jobs:1 ~queue_cap:4 () in
  let respond, all = collector () in
  let sim id =
    {
      Protocol.id;
      tenant = "hm";
      trace_id = None;
      kind =
        Protocol.Simulate
          { Protocol.workload = "ATAX"; scheme = Scheme.Baseline; co_resident = None };
    }
  in
  ignore (Server.post srv (sim "cold") ~respond);
  Server.drain srv;
  ignore (Server.post srv (sim "warm") ~respond);
  Server.shutdown srv;
  Alcotest.(check int) "both answered" 2 (List.length (all ()));
  List.iter
    (fun r ->
      match r.Protocol.result with
      | Ok _ -> ()
      | Error (_, msg) -> Alcotest.failf "%s failed: %s" r.Protocol.resp_id msg)
    (all ());
  let s = Tenant.snapshot (Tenant.find_or_create "hm") in
  Alcotest.(check int) "one miss (cold)" 1 s.Tenant.snap_misses;
  Alcotest.(check int) "one hit (warm, memo)" 1 s.Tenant.snap_hits;
  Alcotest.(check int) "no errors" 0 s.Tenant.snap_errors

(* the bucket of the histogram the reported percentile must fall in,
   given the exact nearest-rank answer *)
let bucket_hi v = snd (Obs.Histogram.bounds (Obs.Histogram.bucket_of v))
let bucket_lo v = fst (Obs.Histogram.bounds (Obs.Histogram.bucket_of v))

(* refusals are counted but must not contribute latency samples: a
   throttled tenant's p50/p99 describe the requests that were served,
   not zeros for the ones that were not.  The reported figure is the
   upper bound of the bucket holding the exact nearest-rank answer. *)
let test_latency_excludes_refusals () =
  Tenant.reset ();
  Obs.Metrics.reset ();
  let t = Tenant.find_or_create "lat" in
  Tenant.note t Tenant.Overloaded;
  Tenant.note ~latency_us:100 t Tenant.Miss;
  Tenant.note ~latency_us:200 t Tenant.Hit;
  Tenant.note t Tenant.Overloaded;
  let s = Tenant.snapshot t in
  Alcotest.(check int) "refusals still counted" 2 s.Tenant.snap_overloaded;
  Alcotest.(check int) "requests include refusals" 4 s.Tenant.snap_requests;
  Alcotest.(check int)
    "only handled requests recorded" 2
    s.Tenant.snap_lat.Obs.Histogram.s_count;
  (* exact nearest-rank p50 over {100, 200} is 100; p99 is 200.  The
     histogram reports the containing bucket's upper bound. *)
  Alcotest.(check int) "p50 = bucket bound of 100" (bucket_hi 100)
    s.Tenant.snap_p50_us;
  Alcotest.(check bool) "p50 bucket contains 100" true (bucket_lo 100 <= 100);
  Alcotest.(check int) "p99 = bucket bound of 200" (bucket_hi 200)
    s.Tenant.snap_p99_us;
  Alcotest.(check bool) "p99 bucket contains 200" true (bucket_lo 200 <= 200)

(* the latency store is a fixed-size histogram: a long-running daemon's
   ledger memory is bounded by the bucket count, never by request
   volume, and the percentiles cover the whole history *)
let test_latency_histogram_bounded () =
  Tenant.reset ();
  Obs.Metrics.reset ();
  let t = Tenant.find_or_create "ring" in
  let n = 4096 in
  for _ = 1 to n do
    Tenant.note ~latency_us:1_000_000 t Tenant.Miss
  done;
  for _ = 1 to n do
    Tenant.note ~latency_us:7 t Tenant.Hit
  done;
  let s = Tenant.snapshot t in
  Alcotest.(check int)
    "every sample counted" (2 * n)
    s.Tenant.snap_lat.Obs.Histogram.s_count;
  Alcotest.(check int) "two distinct values, two buckets" 2
    (List.length s.Tenant.snap_lat_buckets);
  (* nearest-rank p50 of (4096 x 7, 4096 x 1e6) sorted is 7 *)
  Alcotest.(check int) "p50 exact (tiny values have exact buckets)" 7
    s.Tenant.snap_p50_us;
  Alcotest.(check int) "p99 = bucket bound of 1e6" (bucket_hi 1_000_000)
    s.Tenant.snap_p99_us;
  Alcotest.(check bool) "p99 bucket contains 1e6" true
    (bucket_lo 1_000_000 <= 1_000_000)

(* ------------------------------------------------------------------ *)
(* Soak: 200 mixed requests, two tenants, jobs 4, cap engaged          *)
(* ------------------------------------------------------------------ *)

let test_soak_mixed_200 () =
  with_temp_cache "soak" @@ fun () ->
  Tenant.reset ();
  let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(16 * 1024) () in
  let gate = Atomic.make true in
  let handler req : Server.outcome =
    while Atomic.get gate do
      Unix.sleepf 0.001
    done;
    Server.default_handler cfg req
  in
  let queue_cap = 3 in
  let srv = Server.create ~handler ~cfg ~jobs:4 ~queue_cap () in
  let respond, all = collector () in
  let tenants = [| "acme"; "zeta" |] in
  let kind_of i =
    match i mod 8 with
    | 0 | 1 | 2 ->
      Protocol.Simulate
        { Protocol.workload = "ATAX"; scheme = Scheme.Baseline; co_resident = None }
    | 3 ->
      Protocol.Simulate
        { Protocol.workload = "MVT"; scheme = Scheme.Catt; co_resident = None }
    | 4 -> Protocol.Analyze "ATAX"
    | 5 -> Protocol.Explain "MVT"
    | 6 -> Protocol.Stats
    | _ -> Protocol.Analyze "no-such-workload"  (* a counted failure *)
  in
  let total = 200 in
  let posted = ref 0 in
  (* the tenant index must not be correlated with [kind_of]'s period 8,
     or one tenant would receive every failing request; the extra [i / 8]
     term alternates the phase each cycle *)
  let tenant_of i = tenants.((i + (i / 8)) mod Array.length tenants) in
  let post i =
    incr posted;
    ignore
      (Server.post srv
         {
           Protocol.id = string_of_int i;
           tenant = tenant_of i;
           trace_id = None;
           kind = kind_of i;
         }
         ~respond)
  in
  (* phase 1 — handler gated shut: the first [queue_cap] posts fill the
     queue, the next is refused.  Admission provably engaged. *)
  for i = 0 to queue_cap do
    post i
  done;
  let refused =
    List.filter
      (fun r ->
        match r.Protocol.result with
        | Error (Protocol.Overloaded, _) -> true
        | _ -> false)
      (all ())
  in
  Alcotest.(check int) "cap engaged while gated" 1 (List.length refused);
  (* phase 2 — open the gate and pour the rest through the pool.  The
     poster applies backpressure (waits for a free slot) so each of the
     200 logical requests is posted exactly once and the cache actually
     warms up; without it the burst would be refused wholesale. *)
  Atomic.set gate false;
  for i = queue_cap + 1 to total - 1 do
    while Server.in_flight srv >= queue_cap do
      Unix.sleepf 0.001
    done;
    post i
  done;
  Server.drain srv;
  Server.shutdown srv;
  Alcotest.(check int) "posted the full soak" total !posted;
  Alcotest.(check int) "every request answered exactly once" total
    (List.length (all ()));
  let ids = List.sort_uniq compare (List.map (fun r -> r.Protocol.resp_id) (all ())) in
  Alcotest.(check int) "response ids distinct" total (List.length ids);
  (* per-tenant ledger: every request is exactly one of hit/miss/error *)
  let snaps = List.map Tenant.snapshot (Tenant.all ()) in
  Alcotest.(check int) "two tenants seen" (Array.length tenants)
    (List.length snaps);
  List.iter
    (fun s ->
      Alcotest.(check int)
        (s.Tenant.snap_name ^ ": requests = hits + misses + errors")
        s.Tenant.snap_requests
        (s.Tenant.snap_hits + s.Tenant.snap_misses + s.Tenant.snap_errors);
      Alcotest.(check bool)
        (s.Tenant.snap_name ^ ": saw hits")
        true (s.Tenant.snap_hits > 0);
      Alcotest.(check bool)
        (s.Tenant.snap_name ^ ": saw misses")
        true (s.Tenant.snap_misses > 0);
      Alcotest.(check bool)
        (s.Tenant.snap_name ^ ": saw errors")
        true (s.Tenant.snap_errors > 0))
    snaps;
  Alcotest.(check int) "tenant ledgers cover the soak" total
    (List.fold_left (fun acc s -> acc + s.Tenant.snap_requests) 0 snaps);
  Alcotest.(check bool) "overload recorded in a ledger" true
    (List.exists (fun s -> s.Tenant.snap_overloaded > 0) snaps)

(* ------------------------------------------------------------------ *)
(* JSON-lines framing over a pipe                                      *)
(* ------------------------------------------------------------------ *)

let read_lines fd n =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let lines =
      List.filter
        (fun l -> String.trim l <> "")
        (String.split_on_char '\n' (Buffer.contents buf))
    in
    if List.length lines >= n then lines
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> lines
      | got ->
        Buffer.add_subbytes buf chunk 0 got;
        go ()
  in
  go ()

let test_serve_fd_pipe () =
  with_temp_cache "pipe" @@ fun () ->
  Tenant.reset ();
  let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(16 * 1024) () in
  let srv = Server.create ~cfg ~jobs:2 ~queue_cap:8 () in
  let in_r, in_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  let lines =
    [
      Protocol.request_to_line
        {
          Protocol.id = "sim";
          tenant = "pipe";
          trace_id = None;
          kind =
            Protocol.Simulate
              {
                Protocol.workload = "ATAX";
                scheme = Scheme.Baseline;
                co_resident = None;
              };
        };
      {|{"schema_version":1,"id":"st","tenant":"pipe","kind":"stats"}|};
      {|{"schema_version":99,"id":"old","tenant":"pipe","kind":"stats"}|};
      "this is not json";
    ]
  in
  let payload = String.concat "\n" lines ^ "\n" in
  let b = Bytes.of_string payload in
  ignore (Unix.write in_w b 0 (Bytes.length b));
  Unix.close in_w;
  (* EOF-terminated: serve_fd drains in-flight work before returning *)
  Server.serve_fd srv ~in_fd:in_r ~out_fd:out_w ~stop:(fun () -> false);
  Server.shutdown srv;
  Unix.close out_w;
  let responses =
    List.map
      (fun l ->
        match Json.of_string l with
        | Ok j -> (
          match Protocol.response_of_json j with
          | Ok r -> r
          | Error msg -> Alcotest.failf "bad response %s: %s" l msg)
        | Error msg -> Alcotest.failf "unparseable line %s: %s" l msg)
      (read_lines out_r 4)
  in
  Unix.close out_r;
  Unix.close in_r;
  Alcotest.(check int) "four responses" 4 (List.length responses);
  let find id = List.find_opt (fun r -> r.Protocol.resp_id = id) responses in
  (match find "sim" with
  | Some { Protocol.result = Ok payload; _ } ->
    Alcotest.(check string) "simulate echoes the workload" "ATAX"
      (Json.to_str (Json.member "workload" payload))
  | _ -> Alcotest.fail "simulate response missing or failed");
  (match find "st" with
  | Some { Protocol.result = Ok payload; _ } ->
    Alcotest.(check bool) "stats lists tenants" true
      (match Json.member "tenants" payload with
      | Json.List _ -> true
      | _ -> false)
  | _ -> Alcotest.fail "stats response missing or failed");
  (match find "old" with
  | Some { Protocol.result = Error (Protocol.Bad_request, _); _ } -> ()
  | _ ->
    Alcotest.fail
      "version refusal must still echo the salvageable request id");
  match find "" with
  | Some { Protocol.result = Error (Protocol.Bad_request, _); _ } -> ()
  | _ -> Alcotest.fail "garbage line must yield a bad_request envelope"

(* A client that sends one byte more than the line cap without a
   newline gets a bad_request and the connection closed: the request
   after it is never read, although its bytes are on the pipe before
   EOF (an uncapped reader would answer both and return only at EOF). *)
let test_serve_fd_line_cap () =
  let srv = Server.create ~cfg:small_cfg ~jobs:1 ~queue_cap:4 () in
  let in_r, in_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  let writer =
    Thread.create
      (fun () ->
        let b =
          Bytes.of_string
            (String.make (Server.max_line_bytes + 1) 'x'
            ^ "\n"
            ^ {|{"schema_version":1,"id":"after","tenant":"cap","kind":"stats"}|}
            ^ "\n")
        in
        (* the server stops reading at the cap; the few bytes after it
           fit in the pipe, so this never blocks *)
        let pos = ref 0 in
        while !pos < Bytes.length b do
          pos := !pos + Unix.write in_w b !pos (Bytes.length b - !pos)
        done;
        Unix.close in_w)
      ()
  in
  Server.serve_fd srv ~in_fd:in_r ~out_fd:out_w ~stop:(fun () -> false);
  Thread.join writer;
  Unix.close in_r;
  Server.shutdown srv;
  Unix.close out_w;
  let responses = read_lines out_r 2 in
  Unix.close out_r;
  match responses with
  | [ line ] -> (
    match Result.bind (Json.of_string line) Protocol.response_of_json with
    | Ok { Protocol.result = Error (Protocol.Bad_request, msg); _ } ->
      Alcotest.(check string) "names the cap"
        (Printf.sprintf "request line longer than %d bytes"
           Server.max_line_bytes)
        msg
    | _ -> Alcotest.failf "expected a bad_request, got %s" line)
  | l ->
    Alcotest.failf "expected one response before the close, got %d"
      (List.length l)

(* ------------------------------------------------------------------ *)
(* Socket: two interleaved clients                                     *)
(* ------------------------------------------------------------------ *)

(* read one response line with a deadline, so a regression to the old
   one-connection-at-a-time accept loop fails the assertion instead of
   hanging the suite *)
let read_line_deadline fd ~seconds =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> Some (String.sub (Buffer.contents buf) 0 i)
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then None
      else (
        match Unix.select [ fd ] [] [] left with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | [], _, _ -> None
        | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> None
          | got ->
            Buffer.add_subbytes buf chunk 0 got;
            go ()))
  in
  go ()

(* an idle client holding its connection open must not starve a later
   client: each accepted connection runs on its own thread (PR 7's
   serve_socket), so the second client's request round-trips while the
   first sits silent, and the first is still served afterwards *)
let test_socket_two_clients () =
  with_temp_cache "two-clients" @@ fun () ->
  Tenant.reset ();
  let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(16 * 1024) () in
  let srv = Server.create ~cfg ~jobs:2 ~queue_cap:8 () in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "catt-serve-two-%d.sock" (Unix.getpid ()))
  in
  let stop = Atomic.make false in
  let acceptor =
    Thread.create
      (fun () ->
        Server.serve_socket srv ~path ~stop:(fun () -> Atomic.get stop))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join acceptor;
      Server.shutdown srv;
      try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      let rec wait_sock n =
        if n = 0 then Alcotest.fail "socket never appeared"
        else if not (Sys.file_exists path) then (
          Unix.sleepf 0.01;
          wait_sock (n - 1))
      in
      wait_sock 500;
      let connect () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
      in
      let send fd id =
        let line =
          Protocol.request_to_line
            { Protocol.id; tenant = "two"; trace_id = None; kind = Protocol.Stats }
          ^ "\n"
        in
        let b = Bytes.of_string line in
        ignore (Unix.write fd b 0 (Bytes.length b))
      in
      let expect_stats fd id =
        match read_line_deadline fd ~seconds:10. with
        | None -> Alcotest.failf "no response for %s within the deadline" id
        | Some line -> (
          match Json.of_string line with
          | Error msg -> Alcotest.failf "unparseable response %s: %s" line msg
          | Ok j -> (
            match Protocol.response_of_json j with
            | Error msg -> Alcotest.failf "bad response envelope: %s" msg
            | Ok r ->
              Alcotest.(check string) (id ^ " correlated") id r.Protocol.resp_id;
              (match r.Protocol.result with
              | Ok _ -> ()
              | Error (_, msg) -> Alcotest.failf "%s failed: %s" id msg)))
      in
      let c1 = connect () in
      let c2 = connect () in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close c1 with Unix.Unix_error (_, _, _) -> ());
          try Unix.close c2 with Unix.Unix_error (_, _, _) -> ())
        (fun () ->
          (* client 1 stays idle; client 2, accepted later, must round-trip *)
          send c2 "second";
          expect_stats c2 "second";
          (* the idle client's connection is still live and served *)
          send c1 "first";
          expect_stats c1 "first"))

(* ------------------------------------------------------------------ *)
(* Co-resident pairs                                                   *)
(* ------------------------------------------------------------------ *)

(* the uncached entry point: these tests are about what the pair
   *simulation* does (attribution, determinism, refusals), so the
   pair-aware cache must not satisfy the second run from the first *)
let co_pair scheme_a scheme_b =
  let wa = Workloads.Registry.find "ATAX" in
  let wb = Workloads.Registry.find "MVT" in
  Runner.run_co_resident_uncached small_cfg wa scheme_a wb scheme_b

(* Co-residency perturbs timing (cycles, hit rates) but must not change
   what each kernel *does*: instruction and L1-access counts stay equal
   to the solo run, and both oracles still pass.  (Hit rates are NOT
   monotone — halving the partition can reduce self-thrashing.) *)
let test_co_resident_attribution () =
  match co_pair Scheme.Baseline Scheme.Baseline with
  | Error msg -> Alcotest.fail msg
  | Ok (ra, rb) ->
    Alcotest.(check bool) "A verified" true (ra.Runner.verified = Ok ());
    Alcotest.(check bool) "B verified" true (rb.Runner.verified = Ok ());
    Alcotest.(check bool) "A progressed" true (ra.Runner.total_cycles > 0);
    Alcotest.(check bool) "B progressed" true (rb.Runner.total_cycles > 0);
    let solo w =
      match
        Runner.exec_uncached
          (Runner.Request.make small_cfg (Workloads.Registry.find w)
             Scheme.Baseline)
      with
      | Ok r -> r
      | Error msg -> Alcotest.fail msg
    in
    let check_counts name (solo : Runner.app_run) (co : Runner.app_run) =
      List.iter2
        (fun (s : Runner.kernel_stats) (c : Runner.kernel_stats) ->
          Alcotest.(check string)
            (name ^ " kernel order preserved")
            s.Runner.kernel_name c.Runner.kernel_name;
          Alcotest.(check int)
            (name ^ "/" ^ s.Runner.kernel_name ^ " instructions attributed")
            s.Runner.stats.Gpusim.Stats.instructions
            c.Runner.stats.Gpusim.Stats.instructions;
          Alcotest.(check int)
            (name ^ "/" ^ s.Runner.kernel_name ^ " l1 accesses attributed")
            s.Runner.stats.Gpusim.Stats.l1_accesses
            c.Runner.stats.Gpusim.Stats.l1_accesses)
        solo.Runner.kernels co.Runner.kernels
    in
    check_counts "ATAX" (solo "ATAX") ra;
    check_counts "MVT" (solo "MVT") rb

let test_co_resident_deterministic () =
  match (co_pair Scheme.Catt Scheme.Baseline, co_pair Scheme.Catt Scheme.Baseline)
  with
  | Ok (a1, b1), Ok (a2, b2) ->
    Alcotest.(check int) "A cycles repeat" a1.Runner.total_cycles
      a2.Runner.total_cycles;
    Alcotest.(check int) "B cycles repeat" b1.Runner.total_cycles
      b2.Runner.total_cycles;
    Alcotest.(check bool) "A counters repeat" true
      (a1.Runner.kernels = a2.Runner.kernels);
    Alcotest.(check bool) "B counters repeat" true
      (b1.Runner.kernels = b2.Runner.kernels)
  | Error msg, _ | _, Error msg -> Alcotest.fail msg

(* unequal launch counts: GEMM has one launch, ATAX two, so ATAX's
   second kernel runs as a solo tail on the still-warm shared L2.  The
   tail keeps the pair phase's disjoint address split — it must never
   collect hits on GEMM's resident lines — so attribution still matches
   the solo run and the whole sequence stays deterministic. *)
let test_co_resident_unequal_tail () =
  let wa = Workloads.Registry.find "GEMM" in
  let wb = Workloads.Registry.find "ATAX" in
  let pair () =
    Runner.run_co_resident_uncached small_cfg wa Scheme.Baseline wb
      Scheme.Baseline
  in
  match (pair (), pair ()) with
  | Error msg, _ | _, Error msg -> Alcotest.fail msg
  | Ok (ra, rb), Ok (ra2, rb2) ->
    Alcotest.(check bool) "A verified" true (ra.Runner.verified = Ok ());
    Alcotest.(check bool) "B verified" true (rb.Runner.verified = Ok ());
    Alcotest.(check bool) "A repeats" true
      (ra.Runner.kernels = ra2.Runner.kernels);
    Alcotest.(check bool) "B repeats" true
      (rb.Runner.kernels = rb2.Runner.kernels);
    Alcotest.(check int) "B ran both kernels" 2 (List.length rb.Runner.kernels);
    let solo =
      match
        Runner.exec_uncached (Runner.Request.make small_cfg wb Scheme.Baseline)
      with
      | Ok r -> r
      | Error msg -> Alcotest.fail msg
    in
    List.iter2
      (fun (s : Runner.kernel_stats) (c : Runner.kernel_stats) ->
        Alcotest.(check string) "kernel order preserved" s.Runner.kernel_name
          c.Runner.kernel_name;
        Alcotest.(check int)
          (s.Runner.kernel_name ^ " instructions attributed")
          s.Runner.stats.Gpusim.Stats.instructions
          c.Runner.stats.Gpusim.Stats.instructions;
        Alcotest.(check int)
          (s.Runner.kernel_name ^ " l1 accesses attributed")
          s.Runner.stats.Gpusim.Stats.l1_accesses
          c.Runner.stats.Gpusim.Stats.l1_accesses)
      solo.Runner.kernels rb.Runner.kernels

let test_co_resident_refuses_runtime_schemes () =
  List.iter
    (fun scheme ->
      match co_pair scheme Scheme.Baseline with
      | Error _ -> ()
      | Ok _ ->
        Alcotest.failf "%s must be refused in co-resident mode"
          (Scheme.label scheme))
    [
      Scheme.Dynamic; Scheme.CcwsSched; Scheme.DawsSched; Scheme.Swl 4;
      (* the interference-aware hardware schemes carry per-SM monitor /
         shadow-tag state that cannot be attributed to one kernel *)
      Scheme.Ciao; Scheme.Ata;
    ]

(* the full handler path: a co-resident simulate request over the wire —
   cold it simulates (a miss), warm it serves from the pair-aware cache
   (a hit), including with the members swapped *)
let test_co_resident_request () =
  with_temp_cache "co-wire" @@ fun () ->
  let req workload other =
    {
      Protocol.id = "co";
      tenant = "pair";
      trace_id = None;
      kind =
        Protocol.Simulate
          {
            Protocol.workload;
            scheme = Scheme.Baseline;
            co_resident = Some (other, Scheme.Baseline);
          };
    }
  in
  let handle r =
    match Server.default_handler small_cfg r with
    | Error (_, msg) -> Alcotest.fail msg
    | Ok (payload, cached) -> (payload, cached)
  in
  let check_payload ~which (payload : Json.t) =
    Alcotest.(check bool) "flagged co-resident" true
      (match Json.member_opt "co_resident" payload with
      | Some (Json.Bool true) -> true
      | _ -> false);
    List.iter
      (fun (side, workload) ->
        match Json.member_opt side payload with
        | Some j ->
          Alcotest.(check string)
            (which ^ ": " ^ side ^ " attributed")
            workload
            (Json.to_str (Json.member "workload" j));
          Alcotest.(check bool)
            (which ^ ": " ^ side ^ " verified")
            true
            (Json.member "verified" j = Json.Bool true)
        | None -> Alcotest.failf "%s: missing %s summary" which side)
      (match which with
      | "swapped" -> [ ("a", "MVT"); ("b", "ATAX") ]
      | _ -> [ ("a", "ATAX"); ("b", "MVT") ])
  in
  let cold, cold_cached = handle (req "ATAX" "MVT") in
  check_payload ~which:"cold" cold;
  Alcotest.(check bool) "cold pair is a miss" false cold_cached;
  let warm, warm_cached = handle (req "ATAX" "MVT") in
  check_payload ~which:"warm" warm;
  Alcotest.(check bool) "repeat pair is a hit" true warm_cached;
  Alcotest.(check string) "warm payload bit-equal" (Json.to_string cold)
    (Json.to_string warm);
  (* the same pair requested in the other order: still a hit, with the
     per-side attribution swapped back to the caller's order *)
  let swapped, swapped_cached = handle (req "MVT" "ATAX") in
  check_payload ~which:"swapped" swapped;
  Alcotest.(check bool) "swapped pair is a hit" true swapped_cached

(* the runner's pair cache end-to-end: a cold pair simulates and persists
   to the tenant's disk shard; warm it serves from memo; a cold process
   (memo cleared) serves it from disk with identical counters; and both
   member orders address the same entry with attribution swapped *)
let test_co_resident_cache_roundtrip () =
  with_temp_cache "pair-cache" @@ fun () ->
  let wa = Workloads.Registry.find "ATAX" in
  let wb = Workloads.Registry.find "MVT" in
  let run ?(swap = false) () =
    let (x, sx), (y, sy) =
      if swap then ((wb, Scheme.Catt), (wa, Scheme.Baseline))
      else ((wa, Scheme.Baseline), (wb, Scheme.Catt))
    in
    match Runner.run_co_resident_with_source ~tenant:"pc" small_cfg x sx y sy with
    | Ok v -> v
    | Error msg -> Alcotest.fail msg
  in
  let sim0 = Runner.simulated_total () in
  let (ra, rb), src = run () in
  Alcotest.(check bool) "cold pair simulates" true (src = Runner.Simulated);
  Alcotest.(check int) "one simulated cell" 1
    (Runner.simulated_total () - sim0);
  (* the entry landed in the tenant's shard under the order-normalized
     pair identity *)
  let _, workload_label, scheme_pair_label, swap =
    Runner.pair_identity wa Scheme.Baseline wb Scheme.Catt
  in
  Alcotest.(check bool) "ATAX+baseline sorts first" false swap;
  let entry =
    Cache.path ~tenant:"pc" small_cfg ~workload:workload_label
      ~scheme:scheme_pair_label ~seed:Runner.seed
  in
  Alcotest.(check bool) "pair entry persisted to the shard" true
    (Sys.file_exists entry);
  (* warm: memo, no new simulation *)
  let (ra2, rb2), src2 = run () in
  Alcotest.(check bool) "warm pair from memo" true (src2 = Runner.Memo);
  Alcotest.(check bool) "memo counters bit-equal" true
    (ra.Runner.kernels = ra2.Runner.kernels
    && rb.Runner.kernels = rb2.Runner.kernels);
  (* cold process: memo dropped, disk serves the same bits *)
  Runner.clear_memo ();
  let (ra3, rb3), src3 = run () in
  Alcotest.(check bool) "cold process hits disk" true (src3 = Runner.Disk);
  Alcotest.(check bool) "disk counters bit-equal" true
    (ra.Runner.kernels = ra3.Runner.kernels
    && rb.Runner.kernels = rb3.Runner.kernels);
  (* swapped-order lookup: same entry, attribution swapped back *)
  let (sb, sa), src4 = run ~swap:true () in
  Alcotest.(check bool) "swapped lookup is served, not simulated" true
    (src4 = Runner.Memo || src4 = Runner.Disk);
  Alcotest.(check string) "swapped side a is MVT" "MVT" sb.Runner.workload;
  Alcotest.(check string) "swapped side b is ATAX" "ATAX" sa.Runner.workload;
  Alcotest.(check bool) "swapped counters bit-equal" true
    (sa.Runner.kernels = ra.Runner.kernels
    && sb.Runner.kernels = rb.Runner.kernels);
  Alcotest.(check int) "nothing re-simulated after the cold run" 1
    (Runner.simulated_total () - sim0)

(* ------------------------------------------------------------------ *)
(* Request coalescing (single flight) through the server               *)
(* ------------------------------------------------------------------ *)

(* K concurrent identical simulate requests from K different tenants: a
   countdown gate holds every request inside the handler until all K have
   arrived, so they provably race into the runner together.  Exactly one
   simulation runs (the leader); every other response is fanned out from
   it; per-tenant attribution and per-tenant shard storage survive. *)
let test_coalesced_identical_requests () =
  with_temp_cache "dedup" @@ fun () ->
  Tenant.reset ();
  let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(16 * 1024) () in
  let k = 4 in
  let inside = Atomic.make 0 in
  let handler req : Server.outcome =
    Atomic.incr inside;
    while Atomic.get inside < k do
      Unix.sleepf 0.001
    done;
    Server.default_handler cfg req
  in
  let srv = Server.create ~handler ~cfg ~jobs:k ~queue_cap:k () in
  let respond, all = collector () in
  let sim0 = Runner.simulated_total () in
  let coal0 = Runner.coalesced_total () in
  for i = 1 to k do
    let d =
      Server.post srv
        {
          Protocol.id = Printf.sprintf "r%d" i;
          tenant = Printf.sprintf "flight%d" i;
          trace_id = None;
          kind =
            Protocol.Simulate
              {
                Protocol.workload = "ATAX";
                scheme = Scheme.Baseline;
                co_resident = None;
              };
        }
        ~respond
    in
    Alcotest.(check bool) "admitted" true (d = `Dispatched)
  done;
  Server.shutdown srv;
  Alcotest.(check int) "all inside the handler together" k (Atomic.get inside);
  Alcotest.(check int) "K responses" k (List.length (all ()));
  List.iter
    (fun r ->
      match r.Protocol.result with
      | Ok payload ->
        Alcotest.(check string)
          (r.Protocol.resp_id ^ " carries the shared result")
          "ATAX"
          (Json.to_str (Json.member "workload" payload))
      | Error (_, msg) -> Alcotest.failf "%s failed: %s" r.Protocol.resp_id msg)
    (all ());
  Alcotest.(check int) "exactly one simulation" 1
    (Runner.simulated_total () - sim0);
  Alcotest.(check int) "the other K-1 coalesced" (k - 1)
    (Runner.coalesced_total () - coal0);
  Alcotest.(check int) "flight table quiescent" 0
    (Runner.flights_in_progress ());
  (* attribution: the leader's tenant took the one miss, every follower
     tenant a hit; each request still counted under its own tenant *)
  let snaps =
    List.filter
      (fun s ->
        String.length s.Tenant.snap_name >= 6
        && String.sub s.Tenant.snap_name 0 6 = "flight")
      (List.map Tenant.snapshot (Tenant.all ()))
  in
  Alcotest.(check int) "K tenants ledgered" k (List.length snaps);
  List.iter
    (fun s ->
      Alcotest.(check int)
        (s.Tenant.snap_name ^ ": one request")
        1 s.Tenant.snap_requests;
      Alcotest.(check int) (s.Tenant.snap_name ^ ": no errors") 0
        s.Tenant.snap_errors)
    snaps;
  Alcotest.(check int) "one miss (the leader)" 1
    (List.fold_left (fun a s -> a + s.Tenant.snap_misses) 0 snaps);
  Alcotest.(check int) "K-1 hits (the followers)" (k - 1)
    (List.fold_left (fun a s -> a + s.Tenant.snap_hits) 0 snaps);
  (* every tenant owns a shard copy — a later cold process for any of
     them hits disk without re-simulating *)
  for i = 1 to k do
    let tenant = Printf.sprintf "flight%d" i in
    Alcotest.(check bool)
      (tenant ^ " has its own shard entry")
      true
      (Sys.file_exists
         (Cache.path ~tenant cfg ~workload:"ATAX"
            ~scheme:(Scheme.label Scheme.Baseline) ~seed:Runner.seed))
  done

(* Joiners of a flight whose leader read the entry from disk: the test
   itself leads the cell's flight (as a disk hit would) and publishes only
   once every joiner is attached, so the joins are certain, not a race.
   Joiners of the leader's own tenant find the entry already in their
   shard and write nothing; a joiner of another tenant still gets its
   shard entry. *)
let test_joiner_restore_skipped () =
  with_temp_cache "joiners" @@ fun () ->
  let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(16 * 1024) () in
  let w = Workloads.Registry.find "ATAX" in
  let req tenant = Runner.Request.make ~tenant cfg w Scheme.Baseline in
  let run =
    match Runner.exec_with_source (req "home") with
    | Ok (r, _) -> r
    | Error msg -> Alcotest.failf "seed run failed: %s" msg
  in
  Runner.clear_memo ();
  let stores0 = (Cache.stats ()).Cache.stores in
  let key = Runner.memo_key cfg w Scheme.Baseline in
  let tenants = [| "home"; "home"; "away" |] in
  let got = Array.make (Array.length tenants) None in
  let threads = ref [] in
  let lead =
    Gpu_util.Single_flight.run_tagged Runner.cell_ladder.Runner.flights key ~tag:""
      (fun () ->
        threads :=
          List.init (Array.length tenants) (fun i ->
              Thread.create
                (fun () -> got.(i) <- Some (Runner.exec_with_source (req tenants.(i))))
                ());
        while
          Gpu_util.Single_flight.joined Runner.cell_ladder.Runner.flights key
          < Array.length tenants
        do
          Thread.yield ()
        done;
        Ok (run, Runner.Disk))
  in
  List.iter Thread.join !threads;
  Alcotest.(check bool) "test led the flight" true
    (match lead with `Led _ -> true | `Joined _ -> false);
  Array.iteri
    (fun i g ->
      match g with
      | Some (Ok (_, Runner.Coalesced)) -> ()
      | _ -> Alcotest.failf "joiner %d (%s) was not coalesced" i tenants.(i))
    got;
  Alcotest.(check int) "only the other tenant's shard written" 1
    ((Cache.stats ()).Cache.stores - stores0);
  Alcotest.(check bool) "other tenant has its shard entry" true
    (Sys.file_exists
       (Cache.path ~tenant:"away" cfg ~workload:"ATAX"
          ~scheme:(Scheme.label Scheme.Baseline) ~seed:Runner.seed))

(* ------------------------------------------------------------------ *)
(* Per-tenant quotas                                                   *)
(* ------------------------------------------------------------------ *)

(* with [tenant_quota = 2] and a global cap of 8: the noisy tenant's
   third concurrent request is refused deterministically while a second
   tenant still gets in — and the refusal lands in [quota_refusals], not
   [overloaded] *)
let test_tenant_quota_refusal () =
  Tenant.reset ();
  let gate = Atomic.make true in
  let handler (_ : Protocol.request) : Server.outcome =
    while Atomic.get gate do
      Unix.sleepf 0.001
    done;
    Ok (Json.Null, false)
  in
  let srv =
    Server.create ~handler ~cfg:small_cfg ~jobs:4 ~queue_cap:8 ~tenant_quota:2
      ()
  in
  let respond, all = collector () in
  let d1 = Server.post srv (stats_req ~tenant:"noisy" "n1") ~respond in
  let d2 = Server.post srv (stats_req ~tenant:"noisy" "n2") ~respond in
  let d3 = Server.post srv (stats_req ~tenant:"noisy" "n3") ~respond in
  let d4 = Server.post srv (stats_req ~tenant:"quiet" "q1") ~respond in
  Alcotest.(check bool) "noisy #1 admitted" true (d1 = `Dispatched);
  Alcotest.(check bool) "noisy #2 admitted" true (d2 = `Dispatched);
  Alcotest.(check bool) "noisy #3 refused at quota" true (d3 = `Rejected);
  Alcotest.(check bool) "quiet unaffected" true (d4 = `Dispatched);
  Alcotest.(check int) "noisy holds its quota" 2
    (Server.tenant_in_flight srv "noisy");
  (* same wire envelope as a global-cap refusal: one client retry path *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match List.find_opt (fun r -> r.Protocol.resp_id = "n3") (all ()) with
  | Some { Protocol.result = Error (Protocol.Overloaded, msg); _ } ->
    Alcotest.(check bool) "refusal names the quota" true (contains msg "quota")
  | Some _ -> Alcotest.fail "quota refusal must use the overloaded envelope"
  | None -> Alcotest.fail "quota refusal must respond synchronously");
  Atomic.set gate false;
  Server.shutdown srv;
  Alcotest.(check int) "every request answered" 4 (List.length (all ()));
  (* slots released and the table cleaned on completion *)
  Alcotest.(check int) "noisy slots released" 0
    (Server.tenant_in_flight srv "noisy");
  let noisy = Tenant.snapshot (Tenant.find_or_create "noisy") in
  let quiet = Tenant.snapshot (Tenant.find_or_create "quiet") in
  Alcotest.(check int) "noisy requests" 3 noisy.Tenant.snap_requests;
  Alcotest.(check int) "noisy errors" 1 noisy.Tenant.snap_errors;
  Alcotest.(check int) "ledgered as quota refusal" 1
    noisy.Tenant.snap_quota_refusals;
  Alcotest.(check int) "not as global overload" 0 noisy.Tenant.snap_overloaded;
  Alcotest.(check int) "quiet clean" 0 quiet.Tenant.snap_errors

(* ------------------------------------------------------------------ *)
(* serve_fd regression: per-connection drain                           *)
(* ------------------------------------------------------------------ *)

(* one connection's EOF must not block on another connection's backlog:
   connection A holds a gated request in flight; connection B sends one
   fast request and EOF, and its serve_fd must return while A's work is
   still pending.  (The old global [drain t] deadlocked here.) *)
let test_serve_fd_per_connection_drain () =
  Tenant.reset ();
  let gate = Atomic.make true in
  let handler (req : Protocol.request) : Server.outcome =
    (match req.Protocol.kind with
    | Protocol.Analyze _ ->
      while Atomic.get gate do
        Unix.sleepf 0.001
      done
    | _ -> ());
    Ok (Json.Null, false)
  in
  let srv = Server.create ~handler ~cfg:small_cfg ~jobs:2 ~queue_cap:4 () in
  let a_in_r, a_in_w = Unix.pipe () in
  let a_out_r, a_out_w = Unix.pipe () in
  let b_in_r, b_in_w = Unix.pipe () in
  let b_out_r, b_out_w = Unix.pipe () in
  let ta =
    Thread.create
      (fun () ->
        Server.serve_fd srv ~in_fd:a_in_r ~out_fd:a_out_w
          ~stop:(fun () -> false))
      ()
  in
  let line r = Protocol.request_to_line r ^ "\n" in
  let send fd s =
    let b = Bytes.of_string s in
    ignore (Unix.write fd b 0 (Bytes.length b))
  in
  send a_in_w
    (line
       {
         Protocol.id = "slow";
         tenant = "a";
         trace_id = None;
         kind = Protocol.Analyze "x";
       });
  (* A's request is provably admitted before B shows up *)
  let rec wait_inflight n =
    if n = 0 then Alcotest.fail "A's request never got admitted"
    else if Server.in_flight srv < 1 then (
      Unix.sleepf 0.01;
      wait_inflight (n - 1))
  in
  wait_inflight 500;
  send b_in_w
    (line
       {
         Protocol.id = "fast";
         tenant = "b";
         trace_id = None;
         kind = Protocol.Stats;
       });
  Unix.close b_in_w;
  let b_done = Atomic.make false in
  let tb =
    Thread.create
      (fun () ->
        Server.serve_fd srv ~in_fd:b_in_r ~out_fd:b_out_w
          ~stop:(fun () -> false);
        Atomic.set b_done true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Atomic.get b_done)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  Alcotest.(check bool) "B returned on EOF while A still busy" true
    (Atomic.get b_done);
  Alcotest.(check bool) "A's gated request is still in flight" true
    (Server.in_flight srv >= 1);
  (match read_line_deadline b_out_r ~seconds:5. with
  | Some l ->
    Alcotest.(check bool) "B got its response before returning" true
      (match Json.of_string l with
      | Ok j -> (
        match Protocol.response_of_json j with
        | Ok r -> r.Protocol.resp_id = "fast"
        | Error _ -> false)
      | Error _ -> false)
  | None -> Alcotest.fail "B's response missing");
  Atomic.set gate false;
  Unix.close a_in_w;
  Thread.join ta;
  Thread.join tb;
  Server.shutdown srv;
  List.iter Unix.close [ a_in_r; a_out_r; a_out_w; b_in_r; b_out_r; b_out_w ]

(* ------------------------------------------------------------------ *)
(* serve_socket regression: finished connections are reaped            *)
(* ------------------------------------------------------------------ *)

(* a long-lived daemon serving many short-lived clients must not
   accumulate one dead thread per connection ever accepted: after N
   sequential connect/request/close cycles, the tracked set drains back
   to zero as the accept loop turns.  (The old loop held every thread
   until shutdown.) *)
let test_serve_socket_reaps_connections () =
  Tenant.reset ();
  let handler (_ : Protocol.request) : Server.outcome = Ok (Json.Null, false) in
  let srv = Server.create ~handler ~cfg:small_cfg ~jobs:2 ~queue_cap:8 () in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "catt-serve-reap-%d.sock" (Unix.getpid ()))
  in
  let stop = Atomic.make false in
  let acceptor =
    Thread.create
      (fun () ->
        Server.serve_socket srv ~path ~stop:(fun () -> Atomic.get stop))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join acceptor;
      Server.shutdown srv;
      try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      let rec wait_sock n =
        if n = 0 then Alcotest.fail "socket never appeared"
        else if not (Sys.file_exists path) then (
          Unix.sleepf 0.01;
          wait_sock (n - 1))
      in
      wait_sock 500;
      let n = 8 in
      for i = 1 to n do
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        let line =
          Protocol.request_to_line
            {
              Protocol.id = Printf.sprintf "c%d" i;
              tenant = "reap";
              trace_id = None;
              kind = Protocol.Stats;
            }
          ^ "\n"
        in
        let b = Bytes.of_string line in
        ignore (Unix.write fd b 0 (Bytes.length b));
        (match read_line_deadline fd ~seconds:10. with
        | Some _ -> ()
        | None -> Alcotest.failf "no response on connection %d" i);
        Unix.close fd
      done;
      (* every connection thread finishes, and the accept loop's periodic
         reap (each 0.2s select turn) drops them from the tracked set *)
      let wait_zero name read =
        let deadline = Unix.gettimeofday () +. 10. in
        while read () > 0 && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.02
        done;
        Alcotest.(check int) name 0 (read ())
      in
      wait_zero "no live connections remain" (fun () ->
          Server.live_connections srv);
      wait_zero "finished connections reaped, not accumulated" (fun () ->
          Server.tracked_connections srv))

(* ------------------------------------------------------------------ *)
(* Pipelining: many requests, one write                                *)
(* ------------------------------------------------------------------ *)

(* a client that writes a whole burst of requests in ONE write: the
   cursor-based reader must tear every line out of the one buffer (the
   old reader re-materialized the buffer per line — O(n²) across the
   burst) and every request must be answered exactly once *)
let test_pipelined_burst_single_write () =
  Tenant.reset ();
  let handler (_ : Protocol.request) : Server.outcome = Ok (Json.Null, false) in
  let k = 100 in
  let srv = Server.create ~handler ~cfg:small_cfg ~jobs:2 ~queue_cap:k () in
  let in_r, in_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  let payload =
    String.concat ""
      (List.init k (fun i ->
           Protocol.request_to_line
             {
               Protocol.id = Printf.sprintf "p%d" i;
               tenant = "burst";
               trace_id = None;
               kind = Protocol.Stats;
             }
           ^ "\n"))
  in
  (* the last request arrives with no trailing newline: EOF must still
     flush it as a line *)
  let payload =
    payload
    ^ Protocol.request_to_line
        {
          Protocol.id = "tail";
          tenant = "burst";
          trace_id = None;
          kind = Protocol.Stats;
        }
  in
  let b = Bytes.of_string payload in
  let written = Unix.write in_w b 0 (Bytes.length b) in
  Alcotest.(check int) "burst fits one write" (Bytes.length b) written;
  Unix.close in_w;
  Server.serve_fd srv ~in_fd:in_r ~out_fd:out_w ~stop:(fun () -> false);
  Server.shutdown srv;
  Unix.close out_w;
  let responses = read_lines out_r (k + 1) in
  Unix.close out_r;
  Unix.close in_r;
  Alcotest.(check int) "every request answered" (k + 1)
    (List.length responses);
  let ids =
    List.sort_uniq compare
      (List.map
         (fun l ->
           match Json.of_string l with
           | Ok j -> (
             match Protocol.response_of_json j with
             | Ok r -> r.Protocol.resp_id
             | Error msg -> Alcotest.failf "bad response %s: %s" l msg)
           | Error msg -> Alcotest.failf "unparseable line %s: %s" l msg)
         responses)
  in
  Alcotest.(check int) "ids distinct, none dropped or doubled" (k + 1)
    (List.length ids);
  Alcotest.(check bool) "unterminated tail answered" true
    (List.mem "tail" ids)

(* ------------------------------------------------------------------ *)
(* Live admin plane: the stats envelope                                *)
(* ------------------------------------------------------------------ *)

let test_stats_envelope () =
  Tenant.reset ();
  Obs.Metrics.reset ();
  let srv =
    Server.create ~cfg:small_cfg ~jobs:2 ~queue_cap:5 ~tenant_quota:3 ()
  in
  let respond, all = collector () in
  (* first request seeds the tenant ledger and its latency histogram;
     the second snapshots with that history visible *)
  ignore (Server.post srv (stats_req ~tenant:"envel" "warm") ~respond);
  Server.drain srv;
  ignore (Server.post srv (stats_req ~tenant:"envel" "snap") ~respond);
  Server.shutdown srv;
  let payload =
    match List.find_opt (fun r -> r.Protocol.resp_id = "snap") (all ()) with
    | Some { Protocol.result = Ok p; _ } -> p
    | _ -> Alcotest.fail "stats response missing or failed"
  in
  Alcotest.(check int) "stats_version" Server.stats_version
    (Json.to_int (Json.member "stats_version" payload));
  let tenants = Json.to_list (Json.member "tenants" payload) in
  let envel =
    match
      List.find_opt
        (fun t -> Json.to_str (Json.member "tenant" t) = "envel")
        tenants
    with
    | Some t -> t
    | None -> Alcotest.fail "tenant envel missing from stats"
  in
  let lat = Json.member "latency_us" envel in
  Alcotest.(check bool) "latency histogram counted the warm request" true
    (Json.to_int (Json.member "count" lat) >= 1);
  Alcotest.(check bool) "sparse buckets exported" true
    (match Json.member "buckets" lat with
    | Json.List (_ :: _) -> true
    | _ -> false);
  Alcotest.(check bool) "p99 >= p50" true
    (Json.to_int (Json.member "p99" lat) >= Json.to_int (Json.member "p50" lat));
  (* the whole process metrics registry rides in *)
  let metrics = Json.member "metrics" payload in
  Alcotest.(check int) "serve.requests counted" 2
    (Json.to_int (Json.member "serve.requests" metrics));
  (match Json.member_opt "serve.latency_us.envel" metrics with
  | Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail "tenant histogram missing from the metrics snapshot");
  (match Json.member_opt "serve.queue_depth" metrics with
  | Some (Json.Float _) -> ()
  | _ -> Alcotest.fail "queue depth gauge missing");
  (match Json.member_opt "serve.live_connections" metrics with
  | Some (Json.Float 0.) -> ()
  | _ -> Alcotest.fail "live connections gauge missing (or nonzero)");
  (* the live server block: present because a running server answered *)
  let server = Json.member "server" payload in
  Alcotest.(check int) "queue_cap" 5
    (Json.to_int (Json.member "queue_cap" server));
  Alcotest.(check int) "tenant_quota" 3
    (Json.to_int (Json.member "tenant_quota" server));
  Alcotest.(check int) "jobs" 2 (Json.to_int (Json.member "jobs" server));
  Alcotest.(check int) "queue_depth sees the stats request itself" 1
    (Json.to_int (Json.member "queue_depth" server));
  Alcotest.(check int) "no flights in progress" 0
    (Json.to_int (Json.member "flights_in_progress" server));
  Alcotest.(check int) "no socket connections" 0
    (Json.to_int (Json.member "live_connections" server));
  (* the bare default handler (no live server) omits the server block *)
  match Server.default_handler small_cfg (stats_req ~tenant:"envel" "bare") with
  | Ok (p, _) ->
    Alcotest.(check bool) "no server block without a live server" true
      (Json.member_opt "server" p = None)
  | Error _ -> Alcotest.fail "bare default handler failed"

(* ------------------------------------------------------------------ *)
(* Tracing: request spans over the serve path, Perfetto export         *)
(* ------------------------------------------------------------------ *)

let with_tracing f =
  let was = !Obs.Span.enabled in
  Obs.Span.reset ();
  Obs.Span.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.enabled := was;
      Obs.Span.reset ())
    f

let str_attr (s : Obs.Span.t) key =
  match List.assoc_opt key (Obs.Span.attrs s) with
  | Some (Obs.Span.Str v) -> Some v
  | _ -> None

let spans_named name spans =
  List.filter (fun (s : Obs.Span.t) -> s.Obs.Span.name = name) spans

(* a pipelined burst of simulate requests, each with a client-supplied
   trace id, served over serve_fd with tracing on: every layer's span —
   serve.request, pool.task, runner.run — carries the id, and the whole
   set exports as one well-formed Perfetto file with per-track monotone
   timestamps *)
let test_serve_trace_export () =
  with_temp_cache "trace" @@ fun () ->
  Tenant.reset ();
  Runner.clear_memo ();
  with_tracing @@ fun () ->
  let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(16 * 1024) () in
  let srv = Server.create ~cfg ~jobs:2 ~queue_cap:16 () in
  let k = 6 in
  let payload =
    String.concat ""
      (List.init k (fun i ->
           Protocol.request_to_line
             {
               Protocol.id = Printf.sprintf "t%d" i;
               tenant = "traced";
               trace_id = Some (Printf.sprintf "cli-%d" i);
               kind =
                 Protocol.Simulate
                   {
                     Protocol.workload = "ATAX";
                     scheme = Scheme.Baseline;
                     co_resident = None;
                   };
             }
           ^ "\n"))
  in
  let in_r, in_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  let b = Bytes.of_string payload in
  ignore (Unix.write in_w b 0 (Bytes.length b));
  Unix.close in_w;
  Server.serve_fd srv ~in_fd:in_r ~out_fd:out_w ~stop:(fun () -> false);
  Server.shutdown srv;
  Unix.close out_w;
  let responses = read_lines out_r k in
  Unix.close out_r;
  Unix.close in_r;
  Alcotest.(check int) "every request answered" k (List.length responses);
  let spans = Obs.Span.finished () in
  let expected_ids = List.init k (Printf.sprintf "cli-%d") in
  let reqs = spans_named "serve.request" spans in
  Alcotest.(check int) "one request span per request" k (List.length reqs);
  Alcotest.(check (list string))
    "client trace ids propagate to the request spans" expected_ids
    (List.sort compare (List.filter_map (fun s -> str_attr s "trace_id") reqs));
  Alcotest.(check (list string)) "runner spans correlated by trace id"
    expected_ids
    (List.sort compare
       (List.filter_map
          (fun s -> str_attr s "trace_id")
          (spans_named "runner.run" spans)));
  Alcotest.(check bool) "pool tasks carry the trace id" true
    (List.exists
       (fun s -> str_attr s "trace_id" <> None)
       (spans_named "pool.task" spans));
  (* one cell behind k requests: exactly one simulation (memo/flight) *)
  Alcotest.(check int) "one simulation span" 1
    (List.length (spans_named "runner.simulate" spans));
  let events =
    Obs.Trace_event.process_name ~pid:1 "catt_d host"
    :: Obs.Trace_event.of_spans ~pid:1 spans
  in
  let rendered = Obs.Trace_event.to_string events in
  match Json.of_string rendered with
  | Error msg -> Alcotest.failf "trace JSON does not parse: %s" msg
  | Ok json ->
    let evs = Json.to_list (Json.member "traceEvents" json) in
    Alcotest.(check int) "every span rendered" (List.length events)
      (List.length evs);
    let last_ts = Hashtbl.create 8 in
    let traced = ref 0 in
    List.iter
      (fun e ->
        if Json.to_str (Json.member "ph" e) = "X" then begin
          let key =
            ( Json.to_int (Json.member "pid" e),
              Json.to_int (Json.member "tid" e) )
          in
          let ts = Json.to_int (Json.member "ts" e) in
          (match Hashtbl.find_opt last_ts key with
          | Some prev ->
            Alcotest.(check bool) "ts monotone per track" true (prev <= ts)
          | None -> ());
          Hashtbl.replace last_ts key ts;
          match Json.member_opt "args" e with
          | Some args -> (
            match Json.member_opt "trace_id" args with
            | Some (Json.String _) -> incr traced
            | _ -> ())
          | None -> ()
        end)
      evs;
    (* at least the request and runner layers stamp every slice *)
    Alcotest.(check bool) "slices correlated by trace_id args" true
      (!traced >= 2 * k)

(* K gated identical requests with distinct client trace ids: the flight
   leader deposits its id on the single-flight entry, so each joiner's
   runner.run span records [leader_trace_id] — the linkage that lets a
   trace viewer answer "whose simulation did this request ride?" *)
let test_coalesced_trace_linkage () =
  with_temp_cache "lnk" @@ fun () ->
  Tenant.reset ();
  Runner.clear_memo ();
  with_tracing @@ fun () ->
  let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(16 * 1024) () in
  let k = 4 in
  let inside = Atomic.make 0 in
  let handler req : Server.outcome =
    Atomic.incr inside;
    while Atomic.get inside < k do
      Unix.sleepf 0.001
    done;
    Server.default_handler cfg req
  in
  let srv = Server.create ~handler ~cfg ~jobs:k ~queue_cap:k () in
  let respond, all = collector () in
  for i = 1 to k do
    let d =
      Server.post srv
        {
          Protocol.id = Printf.sprintf "l%d" i;
          tenant = Printf.sprintf "lnk%d" i;
          trace_id = Some (Printf.sprintf "lnk-%d" i);
          kind =
            Protocol.Simulate
              {
                Protocol.workload = "ATAX";
                scheme = Scheme.Baseline;
                co_resident = None;
              };
        }
        ~respond
    in
    Alcotest.(check bool) "admitted" true (d = `Dispatched)
  done;
  Server.shutdown srv;
  Alcotest.(check int) "K responses" k (List.length (all ()));
  let runs = spans_named "runner.run" (Obs.Span.finished ()) in
  Alcotest.(check int) "K runner.run spans" k (List.length runs);
  let joiners, leaders =
    List.partition
      (fun s -> List.mem_assoc "leader_trace_id" (Obs.Span.attrs s))
      runs
  in
  Alcotest.(check int) "exactly one flight leader" 1 (List.length leaders);
  let leader_id =
    match str_attr (List.hd leaders) "trace_id" with
    | Some tid -> tid
    | None -> Alcotest.fail "leader span lost its trace id"
  in
  Alcotest.(check int) "K-1 joiners" (k - 1) (List.length joiners);
  List.iter
    (fun s ->
      (match str_attr s "leader_trace_id" with
      | Some l ->
        Alcotest.(check string) "joiner linked to the leader's trace" leader_id
          l
      | None -> Alcotest.fail "joiner missing leader_trace_id");
      match str_attr s "trace_id" with
      | Some own ->
        Alcotest.(check bool) "joiner keeps its own trace id" true
          (own <> leader_id)
      | None -> Alcotest.fail "joiner span lost its trace id")
    joiners

(* An explain request runs the CATT pass once per kernel and renders
   both forms from it: counted by the driver's [catt.analyze] spans.  The
   pass is memoized per config and workload, so a second explain runs
   none.  The answer is the pinned provenance record and the CLI's
   rendering. *)
let test_explain_analyzes_once () =
  let w = Workloads.Registry.find "ATAX" in
  let kernels = List.length (Workloads.Workload.kernels w) in
  let was = !Obs.Span.enabled in
  let explain () =
    Obs.Span.reset ();
    Obs.Span.enabled := true;
    let answer =
      Fun.protect
        ~finally:(fun () -> Obs.Span.enabled := was)
        (fun () ->
          Server.default_handler small_cfg
            { Protocol.id = "e"; tenant = "t"; trace_id = None;
              kind = Protocol.Explain "ATAX" })
    in
    let passes =
      List.length
        (List.filter
           (fun (sp : Obs.Span.t) -> sp.Obs.Span.name = "catt.analyze")
           (Obs.Span.finished ()))
    in
    Obs.Span.reset ();
    (answer, passes)
  in
  Runner.clear_memo ();
  let answer, passes = explain () in
  Alcotest.(check int) "one CATT pass per kernel" kernels passes;
  let again, passes = explain () in
  Alcotest.(check int) "a repeated explain runs no CATT pass" 0 passes;
  (match (answer, again) with
  | Ok (a, _), Ok (b, _) ->
    Alcotest.(check string) "repeated answer" (Json.to_string a)
      (Json.to_string b)
  | _ -> Alcotest.fail "explain refused");
  let analyses = Experiments.Explain.analyses small_cfg w in
  match answer with
  | Ok (json, _) ->
    Alcotest.(check string) "report"
      (Json.to_string (Experiments.Explain.to_json small_cfg w analyses))
      (Json.to_string (Json.member "report" json));
    Alcotest.(check string) "rendered"
      (Experiments.Explain.to_text small_cfg w analyses)
      (Json.to_str (Json.member "rendered" json))
  | Error (_, msg) -> Alcotest.fail msg

let tests =
  [
    ( "serve.protocol",
      [
        Alcotest.test_case "scheme labels round-trip" `Quick
          test_scheme_roundtrip;
        Alcotest.test_case "requests round-trip (all kinds)" `Quick
          test_request_roundtrip_all_kinds;
        QCheck_alcotest.to_alcotest prop_request_roundtrip;
        Alcotest.test_case "responses round-trip" `Quick
          test_response_roundtrip;
        Alcotest.test_case "unknown fields tolerated" `Quick
          test_unknown_fields_tolerated;
        Alcotest.test_case "malformed requests refused" `Quick
          test_bad_requests_refused;
      ] );
    ( "serve.server",
      [
        Alcotest.test_case "admission refuses at cap" `Quick
          test_admission_refuses_at_cap;
        Alcotest.test_case "tenant shards are bit-equal" `Quick
          test_tenant_shards_bit_equal;
        Alcotest.test_case "tenant shard component is traversal-safe" `Quick
          test_tenant_shard_component_safe;
        Alcotest.test_case "hit/miss attribution" `Quick
          test_simulate_hit_miss_attribution;
        Alcotest.test_case "latency excludes refusals" `Quick
          test_latency_excludes_refusals;
        Alcotest.test_case "latency histogram is bounded" `Quick
          test_latency_histogram_bounded;
        Alcotest.test_case "200-request mixed soak" `Slow test_soak_mixed_200;
        Alcotest.test_case "json-lines over a pipe" `Quick test_serve_fd_pipe;
        Alcotest.test_case "overlong line refused and closed" `Quick
          test_serve_fd_line_cap;
        Alcotest.test_case "two socket clients served concurrently" `Quick
          test_socket_two_clients;
        Alcotest.test_case "concurrent identical requests coalesce" `Quick
          test_coalesced_identical_requests;
        Alcotest.test_case "joiners skip a shard that holds the entry" `Quick
          test_joiner_restore_skipped;
        Alcotest.test_case "per-tenant quota refuses deterministically" `Quick
          test_tenant_quota_refusal;
        Alcotest.test_case "EOF drains per connection, not globally" `Quick
          test_serve_fd_per_connection_drain;
        Alcotest.test_case "finished socket connections are reaped" `Quick
          test_serve_socket_reaps_connections;
        Alcotest.test_case "pipelined burst in a single write" `Quick
          test_pipelined_burst_single_write;
        Alcotest.test_case "stats envelope carries the live admin plane"
          `Quick test_stats_envelope;
        Alcotest.test_case "request spans export to Perfetto" `Quick
          test_serve_trace_export;
        Alcotest.test_case "coalesced requests link joiner to leader traces"
          `Quick test_coalesced_trace_linkage;
        Alcotest.test_case "explain runs the CATT pass once" `Quick
          test_explain_analyzes_once;
      ] );
    ( "serve.co_resident",
      [
        Alcotest.test_case "counters attributed per kernel" `Quick
          test_co_resident_attribution;
        Alcotest.test_case "pair runs are deterministic" `Quick
          test_co_resident_deterministic;
        Alcotest.test_case "unequal launch counts keep a disjoint tail" `Quick
          test_co_resident_unequal_tail;
        Alcotest.test_case "runtime schemes refused" `Quick
          test_co_resident_refuses_runtime_schemes;
        Alcotest.test_case "wire request end-to-end" `Quick
          test_co_resident_request;
        Alcotest.test_case "pair cache round-trips (incl. swapped order)"
          `Quick test_co_resident_cache_roundtrip;
      ] );
  ]
