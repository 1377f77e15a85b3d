(** The long-running request loop behind [catt_d serve].

    Architecture (DESIGN.md §13): one acceptor thread (the caller of
    {!serve_stdio} / {!serve_socket}) reads JSON-lines requests and
    {!post}s them onto the shared {!Gpu_util.Pool}; worker domains run
    the handler and write each response line under a writer mutex, so
    responses may be delivered out of order — clients correlate by the
    echoed [id].

    Admission control is two nested caps, both checked at post time and
    both refusing with an [overloaded] envelope that never reaches the
    pool and costs no simulation work.  The global cap is a queue-depth
    bound on in-flight requests (queued + running), which bounds memory
    and tail latency: the deepest backlog a request can sit behind is
    [queue_cap - 1] others.  Under it, an optional per-tenant quota
    ([~tenant_quota]) bounds any one tenant's in-flight share, so a
    burst from one tenant cannot occupy the whole queue; quota refusals
    are ledgered separately ([quota_refusals]) from global-cap refusals
    ([overloaded]).

    Identical concurrent [simulate] cells coalesce in the runner's
    single-flight table: one simulation, every response fanned out from
    the one result, with each tenant still attributed its own hit/miss
    and its own cache-shard entry.

    Tenancy: the [tenant] request field selects the {!Experiments.Cache}
    shard results persist to and the {!Tenant} metrics bucket surfaced
    by the [stats] request.  Tenants share the process-wide workload
    registry and pool — isolation is of results and accounting, not
    performance.

    Connections on the socket are concurrent: the acceptor spawns one
    thread per accepted connection, each running its own {!serve_fd}
    read loop, so a slow client cannot starve another.  Requests from
    every connection still fan out across the one shared pool, under the
    one process-wide admission cap. *)

module Json = Gpu_util.Json
module Runner = Experiments.Runner
module Scheme = Experiments.Scheme
module Pool = Gpu_util.Pool

(** [Ok (payload, cached)]: [cached] marks results served from the
    runner's memo or a disk shard — it decides hit/miss attribution. *)
type outcome = (Json.t * bool, Protocol.error_code * string) result

type handler = Protocol.request -> outcome

type t = {
  cfg : Gpusim.Config.t;
  queue_cap : int;
  tenant_quota : int option;
      (** max in-flight requests per tenant, under the global cap *)
  pool : Pool.t;
  in_flight : int Atomic.t;
  tenant_lock : Mutex.t;
  tenant_inflight : (string, int ref) Hashtbl.t;
      (** live in-flight count per tenant; entries are removed at zero so
          the table stays bounded by currently-active tenants *)
  live_conns : int Atomic.t;
      (** connection threads currently serving (socket mode) *)
  tracked_conns : int Atomic.t;
      (** connection threads held for the shutdown join — live ones plus
          finished ones not yet reaped; the reap test pins this *)
  slow_ms : float option;
      (** slow-request log threshold; [None] disables the slow log *)
  slow_sample : int;  (** log 1 of every [slow_sample] slow requests *)
  slow_count : int Atomic.t;
  mutable handler : handler;
      (** mutable only so [create] can install the default handler with
          a reference back to the server (the stats plane reports live
          queue/connection gauges); never reassigned afterwards *)
}

(* ------------------------------------------------------------------ *)
(* Default request handler (the business logic)                        *)
(* ------------------------------------------------------------------ *)

let find_workload name =
  try Ok (Workloads.Registry.find name)
  with Invalid_argument msg -> Error (Protocol.Not_found, msg)

let run_summary (r : Runner.app_run) =
  Json.Obj
    [
      ("workload", Json.String r.Runner.workload);
      ("scheme", Json.String (Scheme.label r.Runner.scheme));
      ("total_cycles", Json.Int r.Runner.total_cycles);
      ( "verified",
        match r.Runner.verified with
        | Ok () -> Json.Bool true
        | Error _ -> Json.Bool false );
      ( "kernels",
        Json.List
          (List.map
             (fun (ks : Runner.kernel_stats) ->
               Json.Obj
                 [
                   ("kernel", Json.String ks.Runner.kernel_name);
                   ("cycles", Json.Int ks.Runner.stats.Gpusim.Stats.cycles);
                   ( "instructions",
                     Json.Int ks.Runner.stats.Gpusim.Stats.instructions );
                   ( "l1_hit_rate",
                     Json.Float (Gpusim.Stats.l1_hit_rate ks.Runner.stats) );
                   ( "tlp",
                     Json.List
                       [
                         Json.Int (fst ks.Runner.tlp);
                         Json.Int (snd ks.Runner.tlp);
                       ] );
                 ])
             r.Runner.kernels) );
    ]

let analysis_to_json (name, (a : Catt.Driver.t)) =
  Json.Obj
    [
      ("kernel", Json.String name);
      ("final_carveout", Json.Int a.Catt.Driver.final_carveout);
      ( "baseline_tlp",
        Json.List
          [
            Json.Int (fst a.Catt.Driver.baseline_tlp);
            Json.Int (snd a.Catt.Driver.baseline_tlp);
          ] );
      ("resident_tbs", Json.Int a.Catt.Driver.resident_tbs);
      ("gate_degraded", Json.Bool a.Catt.Driver.gate_degraded);
      ("analysis_seconds", Json.Float a.Catt.Driver.analysis_seconds);
      ( "loops",
        Json.List
          (List.map
             (fun (l : Catt.Driver.loop_decision) ->
               let d = l.Catt.Driver.decision in
               Json.Obj
                 [
                   ( "req_per_warp",
                     Json.Int l.Catt.Driver.footprint.Catt.Footprint.req_per_warp
                   );
                   ( "has_locality",
                     Json.Bool
                       l.Catt.Driver.footprint.Catt.Footprint.has_locality );
                   ("throttled", Json.Bool d.Catt.Throttle.throttled);
                   ("n", Json.Int d.Catt.Throttle.n);
                   ("m", Json.Int d.Catt.Throttle.m);
                   ( "active_warps_per_tb",
                     Json.Int d.Catt.Throttle.active_warps_per_tb );
                   ("active_tbs", Json.Int d.Catt.Throttle.active_tbs);
                 ])
             a.Catt.Driver.loops) );
    ]

let handle_analyze cfg name : outcome =
  match find_workload name with
  | Error _ as e -> e
  | Ok w -> (
    match Runner.analyses_for cfg w Scheme.Catt with
    | [] -> Error (Protocol.Internal, "no kernel could be analyzed")
    | analyses ->
      Ok
        ( Json.Obj
            [
              ("workload", Json.String w.Workloads.Workload.name);
              ("kernels", Json.List (List.map analysis_to_json analyses));
            ],
          false ))

let handle_explain cfg name : outcome =
  match find_workload name with
  | Error _ as e -> e
  | Ok w ->
    let analyses = Experiments.Explain.analyses cfg w in
    Ok
      ( Json.Obj
          [
            ("report", Experiments.Explain.to_json cfg w analyses);
            ( "rendered",
              Json.String (Experiments.Explain.to_text cfg w analyses) );
          ],
        false )

(* where the result came from (memo / cache hit / cache miss /
   coalesced), noted in a domain-local slot as the handler runs: the
   access log wants the ladder's outcome, but stamping it into the
   payload would break the bit-equality of cached responses (a warm
   answer must stay byte-identical to the cold one), so it rides beside
   the payload instead of inside it.  Wrapping handlers inherit it for
   free — the slot is set on whichever domain runs the request. *)
let request_source : string option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let note_source source =
  Domain.DLS.set request_source (Some (Runner.source_label source))

let take_source () =
  let s = Domain.DLS.get request_source in
  Domain.DLS.set request_source None;
  s

let handle_simulate cfg tenant (b : Protocol.simulate_body) : outcome =
  (* a ladder answer: everything but a simulation is served from cache *)
  let answer source payload : outcome =
    note_source source;
    let cached =
      match source with
      | Runner.Memo | Runner.Disk | Runner.Coalesced -> true
      | Runner.Simulated -> false
    in
    Ok (payload, cached)
  in
  match find_workload b.Protocol.workload with
  | Error _ as e -> e
  | Ok w -> (
    match b.Protocol.co_resident with
    | None -> (
      match
        Runner.exec_with_source (Runner.Request.make ~tenant cfg w b.Protocol.scheme)
      with
      | Error msg -> Error (Protocol.Bad_request, msg)
      | Ok (r, source) -> answer source (run_summary r))
    | Some (name_b, scheme_b) -> (
      match find_workload name_b with
      | Error _ as e -> e
      | Ok wb -> (
        match
          Runner.run_co_resident_with_source ~tenant cfg w b.Protocol.scheme wb
            scheme_b
        with
        | Error msg -> Error (Protocol.Bad_request, msg)
        | Ok ((ra, rb), source) ->
          (* pair results are cached under an order-normalized key, so a
             repeat — even with the members swapped — is a hit *)
          answer source
            (Json.Obj
               [
                 ("co_resident", Json.Bool true);
                 ("a", run_summary ra);
                 ("b", run_summary rb);
               ]))))

let stats_version = 1
(** Version of the [stats] response envelope (independent of the wire
    [schema_version]: the envelope can grow fields without a protocol
    bump, and clients switch on this to know which ones to expect). *)

let metric_value_to_json = function
  | Obs.Metrics.Count n -> Json.Int n
  | Obs.Metrics.Gauge g -> Json.Float g
  | Obs.Metrics.Hist s ->
    Json.Obj
      [
        ("count", Json.Int s.Obs.Histogram.s_count);
        ("p50", Json.Int s.Obs.Histogram.s_p50);
        ("p90", Json.Int s.Obs.Histogram.s_p90);
        ("p99", Json.Int s.Obs.Histogram.s_p99);
        ("max", Json.Int s.Obs.Histogram.s_max);
      ]

(** The live admin payload: versioned envelope with per-tenant ledger
    snapshots (histogram summaries included), process cache counters,
    the full metrics snapshot, and — when answered by a running server
    rather than the bare default handler — the server's live gauges. *)
let handle_stats ?server () : outcome =
  let c = Experiments.Cache.stats () in
  let server_fields =
    match server with
    | None -> []
    | Some t ->
      [
        ( "server",
          Json.Obj
            [
              ("queue_depth", Json.Int (max 0 (Atomic.get t.in_flight)));
              ("queue_cap", Json.Int t.queue_cap);
              ( "tenant_quota",
                Json.Int (Option.value t.tenant_quota ~default:0) );
              ("jobs", Json.Int (Pool.jobs t.pool));
              ("flights_in_progress", Json.Int (Runner.flights_in_progress ()));
              ("live_connections", Json.Int (Atomic.get t.live_conns));
            ] );
      ]
  in
  Ok
    ( Json.Obj
        ([
           ("stats_version", Json.Int stats_version);
           ("tenants", Tenant.all_to_json ());
           ( "cache",
             Json.Obj
               [
                 ("hits", Json.Int c.Experiments.Cache.hits);
                 ("misses", Json.Int c.Experiments.Cache.misses);
                 ("stores", Json.Int c.Experiments.Cache.stores);
                 ("evictions", Json.Int c.Experiments.Cache.evictions);
               ] );
           ( "metrics",
             Json.Obj
               (List.map
                  (fun (name, v) -> (name, metric_value_to_json v))
                  (Obs.Metrics.snapshot ())) );
         ]
        @ server_fields),
      false )

let default_handler ?server cfg (req : Protocol.request) : outcome =
  match req.Protocol.kind with
  | Protocol.Analyze name -> handle_analyze cfg name
  | Protocol.Explain name -> handle_explain cfg name
  | Protocol.Simulate body -> handle_simulate cfg req.Protocol.tenant body
  | Protocol.Stats -> handle_stats ?server ()

(* ------------------------------------------------------------------ *)
(* Lifecycle and dispatch                                              *)
(* ------------------------------------------------------------------ *)

(** [tenant_quota] is the max in-flight requests any one tenant may hold
    under the global cap; [0] (the default) means unlimited.  [slow_ms]
    arms the slow-request log; 1 of every [slow_sample] requests over
    the threshold is written (sampling keeps a pathological workload
    from turning the log into the bottleneck). *)
let create ?handler ?(tenant_quota = 0) ?slow_ms ?(slow_sample = 1) ~cfg ~jobs
    ~queue_cap () =
  if queue_cap < 1 then invalid_arg "Server.create: queue_cap must be >= 1";
  if tenant_quota < 0 then
    invalid_arg "Server.create: tenant_quota must be >= 0";
  if slow_sample < 1 then invalid_arg "Server.create: slow_sample must be >= 1";
  let t =
    {
      cfg;
      queue_cap;
      tenant_quota = (if tenant_quota = 0 then None else Some tenant_quota);
      pool = Pool.create ~jobs;
      in_flight = Atomic.make 0;
      tenant_lock = Mutex.create ();
      tenant_inflight = Hashtbl.create 8;
      live_conns = Atomic.make 0;
      tracked_conns = Atomic.make 0;
      slow_ms;
      slow_sample;
      slow_count = Atomic.make 0;
      handler = (fun _ -> Error (Protocol.Internal, "handler not installed"));
    }
  in
  t.handler <-
    (match handler with Some h -> h | None -> default_handler ~server:t cfg);
  (* live gauges, sampled at snapshot time (a stored mirror would drift) *)
  Obs.Metrics.gauge_fn "serve.live_connections" (fun () ->
      float_of_int (Atomic.get t.live_conns));
  t

let in_flight t = Atomic.get t.in_flight

let live_connections t = Atomic.get t.live_conns
let tracked_connections t = Atomic.get t.tracked_conns

let m_requests = Obs.Metrics.counter "serve.requests"
let m_overloaded = Obs.Metrics.counter "serve.overloaded"
let m_quota_refused = Obs.Metrics.counter "serve.quota_refused"
let m_slow = Obs.Metrics.counter "serve.slow_requests"

(* current depth, not just the peak the pool gauge keeps: bumped on
   admission and restored on completion *and* on both refusal paths *)
let note_queue_depth t =
  Obs.Metrics.set_gauge "serve.queue_depth"
    (float_of_int (max 0 (Atomic.get t.in_flight)))

let trace_counter = Atomic.make 0

(* pid-qualified so ids from a client and a server (or two servers
   behind one trace file) cannot collide *)
let mint_trace_id () =
  Printf.sprintf "req-%d-%d" (Unix.getpid ())
    (Atomic.fetch_and_add trace_counter 1)

let scheme_of_req (req : Protocol.request) =
  match req.Protocol.kind with
  | Protocol.Simulate b -> Scheme.label b.Protocol.scheme
  | _ -> "-"

let access_log t (req : Protocol.request) ~trace_id ~outcome ~source
    ~latency_us =
  if !Obs.Log.enabled then
    Obs.Log.event "serve.access"
      [
        ("id", Obs.Span.Str req.Protocol.id);
        ("tenant", Obs.Span.Str req.Protocol.tenant);
        ("kind", Obs.Span.Str (Protocol.kind_label req.Protocol.kind));
        ("scheme", Obs.Span.Str (scheme_of_req req));
        ("source", Obs.Span.Str source);
        ("outcome", Obs.Span.Str outcome);
        ("queue_depth", Obs.Span.Int (max 0 (Atomic.get t.in_flight)));
        ("latency_us", Obs.Span.Int latency_us);
        ("trace_id", Obs.Span.Str trace_id);
      ]

(* every slow request is counted; 1 in [slow_sample] is written *)
let slow_log t (req : Protocol.request) ~trace_id ~latency_us =
  match t.slow_ms with
  | None -> ()
  | Some thresh ->
    if float_of_int latency_us >= thresh *. 1000. then begin
      let n = Atomic.fetch_and_add t.slow_count 1 in
      Obs.Metrics.incr m_slow;
      if n mod t.slow_sample = 0 then
        Obs.Log.event ~level:Obs.Log.Warn "serve.slow"
          [
            ("id", Obs.Span.Str req.Protocol.id);
            ("tenant", Obs.Span.Str req.Protocol.tenant);
            ("kind", Obs.Span.Str (Protocol.kind_label req.Protocol.kind));
            ("scheme", Obs.Span.Str (scheme_of_req req));
            ("latency_us", Obs.Span.Int latency_us);
            ("threshold_ms", Obs.Span.Float thresh);
            ("trace_id", Obs.Span.Str trace_id);
          ]
    end

(* Claim an in-flight slot for [name] under the per-tenant quota.
   Returns [false] when the tenant is already at its quota.  Entries are
   created on first use and removed at zero by {!tenant_release}, so the
   table stays bounded by currently-active tenants, not by every tenant
   name ever seen. *)
let tenant_acquire t name =
  match t.tenant_quota with
  | None -> true
  | Some quota ->
    Mutex.lock t.tenant_lock;
    let r =
      match Hashtbl.find_opt t.tenant_inflight name with
      | Some r -> r
      | None ->
        let r = ref 0 in
        Hashtbl.add t.tenant_inflight name r;
        r
    in
    let ok = !r < quota in
    if ok then incr r;
    Mutex.unlock t.tenant_lock;
    ok

let tenant_release t name =
  match t.tenant_quota with
  | None -> ()
  | Some _ ->
    Mutex.lock t.tenant_lock;
    (match Hashtbl.find_opt t.tenant_inflight name with
    | None -> ()
    | Some r ->
      decr r;
      if !r <= 0 then Hashtbl.remove t.tenant_inflight name);
    Mutex.unlock t.tenant_lock

(** Live in-flight count for [name] — test visibility. *)
let tenant_in_flight t name =
  Mutex.lock t.tenant_lock;
  let n =
    match Hashtbl.find_opt t.tenant_inflight name with
    | Some r -> !r
    | None -> 0
  in
  Mutex.unlock t.tenant_lock;
  n

(** Dispatch one request.  [respond] runs on a worker domain for
    admitted requests and synchronously on the caller for refused ones;
    it must be safe to call from any domain. *)
let post t (req : Protocol.request) ~respond =
  Obs.Metrics.incr m_requests;
  (* correlate from the first touch: client-supplied id or a minted one *)
  let trace_id =
    match req.Protocol.trace_id with
    | Some s when s <> "" -> s
    | _ -> mint_trace_id ()
  in
  let n = Atomic.fetch_and_add t.in_flight 1 in
  note_queue_depth t;
  if n >= t.queue_cap then begin
    ignore (Atomic.fetch_and_add t.in_flight (-1));
    note_queue_depth t;
    Obs.Metrics.incr m_overloaded;
    (* counted, but no latency sample: a refusal is not a served request,
       and a zero would drag p50/p99 down exactly when service degrades *)
    Tenant.note (Tenant.find_or_create req.Protocol.tenant) Tenant.Overloaded;
    access_log t req ~trace_id ~outcome:"overloaded" ~source:"refused"
      ~latency_us:0;
    respond
      {
        Protocol.resp_id = req.Protocol.id;
        resp_tenant = req.Protocol.tenant;
        result =
          Error
            ( Protocol.Overloaded,
              Printf.sprintf "%d requests in flight at cap %d; retry later" n
                t.queue_cap );
      };
    `Rejected
  end
  else if not (tenant_acquire t req.Protocol.tenant) then begin
    (* under the global cap but over this tenant's own share: refuse with
       the same wire envelope (clients need one retry path), ledgered
       separately so operators can tell noisy-tenant pushback from
       genuine saturation *)
    ignore (Atomic.fetch_and_add t.in_flight (-1));
    note_queue_depth t;
    Obs.Metrics.incr m_quota_refused;
    Tenant.note
      (Tenant.find_or_create req.Protocol.tenant)
      Tenant.Quota_refused;
    access_log t req ~trace_id ~outcome:"quota_refused" ~source:"refused"
      ~latency_us:0;
    respond
      {
        Protocol.resp_id = req.Protocol.id;
        resp_tenant = req.Protocol.tenant;
        result =
          Error
            ( Protocol.Overloaded,
              Printf.sprintf
                "tenant %S at its in-flight quota (%d); retry later"
                req.Protocol.tenant
                (Option.value t.tenant_quota ~default:0) );
      };
    `Rejected
  end
  else begin
    (* the pool.task span opens on the worker before the body runs, so
       the trace id rides in as a submit attribute; the body then sets
       the domain's trace context, and every span below — serve.request,
       runner.run, runner.simulate — inherits it *)
    Pool.submit
      ~attrs:[ ("trace_id", Obs.Span.Str trace_id) ]
      t.pool
      (fun () ->
        Fun.protect
          ~finally:(fun () ->
            tenant_release t req.Protocol.tenant;
            ignore (Atomic.fetch_and_add t.in_flight (-1));
            note_queue_depth t)
          (fun () ->
            Obs.Span.with_trace_id trace_id @@ fun () ->
            Obs.Span.with_span "serve.request"
              ~attrs:
                [
                  ("id", Obs.Span.Str req.Protocol.id);
                  ("tenant", Obs.Span.Str req.Protocol.tenant);
                  ("kind", Obs.Span.Str (Protocol.kind_label req.Protocol.kind));
                ]
            @@ fun _span ->
            let start = Obs.Clock.now_us () in
            let result =
              try t.handler req
              with e -> Error (Protocol.Internal, Printexc.to_string e)
            in
            (* always drained, logging or not — a stale note from this
               request must not leak into the worker's next one *)
            let noted_source = take_source () in
            let latency_us = Obs.Clock.now_us () - start in
            let tenant = Tenant.find_or_create req.Protocol.tenant in
            (match result with
            | Ok (_, cached) ->
              Tenant.note ~latency_us tenant
                (if cached then Tenant.Hit else Tenant.Miss)
            | Error _ -> Tenant.note ~latency_us tenant Tenant.Failed);
            (if !Obs.Log.enabled then
               let outcome, source =
                 match result with
                 | Ok (_, cached) ->
                   let source =
                     match noted_source with
                     | Some s -> s
                     | None -> if cached then "cached" else "computed"
                   in
                   ("ok", source)
                 | Error (code, _) ->
                   (Protocol.error_code_label code, "error")
               in
               access_log t req ~trace_id ~outcome ~source ~latency_us);
            slow_log t req ~trace_id ~latency_us;
            respond
              {
                Protocol.resp_id = req.Protocol.id;
                resp_tenant = req.Protocol.tenant;
                result = Result.map fst result;
              }));
    `Dispatched
  end

(** Block until no request is queued or running. *)
let drain t =
  while Atomic.get t.in_flight > 0 do
    Unix.sleepf 0.002
  done

(** Drain, then join every worker domain.  After this returns the
    process holds no domains and no queued work — exiting cleanly is the
    no-orphaned-domains guarantee the smoke test asserts. *)
let shutdown t =
  drain t;
  Pool.shutdown t.pool

(* ------------------------------------------------------------------ *)
(* JSON-lines serving                                                  *)
(* ------------------------------------------------------------------ *)

(* A line reader over a raw fd.  Buffered channels would block through
   signals (OCaml retries EINTR internally); reading via [select] with a
   short timeout keeps the [stop] flag responsive, which is how SIGTERM
   turns into a clean drain instead of a killed process. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;  (** bytes [\[pos, len)] are buffered input *)
  mutable pos : int;  (** start of the unconsumed region *)
  mutable len : int;  (** end of the valid region *)
  mutable scanned : int;
      (** bytes [\[pos, scanned)] are known newline-free, so each byte is
          scanned once across the reader's lifetime — a pipelined burst
          of K requests in one buffer costs O(bytes), where re-scanning
          (or re-materializing the buffer as a string per line) would be
          O(bytes * K) *)
  mutable eof : bool;
}

let reader fd =
  { fd; buf = Bytes.create 4096; pos = 0; len = 0; scanned = 0; eof = false }

let take_line r =
  let i = ref r.scanned in
  while !i < r.len && Bytes.get r.buf !i <> '\n' do
    incr i
  done;
  if !i >= r.len then begin
    r.scanned <- r.len;
    None
  end
  else begin
    let line = Bytes.sub_string r.buf r.pos (!i - r.pos) in
    r.pos <- !i + 1;
    r.scanned <- r.pos;
    if r.pos = r.len then begin
      (* buffer fully consumed: rewind so it never grows just because
         lines keep arriving *)
      r.pos <- 0;
      r.len <- 0;
      r.scanned <- 0
    end;
    Some line
  end

(** The longest request line a connection may send.  Past it, with no
    newline in sight, the line is answered [bad_request] and the
    connection closed: a client that never sends [\n] cannot grow the
    daemon's memory without bound. *)
let max_line_bytes = 1 lsl 20

(* make room to read: compact the consumed prefix away, or — only when a
   single line overflows the whole buffer — double it, never past
   [max_line_bytes + 1] (one byte more than the longest line, so an
   overlong line is seen whole before it is refused) *)
let make_room r =
  if r.len = Bytes.length r.buf then
    if r.pos > 0 then begin
      Bytes.blit r.buf r.pos r.buf 0 (r.len - r.pos);
      r.len <- r.len - r.pos;
      r.scanned <- r.scanned - r.pos;
      r.pos <- 0
    end
    else begin
      let bigger =
        Bytes.create (min (2 * Bytes.length r.buf) (max_line_bytes + 1))
      in
      Bytes.blit r.buf 0 bigger 0 r.len;
      r.buf <- bigger
    end

let rec next_line r ~stop =
  if stop () then `Stopped
  else
    match take_line r with
    | Some l -> `Line l
    | None ->
      if r.len - r.pos > max_line_bytes then `Too_long
      else if r.eof then
        if r.len > r.pos then begin
          (* unterminated final line *)
          let l = Bytes.sub_string r.buf r.pos (r.len - r.pos) in
          r.pos <- 0;
          r.len <- 0;
          r.scanned <- 0;
          `Line l
        end
        else `Eof
      else (
        match Unix.select [ r.fd ] [] [] 0.2 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> next_line r ~stop
        | [], _, _ -> next_line r ~stop
        | _ -> (
          make_room r;
          match Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> next_line r ~stop
          | 0 ->
            r.eof <- true;
            next_line r ~stop
          | n ->
            r.len <- r.len + n;
            next_line r ~stop))

(* responses from different worker domains interleave line-atomically *)
let write_line lock fd line =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      try
        let b = Bytes.of_string (line ^ "\n") in
        let len = Bytes.length b in
        let pos = ref 0 in
        while !pos < len do
          match Unix.write fd b !pos (len - !pos) with
          | n -> pos := !pos + n
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done
      with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
        (* client went away; the response has nowhere to go *)
        ())

(** Serve JSON-lines requests from [in_fd], answering on [out_fd], until
    EOF or [stop ()].  This connection's in-flight work — and only this
    connection's — is drained before returning, so every admitted
    request gets its response written (unless the client disconnected)
    without one client's EOF blocking on every other connection's
    backlog. *)
let serve_fd t ~in_fd ~out_fd ~stop =
  let r = reader in_fd in
  let out_lock = Mutex.create () in
  let respond resp = write_line out_lock out_fd (Protocol.response_to_line resp) in
  (* responses this connection still owes; posted requests respond
     exactly once (refusals synchronously, admissions from a worker), and
     the decrement rides the respond call itself so it survives a failed
     write *)
  let outstanding = Atomic.make 0 in
  let respond_counted resp =
    Fun.protect
      ~finally:(fun () -> ignore (Atomic.fetch_and_add outstanding (-1)))
      (fun () -> respond resp)
  in
  let rec loop () =
    match next_line r ~stop with
    | `Stopped | `Eof -> ()
    | `Too_long ->
      (* refuse and stop reading: returning closes a socket connection *)
      respond
        {
          Protocol.resp_id = "";
          resp_tenant = Protocol.default_tenant;
          result =
            Error
              ( Protocol.Bad_request,
                Printf.sprintf "request line longer than %d bytes"
                  max_line_bytes );
        }
    | `Line line ->
      (if String.trim line <> "" then
         match Protocol.request_of_line line with
         | Error msg ->
           (* still correlate when the id is salvageable (e.g. a request
              refused only for its schema_version) *)
           let resp_id, resp_tenant = Protocol.salvage_identity line in
           respond
             {
               Protocol.resp_id;
               resp_tenant;
               result = Error (Protocol.Bad_request, msg);
             }
         | Ok req ->
           Atomic.incr outstanding;
           ignore (post t req ~respond:respond_counted));
      loop ()
  in
  loop ();
  while Atomic.get outstanding > 0 do
    Unix.sleepf 0.002
  done

let serve_stdio t ~stop =
  serve_fd t ~in_fd:Unix.stdin ~out_fd:Unix.stdout ~stop

(** Accept loop on a Unix-domain socket at [path] (replacing any stale
    socket file).  Each accepted connection is served on its own thread,
    so a slow or idle client never blocks another client's requests; the
    per-connection requests still fan out across the shared pool, and
    the admission cap bounds total in-flight work across all
    connections.  Finished connection threads are reaped (joined and
    dropped) as the accept loop turns, so a long-lived daemon's memory is
    bounded by *concurrent* connections, not by every connection ever
    accepted; the stragglers are joined before returning, so in-flight
    responses drain, and the socket file is removed on return. *)
let serve_socket t ~path ~stop =
  (try Unix.unlink path with Unix.Unix_error (_, _, _) -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 8;
  (* each entry pairs the thread with a finished flag its connection sets
     on the way out: a set flag means join will not block.  Only the
     accept thread touches the list itself. *)
  let conns : (Thread.t * bool Atomic.t) list ref = ref [] in
  let note_tracked () = Atomic.set t.tracked_conns (List.length !conns) in
  let reap () =
    let live, finished =
      List.partition (fun (_, fin) -> not (Atomic.get fin)) !conns
    in
    List.iter (fun (th, _) -> Thread.join th) finished;
    conns := live;
    note_tracked ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close srv with Unix.Unix_error (_, _, _) -> ());
      (try Unix.unlink path with Unix.Unix_error (_, _, _) -> ());
      List.iter (fun (th, _) -> Thread.join th) !conns;
      conns := [];
      note_tracked ())
    (fun () ->
      let serve_conn (conn, fin) =
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close conn with Unix.Unix_error (_, _, _) -> ());
            ignore (Atomic.fetch_and_add t.live_conns (-1));
            Atomic.set fin true)
          (fun () -> serve_fd t ~in_fd:conn ~out_fd:conn ~stop)
      in
      let rec accept_loop () =
        if stop () then ()
        else
          match Unix.select [ srv ] [] [] 0.2 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | [], _, _ ->
            reap ();
            accept_loop ()
          | _ -> (
            match Unix.accept srv with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
            | conn, _ ->
              reap ();
              let fin = Atomic.make false in
              Atomic.incr t.live_conns;
              conns := (Thread.create serve_conn (conn, fin), fin) :: !conns;
              note_tracked ();
              accept_loop ())
      in
      accept_loop ())
