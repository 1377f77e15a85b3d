(** Observability test suite (the [@obs] alias, pulled into
    [dune runtest]): span nesting/ordering invariants, Perfetto export
    well-formedness, metrics and manifest round-trips, pool task
    attribution, timeline coalescing, cache counters, and the golden
    [explain] provenance snapshot for ATAX.

    Golden snapshots live in [test/golden_profiles/*.json]; regenerate
    after an intentional format change with

      dune build test/obs_check.exe && \
      GOLDEN_REGEN=$PWD/test/golden_profiles _build/default/test/obs_check.exe *)

module Json = Gpu_util.Json
module Span = Obs.Span
module Metrics = Obs.Metrics
module Trace_event = Obs.Trace_event
module Timeline = Profile.Timeline

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* every span test restores the disabled default and drains the sink,
   so suites can run in any order *)
let with_tracing f =
  let was = !Span.enabled in
  Span.enabled := true;
  Span.reset ();
  Fun.protect
    ~finally:(fun () ->
      Span.enabled := was;
      Span.reset ())
    f

let by_name spans name =
  match List.find_opt (fun (s : Span.t) -> s.Span.name = name) spans with
  | Some s -> s
  | None -> Alcotest.failf "no finished span named %s" name

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_disabled () =
  let was = !Span.enabled in
  Span.enabled := false;
  Fun.protect
    ~finally:(fun () -> Span.enabled := was)
    (fun () ->
      Span.reset ();
      check "enter is a no-op while off" true (Span.enter "nope" = None);
      check "with_span passes None while off" true
        (Span.with_span "nope" (fun s -> s = None));
      check_int "sink untouched" 0 (List.length (Span.finished ())))

let test_span_nesting () =
  with_tracing (fun () ->
      Span.with_span "outer" (fun _ ->
          Span.with_span "inner" (fun _ -> ());
          Span.with_span "inner2" (fun _ -> ()));
      Span.with_span "sibling" (fun _ -> ());
      let spans = Span.finished () in
      check_int "all four collected" 4 (List.length spans);
      List.iter
        (fun (s : Span.t) ->
          check ("closed: " ^ s.Span.name) true (s.Span.end_us >= s.Span.start_us))
        spans;
      (* oldest first on start time *)
      ignore
        (List.fold_left
           (fun prev (s : Span.t) ->
             check "ordered oldest first" true (prev <= s.Span.start_us);
             s.Span.start_us)
           min_int spans);
      let outer = by_name spans "outer"
      and inner = by_name spans "inner"
      and inner2 = by_name spans "inner2"
      and sibling = by_name spans "sibling" in
      check "outer is a root" true (outer.Span.parent = None);
      check "sibling is a root" true (sibling.Span.parent = None);
      check "inner nests under outer" true
        (inner.Span.parent = Some outer.Span.id);
      check "inner2 nests under outer" true
        (inner2.Span.parent = Some outer.Span.id);
      check "inner contained in time" true
        (outer.Span.start_us <= inner.Span.start_us
        && inner.Span.end_us <= outer.Span.end_us);
      check "sibling does not nest" true
        (sibling.Span.start_us >= outer.Span.end_us))

let test_span_attrs () =
  with_tracing (fun () ->
      match Span.enter "s" ~attrs:[ ("a", Span.Int 1); ("b", Span.Str "x") ] with
      | None -> Alcotest.fail "enter returned None while enabled"
      | Some s ->
        Span.add_attr s "c" (Span.Bool true);
        Span.add_attr s "d" (Span.Float 2.5);
        Span.finish s;
        Span.finish s (* idempotent *);
        check_int "double finish collects once" 1
          (List.length (Span.finished ()));
        Alcotest.(check (list string))
          "attrs in insertion order" [ "a"; "b"; "c"; "d" ]
          (List.map fst (Span.attrs s)))

let test_span_error () =
  with_tracing (fun () ->
      (match Span.with_span "boom" (fun _ -> failwith "kaput") with
      | () -> Alcotest.fail "exception did not propagate"
      | exception Failure m -> check_string "original exception" "kaput" m);
      match Span.finished () with
      | [ s ] -> (
        check "errored span still closed" true (s.Span.end_us >= s.Span.start_us);
        match List.assoc_opt "error" (Span.attrs s) with
        | Some (Span.Str msg) ->
          check "error attr names the exception" true (contains msg "kaput")
        | _ -> Alcotest.fail "no error attribute on the failed span")
      | l -> Alcotest.failf "expected 1 finished span, got %d" (List.length l))

let test_clock_monotone () =
  let prev = ref (Obs.Clock.now_us ()) in
  for _ = 1 to 1000 do
    let t = Obs.Clock.now_us () in
    if t < !prev then Alcotest.failf "clock stepped back: %d -> %d" !prev t;
    prev := t
  done

(* ------------------------------------------------------------------ *)
(* Perfetto export                                                     *)
(* ------------------------------------------------------------------ *)

let test_perfetto_well_formed () =
  with_tracing (fun () ->
      Span.with_span "a" (fun _ -> Span.with_span "b" (fun _ -> ()));
      Span.with_span "c"
        ~attrs:[ ("k", Span.Str "quotes \" and\nnewlines") ]
        (fun _ -> ());
      let tl = Timeline.create () in
      Timeline.record tl ~sm:0 ~kind:Profile.Stall.Issue ~start:0 ~stop:3;
      Timeline.record tl ~sm:1 ~kind:Profile.Stall.Mem_wait ~start:2 ~stop:9;
      Timeline.record tl ~sm:0 ~kind:Profile.Stall.Barrier_wait ~start:5 ~stop:6;
      let events =
        (Trace_event.process_name ~pid:1 "host"
        :: Trace_event.thread_name ~pid:2 ~tid:0 "sm 0"
        :: Trace_event.of_spans ~pid:1 (Span.finished ()))
        @ Timeline.to_events tl ~pid:2
      in
      let rendered = Trace_event.to_string events in
      match Json.of_string rendered with
      | Error msg -> Alcotest.failf "trace JSON does not parse: %s" msg
      | Ok json ->
        let evs = Json.to_list (Json.member "traceEvents" json) in
        check_int "every event rendered" (List.length events) (List.length evs);
        let last_ts = Hashtbl.create 8 in
        List.iter
          (fun e ->
            ignore (Json.to_str (Json.member "name" e));
            let ph = Json.to_str (Json.member "ph" e) in
            check "ph is M or X" true (ph = "M" || ph = "X");
            let pid = Json.to_int (Json.member "pid" e) in
            let tid = Json.to_int (Json.member "tid" e) in
            if ph = "X" then begin
              let ts = Json.to_int (Json.member "ts" e) in
              check "ts >= 0" true (ts >= 0);
              check "dur >= 0" true (Json.to_int (Json.member "dur" e) >= 0);
              (match Hashtbl.find_opt last_ts (pid, tid) with
              | Some prev -> check "ts monotone per (pid,tid) track" true (prev <= ts)
              | None -> ());
              Hashtbl.replace last_ts (pid, tid) ts
            end)
          evs)

(* ------------------------------------------------------------------ *)
(* Metrics + manifest                                                  *)
(* ------------------------------------------------------------------ *)

let test_metrics_registry () =
  let c = Metrics.counter "test.obs.counter" in
  let before = Metrics.value c in
  Metrics.incr c;
  Metrics.add c 41;
  check_int "incr + add" (before + 42) (Metrics.value c);
  check_int "find-or-register returns the same counter" (before + 42)
    (Metrics.value (Metrics.counter "test.obs.counter"));
  Metrics.set_gauge "test.obs.gauge" 2.5;
  Metrics.set_gauge "test.obs.gauge" 1.5;
  Metrics.max_gauge "test.obs.peak" 3.;
  Metrics.max_gauge "test.obs.peak" 2.;
  let snap = Metrics.snapshot () in
  ignore
    (List.fold_left
       (fun prev (name, _) ->
         check "snapshot sorted by name" true (prev <= name);
         name)
       "" snap);
  check "set_gauge: last write wins" true
    (List.assoc_opt "test.obs.gauge" snap = Some (Metrics.Gauge 1.5));
  check "max_gauge keeps the maximum" true
    (List.assoc_opt "test.obs.peak" snap = Some (Metrics.Gauge 3.));
  (match List.assoc_opt "process.uptime_us" snap with
  | Some (Metrics.Count us) -> check "uptime positive" true (us > 0)
  | _ -> Alcotest.fail "snapshot missing process.uptime_us");
  (* the two PR-10 value kinds: registered histograms and live gauge
     callbacks, both sampled at snapshot time *)
  let h = Metrics.histogram "test.obs.hist" in
  Obs.Histogram.record h 100;
  Metrics.gauge_fn "test.obs.live" (fun () -> 7.5);
  let snap = Metrics.snapshot () in
  check "gauge_fn sampled at snapshot time" true
    (List.assoc_opt "test.obs.live" snap = Some (Metrics.Gauge 7.5));
  (match List.assoc_opt "test.obs.hist" snap with
  | Some (Metrics.Hist s) ->
    check "histogram summary in snapshot" true (s.Obs.Histogram.s_count >= 1)
  | _ -> Alcotest.fail "snapshot missing the registered histogram");
  check "histogram handle is find-or-register" true
    (Metrics.histogram "test.obs.hist" == h)

let explain_cfg () = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(32 * 1024) ()

let test_manifest_roundtrip () =
  let m =
    Experiments.Manifest.make (explain_cfg ()) ~workload:"ATAX" ~scheme:"CATT"
      ~seed:7 ~wall_seconds:0.25
  in
  let rendered = Json.to_string (Experiments.Manifest.to_json m) in
  let reparsed =
    match Json.of_string rendered with
    | Ok j -> j
    | Error msg -> Alcotest.failf "manifest JSON does not parse: %s" msg
  in
  match Experiments.Manifest.of_json reparsed with
  | Error msg -> Alcotest.failf "manifest does not decode: %s" msg
  | Ok m' ->
    check_string "workload" m.Experiments.Manifest.workload
      m'.Experiments.Manifest.workload;
    check_string "scheme" m.Experiments.Manifest.scheme
      m'.Experiments.Manifest.scheme;
    check_int "seed" m.Experiments.Manifest.seed m'.Experiments.Manifest.seed;
    check_string "fingerprint" m.Experiments.Manifest.fingerprint
      m'.Experiments.Manifest.fingerprint;
    (* reserialization is byte-stable, so the wall-time float survived *)
    check_string "round-trip is lossless" rendered
      (Json.to_string (Experiments.Manifest.to_json m'))

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

module Histogram = Obs.Histogram

let test_histogram_buckets () =
  List.iter
    (fun (v, lo, hi) ->
      let lo', hi' = Histogram.bounds (Histogram.bucket_of v) in
      check_int (Printf.sprintf "%d lower bound" v) lo lo';
      check_int (Printf.sprintf "%d upper bound" v) hi hi')
    [
      (0, 0, 0);
      (7, 7, 7);
      (8, 8, 8);
      (100, 96, 103);
      (200, 192, 207);
      (1_000_000, 983_040, 1_048_575);
    ];
  check_int "negative clamps to bucket 0" 0 (Histogram.bucket_of (-5))

let test_histogram_quantiles () =
  let h = Histogram.create () in
  check_int "empty quantile" 0 (Histogram.quantile h 50.);
  check "empty bounds" true (Histogram.quantile_bounds h 50. = None);
  check_int "empty max" 0 (Histogram.max_value h);
  for _ = 1 to 90 do
    Histogram.record h 100
  done;
  for _ = 1 to 10 do
    Histogram.record h 1_000_000
  done;
  check_int "count" 100 (Histogram.count h);
  let _, hi100 = Histogram.bounds (Histogram.bucket_of 100) in
  let _, hi1m = Histogram.bounds (Histogram.bucket_of 1_000_000) in
  check_int "p50 reports the low mode's bucket" hi100 (Histogram.quantile h 50.);
  check_int "p90 is still the low mode" hi100 (Histogram.quantile h 90.);
  check_int "p99 lands in the tail" hi1m (Histogram.quantile h 99.);
  check_int "max is the tail bucket's bound" hi1m (Histogram.max_value h);
  let s = Histogram.summary h in
  check_int "summary count" 100 s.Histogram.s_count;
  check_int "summary p99" hi1m s.Histogram.s_p99;
  Histogram.clear h;
  check_int "cleared" 0 (Histogram.count h)

let hist_of_list vs =
  let h = Histogram.create () in
  List.iter (Histogram.record h) vs;
  h

let sample = QCheck.(list (int_bound 2_000_000))

let prop_bucket_contains =
  QCheck.Test.make ~count:500
    ~name:"histogram: bucket contains its value, width <= 1/sub"
    QCheck.(int_bound 2_000_000_000)
    (fun v ->
      let lo, hi = Histogram.bounds (Histogram.bucket_of v) in
      lo <= v && v <= hi && hi - lo <= max 0 (lo / Histogram.sub))

let prop_merge =
  QCheck.Test.make ~count:200
    ~name:"histogram: merge is associative, commutative, count-preserving"
    (QCheck.triple sample sample sample)
    (fun (a, b, c) ->
      let ha = hist_of_list a
      and hb = hist_of_list b
      and hc = hist_of_list c in
      let ab = Histogram.merge ha hb in
      Histogram.export ab = Histogram.export (Histogram.merge hb ha)
      && Histogram.export (Histogram.merge ab hc)
         = Histogram.export (Histogram.merge ha (Histogram.merge hb hc))
      && Histogram.count ab = List.length a + List.length b)

let prop_quantile_bounds =
  QCheck.Test.make ~count:300
    ~name:"histogram: quantile bounds contain the exact nearest-rank value"
    QCheck.(
      pair (list_of_size Gen.(1 -- 300) (int_bound 5_000_000)) (int_bound 99))
    (fun (vs, p) ->
      let p = float_of_int (p + 1) in
      let h = hist_of_list vs in
      let sorted = Array.of_list vs in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let rank =
        max 1 (min n (int_of_float (ceil (p /. 100. *. float_of_int n))))
      in
      let exact = sorted.(rank - 1) in
      match Histogram.quantile_bounds h p with
      | None -> false
      | Some (lo, hi) -> lo <= exact && exact <= hi)

let prop_export_json_roundtrip =
  QCheck.Test.make ~count:200
    ~name:"histogram: export survives a JSON round-trip into import" sample
    (fun vs ->
      let h = hist_of_list vs in
      let json =
        Json.List
          (List.map
             (fun (b, c) -> Json.List [ Json.Int b; Json.Int c ])
             (Histogram.export h))
      in
      match Json.of_string (Json.to_string json) with
      | Error _ -> false
      | Ok j ->
        let pairs =
          List.map
            (fun e ->
              match Json.to_list e with
              | [ b; c ] -> (Json.to_int b, Json.to_int c)
              | _ -> (-1, -1))
            (Json.to_list j)
        in
        Histogram.export (Histogram.import pairs) = Histogram.export h)

(* ------------------------------------------------------------------ *)
(* Structured log                                                      *)
(* ------------------------------------------------------------------ *)

let test_log_writer () =
  let was_enabled = !Obs.Log.enabled and was_threshold = !Obs.Log.threshold in
  Obs.Log.close ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.close ();
      Obs.Log.enabled := was_enabled;
      Obs.Log.threshold := was_threshold)
    (fun () ->
      check "disabled with no sink" false !Obs.Log.enabled;
      Obs.Log.event "inert" [ ("k", Span.Int 1) ] (* must be a no-op *);
      let path = Filename.temp_file "obs-log" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Obs.Log.open_path path;
          check "open_path enables" true !Obs.Log.enabled;
          Obs.Log.event "first"
            [
              ("i", Span.Int 42);
              ("f", Span.Float 1.5);
              ("s", Span.Str "quotes \" and\nnewlines");
              ("b", Span.Bool true);
            ];
          Obs.Log.event ~level:Obs.Log.Debug "below-threshold" [];
          Obs.Log.event ~level:Obs.Log.Warn "second"
            [ ("tenant", Span.Str "t") ];
          Obs.Log.close ();
          check "close disables" false !Obs.Log.enabled;
          let lines =
            List.filter
              (fun l -> String.trim l <> "")
              (String.split_on_char '\n'
                 (In_channel.with_open_bin path In_channel.input_all))
          in
          match
            List.map
              (fun l ->
                match Json.of_string l with
                | Ok j -> j
                | Error msg ->
                  Alcotest.failf "log line does not parse: %s (%s)" l msg)
              lines
          with
          | [ a; b ] ->
            check_string "event name" "first"
              (Json.to_str (Json.member "event" a));
            check_string "default level" "info"
              (Json.to_str (Json.member "level" a));
            check "ts_us positive" true
              (Json.to_int (Json.member "ts_us" a) > 0);
            check_int "int attr" 42 (Json.to_int (Json.member "i" a));
            check "bool attr" true (Json.to_bool (Json.member "b" a));
            check_string "string attr escapes round-trip"
              "quotes \" and\nnewlines"
              (Json.to_str (Json.member "s" a));
            check_string "warn level" "warn"
              (Json.to_str (Json.member "level" b));
            check_string "second event's attr" "t"
              (Json.to_str (Json.member "tenant" b))
          | l ->
            Alcotest.failf "expected 2 lines (Debug filtered), got %d"
              (List.length l)))

(* ------------------------------------------------------------------ *)
(* Trace-id context                                                    *)
(* ------------------------------------------------------------------ *)

let test_trace_context () =
  check "no ambient trace id" true (Span.current_trace_id () = None);
  let seen =
    Span.with_trace_id "outer-id" (fun () ->
        let a = Span.current_trace_id () in
        let b =
          Span.with_trace_id "inner-id" (fun () -> Span.current_trace_id ())
        in
        (a, b, Span.current_trace_id ()))
  in
  check "nested contexts set and restore" true
    (seen = (Some "outer-id", Some "inner-id", Some "outer-id"));
  check "restored outside" true (Span.current_trace_id () = None);
  (try Span.with_trace_id "boom" (fun () -> failwith "x")
   with Failure _ -> ());
  check "restored after an exception" true (Span.current_trace_id () = None);
  with_tracing (fun () ->
      Span.with_trace_id "tid-1" (fun () ->
          Span.with_span "auto" (fun _ -> ());
          Span.with_span "explicit"
            ~attrs:[ ("trace_id", Span.Str "already") ]
            (fun _ -> ()));
      let spans = Span.finished () in
      check "span inherits the ambient trace id" true
        (List.assoc_opt "trace_id" (Span.attrs (by_name spans "auto"))
        = Some (Span.Str "tid-1"));
      check "an explicit trace_id attr wins" true
        (List.assoc_opt "trace_id" (Span.attrs (by_name spans "explicit"))
        = Some (Span.Str "already")))

(* ------------------------------------------------------------------ *)
(* Pool attribution                                                    *)
(* ------------------------------------------------------------------ *)

let task_spans () =
  List.filter (fun (s : Span.t) -> s.Span.name = "pool.task") (Span.finished ())

let int_attr (s : Span.t) key =
  match List.assoc_opt key (Span.attrs s) with
  | Some (Span.Int i) -> i
  | _ -> Alcotest.failf "pool.task span without %s attr" key

let test_pool_attribution () =
  with_tracing (fun () ->
      let res =
        Gpu_util.Pool.parallel_map ~jobs:2 (fun x -> x * x) [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list int)) "results in order" [ 1; 4; 9; 16 ] res;
      let tasks = task_spans () in
      check_int "one span per task" 4 (List.length tasks);
      Alcotest.(check (list int))
        "task indices cover the batch" [ 0; 1; 2; 3 ]
        (List.sort compare (List.map (fun s -> int_attr s "task") tasks));
      List.iter
        (fun s ->
          let w = int_attr s "worker" in
          check "worker id in range" true (w >= 0 && w < 2);
          check "wall time recorded" true (int_attr s "wall_us" >= 0))
        tasks)

let test_pool_error_attribution () =
  with_tracing (fun () ->
      let errors_before = Metrics.value (Metrics.counter "pool.errors") in
      (try
         ignore
           (Gpu_util.Pool.parallel_map ~jobs:2
              (fun x -> if x = 2 then failwith "task boom" else x)
              [ 1; 2; 3 ]);
         Alcotest.fail "exception did not propagate"
       with Failure m ->
         check_string "original exception re-raised unchanged" "task boom" m);
      let errored =
        List.filter (fun s -> List.mem_assoc "error" (Span.attrs s)) (task_spans ())
      in
      check_int "exactly the failing task errored" 1 (List.length errored);
      check_int "its index is attributed" 1 (int_attr (List.hd errored) "task");
      check "pool.errors counted" true
        (Metrics.value (Metrics.counter "pool.errors") > errors_before))

(* ------------------------------------------------------------------ *)
(* Timeline                                                            *)
(* ------------------------------------------------------------------ *)

let test_timeline_coalescing () =
  let tl = Timeline.create () in
  let mem = Profile.Stall.Mem_wait in
  Timeline.record tl ~sm:0 ~kind:mem ~start:0 ~stop:4;
  Timeline.record tl ~sm:0 ~kind:mem ~start:4 ~stop:7;
  check_int "back-to-back same kind coalesces" 1 (Timeline.length tl);
  Timeline.record tl ~sm:0 ~kind:Profile.Stall.Issue ~start:7 ~stop:8;
  check_int "kind change breaks the run" 2 (Timeline.length tl);
  Timeline.record tl ~sm:0 ~kind:Profile.Stall.Issue ~start:9 ~stop:9;
  check_int "empty interval ignored" 2 (Timeline.length tl);
  Timeline.record tl ~sm:1 ~kind:mem ~start:7 ~stop:9;
  check_int "each SM has its own run" 3 (Timeline.length tl);
  let coalesced = ref None in
  Timeline.iter tl (fun iv ->
      if iv.Timeline.sm = 0 && iv.Timeline.kind = mem then coalesced := Some iv);
  (match !coalesced with
  | Some iv ->
    check_int "coalesced start" 0 iv.Timeline.start;
    check_int "coalesced stop" 7 iv.Timeline.stop
  | None -> Alcotest.fail "coalesced interval not stored");
  let events = Timeline.to_events tl ~pid:3 in
  check_int "one slice per interval" 3 (List.length events);
  List.iter
    (fun (e : Trace_event.event) ->
      check_string "slice phase" "X" e.Trace_event.ph;
      check_int "slice pid" 3 e.Trace_event.pid;
      check "tid is the SM id" true (e.Trace_event.tid = 0 || e.Trace_event.tid = 1);
      check "cycles map to positive dur" true (e.Trace_event.dur > 0))
    events

let test_timeline_cap () =
  let tl = Timeline.create ~cap:2 () in
  let mem = Profile.Stall.Mem_wait in
  Timeline.record tl ~sm:0 ~kind:mem ~start:0 ~stop:1;
  Timeline.record tl ~sm:0 ~kind:Profile.Stall.Issue ~start:2 ~stop:3;
  Timeline.record tl ~sm:0 ~kind:mem ~start:4 ~stop:5;
  check_int "stored intervals capped" 2 (Timeline.length tl);
  check_int "overflow counted, not stored" 1 (Timeline.dropped tl)

(* ------------------------------------------------------------------ *)
(* Cache counters                                                      *)
(* ------------------------------------------------------------------ *)

let test_cache_counters () =
  let module Cache = Experiments.Cache in
  let tmp = Filename.temp_file "obs-cache" "" in
  Sys.remove tmp;
  let old_dir = !Cache.dir and old_enabled = !Cache.enabled in
  Cache.dir := tmp;
  Cache.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Cache.clear ();
      (try Unix.rmdir tmp with Unix.Unix_error _ | Sys_error _ -> ());
      Cache.dir := old_dir;
      Cache.enabled := old_enabled)
    (fun () ->
      let cfg = explain_cfg () in
      let before = Cache.stats () in
      check "absent entry is a miss" true
        (Cache.load cfg ~workload:"W" ~scheme:"S" ~seed:1 = None);
      Cache.store cfg ~workload:"W" ~scheme:"S" ~seed:1
        (Json.Obj [ ("x", Json.Int 1) ]);
      (match Cache.load cfg ~workload:"W" ~scheme:"S" ~seed:1 with
      | Some (Json.Obj [ ("x", Json.Int 1) ]) -> ()
      | _ -> Alcotest.fail "stored entry did not load back");
      let file = Cache.path cfg ~workload:"W" ~scheme:"S" ~seed:1 in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc "{not json");
      check "corrupt entry is a miss" true
        (Cache.load cfg ~workload:"W" ~scheme:"S" ~seed:1 = None);
      let after = Cache.stats () in
      check_int "hits" (before.Cache.hits + 1) after.Cache.hits;
      check_int "misses" (before.Cache.misses + 2) after.Cache.misses;
      check_int "stores" (before.Cache.stores + 1) after.Cache.stores;
      check_int "evictions" (before.Cache.evictions + 1) after.Cache.evictions)

(* ------------------------------------------------------------------ *)
(* Decision provenance (explain)                                       *)
(* ------------------------------------------------------------------ *)

let golden_dir = "golden_profiles"
let explain_atax_path = Filename.concat golden_dir "explain_atax.json"

let render_explain_atax () =
  let cfg = explain_cfg () and w = Workloads.Registry.find "ATAX" in
  Json.to_string ~pretty:true
    (Experiments.Explain.to_json cfg w (Experiments.Explain.analyses cfg w))
  ^ "\n"

let test_golden_explain () =
  if not (Sys.file_exists explain_atax_path) then
    Alcotest.failf "missing golden %s — regenerate (see header)"
      explain_atax_path;
  let golden =
    In_channel.with_open_bin explain_atax_path In_channel.input_all
  in
  check_string "explain ATAX provenance" golden (render_explain_atax ())

(* [catt_cli explain] must report, for every CS kernel, exactly the
   (N, M) the driver decided — and the recorded candidate sequence must
   be the real Eq. 9 search: every candidate before the chosen one
   overflowed the L1D, the chosen one fits. *)
let test_explain_matches_driver () =
  let cfg = explain_cfg () in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      List.iter
        (fun (name, (t : Catt.Driver.t)) ->
          let ctx = w.Workloads.Workload.name ^ "/" ^ name in
          let json = Catt.Explain.to_json cfg t in
          let loops = Json.to_list (Json.member "loops" json) in
          check_int (ctx ^ " loop count") (List.length t.Catt.Driver.loops)
            (List.length loops);
          List.iter2
            (fun (l : Catt.Driver.loop_decision) lj ->
              let d = l.Catt.Driver.decision in
              let dj = Json.member "decision" lj in
              check_int (ctx ^ " N") d.Catt.Throttle.n
                (Json.to_int (Json.member "n" dj));
              check_int (ctx ^ " M") d.Catt.Throttle.m
                (Json.to_int (Json.member "m" dj));
              check (ctx ^ " throttled") d.Catt.Throttle.throttled
                (Json.to_bool (Json.member "throttled" dj));
              check (ctx ^ " resolved") d.Catt.Throttle.resolved
                (Json.to_bool (Json.member "resolved" dj));
              check_int (ctx ^ " candidates serialized")
                (List.length d.Catt.Throttle.trials)
                (List.length (Json.to_list (Json.member "candidates" lj)));
              if d.Catt.Throttle.resolved && d.Catt.Throttle.throttled then
                match List.rev d.Catt.Throttle.trials with
                | [] -> Alcotest.failf "%s: throttled with no recorded trials" ctx
                | chosen :: earlier ->
                  check (ctx ^ " chosen candidate fits") true
                    chosen.Catt.Throttle.cand_fits;
                  check_int (ctx ^ " chosen N is the decision")
                    d.Catt.Throttle.n chosen.Catt.Throttle.cand_n;
                  check_int (ctx ^ " chosen M is the decision")
                    d.Catt.Throttle.m chosen.Catt.Throttle.cand_m;
                  List.iter
                    (fun (tr : Catt.Throttle.trial) ->
                      check (ctx ^ " earlier candidate overflowed") false
                        tr.Catt.Throttle.cand_fits)
                    earlier)
            t.Catt.Driver.loops loops)
        (Experiments.Explain.analyses cfg w))
    Workloads.Registry.cs

(* ------------------------------------------------------------------ *)
(* Suite + regen                                                       *)
(* ------------------------------------------------------------------ *)

let regen_goldens dir =
  let path = Filename.concat dir "explain_atax.json" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (render_explain_atax ()));
  Printf.printf "wrote %s\n" path

let tc = Alcotest.test_case

let tests =
  [
    ( "span",
      [
        tc "disabled path is inert" `Quick test_span_disabled;
        tc "nesting and ordering" `Quick test_span_nesting;
        tc "attrs and idempotent finish" `Quick test_span_attrs;
        tc "error capture" `Quick test_span_error;
        tc "clock monotone" `Quick test_clock_monotone;
        tc "trace-id context" `Quick test_trace_context;
      ] );
    ("perfetto", [ tc "export well-formed" `Quick test_perfetto_well_formed ]);
    ( "metrics",
      [
        tc "registry" `Quick test_metrics_registry;
        tc "manifest round-trip" `Quick test_manifest_roundtrip;
      ] );
    ( "histogram",
      [
        tc "fixed bucket boundaries" `Quick test_histogram_buckets;
        tc "quantiles and summary" `Quick test_histogram_quantiles;
        QCheck_alcotest.to_alcotest prop_bucket_contains;
        QCheck_alcotest.to_alcotest prop_merge;
        QCheck_alcotest.to_alcotest prop_quantile_bounds;
        QCheck_alcotest.to_alcotest prop_export_json_roundtrip;
      ] );
    ("log", [ tc "writer, levels, escaping" `Quick test_log_writer ]);
    ( "pool",
      [
        tc "task attribution" `Quick test_pool_attribution;
        tc "error attribution" `Quick test_pool_error_attribution;
      ] );
    ( "timeline",
      [
        tc "coalescing" `Quick test_timeline_coalescing;
        tc "cap" `Quick test_timeline_cap;
      ] );
    ("cache", [ tc "counters" `Quick test_cache_counters ]);
    ( "explain",
      [
        tc "golden ATAX provenance" `Quick test_golden_explain;
        tc "matches driver over all CS kernels" `Slow
          test_explain_matches_driver;
      ] );
  ]
