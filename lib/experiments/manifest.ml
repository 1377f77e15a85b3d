(** Run manifests: the provenance record attached to every cached
    experiment result.

    A manifest answers "where did this number come from" for a sweep
    cell loaded months later: the full device-config fingerprint it was
    simulated under, the scheme and seed, how long the simulation took,
    and a snapshot of the process-wide {!Obs.Metrics} registry at store
    time (cache traffic, launches, sanitizer rejections, pool
    utilization...).  It rides inside the cache entry's JSON but is
    deliberately *not* part of the simulated payload: two runs with
    different manifests still digest identically on the golden grid. *)

module Json = Gpu_util.Json

let manifest_version = 1

type t = {
  fingerprint : string;  (** MD5 hex of {!Cache.config_fingerprint} *)
  workload : string;
  scheme : string;
  seed : int;
  wall_seconds : float;  (** simulation wall time, not cache-load time *)
  obs_enabled : bool;  (** was span tracing on during the run *)
  metrics : (string * Obs.Metrics.value) list option;
      (** sorted by name; [None] until written: {!to_json} snapshots the
          registry then, so a run that is never stored (an uncached
          cell) pays nothing for it *)
  launch_key : string option;
      (** the {!Cache.launch_key} of the launch sequence behind the
          counters; the shard's launch index names entries by it *)
}

let make ?launch_key cfg ~workload ~scheme ~seed ~wall_seconds =
  {
    fingerprint = Digest.to_hex (Digest.string (Cache.fingerprint cfg));
    workload;
    scheme;
    seed;
    wall_seconds;
    obs_enabled = !Obs.Span.enabled;
    metrics = None;
    launch_key;
  }

let metric_to_json = function
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

let to_json m =
  Json.Obj
    ([
      ("manifest_version", Json.Int manifest_version);
      ("fingerprint", Json.String m.fingerprint);
      ("workload", Json.String m.workload);
      ("scheme", Json.String m.scheme);
      ("seed", Json.Int m.seed);
      ("wall_seconds", Json.Float m.wall_seconds);
      ("obs_enabled", Json.Bool m.obs_enabled);
      ( "metrics",
        let metrics =
          match m.metrics with Some ms -> ms | None -> Obs.Metrics.snapshot ()
        in
        Json.Obj (List.map (fun (k, v) -> (k, metric_to_json v)) metrics) );
    ]
    @
    match m.launch_key with
    | Some k -> [ ("launch_key", Json.String k) ]
    | None -> [])

let of_json json =
  Json.decode
    (fun j ->
      if Json.to_int (Json.member "manifest_version" j) <> manifest_version
      then raise (Json.Type_error "manifest version mismatch");
      {
        fingerprint = Json.to_str (Json.member "fingerprint" j);
        workload = Json.to_str (Json.member "workload" j);
        scheme = Json.to_str (Json.member "scheme" j);
        seed = Json.to_int (Json.member "seed" j);
        wall_seconds = Json.to_float (Json.member "wall_seconds" j);
        obs_enabled =
          (match Json.member "obs_enabled" j with
          | Json.Bool b -> b
          | _ -> raise (Json.Type_error "obs_enabled must be a bool"));
        metrics =
          Some
            (match Json.member "metrics" j with
            | Json.Obj fields ->
              List.map
                (fun (k, v) ->
                  ( k,
                    match v with
                    | Json.Int n -> Obs.Metrics.Count n
                    | Json.Float g -> Obs.Metrics.Gauge g
                    | Json.Obj _ as h ->
                      Obs.Metrics.Hist
                        {
                          Obs.Histogram.s_count =
                            Json.to_int (Json.member "count" h);
                          s_p50 = Json.to_int (Json.member "p50" h);
                          s_p90 = Json.to_int (Json.member "p90" h);
                          s_p99 = Json.to_int (Json.member "p99" h);
                          s_max = Json.to_int (Json.member "max" h);
                        }
                    | _ -> raise (Json.Type_error "metric must be a number") ))
                fields
            | _ -> raise (Json.Type_error "metrics must be an object"));
        launch_key = Option.map Json.to_str (Json.member_opt "launch_key" j);
      })
    json
