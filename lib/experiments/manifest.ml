(** Run manifests: the provenance record attached to every cached
    experiment result.

    A manifest answers "where did this number come from" for a sweep
    cell loaded months later: the full device-config fingerprint it was
    simulated under, the scheme and seed, how long the simulation took,
    and the launch key behind its counters.  It carries no snapshot of
    the process-wide {!Obs.Metrics} registry: those counters describe the
    process at store time, not the cell.  It rides inside the cache
    entry's JSON but is deliberately *not* part of the simulated payload:
    two runs with different manifests still digest identically on the
    golden grid. *)

module Json = Gpu_util.Json

let manifest_version = 2

type t = {
  fingerprint : string;  (** MD5 hex of {!Cache.config_fingerprint} *)
  workload : string;
  scheme : string;
  seed : int;
  wall_seconds : float;  (** simulation wall time, not cache-load time *)
  obs_enabled : bool;  (** was span tracing on during the run *)
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
    launch_key;
  }

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
        launch_key = Option.map Json.to_str (Json.member_opt "launch_key" j);
      })
    json
