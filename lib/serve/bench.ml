(** The benchmark harness behind [catt_cli bench]: throughput stages, A/A
    overhead measurements, the [BENCH_gpusim.json] report and the gate.

    One cell is one uncached (workload, scheme) simulation, the unit every
    sweep, table and figure is built from.  A stage times a fixed batch of
    cells — wall clock via [Unix.gettimeofday], allocation via
    [Gc.minor_words] and [Gc.quick_stat] — and reports cells per second and
    words per cell.  [catt_cli bench --json PATH] writes the report;
    [catt_cli bench --check] re-measures every stage of {!stages} and fails
    when one loses more than {!gate_pct}% of its committed cells/sec (best
    of three), when a stage whose counts repeat exactly allocates more than
    {!count_gate_pct}% more minor words per cell than committed, or when an
    A/A instance of {!aa_instances} lands more than {!aa_gate_pct}% apart
    in each of three attempts.

    It lives in [serve] because its one stage list holds the grid stages,
    built on [Experiments], and [serve/pipelined], built on {!Server}. *)

module Json = Gpu_util.Json

let gate_pct = 10.0
let count_gate_pct = 1.0
let aa_gate_pct = 5.0

(* ------------------------------------------------------------------ *)
(* Stages                                                              *)
(* ------------------------------------------------------------------ *)

type stage = {
  name : string;
  cells : int;
  seconds : float;
  cells_per_sec : float;
  minor_words_per_cell : float;
  major_words_per_cell : float;
  exact_counts : bool;
      (** the stage runs on one domain with no threads, so its counts
          repeat exactly and the gate judges them; set by the measurement,
          never read from a report *)
}

let measure ~name ~cells ~exact_counts f =
  let s0 = Gc.quick_stat () in
  (* [quick_stat]'s minor_words only advances at collection boundaries;
     [minor_words ()] reads the allocation pointer, so stages too small
     to trigger a minor GC still report a real rate *)
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  f ();
  let seconds = Unix.gettimeofday () -. t0 in
  let m1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  let per_cell words = words /. float_of_int (max 1 cells) in
  {
    name;
    cells;
    seconds;
    cells_per_sec = float_of_int cells /. seconds;
    minor_words_per_cell = per_cell (m1 -. m0);
    major_words_per_cell =
      per_cell
        (s1.Gc.major_words -. s0.Gc.major_words
        -. (s1.Gc.promoted_words -. s0.Gc.promoted_words));
    exact_counts;
  }

let run_cell cfg w scheme =
  match
    Experiments.Runner.exec_uncached
      (Experiments.Runner.Request.make cfg w scheme)
  with
  | Ok _ -> ()
  | Error msg -> failwith msg

let grid_stage workloads scheme name =
  let cfg = Experiments.Configs.max_l1d () in
  measure ~name ~cells:(List.length workloads) ~exact_counts:true (fun () ->
      List.iter (fun w -> run_cell cfg w scheme) workloads)

(* ---- serve/pipelined: requests/sec through Server.serve_fd ---- *)

let request_line i =
  Json.to_string
    (Protocol.request_to_json
       {
         Protocol.id = Printf.sprintf "bench-%d" i;
         tenant = "bench";
         trace_id = None;
         kind =
           Protocol.Simulate
             {
               Protocol.workload = "ATAX";
               scheme = Experiments.Scheme.Baseline;
               co_resident = None;
             };
       })

(* write [payload] in one stream from a feeder thread, then close —
   serve_fd's EOF signal *)
let feed fd payload =
  let b = Bytes.of_string payload in
  let len = Bytes.length b in
  let pos = ref 0 in
  (try
     while !pos < len do
       match Unix.write fd b !pos (len - !pos) with
       | n -> pos := !pos + n
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     done
   with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
  Unix.close fd

(** Push [requests] pipelined [simulate] requests through [server] over a
    pipe pair, as one buffer, and wait for every response.  Raises if any
    response goes missing: a bench that silently under-counts would gate
    on garbage. *)
let run_batch server ~requests =
  let in_r, in_w = Unix.pipe ~cloexec:false () in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let payload =
    String.concat "" (List.init requests (fun i -> request_line i ^ "\n"))
  in
  let feeder = Thread.create (fun () -> feed in_w payload) () in
  let seen = ref 0 in
  let drainer =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr out_r in
        (try
           while !seen < requests do
             ignore (input_line ic);
             incr seen
           done
         with End_of_file -> ());
        close_in ic)
      ()
  in
  Server.serve_fd server ~in_fd:in_r ~out_fd:out_w ~stop:(fun () -> false);
  Thread.join feeder;
  (* serve_fd drained this connection, so every response is written; EOF
     unblocks the drainer if any went missing *)
  Unix.close out_w;
  Thread.join drainer;
  Unix.close in_r;
  if !seen <> requests then
    failwith
      (Printf.sprintf "serve bench: %d responses for %d requests" !seen
         requests)

(** A server on the max-L1D config with the disk cache off, so its timed
    batches are warm in-process memo hits with no disk side effects.
    [restore] shuts it down and turns the disk cache back to its state. *)
let bench_server ~queue_cap =
  let server =
    Server.create ~cfg:(Experiments.Configs.max_l1d ()) ~jobs:2 ~queue_cap ()
  in
  let was_cache = !Experiments.Cache.enabled in
  Experiments.Cache.enabled := false;
  let restore () =
    Server.shutdown server;
    Experiments.Cache.enabled := was_cache
  in
  (server, restore)

(** The serve loop itself — line scanning, JSON codecs, admission, pool
    dispatch, tenant accounting, response writing — not simulation: the
    one cell every request names is simulated in an untimed warm-up. *)
let serve_stage name =
  let requests = 1024 in
  let server, restore = bench_server ~queue_cap:requests in
  Fun.protect ~finally:restore (fun () ->
      run_batch server ~requests:4;
      measure ~name ~cells:requests ~exact_counts:false (fun () ->
          run_batch server ~requests))

(** Every gated stage, by name, as a function measuring it under that
    name: the five grid stages, whose simulator cells stand behind every
    reproduced table and figure, then the serve loop.  A cell's manifest
    holds no metrics snapshot, so the grid cells allocate the same
    whether or not the serve stage's server has registered its
    metrics. *)
let stages : (string * (string -> stage)) list =
  let grid = grid_stage Workloads.Registry.all in
  Experiments.Scheme.
    [
      ("grid/baseline", grid Baseline);
      ("grid/catt", grid Catt);
      ("grid/dynamic", grid Dynamic);
      ("grid/ciao", grid Ciao);
      ("grid/ata", grid Ata);
      ("serve/pipelined", serve_stage);
    ]

(** The baseline cells of [workloads] fanned across a pool of [jobs]
    domains.  [Gc.minor_words] sees only the calling domain, so each task
    counts its own cell's minor words and the stage sums them. *)
let pool_stage workloads jobs =
  let cfg = Experiments.Configs.max_l1d () in
  let cells = List.length workloads in
  let words = ref [] in
  let s =
    measure
      ~name:(Printf.sprintf "pool/jobs-%d" jobs)
      ~cells ~exact_counts:false
      (fun () ->
        words :=
          Gpu_util.Pool.parallel_map ~jobs
            (fun w ->
              let m0 = Gc.minor_words () in
              run_cell cfg w Experiments.Scheme.Baseline;
              Gc.minor_words () -. m0)
            workloads)
  in
  {
    s with
    minor_words_per_cell = List.fold_left ( +. ) 0. !words /. float_of_int cells;
  }

(** The baseline grid at jobs 1 and at one domain per core.
    Informational, not gated: domain scaling depends on the host's
    cores. *)
let pool_stages () =
  List.map
    (pool_stage Workloads.Registry.all)
    (List.sort_uniq compare [ 1; Domain.recommended_domain_count () ])

(* ------------------------------------------------------------------ *)
(* A/A overhead                                                        *)
(* ------------------------------------------------------------------ *)

type aa = {
  disabled_ms : float;
  disabled_ab_pct : float;
      (** how far apart the medians of two batch families of the
          *disabled* configuration land.  Both run identical code, so this
          is the host's noise floor behind [enabled_pct], not a bound on
          what the disabled hooks cost *)
  enabled_ms : float;
  enabled_pct : float;  (** the enabled configuration against disabled *)
  disabled_within_5pct : bool;
}

(** The A/A figures from per-rep batch times of the two disabled families
    [a] and [b] and the enabled one [en], in seconds. *)
let aa_of_times a b en =
  let med = Gpu_util.Stats.median in
  let ma = med a and mb = med b and me = med en in
  let base = min ma mb in
  let disabled_ab_pct = 100. *. (abs_float (ma -. mb) /. base) in
  {
    disabled_ms = 1000. *. base;
    disabled_ab_pct;
    enabled_ms = 1000. *. me;
    enabled_pct = 100. *. ((me -. base) /. base);
    disabled_within_5pct = disabled_ab_pct <= aa_gate_pct;
  }

(** One A/A measurement.  [setup ()] arms an instance and returns
    [run ~enabled], one timed batch with the instrumentation off or on,
    and [restore], which [Fun.protect] runs however the measurement ends.
    After an untimed warm-up, each of seven rounds times two disabled
    batches, in alternating order so a first-batch bias cancels in the
    medians, then one enabled batch; the GC is drained before every batch
    so one batch's garbage is not collected inside the next. *)
let aa setup =
  let reps = 7 in
  let run, restore = setup () in
  Fun.protect ~finally:restore (fun () ->
      run ~enabled:false;
      let time enabled =
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        run ~enabled;
        Unix.gettimeofday () -. t0
      in
      let a = Array.make reps 0. in
      let b = Array.make reps 0. in
      let en = Array.make reps 0. in
      for i = 0 to reps - 1 do
        if i land 1 = 0 then begin
          a.(i) <- time false;
          b.(i) <- time false
        end
        else begin
          b.(i) <- time false;
          a.(i) <- time false
        end;
        en.(i) <- time true
      done;
      aa_of_times a b en)

(* a divergent ATAX row: small enough for a batch of about 12 ms,
   contended enough that the profiler and span hooks on the scheduler and
   memory paths all fire *)
let overhead_kernel_src =
  {|
__global__ void bench_div(float *A, float *x, float *tmp) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < 512) {
    for (int j = 0; j < 256; j++) {
      tmp[i] += A[i * 256 + j] * x[j];
    }
  }
}
|}

let simulate_overhead_kernel ?profile () =
  let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(32 * 1024) () in
  let kernel = Minicuda.Parser.parse_kernel overhead_kernel_src in
  let prog = Gpusim.Codegen.compile_kernel kernel in
  let dev = Gpusim.Gpu.create cfg in
  let nx = 512 and ny = 256 in
  Gpusim.Gpu.upload dev "A"
    (Array.init (nx * ny) (fun i -> float_of_int (i land 7)));
  Gpusim.Gpu.upload dev "x" (Array.init ny (fun i -> float_of_int (i land 3)));
  Gpusim.Gpu.alloc dev "tmp" nx;
  let launch =
    Gpusim.Gpu.default_launch ?profile ~prog ~grid:(2, 1) ~block:(256, 1)
      [ Gpusim.Gpu.Arr "A"; Gpusim.Gpu.Arr "x"; Gpusim.Gpu.Arr "tmp" ]
  in
  ignore (Gpusim.Gpu.launch dev launch)

(** The serve loop with span tracing and structured logging off, against
    both on with the access log rendering to [/dev/null]: trace-id
    minting, the [enabled] guards in the access and slow-log hooks and
    the histogram records run on every request.  Batches are long (2048
    requests) because threads, pipes and a domain pool make them far
    noisier than a kernel batch. *)
let serve_obs_setup () =
  let requests = 2048 in
  let server, restore_server = bench_server ~queue_cap:requests in
  let was_spans = !Obs.Span.enabled and was_log = !Obs.Log.enabled in
  Obs.Log.set_channel ~close_on_reset:true (open_out "/dev/null");
  let run ~enabled =
    Obs.Span.enabled := enabled;
    Obs.Log.enabled := enabled;
    run_batch server ~requests;
    Obs.Span.enabled := false;
    Obs.Log.enabled := false;
    Obs.Span.reset ()
  in
  let restore () =
    restore_server ();
    Obs.Log.close ();
    Obs.Span.enabled := was_spans;
    Obs.Log.enabled := was_log
  in
  (run, restore)

(** The three A/A instances, by name (also their report key): the
    profiler's collector on a kernel batch, span tracing on the same
    batch, and the serve loop's telemetry plane. *)
let aa_instances :
    (string * (unit -> (enabled:bool -> unit) * (unit -> unit))) list =
  [
    ( "profiler",
      fun () ->
        ( (fun ~enabled ->
            simulate_overhead_kernel
              ?profile:
                (if enabled then Some (Profile.Collector.create ()) else None)
              ()),
          ignore ) );
    ( "obs",
      fun () ->
        let was = !Obs.Span.enabled in
        ( (fun ~enabled ->
            Obs.Span.enabled := enabled;
            simulate_overhead_kernel ();
            Obs.Span.enabled := false;
            Obs.Span.reset ()),
          fun () -> Obs.Span.enabled := was ) );
    ("serve_obs", serve_obs_setup);
  ]

let print_aa name o =
  Printf.printf
    "  %-16s A/A: disabled %.2f ms (%.1f%% apart), enabled %.2f ms \
     (%+.1f%%)  %s\n\
     %!"
    name o.disabled_ms o.disabled_ab_pct o.enabled_ms o.enabled_pct
    (if o.disabled_within_5pct then "ok" else "ABOVE 5%")

(** Measure one named instance once and print it. *)
let measure_aa (name, setup) =
  let o = aa setup in
  print_aa name o;
  (name, o)

(** The A/A gate: measure an instance until it lands within
    {!aa_gate_pct}, at most three times, and return the last attempt.
    The two disabled families run identical code, so only noise or a bias
    in the protocol itself (state an enabled batch leaves for the next)
    pulls them apart: a bias fails every attempt, noise only by chance. *)
let gate_aa instance =
  let rec attempt n =
    let ((_, o) as named) = measure_aa instance in
    if o.disabled_within_5pct || n = 3 then named else attempt (n + 1)
  in
  attempt 1

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

type report = {
  gated : stage list;
  pool : stage list;
  overheads : (string * aa) list;
}

let print_stage s =
  Printf.printf "  %-16s %10.2f cells/sec  %10.0f minor words/cell\n%!" s.name
    s.cells_per_sec s.minor_words_per_cell

(** Measure every stage, pool stage and A/A instance once, printing each
    as it lands: the report records single measurements; retrying is the
    gate's noise policy. *)
let collect () =
  let gated =
    List.map
      (fun (name, m) ->
        let s = m name in
        print_stage s;
        s)
      stages
  in
  let pool = pool_stages () in
  List.iter print_stage pool;
  { gated; pool; overheads = List.map measure_aa aa_instances }

let stage_to_json s =
  Json.Obj
    [
      ("stage", Json.String s.name);
      ("cells", Json.Int s.cells);
      ("seconds", Json.Float s.seconds);
      ("cells_per_sec", Json.Float s.cells_per_sec);
      ("minor_words_per_cell", Json.Float s.minor_words_per_cell);
      ("major_words_per_cell", Json.Float s.major_words_per_cell);
    ]

let aa_to_json o =
  Json.Obj
    [
      ("disabled_ms", Json.Float o.disabled_ms);
      ("disabled_ab_pct", Json.Float o.disabled_ab_pct);
      ("enabled_ms", Json.Float o.enabled_ms);
      ("enabled_pct", Json.Float o.enabled_pct);
      ("disabled_within_5pct", Json.Bool o.disabled_within_5pct);
    ]

let report_to_json ?pre_overhaul r =
  Json.Obj
    ([
       ("version", Json.Int 1);
       ("gate_pct", Json.Float gate_pct);
       ("stages", Json.List (List.map stage_to_json r.gated));
       ("pool", Json.List (List.map stage_to_json r.pool));
     ]
    @ List.map (fun (name, o) -> (name, aa_to_json o)) r.overheads
    @ match pre_overhaul with Some j -> [ ("pre_overhaul", j) ] | None -> [])

let stage_of_json j =
  {
    name = Json.to_str (Json.member "stage" j);
    cells = Json.to_int (Json.member "cells" j);
    seconds = Json.to_float (Json.member "seconds" j);
    cells_per_sec = Json.to_float (Json.member "cells_per_sec" j);
    minor_words_per_cell = Json.to_float (Json.member "minor_words_per_cell" j);
    major_words_per_cell = Json.to_float (Json.member "major_words_per_cell" j);
    exact_counts = false;
  }

(** The committed stages the gate compares against. *)
let baseline_of_json json =
  Json.decode
    (fun j -> List.map stage_of_json (Json.to_list (Json.member "stages" j)))
    json

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Json.of_string s
  | exception Sys_error msg -> Error msg

(** Rewrite [path] with [r], carrying the informational [pre_overhaul]
    section of an existing copy forward so regeneration never loses the
    before/after record. *)
let write_json path r =
  let pre_overhaul =
    match read_json path with
    | Ok j -> Json.member_opt "pre_overhaul" j
    | Error _ -> None
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (Json.to_string ~pretty:true (report_to_json ?pre_overhaul r));
      Out_channel.output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* The gate                                                            *)
(* ------------------------------------------------------------------ *)

type verdict = {
  committed : stage;
  measured : stage;
  time_pct : float;  (** cells/sec against committed; positive = faster *)
  words_pct : float;  (** minor words per cell; positive = more *)
  time_ok : bool;
  count_ok : bool;  (** true for a stage without exact counts *)
}

let verdict committed measured =
  let pct m c = 100. *. ((m -. c) /. c) in
  let time_pct = pct measured.cells_per_sec committed.cells_per_sec in
  let words_pct =
    pct measured.minor_words_per_cell committed.minor_words_per_cell
  in
  {
    committed;
    measured;
    time_pct;
    words_pct;
    time_ok = time_pct >= -.gate_pct;
    count_ok = (not measured.exact_counts) || words_pct <= count_gate_pct;
  }

let ok v = v.time_ok && v.count_ok

(** One verdict per committed stage that was measured; a committed stage
    the measured list lacks has nothing to gate. *)
let check ~committed ~measured =
  List.filter_map
    (fun c ->
      List.find_opt (fun m -> m.name = c.name) measured
      |> Option.map (verdict c))
    committed

(** Wall-clock noise on a busy host routinely exceeds {!gate_pct} between
    two runs of one binary.  A stage that misses the time floor is
    re-measured up to twice more and judged on its fastest
    measurement: scheduling noise only ever makes a stage look slower, so
    best-of-N converges on the true rate, while a real regression fails
    every attempt.  Counts repeat exactly, so a count failure is not
    re-measured.  [remeasure] returns a fresh measurement of a stage name. *)
let check_with_retry ~committed ~measured ~remeasure =
  let rec retry v attempts =
    if v.time_ok || attempts = 0 then v
    else
      let s = remeasure v.committed.name in
      retry
        (if s.cells_per_sec > v.measured.cells_per_sec then verdict v.committed s
         else v)
        (attempts - 1)
  in
  List.map (fun v -> retry v 2) (check ~committed ~measured)

let print_verdict v =
  Printf.printf
    "  %-16s %9.2f -> %9.2f cells/sec (%+6.1f%%) %-10s %9.0f -> %9.0f \
     words/cell (%+6.1f%%) %s\n"
    v.committed.name v.committed.cells_per_sec v.measured.cells_per_sec
    v.time_pct
    (if v.time_ok then "ok" else "REGRESSION")
    v.committed.minor_words_per_cell v.measured.minor_words_per_cell
    v.words_pct
    (if not v.measured.exact_counts then "not gated"
     else if v.count_ok then "ok"
     else "REGRESSION")

(** [catt_cli bench --check]: judge a fresh measurement of every stage and
    A/A instance against the committed report at [path].  Returns the
    exit code: 0 when everything passes, 1 on a regression, 2 when the
    committed report cannot be read. *)
let check_file path =
  match Result.bind (read_json path) baseline_of_json with
  | Error msg ->
    Printf.eprintf
      "bench: cannot read the committed report (%s); write one with \
       `catt_cli bench --json %s`\n"
      msg path;
    2
  | Ok committed ->
    let measured = List.map (fun (name, m) -> m name) stages in
    let remeasure name =
      Printf.printf "  %-16s re-measuring (ruling out timing noise)\n%!" name;
      List.assoc name stages name
    in
    let verdicts = check_with_retry ~committed ~measured ~remeasure in
    List.iter print_verdict verdicts;
    let stages_ok = List.for_all ok verdicts in
    Printf.printf "stage gate: %s\n%!"
      (if stages_ok then "PASS"
       else
         Printf.sprintf
           "FAIL (a stage >%.0f%% below its committed cells/sec or >%.0f%% \
            above its committed minor words/cell)"
           gate_pct count_gate_pct);
    let overheads = List.map gate_aa aa_instances in
    let aa_ok =
      List.for_all (fun (_, o) -> o.disabled_within_5pct) overheads
    in
    Printf.printf "A/A gate: %s\n"
      (if aa_ok then "PASS"
       else
         Printf.sprintf "FAIL (disabled A/A > %.0f%% in 3 attempts)" aa_gate_pct);
    if stages_ok && aa_ok then 0 else 1
