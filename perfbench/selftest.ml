(* Self-test of the benchmark's output checks: every checker accepts the
   program's real output and counts a tampered copy as failed, and the
   traced grid replay reproduces what the runner computes.

   Run it through: python3 perfbench/run.py --self-test *)

module Runner = Experiments.Runner
module Json = Gpu_util.Json
module Protocol = Serve.Protocol
module Server = Serve.Server

let failures = ref 0

let expect name ~good ~bad =
  let tally = Checks.Tally.create () in
  Checks.Tally.op tally ~what:name good;
  let clean = tally.Checks.Tally.failed = 0 in
  Checks.Tally.op tally ~what:name bad;
  let caught = tally.Checks.Tally.failed = 1 && tally.Checks.Tally.attempted = 2 in
  let ok = clean && caught in
  if not ok then incr failures;
  Printf.printf "%s %s%s\n%!" (if ok then "ok  " else "FAIL") name
    (if not clean then " (real output rejected)"
     else if not caught then " (tampered output accepted)"
     else "")

let cfg = Experiments.Configs.max_l1d ()
let atax = Workloads.Registry.find "ATAX"

let run w s =
  match Runner.exec (Runner.Request.make cfg w s) with
  | Ok r -> r
  | Error msg -> failwith msg

let bump_instructions (r : Runner.app_run) =
  match r.Runner.kernels with
  | [] -> r
  | k :: rest ->
    let stats = { k.Runner.stats with Gpusim.Stats.instructions = k.Runner.stats.Gpusim.Stats.instructions + 1 } in
    { r with Runner.kernels = { k with Runner.stats } :: rest }

let replace_member name v = function
  | Json.Obj fields -> Json.Obj (List.map (fun (k, x) -> if k = name then (k, v) else (k, x)) fields)
  | j -> j

let grid_checks () =
  let base = run atax Runner.Baseline and dyn = run atax Runner.Dynamic in
  expect "grid: CPU oracle"
    ~good:(Checks.verified base)
    ~bad:(Checks.verified { base with Runner.verified = Error "tampered" });
  expect "grid: runtime-policy instructions equal baseline's"
    ~good:(Checks.same_instructions ~baseline:base dyn)
    ~bad:(Checks.same_instructions ~baseline:base (bump_instructions dyn));
  let stored = Runner.run_to_json dyn in
  expect "grid: stored entry decodes to the simulated counters"
    ~good:(Checks.round_trip cfg atax Runner.Dynamic dyn (Some stored))
    ~bad:
      (Checks.round_trip cfg atax Runner.Dynamic dyn
         (Some (replace_member "total_cycles" (Json.Int (dyn.Runner.total_cycles + 1)) stored)));
  expect "grid: a missing entry fails the round trip"
    ~good:(Checks.round_trip cfg atax Runner.Dynamic dyn (Some stored))
    ~bad:(Checks.round_trip cfg atax Runner.Dynamic dyn None)

(* the traced run times the replay, so the replay must compute exactly
   what the runner computes *)
let replay_fidelity () =
  let w = Workloads.Registry.find "BFS" in
  List.iter
    (fun scheme ->
      let acc = { Grid.layer = Hashtbl.create 8; instrs = 0; launch_words = 0. } in
      let name = "replay = runner: BFS/" ^ Runner.scheme_label scheme in
      let strip (r : Runner.app_run) = Checks.payload r in
      match Grid.replay_cell acc cfg w scheme with
      | Error msg ->
        incr failures;
        Printf.printf "FAIL %s (%s)\n%!" name msg
      | Ok r ->
        let ok = strip r = strip (run w scheme) in
        if not ok then incr failures;
        Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name)
    (Grid.schemes Grid.Static @ Grid.schemes Grid.Runtime)

let serve_checks () =
  let line result = Protocol.response_to_line { Protocol.resp_id = "x"; resp_tenant = "t"; result } in
  let answer = line (Ok (Server.run_summary (run atax Runner.Baseline))) in
  expect "serve: every response is ok"
    ~good:(Checks.response_ok answer)
    ~bad:(Checks.response_ok (line (Error (Protocol.Internal, "tampered"))));
  let tampered = String.mapi (fun i c -> if i = String.length answer - 3 then (if c = '0' then '1' else '0') else c) answer in
  expect "serve: warm answer is byte-identical to the cold one"
    ~good:(Checks.byte_identical ~expected:answer answer)
    ~bad:(Checks.byte_identical ~expected:answer tampered);
  let km = Workloads.Registry.find "KM" in
  let pair a b =
    match Runner.run_co_resident_with_source cfg (fst a) (snd a) (fst b) (snd b) with
    | Ok ((ra, rb), _) ->
      line
        (Ok
           (Json.Obj
              [ ("co_resident", Json.Bool true); ("a", Server.run_summary ra); ("b", Server.run_summary rb) ]))
    | Error msg -> failwith msg
  in
  let a = (atax, Runner.Catt) and b = (km, Runner.Baseline) in
  let ab = pair a b and ba = pair b a in
  expect "serve: (A,B) and (B,A) answers mirror each other"
    ~good:(Checks.pair_symmetric ~ab ~ba)
    ~bad:(Checks.pair_symmetric ~ab ~ba:ab);
  let ask kind =
    match Server.default_handler cfg { Protocol.id = "x"; tenant = "t"; trace_id = None; kind } with
    | Ok (payload, _) -> line (Ok payload)
    | Error (_, msg) -> failwith msg
  in
  let analyze = ask (Protocol.Analyze "ATAX") and explain = ask (Protocol.Explain "ATAX") in
  let bad_analyze =
    match Json.of_string analyze with
    | Ok j ->
      let result = Json.member "result" j in
      let kernels = Json.to_list (Json.member "kernels" result) in
      let tamper_kernel k =
        replace_member "loops"
          (Json.List
             (List.map
                (fun l -> replace_member "n" (Json.Int (Json.to_int (Json.member "n" l) + 7)) l)
                (Json.to_list (Json.member "loops" k))))
          k
      in
      Json.to_string
        (replace_member "result" (replace_member "kernels" (Json.List (List.map tamper_kernel kernels)) result) j)
    | Error msg -> failwith msg
  in
  expect "serve: explain and analyze agree on every loop's (n, m)"
    ~good:(Checks.explain_agrees ~analyze ~explain)
    ~bad:(Checks.explain_agrees ~analyze:bad_analyze ~explain);
  expect "serve: the daemon simulated nothing and missed the cache never"
    ~good:(Checks.nothing_simulated ~before:(3, 1) ~after:(3, 1))
    ~bad:(Checks.nothing_simulated ~before:(3, 1) ~after:(4, 1))

let () =
  grid_checks ();
  replay_fidelity ();
  serve_checks ();
  if !failures > 0 then begin
    Printf.printf "%d self-test failures\n" !failures;
    exit 1
  end
  else print_endline "self-test passed"
