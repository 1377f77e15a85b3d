(* Output checks.  Each checker is a pure function from what the program
   produced to [Ok ()] or a reason, so the self-test can feed it a
   tampered result; [Tally] counts operations attempted and failed. *)

module Runner = Experiments.Runner
module Json = Gpu_util.Json

(* ------------------------------------------------------------------ *)
(* Tally                                                               *)
(* ------------------------------------------------------------------ *)

module Tally = struct
  type t = {
    mutable attempted : int;
    mutable failed : int;
    mutable wrong : int;  (** failures that were a wrong answer, not an error *)
  }

  let create () = { attempted = 0; failed = 0; wrong = 0 }

  let shown = ref 0

  let report what msg =
    if !shown < 20 then begin
      incr shown;
      Printf.eprintf "perfbench: %s: %s\n%!" what msg
    end

  (* one operation: [Error] from the program is a failure; so is a
     completed operation whose output fails any check *)
  let op t ~what (outcome : (unit, [ `Error of string | `Wrong of string ]) result) =
    t.attempted <- t.attempted + 1;
    match outcome with
    | Ok () -> ()
    | Error (`Error msg) ->
      t.failed <- t.failed + 1;
      report what msg
    | Error (`Wrong msg) ->
      t.failed <- t.failed + 1;
      t.wrong <- t.wrong + 1;
      report what msg

  let correct t = t.wrong = 0
end

(* all checks of one operation, first failure wins *)
let all checks =
  List.fold_left
    (fun acc c -> match acc with Error _ -> acc | Ok () -> c ())
    (Ok ()) checks

let wrong fmt = Printf.ksprintf (fun s -> Error (`Wrong s)) fmt

(* ------------------------------------------------------------------ *)
(* Grid cells                                                          *)
(* ------------------------------------------------------------------ *)

let verified (r : Runner.app_run) =
  match r.Runner.verified with
  | Ok () -> Ok ()
  | Error msg -> wrong "CPU oracle: %s" msg

let instrs (r : Runner.app_run) =
  List.map
    (fun (k : Runner.kernel_stats) ->
      (k.Runner.kernel_name, k.Runner.stats.Gpusim.Stats.instructions))
    r.Runner.kernels

(* a runtime policy reorders and holds warps but never changes what a
   warp executes, so each kernel's warp instructions equal baseline's *)
let same_instructions ~baseline (r : Runner.app_run) =
  let want = instrs baseline and got = instrs r in
  if want = got then Ok ()
  else
    wrong "instructions %s differ from baseline %s"
      (String.concat "," (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) got))
      (String.concat ","
         (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) want))

(* everything a cache entry carries about the simulation *)
let payload (r : Runner.app_run) =
  ( r.Runner.total_cycles,
    r.Runner.verified,
    List.map
      (fun (k : Runner.kernel_stats) ->
        (k.Runner.kernel_name, k.Runner.tlp, Gpusim.Stats.to_json k.Runner.stats))
      r.Runner.kernels )

(* the stored entry decodes back to the counters just simulated *)
let round_trip cfg (w : Workloads.Workload.t) scheme (r : Runner.app_run)
    (stored : Json.t option) =
  match stored with
  | None -> wrong "no cache entry was stored"
  | Some json -> (
    match Runner.run_of_json cfg w scheme json with
    | Error msg -> wrong "stored entry does not decode: %s" msg
    | Ok back ->
      if payload back = payload r then Ok ()
      else wrong "stored entry decodes to other counters")

(* ------------------------------------------------------------------ *)
(* Serve answers                                                       *)
(* ------------------------------------------------------------------ *)

let response_ok (line : string) =
  match Json.of_string line with
  | Error msg -> wrong "unparseable response: %s" msg
  | Ok j -> (
    match Serve.Protocol.response_of_json j with
    | Error msg -> wrong "bad response envelope: %s" msg
    | Ok { Serve.Protocol.result = Ok _; _ } -> Ok ()
    | Ok { Serve.Protocol.result = Error (code, msg); _ } ->
      Error
        (`Error
          (Printf.sprintf "%s: %s" (Serve.Protocol.error_code_label code) msg)))

let byte_identical ~expected (line : string) =
  if String.equal expected line then Ok ()
  else wrong "answer differs from the one built at fill time"

let result_of line =
  match Json.of_string line with
  | Ok j -> Json.member_opt "result" j
  | Error _ -> None

(* (A,B) and (B,A) answers hold the same two member summaries, swapped *)
let pair_symmetric ~ab ~ba =
  match (result_of ab, result_of ba) with
  | Some x, Some y -> (
    match
      Json.decode
        (fun x -> (Json.member "a" x, Json.member "b" x))
        x,
      Json.decode (fun y -> (Json.member "a" y, Json.member "b" y)) y
    with
    | Ok (xa, xb), Ok (ya, yb) ->
      if xa = yb && xb = ya then Ok ()
      else wrong "pair answers are not mirror images"
    | _ -> wrong "pair answer lacks its members")
  | _ -> wrong "pair answer has no result"

(* per kernel, the (n, m) of every loop *)
let decisions_of_analyze result =
  Json.decode
    (fun r ->
      List.map
        (fun k ->
          ( Json.to_str (Json.member "kernel" k),
            List.map
              (fun l -> (Json.to_int (Json.member "n" l), Json.to_int (Json.member "m" l)))
              (Json.to_list (Json.member "loops" k)) ))
        (Json.to_list (Json.member "kernels" r)))
    result

let decisions_of_explain result =
  Json.decode
    (fun r ->
      List.map
        (fun k ->
          ( Json.to_str (Json.member "kernel" k),
            List.map
              (fun l ->
                let d = Json.member "decision" l in
                (Json.to_int (Json.member "n" d), Json.to_int (Json.member "m" d)))
              (Json.to_list (Json.member "loops" k)) ))
        (Json.to_list (Json.member "kernels" (Json.member "report" r))))
    result

let explain_agrees ~analyze ~explain =
  match (result_of analyze, result_of explain) with
  | Some a, Some e -> (
    match (decisions_of_analyze a, decisions_of_explain e) with
    | Ok da, Ok de ->
      if da = de then Ok () else wrong "explain and analyze disagree on (n, m)"
    | Error msg, _ | _, Error msg -> wrong "decision list unreadable: %s" msg)
  | _ -> wrong "analyze or explain answer has no result"

(* the daemon's counters around the requests sent to it: [before] and
   [after] are (cells simulated, cache misses) from two [stats] answers *)
let nothing_simulated ~before ~after =
  let sim0, miss0 = before and sim1, miss1 = after in
  if sim1 = sim0 && miss1 = miss0 then Ok ()
  else
    wrong "the daemon simulated %d cells and missed the cache %d times"
      (sim1 - sim0) (miss1 - miss0)
