(** Unit and property tests for the gpu_util library. *)

let check_float = Alcotest.(check (float 1e-9))

(* ---------------------------- Rng --------------------------------- *)

let test_rng_determinism () =
  let a = Gpu_util.Rng.create 123 in
  let b = Gpu_util.Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Gpu_util.Rng.int a 1000) (Gpu_util.Rng.int b 1000)
  done

let test_rng_different_seeds () =
  let a = Gpu_util.Rng.create 1 in
  let b = Gpu_util.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Gpu_util.Rng.int a 1000000 = Gpu_util.Rng.int b 1000000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_split_independent () =
  let parent = Gpu_util.Rng.create 9 in
  let child = Gpu_util.Rng.split parent in
  let child_values = List.init 20 (fun _ -> Gpu_util.Rng.int child 1000) in
  let parent_values = List.init 20 (fun _ -> Gpu_util.Rng.int parent 1000) in
  Alcotest.(check bool) "independent streams" true (child_values <> parent_values)

let test_rng_permutation () =
  let rng = Gpu_util.Rng.create 5 in
  let p = Gpu_util.Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let rng = Gpu_util.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 20 do
        let v = Gpu_util.Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float stays in [0, bound)" ~count:200
    QCheck.(pair small_int (float_range 0.001 1000.))
    (fun (seed, bound) ->
      let rng = Gpu_util.Rng.create seed in
      let v = Gpu_util.Rng.float rng bound in
      v >= 0. && v < bound)

(* The generator as it stood with a boxed [mutable int64] state: the
   unboxed one must reproduce its streams bit for bit, since every
   workload's inputs (and so every golden digest) come from them. *)
module Rng_reference = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let next_int64 t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let split t = { state = next_int64 t }
  let int t bound = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) mod bound

  let float t bound =
    Int64.to_float (Int64.shift_right_logical (next_int64 t) 11)
    /. 9007199254740992.0 *. bound

  let bool t = Int64.logand (next_int64 t) 1L = 1L

  let shuffle t arr =
    for i = Array.length arr - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done

  let permutation t n =
    let arr = Array.init n (fun i -> i) in
    shuffle t arr;
    arr
end

(* one interleaving of every draw kind, from both generators at once *)
let prop_rng_matches_reference =
  QCheck.Test.make ~name:"Rng streams match the boxed reference" ~count:200
    QCheck.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let module R = Gpu_util.Rng in
      let module O = Rng_reference in
      let r = R.create seed and o = O.create seed in
      let same_floats r o =
        let a = Array.make 7 0. in
        R.fill_float r a 3.5;
        Array.for_all (fun x -> Int64.equal (Int64.bits_of_float x)
          (Int64.bits_of_float (O.float o 3.5))) a
      in
      let step r o =
        R.int r bound = O.int o bound
        && Int64.equal
             (Int64.bits_of_float (R.float r 1.))
             (Int64.bits_of_float (O.float o 1.))
        && R.bool r = O.bool o
        && same_floats r o
        && R.permutation r 9 = O.permutation o 9
        &&
        let a = Array.init 11 (fun i -> i * i) in
        let b = Array.copy a in
        R.shuffle r a;
        O.shuffle o b;
        a = b
      in
      let rs = R.split r and os = O.split o in
      List.for_all Fun.id (List.init 20 (fun _ -> step r o && step rs os)))

(* --------------------------- Stats -------------------------------- *)

let test_mean () = check_float "mean" 2.5 (Gpu_util.Stats.mean [| 1.; 2.; 3.; 4. |])

let test_geomean () =
  check_float "geomean of 1,4" 2. (Gpu_util.Stats.geomean [| 1.; 4. |])

let test_geomean_rejects_nonpositive () =
  Alcotest.check_raises "non-positive sample"
    (Invalid_argument "Stats.geomean: non-positive sample") (fun () ->
      ignore (Gpu_util.Stats.geomean [| 1.; 0. |]))

let test_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty sample array")
    (fun () -> ignore (Gpu_util.Stats.mean [||]))

let test_median_odd () =
  check_float "median" 3. (Gpu_util.Stats.median [| 5.; 1.; 3. |])

let test_percentile_interpolates () =
  check_float "p25" 1.75 (Gpu_util.Stats.percentile [| 1.; 2.; 3.; 4. |] 25.)

let test_percentile_extremes () =
  let samples = [| 7.; 3.; 9. |] in
  check_float "p0 = min" 3. (Gpu_util.Stats.percentile samples 0.);
  check_float "p100 = max" 9. (Gpu_util.Stats.percentile samples 100.)

let test_stddev () =
  check_float "stddev" 2. (Gpu_util.Stats.stddev [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |])

let test_speedup_normalize () =
  check_float "speedup" 2. (Gpu_util.Stats.speedup ~baseline:10. 5.);
  check_float "normalize" 0.5 (Gpu_util.Stats.normalize ~baseline:10. 5.)

let prop_geomean_between_min_max =
  QCheck.Test.make ~name:"geomean within [min, max]" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.01 100.))
    (fun samples ->
      let arr = Array.of_list samples in
      let g = Gpu_util.Stats.geomean arr in
      g >= Gpu_util.Stats.minimum arr -. 1e-9
      && g <= Gpu_util.Stats.maximum arr +. 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(list_of_size Gen.(int_range 2 30) (float_range (-100.) 100.))
    (fun samples ->
      let arr = Array.of_list samples in
      let ps = [ 0.; 10.; 25.; 50.; 75.; 90.; 100. ] in
      let values = List.map (Gpu_util.Stats.percentile arr) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      mono values)

(* --------------------------- Table -------------------------------- *)

let test_table_rendering () =
  let t = Gpu_util.Table.create [ "a"; "bb" ] in
  Gpu_util.Table.add_row t [ "x"; "1" ];
  Gpu_util.Table.add_row t [ "yyy"; "22" ];
  let rendered = Gpu_util.Table.render t in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  (* all lines same width *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_arity_check () =
  let t = Gpu_util.Table.create [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Gpu_util.Table.add_row t [ "only one" ])

let test_table_cells () =
  Alcotest.(check string) "float" "3.14" (Gpu_util.Table.cell_float 3.14159);
  Alcotest.(check string) "pct" "42.96%" (Gpu_util.Table.cell_pct 0.4296)

(* ------------------------- Ascii_plot ----------------------------- *)

let test_bar_chart_scales () =
  let chart = Gpu_util.Ascii_plot.bar_chart ~width:10 [ ("a", 10.); ("b", 5.) ] in
  let lines = String.split_on_char '\n' chart in
  let count_hash s = String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 s in
  match lines with
  | [ a; b ] ->
    Alcotest.(check int) "full bar" 10 (count_hash a);
    Alcotest.(check int) "half bar" 5 (count_hash b)
  | _ -> Alcotest.fail "expected two lines"

let test_sparkline_extremes () =
  let s = Gpu_util.Ascii_plot.sparkline [| 0.; 1. |] in
  Alcotest.(check char) "low is blank" ' ' s.[0];
  Alcotest.(check char) "high is dense" '@' s.[1]

let test_series_nonempty () =
  let s = Gpu_util.Ascii_plot.series ~width:20 ~height:5 (Array.init 100 float_of_int) in
  Alcotest.(check int) "5 rows" 5 (List.length (String.split_on_char '\n' s))

(* ------------------------ Single_flight --------------------------- *)

module Sf = Gpu_util.Single_flight

let test_single_flight_solo () =
  let t = Sf.create () in
  (match Sf.run t "k" (fun () -> 41 + 1) with
  | `Led 42 -> ()
  | `Led n -> Alcotest.failf "leader computed %d" n
  | `Joined _ -> Alcotest.fail "nothing to join without a concurrent leader");
  Alcotest.(check int) "no flight left behind" 0 (Sf.in_flight t)

(* a leader that holds its flight open while [k - 1] more callers arrive:
   the thunk must run exactly once, with every late caller joining *)
let test_single_flight_coalesces () =
  let t = Sf.create () in
  let k = 6 in
  let release = Atomic.make false in
  let evals = Atomic.make 0 in
  let led = Atomic.make 0 and joined = Atomic.make 0 in
  let entered = Atomic.make 0 in
  let body () =
    Atomic.incr entered;
    match
      Sf.run t "cell" (fun () ->
          Atomic.incr evals;
          while not (Atomic.get release) do
            Thread.yield ()
          done;
          7)
    with
    | `Led 7 -> Atomic.incr led
    | `Joined 7 -> Atomic.incr joined
    | `Led n | `Joined n -> Alcotest.failf "wrong value %d" n
  in
  let leader = Thread.create body () in
  (* the flight is provably open before any follower starts *)
  while Sf.in_flight t < 1 do
    Thread.yield ()
  done;
  let followers = List.init (k - 1) (fun _ -> Thread.create body ()) in
  while Atomic.get entered < k do
    Thread.yield ()
  done;
  Unix.sleepf 0.05 (* let the last follower reach the flight table *);
  Atomic.set release true;
  List.iter Thread.join (leader :: followers);
  Alcotest.(check int) "thunk ran exactly once" 1 (Atomic.get evals);
  Alcotest.(check int) "one leader" 1 (Atomic.get led);
  Alcotest.(check int) "the rest joined" (k - 1) (Atomic.get joined);
  Alcotest.(check int) "entry retired" 0 (Sf.in_flight t)

exception Boom of int

(* a raising leader: the exception reaches the leader AND every waiter,
   the entry is removed (no leak), and the next call retries fresh *)
let test_single_flight_error_fanout () =
  let t = Sf.create () in
  let release = Atomic.make false in
  let raised = Atomic.make 0 in
  let body () =
    match
      Sf.run t "cell" (fun () ->
          while not (Atomic.get release) do
            Thread.yield ()
          done;
          raise (Boom 9))
    with
    | exception Boom 9 -> Atomic.incr raised
    | `Led _ | `Joined _ -> Alcotest.fail "the failure must propagate"
  in
  let leader = Thread.create body () in
  while Sf.in_flight t < 1 do
    Thread.yield ()
  done;
  let follower = Thread.create body () in
  Unix.sleepf 0.05;
  Atomic.set release true;
  Thread.join leader;
  Thread.join follower;
  Alcotest.(check int) "both saw the exception" 2 (Atomic.get raised);
  Alcotest.(check int) "failed entry removed, not cached" 0 (Sf.in_flight t);
  match Sf.run t "cell" (fun () -> 3) with
  | `Led 3 -> ()
  | _ -> Alcotest.fail "a later call must lead a fresh flight"

(* flights on distinct keys are independent: key "b" completes while the
   leader of key "a" is still computing *)
let test_single_flight_distinct_keys () =
  let t = Sf.create () in
  let release = Atomic.make false in
  let slow =
    Thread.create
      (fun () ->
        ignore
          (Sf.run t "a" (fun () ->
               while not (Atomic.get release) do
                 Thread.yield ()
               done;
               0)))
      ()
  in
  while Sf.in_flight t < 1 do
    Thread.yield ()
  done;
  (match Sf.run t "b" (fun () -> 5) with
  | `Led 5 -> ()
  | _ -> Alcotest.fail "key b must not serialize behind key a");
  Alcotest.(check int) "a still in flight" 1 (Sf.in_flight t);
  Atomic.set release true;
  Thread.join slow;
  Alcotest.(check int) "quiescent" 0 (Sf.in_flight t)

(* ---------------------------- Json -------------------------------- *)

(* The plain way to print: append to a growing buffer.  The codec sizes
   its output first; both must give the same bytes. *)
let reference_to_string ~pretty v =
  let module J = Gpu_util.Json in
  let buf = Buffer.create 16 in
  let escaped s =
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  in
  let newline depth =
    if pretty then Buffer.add_string buf ("\n" ^ String.make (2 * depth) ' ')
  in
  let rec write depth = function
    | J.Null -> Buffer.add_string buf "null"
    | J.Bool b -> Buffer.add_string buf (string_of_bool b)
    | J.Int i -> Buffer.add_string buf (string_of_int i)
    | J.Float f ->
      Buffer.add_string buf
        (if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
         else Printf.sprintf "%.17g" f)
    | J.String s -> escaped s
    | J.List [] -> Buffer.add_string buf "[]"
    | J.Obj [] -> Buffer.add_string buf "{}"
    | J.List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          newline (depth + 1);
          write (depth + 1) item)
        items;
      newline depth;
      Buffer.add_char buf ']'
    | J.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          newline (depth + 1);
          escaped k;
          Buffer.add_string buf (if pretty then ": " else ":");
          write (depth + 1) item)
        fields;
      newline depth;
      Buffer.add_char buf '}'
  in
  write 0 v;
  Buffer.contents buf

let test_json_printer () =
  let module J = Gpu_util.Json in
  let ints = [ 0; 7; -7; 10; -10; 99; 100; 123456789; -1000000; max_int; min_int ] in
  let v =
    J.Obj
      [
        ("ints", J.List (List.map (fun i -> J.Int i) ints));
        ("floats", J.List (List.map (fun f -> J.Float f) [ 0.; -2.; 0.1; 1.5e20; -3.25e-7 ]));
        ("text", J.String "q\" b\\ n\n r\r t\t nul\000 bell\007 us\031 ~\127");
        ("empty", J.List [ J.List []; J.Obj []; J.String "" ]);
        ("nested", J.Obj [ ("a", J.List [ J.Null; J.Bool true; J.Bool false ]); ("\"k\"", J.Obj [ ("x", J.Int 1) ]) ]);
      ]
  in
  List.iter
    (fun (pretty, v) ->
      let got = J.to_string ~pretty v in
      Alcotest.(check string)
        (Printf.sprintf "bytes (pretty=%b)" pretty)
        (reference_to_string ~pretty v) got;
      Alcotest.(check bool) "parses back" true (J.of_string got = Ok v))
    [ (false, v); (true, v); (false, J.Int min_int); (true, J.List []); (false, J.String "") ]

let tests =
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seeds differ" `Quick test_rng_different_seeds;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "permutation" `Quick test_rng_permutation;
        QCheck_alcotest.to_alcotest prop_rng_int_bounds;
        QCheck_alcotest.to_alcotest prop_rng_float_bounds;
        QCheck_alcotest.to_alcotest prop_rng_matches_reference;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "geomean" `Quick test_geomean;
        Alcotest.test_case "geomean rejects <= 0" `Quick test_geomean_rejects_nonpositive;
        Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
        Alcotest.test_case "median" `Quick test_median_odd;
        Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolates;
        Alcotest.test_case "percentile extremes" `Quick test_percentile_extremes;
        Alcotest.test_case "stddev" `Quick test_stddev;
        Alcotest.test_case "speedup/normalize" `Quick test_speedup_normalize;
        QCheck_alcotest.to_alcotest prop_geomean_between_min_max;
        QCheck_alcotest.to_alcotest prop_percentile_monotone;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "rendering" `Quick test_table_rendering;
        Alcotest.test_case "arity check" `Quick test_table_arity_check;
        Alcotest.test_case "cell formatting" `Quick test_table_cells;
      ] );
    ( "util.plot",
      [
        Alcotest.test_case "bar chart scaling" `Quick test_bar_chart_scales;
        Alcotest.test_case "sparkline extremes" `Quick test_sparkline_extremes;
        Alcotest.test_case "series size" `Quick test_series_nonempty;
      ] );
    ("util.json", [ Alcotest.test_case "sized printer = buffer printer" `Quick test_json_printer ]);
    ( "util.single_flight",
      [
        Alcotest.test_case "solo caller leads" `Quick test_single_flight_solo;
        Alcotest.test_case "concurrent callers coalesce" `Quick
          test_single_flight_coalesces;
        Alcotest.test_case "errors fan out and don't cache" `Quick
          test_single_flight_error_fanout;
        Alcotest.test_case "distinct keys don't serialize" `Quick
          test_single_flight_distinct_keys;
      ] );
  ]
