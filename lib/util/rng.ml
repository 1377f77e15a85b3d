(* The 64-bit state lives in an 8-byte buffer, read and written through
   the compiler's unboxed 64-bit load/store primitives: a [mutable int64]
   field would box a fresh int64 on every draw.  Only this module touches
   the bytes, so native byte order is as good as any. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

(* splitmix64: passes BigCrush, one multiply-xor-shift chain per draw.
   Inlined into every draw below, so its int64 never leaves a register. *)
let[@inline always] next_int64 t =
  let z = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_int64 t)

let int t bound =
  assert (bound > 0);
  (* keep 62 bits so the OCaml int is guaranteed non-negative *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

(* 53 significant bits, same construction as Random.float; they fit an
   OCaml int exactly, so the conversion matches Int64.to_float *)
let[@inline always] unit_float t =
  float_of_int (Int64.to_int (Int64.shift_right_logical (next_int64 t) 11))
  /. 9007199254740992.0

let float t bound = unit_float t *. bound

let fill_float t a bound =
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set a i (unit_float t *. bound)
  done

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
