(* Host-side instruments shared by every workload: wall clock, the
   reference loop that turns wall time into reference seconds, exact
   allocation counts, order statistics and /proc readings. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Reference loop                                                      *)
(* ------------------------------------------------------------------ *)

(* Host time on a shared machine runs at one of two speeds about 1.5x
   apart, each held for tens of seconds.  A fixed pure-OCaml loop timed
   next to every measured interval slows down with the host, so dividing
   the interval by the loop's duration cancels most of the mode switch.
   The loop does what the simulator does most: dependent reads over an
   L2-sized table with data-dependent branches, then a burst of small
   short-lived blocks that keeps the minor GC busy.  (A loop of reads over
   a table larger than the last-level cache does not follow the host's
   speed modes at all; the allocating half follows them closest.)  It
   lives here, not in the program, so that no change to the program can
   move it. *)

let table_words = 1 lsl 15 (* 256 KB *)

let table =
  lazy (Array.init table_words (fun i -> (i * 7919) land (table_words - 1)))

let chase_iters = 200_000
let alloc_iters = 150_000

(* Nominal duration of one probe, in seconds: its median on the host the
   README describes.  Reference seconds are wall seconds scaled by
   [nominal / probe]; the constant only fixes the unit and never changes
   between commits. *)
let nominal_probe_s = 0.0069

let probe () =
  let t = Lazy.force table in
  let t0 = now () in
  let idx = ref 1 and acc = ref 0 in
  for i = 1 to chase_iters do
    idx := t.((!idx + !acc) land (table_words - 1));
    if !idx land 3 = 0 then acc := !acc + (!idx lsr 2) else acc := !acc lxor i
  done;
  let keep = ref [] in
  for i = 1 to alloc_iters do
    keep := Array.make 6 (i + !acc) :: (if i land 4095 = 0 then [] else !keep)
  done;
  ignore (Sys.opaque_identity (!acc, !keep));
  now () -. t0

(* A meter times intervals back to back, with a probe after each.  One
   probe is noisy, so an interval is scaled by the median of the probes
   around it (the [window] before and after), which still follows a
   speed mode that lasts seconds.  [settle] runs between an interval and
   its probe, so the probe never pays for GC work the interval left
   behind and always starts from the same heap. *)
type meter = {
  settle : unit -> unit;
  mutable probes : float list;  (** newest first; [List.length] = intervals + 1 *)
  mutable walls : float list;  (** newest first *)
}

let window = 4

let meter ~settle () =
  settle ();
  { settle; probes = [ probe () ]; walls = [] }

let measure m f =
  let t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  m.walls <- wall :: m.walls;
  m.settle ();
  m.probes <- probe () :: m.probes;
  (r, wall)

let median_of a lo hi =
  let w = Array.sub a lo (hi - lo + 1) in
  Array.sort compare w;
  let n = Array.length w in
  if n mod 2 = 1 then w.(n / 2) else (w.((n / 2) - 1) +. w.(n / 2)) /. 2.

(* reference seconds of every interval so far, oldest first *)
let reference m =
  let p = Array.of_list (List.rev m.probes) and w = Array.of_list (List.rev m.walls) in
  let last = Array.length p - 1 in
  Array.mapi
    (fun i wall ->
      (* interval i lies between probes i and i+1 *)
      let lo = max 0 (i - window + 1) and hi = min last (i + window) in
      wall *. nominal_probe_s /. median_of p lo hi)
    w

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Words allocated by [f]: minor words plus words allocated directly in
   the major heap.  [Gc.counters] reads the allocation pointers, so the
   count is exact at any point, not only at collection boundaries. *)
let alloc_words f =
  let mi0, pr0, ma0 = Gc.counters () in
  let r = f () in
  let mi1, pr1, ma1 = Gc.counters () in
  (r, mi1 -. mi0 +. (ma1 -. ma0 -. (pr1 -. pr0)))

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* nearest-rank quantile, q in [0, 1] *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median xs = quantile (sorted xs) 0.5

(* Mean of the samples ranked within [band] of quantile [q].  Grid cells
   differ in size by orders of magnitude, so the cell at a given rank can
   change from run to run when two cells' times are close, and a plain
   quantile then jumps across the gap between them; the band average
   moves smoothly. *)
let band_quantile ?(band = 0.05) a q =
  let n = Array.length a in
  let lo = max 0 (int_of_float (floor ((q -. band) *. float_of_int n))) in
  let hi = min (n - 1) (max lo (int_of_float (ceil ((q +. band) *. float_of_int n)) - 1)) in
  let sum = ref 0. in
  for i = lo to hi do
    sum := !sum +. a.(i)
  done;
  !sum /. float_of_int (hi - lo + 1)

(* set-ups timed per run; their median is [setup_s] *)
let setup_samples = 61

(* [setup_samples] repetitions of a short interval [f] (it returns its
   own wall seconds), each scaled by a probe taken just before it: the
   median of their reference seconds *)
let median_reference f =
  median
    (List.init setup_samples (fun _ ->
         let p = probe () in
         f () *. nominal_probe_s /. p))

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* /proc                                                               *)
(* ------------------------------------------------------------------ *)

(* VmHWM (peak resident set) of a process, in MB *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%s/status" pid in
  match open_in file with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> nan
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else go ()
        in
        go ())

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Scratch space of one benchmark process, inside the checkout. *)
let work_root = Filename.concat ".bench_build" "perfbench"

(* Results kept in [work_root] from one run to the next are keyed by this
   digest of the executables that computed and serve them, so a rebuilt
   program never reuses answers, reference cells or cache entries that
   another build produced. *)
let build_key executables =
  let d = Digest.string (String.concat "" (List.map Digest.file executables)) in
  String.sub (Digest.to_hex d) 0 12

let scratch_dir () =
  let d = Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf d;
  mkdir_p d;
  d
