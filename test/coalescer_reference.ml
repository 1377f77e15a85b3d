(* The coalescer as it stood before the lane loops wrote line indices:
   it takes byte addresses and divides each by the line size.  It
   survives only as the reference for the dedup property in
   [test_memory_path.ml]. *)

let into ~line_bytes ~addrs ~mask ~buf =
  let n = Array.length addrs in
  (* line sizes are powers of two in every real configuration: divide by
     shifting (addresses are non-negative, so lsr agrees with /) instead
     of paying an integer division per lane per memory instruction *)
  let shift =
    if line_bytes land (line_bytes - 1) = 0 then
      let rec log2 v acc = if v <= 1 then acc else log2 (v lsr 1) (acc + 1) in
      log2 line_bytes 0
    else -1
  in
  let count = ref 0 in
  let mono = ref true in
  (* invariant: [mono] implies buf.(0 .. count-1) is strictly increasing *)
  for lane = 0 to n - 1 do
    if mask land (1 lsl lane) <> 0 then begin
      let addr = addrs.(lane) in
      let line =
        if shift >= 0 && addr >= 0 then addr lsr shift else addr / line_bytes
      in
      if !count = 0 then begin
        buf.(0) <- line;
        count := 1
      end
      else begin
        let last = buf.(!count - 1) in
        if line <> last then
          if !mono && line > last then begin
            buf.(!count) <- line;
            incr count
          end
          else begin
            let dup = ref false in
            for i = 0 to !count - 1 do
              if buf.(i) = line then dup := true
            done;
            if not !dup then begin
              buf.(!count) <- line;
              incr count;
              mono := false
            end
          end
      end
    end
  done;
  !count
