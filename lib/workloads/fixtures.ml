(** Microbench fixtures for the scheme-semantics property tests.

    Two tiny kernels with *designed* cache behaviour, used by the
    [@schemes] test alias to pin the semantics of the interference-aware
    hardware schemes (CIAO bypassing, ATA-Cache).  They are deliberately
    NOT in {!Registry.all}: they are test instruments with free
    parameters, not benchmark applications with oracles.

    - {!run_reuse}: a pure-reuse walk — every warp re-walks its own
      [span]-line slice [reps] times, coalesced.  With
      [warps * span <= L1D lines] the footprint fits; above that the
      re-walks thrash.  Either way every access after the first walk is
      a reuse, which is exactly the regime where an aggregated tag array
      must never *lose* hits: promoting only proven-reuse lines can drop
      the odd cold fill but never evict a live line earlier than plain
      LRU would.

    - {!run_interference}: the two-array contention shape CIAO targets —
      warp 0 keeps re-walking a small [hot] array that fits comfortably,
      while the remaining warps stream once through a large [stream]
      array, evicting the hot warp's lines as they go.  The streamers'
      fills keep victimizing another warp's lines, so the interference
      monitor attributes score to them and (past warm-up) flags them. *)

type reuse = { warps : int; span : int; reps : int }
(** [span] is in cache lines per warp (one line per lane-coalesced
    access at 32 lanes x 4 bytes = 128-byte lines). *)

let warp_size = 32

let reuse_source { warps; span; reps } =
  Printf.sprintf
    {|
#define SPAN %d
#define WARPS %d
#define REPS %d
#define WS %d
__global__ void reuse_kernel(float *data, float *out) {
  int lin = threadIdx.x;
  int warp = lin / WS;
  int lane = lin - warp * WS;
  float acc = 0.0;
  int base = (blockIdx.x * WARPS + warp) * (WS * SPAN) + lane;
  for (int r = 0; r < REPS; r++) {
    for (int j = 0; j < SPAN; j++) {
      acc += data[base + j * WS];
    }
  }
  out[blockIdx.x * blockDim.x + lin] = acc;
}
|}
    span warps reps warp_size

(* [Array.init] with a float-valued function boxes every element on the
   way in; filling a [Array.make] float array stores them unboxed *)
let pattern len ~mask =
  let a = Array.make len 0. in
  for i = 0 to len - 1 do
    a.(i) <- float_of_int (i land mask)
  done;
  a

let run_reuse ?(throttle = `None) (cfg : Gpusim.Config.t) p =
  if p.warps < 1 || p.warps * cfg.Gpusim.Config.warp_size > 1024 then
    invalid_arg "Fixtures.run_reuse: warps out of range";
  let ws = cfg.Gpusim.Config.warp_size in
  let num_sms = cfg.Gpusim.Config.num_sms in
  let kernel = Minicuda.Parser.parse_kernel (reuse_source p) in
  let prog = Gpusim.Codegen.compile_kernel kernel in
  let dev = Gpusim.Gpu.create cfg in
  let data_len = num_sms * p.warps * ws * p.span in
  Gpusim.Gpu.upload dev "data"
    (pattern data_len ~mask:15);
  Gpusim.Gpu.alloc dev "out" (num_sms * p.warps * ws);
  let launch =
    Gpusim.Gpu.default_launch ~runtime_throttle:throttle ~prog
      ~grid:(num_sms, 1)
      ~block:(p.warps * ws, 1)
      [ Gpusim.Gpu.Arr "data"; Gpusim.Gpu.Arr "out" ]
  in
  let stats, _ = Gpusim.Gpu.launch dev launch in
  stats

type interference = {
  streamers : int;  (** streaming warps besides the one hot warp *)
  hot_span : int;  (** lines the hot warp re-walks *)
  stream_span : int;  (** lines each streamer walks once *)
  hot_reps : int;
}

let interference_source { streamers; hot_span; stream_span; hot_reps } =
  Printf.sprintf
    {|
#define HOTSPAN %d
#define BIGSPAN %d
#define HOTREPS %d
#define WARPS %d
#define WS %d
__global__ void interfere_kernel(float *hot, float *stream, float *out) {
  int lin = threadIdx.x;
  int warp = lin / WS;
  int lane = lin - warp * WS;
  float acc = 0.0;
  if (warp == 0) {
    for (int r = 0; r < HOTREPS; r++) {
      for (int j = 0; j < HOTSPAN; j++) {
        acc += hot[blockIdx.x * (WS * HOTSPAN) + j * WS + lane];
      }
    }
  } else {
    int base = (blockIdx.x * (WARPS - 1) + (warp - 1)) * (WS * BIGSPAN) + lane;
    for (int j = 0; j < BIGSPAN; j++) {
      acc += stream[base + j * WS];
    }
  }
  out[blockIdx.x * blockDim.x + lin] = acc;
}
|}
    hot_span stream_span hot_reps (streamers + 1) warp_size

let run_interference ?(throttle = `None) (cfg : Gpusim.Config.t) p =
  let warps = p.streamers + 1 in
  if p.streamers < 1 || warps * cfg.Gpusim.Config.warp_size > 1024 then
    invalid_arg "Fixtures.run_interference: streamers out of range";
  let ws = cfg.Gpusim.Config.warp_size in
  let num_sms = cfg.Gpusim.Config.num_sms in
  let kernel = Minicuda.Parser.parse_kernel (interference_source p) in
  let prog = Gpusim.Codegen.compile_kernel kernel in
  let dev = Gpusim.Gpu.create cfg in
  let hot_len = num_sms * ws * p.hot_span in
  let stream_len = num_sms * p.streamers * ws * p.stream_span in
  Gpusim.Gpu.upload dev "hot"
    (pattern hot_len ~mask:7);
  Gpusim.Gpu.upload dev "stream"
    (pattern stream_len ~mask:3);
  Gpusim.Gpu.alloc dev "out" (num_sms * warps * ws);
  let launch =
    Gpusim.Gpu.default_launch ~runtime_throttle:throttle ~prog
      ~grid:(num_sms, 1)
      ~block:(warps * ws, 1)
      [ Gpusim.Gpu.Arr "hot"; Gpusim.Gpu.Arr "stream"; Gpusim.Gpu.Arr "out" ]
  in
  let stats, _ = Gpusim.Gpu.launch dev launch in
  stats
