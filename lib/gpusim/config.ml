(** Device configuration for the SIMT simulator.

    The default presets model a Volta-class SM (the paper's Titan V) and a
    scaled-down variant used by the experiment harness.  The unified on-chip
    memory is split between L1D and shared memory by a per-launch carveout,
    mirroring Volta's compile-time configuration (paper Section 2.1): the
    carveout must be one of [smem_carveout_options] and the L1D receives the
    remainder of [onchip_bytes]. *)

type t = {
  num_sms : int;
  warp_size : int;
  max_warps_per_sm : int;  (** hardware concurrent-warp limit, Eq. 3's #TB_HW input *)
  max_tbs_per_sm : int;  (** hardware concurrent-TB limit *)
  register_file_bytes : int;  (** per SM, Eq. 2's SIZE_reg_SM *)
  onchip_bytes : int;  (** unified L1D + shared capacity per SM *)
  smem_carveout_options : int list;  (** configurable shared sizes, bytes *)
  line_bytes : int;  (** cache line = coalescing granule *)
  l1d_assoc : int;
  l1d_mshrs : int;  (** outstanding missed lines per SM *)
  l2_bytes : int;  (** total, shared by all SMs *)
  l2_assoc : int;
  l1d_hit_latency : int;  (** cycles *)
  l2_hit_latency : int;  (** total latency of an L1 miss that hits in L2 *)
  dram_latency : int;  (** additional cycles an L2 miss pays beyond L2 *)
  dram_slot_cycles : int;
      (** cycles the device-wide DRAM port is occupied per line — the
          shared memory-bandwidth bottleneck that makes thrashing expensive
          (misses cost throughput, not just hideable latency) *)
  alu_latency : int;  (** cycles before the issuing warp is ready again *)
  issue_width : int;
      (** instructions (from distinct warps) issued per SM per cycle —
          models the SM's multiple warp schedulers; > 1 makes memory
          throughput the binding resource under thrashing, as on hardware *)
}

let validate c =
  if c.num_sms <= 0 then invalid_arg "Config: num_sms must be positive";
  if c.warp_size <= 0 || c.warp_size > 32 then
    invalid_arg "Config: warp_size must be in 1..32 (mask words are 32-bit)";
  if c.onchip_bytes <= 0 then invalid_arg "Config: onchip_bytes must be positive";
  if c.line_bytes <= 0 || c.line_bytes land (c.line_bytes - 1) <> 0 then
    invalid_arg "Config: line_bytes must be a positive power of two";
  List.iter
    (fun opt ->
      if opt < 0 || opt > c.onchip_bytes then
        invalid_arg "Config: carveout option out of range")
    c.smem_carveout_options;
  if not (List.mem 0 c.smem_carveout_options) then
    invalid_arg "Config: carveout options must include 0";
  c

(** Titan V–like geometry (Table 1): 128 KB unified on-chip memory, shared
    carveouts 0–96 KB, 64 concurrent warps, 256 KB register file.  SM count
    is a parameter because simulating all 80 SMs buys nothing — thread
    blocks are homogeneous — and costs 20x wall-clock. *)
let volta ?(num_sms = 4) () =
  validate
    {
      num_sms;
      warp_size = 32;
      max_warps_per_sm = 64;
      max_tbs_per_sm = 32;
      register_file_bytes = 256 * 1024;
      onchip_bytes = 128 * 1024;
      smem_carveout_options =
        [ 0; 8 * 1024; 16 * 1024; 32 * 1024; 64 * 1024; 96 * 1024 ];
      line_bytes = 128;
      l1d_assoc = 4;
      l1d_mshrs = 32;
      l2_bytes = 1024 * 1024;
      l2_assoc = 16;
      l1d_hit_latency = 28;
      l2_hit_latency = 190;
      dram_latency = 270;
      dram_slot_cycles = 4;
      alu_latency = 2;
      issue_width = 2;
    }

(** Scaled device used by the experiment harness: quarter-size on-chip
    memory with the same line size, so per-warp footprint/L1D ratios match
    the paper's once the workload sizes are scaled by the same factor
    (DESIGN.md Section 6).  32 KB on-chip = "max L1D" experiments; the
    32 KB-L1D experiments of paper Fig. 10 use [~onchip_bytes:(8*1024)]
    scaled equivalently via {!with_onchip}. *)
let scaled ?(num_sms = 4) ?(onchip_bytes = 32 * 1024) () =
  validate
    {
      num_sms;
      warp_size = 32;
      max_warps_per_sm = 32;
      max_tbs_per_sm = 16;
      register_file_bytes = 64 * 1024;
      onchip_bytes;
      smem_carveout_options =
        [ 0; 2 * 1024; 4 * 1024; 8 * 1024; 16 * 1024; 24 * 1024 ]
        |> List.filter (fun o -> o <= onchip_bytes * 3 / 4);
      line_bytes = 128;
      l1d_assoc = 4;
      l1d_mshrs = 24;
      l2_bytes = 256 * 1024;
      l2_assoc = 16;
      l1d_hit_latency = 28;
      l2_hit_latency = 190;
      dram_latency = 270;
      dram_slot_cycles = 4;
      alu_latency = 2;
      issue_width = 2;
    }

let with_onchip c bytes =
  validate
    {
      c with
      onchip_bytes = bytes;
      smem_carveout_options =
        List.filter (fun o -> o <= bytes * 3 / 4) c.smem_carveout_options;
    }

(** L1D capacity left by a shared-memory carveout. *)
let l1d_bytes c ~smem_carveout = c.onchip_bytes - smem_carveout

let pp fmt c =
  Format.fprintf fmt
    "device: %d SMs, %d-wide warps, %d warps/SM, on-chip %dKB, line %dB, L2 \
     %dKB"
    c.num_sms c.warp_size c.max_warps_per_sm (c.onchip_bytes / 1024)
    c.line_bytes (c.l2_bytes / 1024)
