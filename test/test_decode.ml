(** Tests for the decoded program form ({!Gpusim.Decode}): every
    malformed program is refused at launch with a typed, located error,
    and every registry kernel decodes without losing anything. *)

module B = Gpusim.Bytecode
module Decode = Gpusim.Decode
module Gpu = Gpusim.Gpu
module Runner = Experiments.Runner

let cfg = Gpusim.Config.scaled ~num_sms:2 ~onchip_bytes:(32 * 1024) ()

(* a shared array, a barrier, a loop, a branch and a builtin call *)
let src =
  "__global__ void k(float *a, float *out) { __shared__ float tile[64]; int i \
   = threadIdx.x; tile[i] = a[i]; __syncthreads(); float acc = 0.0; for (int \
   j = 0; j < 4; j++) { if (i > j) { acc += sqrtf(tile[j]); } } out[i] = acc; \
   }"

let prog () = Gpusim.Codegen.compile_kernel (Minicuda.Parser.parse_kernel src)

let launch p =
  let dev = Gpu.create cfg in
  Gpu.upload dev "a" (Array.init 64 float_of_int);
  Gpu.upload dev "out" (Array.make 64 0.);
  Gpu.launch dev
    (Gpu.default_launch ~prog:p ~grid:(1, 1) ~block:(64, 1)
       [ Gpu.Arr "a"; Gpu.Arr "out" ])

let first pc_of p =
  match List.find_opt (fun pc -> pc_of p.B.code.(pc)) (List.init (Array.length p.B.code) Fun.id) with
  | Some pc -> pc
  | None -> Alcotest.fail "the fixture lacks an instruction the case needs"

let with_instr p pc instr =
  let code = Array.copy p.B.code in
  code.(pc) <- instr;
  { p with B.code }

let id_of p name = List.assoc name p.B.array_ids

(* Each case breaks one instruction of the fixture (or its end): the
   launch must raise [Launch_error] naming the kernel and that pc. *)
let malformed =
  let jump = first (function B.Jump _ -> true | _ -> false) in
  let push = first (function B.Push_if _ -> true | _ -> false) in
  let call = first (function B.Call _ -> true | _ -> false) in
  let global_ld = first (function B.Ld (B.Global, _, _, _) -> true | _ -> false) in
  let shared_ld = first (function B.Ld (B.Shared, _, _, _) -> true | _ -> false) in
  let shared_st = first (function B.St (B.Shared, _, _, _) -> true | _ -> false) in
  [
    ( "jump target past the end",
      fun p ->
        let pc = jump p in
        (pc, with_instr p pc (B.Jump (Array.length p.B.code))) );
    ( "negative skip target",
      fun p ->
        let pc = push p in
        (match p.B.code.(pc) with
        | B.Push_if (c, _) -> (pc, with_instr p pc (B.Push_if (c, -1)))
        | _ -> assert false) );
    ( "register at num_regs",
      fun p -> (0, with_instr p 0 (B.Mov (p.B.num_regs, B.Imm 1.))) );
    ( "operand register at num_regs",
      fun p -> (0, with_instr p 0 (B.Alu (B.Fadd, 0, B.Reg 0, B.Reg p.B.num_regs))) );
    ( "call with no argument",
      fun p ->
        let pc = call p in
        (pc, with_instr p pc (B.Call (Minicuda.Builtins.Sqrtf, 0, []))) );
    ( "call with three arguments",
      fun p ->
        let pc = call p in
        (pc, with_instr p pc (B.Call (Minicuda.Builtins.Powf, 0, [ 0; 0; 0 ]))) );
    ( "global load of a shared array",
      fun p ->
        let pc = global_ld p in
        (match p.B.code.(pc) with
        | B.Ld (_, d, _, idx) -> (pc, with_instr p pc (B.Ld (B.Global, d, id_of p "tile", idx)))
        | _ -> assert false) );
    ( "shared load of a global array",
      fun p ->
        let pc = shared_ld p in
        (match p.B.code.(pc) with
        | B.Ld (_, d, _, idx) -> (pc, with_instr p pc (B.Ld (B.Shared, d, id_of p "a", idx)))
        | _ -> assert false) );
    ( "shared store to a global array",
      fun p ->
        let pc = shared_st p in
        (match p.B.code.(pc) with
        | B.St (_, _, idx, v) -> (pc, with_instr p pc (B.St (B.Shared, id_of p "out", idx, v)))
        | _ -> assert false) );
    ( "array id out of range",
      fun p ->
        let pc = global_ld p in
        (match p.B.code.(pc) with
        | B.Ld (_, d, _, idx) -> (pc, with_instr p pc (B.Ld (B.Global, d, 99, idx)))
        | _ -> assert false) );
    ( "falls through the end",
      fun p ->
        let n = Array.length p.B.code in
        (n - 2, { p with B.code = Array.sub p.B.code 0 (n - 1) }) );
  ]

let test_fixture_runs () =
  let stats, _ = launch (prog ()) in
  Alcotest.(check bool) "the unbroken fixture runs" true (stats.Gpusim.Stats.instructions > 0)

let test_malformed () =
  List.iter
    (fun (what, break) ->
      let pc, p = break (prog ()) in
      let want = Printf.sprintf "kernel k: pc %d: " pc in
      match launch p with
      | _ -> Alcotest.failf "%s: launched" what
      | exception Gpu.Launch_error msg ->
        Alcotest.(check string)
          (what ^ ": names the kernel and pc")
          want
          (String.sub msg 0 (min (String.length msg) (String.length want)))
      | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e))
    malformed

(* every registry kernel as the four static schemes compile it *)
let test_registry_round_trip () =
  let cfg = Experiments.Configs.max_l1d () in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      List.iter
        (fun scheme ->
          match Runner.prepare_all cfg w scheme with
          | Error msg -> Alcotest.failf "%s: %s" w.Workloads.Workload.name msg
          | Ok prepared ->
            List.iter
              (fun (_, (l : Gpu.launch), _) ->
                let p = l.Gpu.prog in
                let bx, by = l.Gpu.block in
                let globals =
                  List.filter_map
                    (function
                      | B.Array_arg name -> Some (List.assoc name p.B.array_ids)
                      | B.Scalar_arg _ -> None)
                    p.B.args
                in
                let what =
                  Printf.sprintf "%s/%s %s" w.Workloads.Workload.name
                    (Runner.scheme_label scheme) p.B.name
                in
                match
                  Decode.decode ~ws:cfg.Gpusim.Config.warp_size
                    ~global:(fun id -> List.mem id globals)
                    ~grid:l.Gpu.grid ~block:l.Gpu.block
                    ~warps_per_tb:
                      (Gpusim.Cta_scheduler.warps_per_tb cfg ~tb_threads:(bx * by))
                    p
                with
                | Error (pc, msg) -> Alcotest.failf "%s: pc %d: %s" what pc msg
                | Ok d ->
                  Alcotest.(check int) (what ^ ": one op per instruction")
                    (Array.length p.B.code) (Array.length d.Decode.ops);
                  Alcotest.(check string) (what ^ ": disassembly")
                    (B.disassemble p) (Decode.disassemble d))
              (Runner.launches_of cfg w scheme prepared))
        Runner.[ Baseline; Catt; CattSa; Fixed (2, 1) ])
    Workloads.Registry.all

let tests =
  [
    ( "decode",
      [
        Alcotest.test_case "fixture runs" `Quick test_fixture_runs;
        Alcotest.test_case "malformed programs refused at launch" `Quick test_malformed;
        Alcotest.test_case "registry kernels round-trip" `Quick test_registry_round_trip;
      ] );
  ]
