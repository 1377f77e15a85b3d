(** Workload-level decision provenance: run the CATT pass over every
    kernel of a registered workload (at its real launch geometries) and
    collect each kernel's {!Catt.Explain} record.  Shared by the
    [catt_cli explain] subcommand, serve's explain request and the golden
    explain test, so what the test pins is exactly what the CLI prints. *)

module Json = Gpu_util.Json

let analyses cfg (w : Workloads.Workload.t) =
  Runner.analyses_for cfg w Runner.Catt

(** The provenance record of [w] from its kernels' [analyses]. *)
let to_json cfg (w : Workloads.Workload.t) analyses =
  Json.Obj
    [
      ("workload", Json.String w.Workloads.Workload.name);
      ( "kernels",
        Json.List (List.map (fun (_, t) -> Catt.Explain.to_json cfg t) analyses)
      );
    ]

(** The human rendering of [w] from its kernels' [analyses]. *)
let to_text cfg (w : Workloads.Workload.t) analyses =
  String.concat ""
    (Printf.sprintf "== %s under CATT ==\n" w.Workloads.Workload.name
    ::
    (match analyses with
    | [] -> [ "no kernel could be analyzed\n" ]
    | kernels -> List.map (fun (_, t) -> Catt.Explain.render cfg t) kernels))
