(** Kernel sanitizer entry points: run all analyses, and gate rewrites.

    [check_kernel] runs the three analyses — barrier divergence, shared
    races, shared bounds — under one launch geometry and returns the
    located diagnostics sorted by position.

    [gate] is the contract every CATT/BFTT transform must honor: a rewrite
    may keep the diagnostics the original kernel already had (they are the
    programmer's, not the transform's), but it must not mint new ones.
    Comparison is by {!Diag.key}, which ignores source positions, because a
    rewrite duplicates statements into guarded phases and moves them
    around. *)

module Ast = Minicuda.Ast

(* transforms the gate refused, across all kernels this process checked *)
let gate_rejections = Obs.Metrics.counter "sanitize.gate_rejections"

let check_kernel (geo : Geom.t) (k : Ast.kernel) : Diag.t list =
  let r = Walk.run geo k in
  Diag.sort
    (r.Walk.diags
    @ Races.check geo k.Ast.kernel_name r
    @ Bounds.check k.Ast.kernel_name r)

let gate (geo : Geom.t) ~(original : Ast.kernel) ~(transformed : Ast.kernel) :
    (unit, Diag.t list) result =
  if original == transformed then Ok ()  (* identity rewrite: nothing to gate *)
  else begin
    let before = check_kernel geo original in
    let after = check_kernel geo transformed in
    (* membership by hash set, not List.mem: rewrites duplicate statements
       into guarded phases, so [after] can be quadratically larger than the
       original's diagnostic set *)
    let seen = Hashtbl.create 16 in
    List.iter (fun d -> Hashtbl.replace seen (Diag.key d) ()) before;
    match
      List.filter (fun d -> not (Hashtbl.mem seen (Diag.key d))) after
    with
    | [] -> Ok ()
    | fresh ->
      Obs.Metrics.incr gate_rejections;
      Error (Diag.sort fresh)
  end
