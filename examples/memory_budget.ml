(* Memory-budget autotuning: "make this model fit in X memory with the least
   recomputation overhead" — the runtime-tool direction the Echo authors
   describe. The autotuner walks the fit ladder (stash-all, the Echo rungs,
   then the segment recomputers and recompute-all) until the planned arena
   fits, and reports which plan it shipped.

   Run with: dune exec examples/memory_budget.exe *)

open Echo_models
open Echo_core
open Echo_exec
module Pipeline = Echo_compiler.Pipeline

let () =
  let device = Echo_gpusim.Device.titan_xp in
  let nmt = Nmt.build { Nmt.gnmt_like with Nmt.batch = 64 } in
  let training = Pipeline.differentiate (Pipeline.of_model nmt.Nmt.model) in
  let graph = training.Pipeline.autodiff.Echo_autodiff.Grad.graph in
  (* Targets are fractions of the stash-all arena, judged the way the
     ladder judges every rung: the arena the compiled executor allocates. *)
  let baseline =
    Autotune.fit_footprint
      (Autotune.run_one ~device (Planner.instantiate "stash-all") graph)
  in
  Format.printf "stash-all arena: %s@.@." (Footprint.human baseline);
  List.iter
    (fun frac ->
      let target = int_of_float (frac *. float_of_int baseline) in
      match Autotune.fit_memory ~device graph ~budget_bytes:target with
      | Some outcome ->
        Format.printf
          "target %4.0f%% (%9s): shipped %-16s arena %9s at %+5.1f%% overhead@."
          (100.0 *. frac) (Footprint.human target) (Autotune.label outcome)
          (Footprint.human (Autotune.fit_footprint outcome))
          (100.0 *. Pass.overhead outcome.Autotune.report)
      | None ->
        Format.printf
          "target %4.0f%% (%9s): infeasible — even recompute-all exceeds it@."
          (100.0 *. frac) (Footprint.human target))
    [ 1.0; 0.9; 0.8; 0.7; 0.6; 0.5 ]
