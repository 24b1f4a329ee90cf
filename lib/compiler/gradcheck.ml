open Echo_tensor
open Echo_ir

type result = { param : string; max_abs_err : float; max_rel_err : float }

let numeric_grad ~loss ~feeds ~wrt ~eps =
  let base =
    match List.assq_opt wrt feeds with
    | Some t -> t
    | None -> invalid_arg "Gradcheck.numeric_grad: wrt node is not fed"
  in
  (* Compile the loss graph once; every perturbation is then one executor
     sweep. The scratch feed is aliased into the executor, so mutating it in
     place between runs re-feeds the perturbed parameter for free. *)
  let exe = Executor.compile (Echo_exec.Memplan.plan (Graph.create [ loss ])) in
  let scratch = Tensor.copy base in
  List.iter
    (fun (n, v) -> Executor.feed exe n (if n == wrt then scratch else v))
    feeds;
  let loss_at delta i =
    Tensor.set1 scratch i (Tensor.get1 base i +. delta);
    Executor.run exe;
    let v = Tensor.get1 (Executor.outputs exe).(0) 0 in
    Tensor.set1 scratch i (Tensor.get1 base i);
    v
  in
  let grad = Tensor.zeros (Tensor.shape base) in
  for i = 0 to Tensor.numel base - 1 do
    let up = loss_at eps i and down = loss_at (-.eps) i in
    Tensor.set1 grad i ((up -. down) /. (2.0 *. eps))
  done;
  grad

let compare_grads ~param ~analytic ~numeric =
  let max_abs = ref 0.0 and max_rel = ref 0.0 in
  for i = 0 to Tensor.numel numeric - 1 do
    let a = Tensor.get1 analytic i and n = Tensor.get1 numeric i in
    let abs_err = Float.abs (a -. n) in
    let rel_err = abs_err /. Float.max 1.0 (Float.abs n) in
    if abs_err > !max_abs then max_abs := abs_err;
    if rel_err > !max_rel then max_rel := rel_err
  done;
  { param; max_abs_err = !max_abs; max_rel_err = !max_rel }

let check ?(eps = 1e-5) ?(tol = 1e-5) ~loss ~feeds ~wrt () =
  let training = Echo_autodiff.Grad.differentiate ~loss ~wrt in
  let exe =
    Executor.compile (Echo_exec.Memplan.plan training.Echo_autodiff.Grad.graph)
  in
  let outputs = Array.of_list (Executor.eval exe ~feeds) in
  (* Graph outputs are the loss followed by every gradient in [wrt] order;
     copy the analytic gradients out of the executor's buffers before the
     finite-difference executors run. *)
  let results =
    List.mapi
      (fun k (param, _grad_node) ->
        let analytic = Tensor.copy outputs.(k + 1) in
        let numeric = numeric_grad ~loss ~feeds ~wrt:param ~eps in
        compare_grads ~param:(Node.name param) ~analytic ~numeric)
      training.Echo_autodiff.Grad.grads
  in
  let failures = List.filter (fun r -> r.max_rel_err > tol) results in
  if failures = [] then Ok results else Error failures
