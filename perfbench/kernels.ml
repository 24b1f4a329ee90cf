(* Host kernel probe for the lm-train traced run: achieved GEMM and fused
   elementwise rates at the shapes the compiled training step executes,
   under the workload's runtime and under the sequential one. *)

open Echo_tensor
open Echo_ir
open Common

(* Median per-call time: seven batches of at least 5 ms each, after one
   warm-up call. *)
let per_call f =
  f ();
  let batch () =
    let t0 = now () in
    let calls = ref 0 in
    while now () -. t0 < 0.005 do
      f ();
      incr calls
    done;
    (now () -. t0) /. float_of_int !calls
  in
  Stats.median (List.init 7 (fun _ -> batch ()))

type gemm = { ta : bool; tb : bool; m : int; k : int; n : int; count : int }

(* The most frequent shape of each transpose variant among the graph's
   matmuls whose operands avoid the vocabulary dimension — the per-timestep
   recurrent GEMMs. *)
let timestep_gemms ~vocab graph =
  let table = Hashtbl.create 16 in
  List.iter
    (fun node ->
      match (Node.op node, Node.inputs node) with
      | Op.Matmul { trans_a; trans_b }, [ a; b ] ->
        let sa = Node.shape a and sb = Node.shape b in
        if not (Array.mem vocab sa || Array.mem vocab sb) then begin
          let m, k = if trans_a then (sa.(1), sa.(0)) else (sa.(0), sa.(1)) in
          let n = if trans_b then sb.(0) else sb.(1) in
          let key = (trans_a, trans_b, m, k, n) in
          Hashtbl.replace table key
            (1 + Option.value ~default:0 (Hashtbl.find_opt table key))
        end
      | _ -> ())
    (Graph.nodes graph);
  Hashtbl.fold
    (fun (ta, tb, m, k, n) count acc ->
      match List.assoc_opt (ta, tb) acc with
      | Some g when g.count >= count -> acc
      | _ -> ((ta, tb), { ta; tb; m; k; n; count }) :: List.remove_assoc (ta, tb) acc)
    table []

let operands rng g =
  let fill shape = Tensor.init shape (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let a = fill (if g.ta then [| g.k; g.m |] else [| g.m; g.k |]) in
  let b = fill (if g.tb then [| g.n; g.k |] else [| g.k; g.n |]) in
  (a, b, Tensor.zeros [| g.m; g.n |])

let gemm_time runtime (a, b, dst) g =
  per_call (fun () ->
      Tensor.Into.matmul ~runtime ~trans_a:g.ta ~trans_b:g.tb a b ~dst)

let gflops g t = 2.0 *. float_of_int (g.m * g.k * g.n) /. t /. 1e9

(* [graph] is the compiled step's graph; [rows] x [hidden] x [vocab] is the
   output projection; [gate] the shape of one gate pre-activation. *)
let probe ~runtime ~graph ~vocab ~rows ~hidden ~gate =
  let rng = Rng.create 7 in
  let steps = timestep_gemms ~vocab graph in
  let vocab_gemm = { ta = false; tb = false; m = rows; k = hidden; n = vocab; count = 1 } in
  let measured =
    List.map
      (fun (key, g) ->
        let ops = operands rng g in
        let par = gemm_time runtime ops g in
        let seq = gemm_time Parallel.sequential ops g in
        (key, g, par, seq))
      ((None, vocab_gemm) :: List.map (fun (k, g) -> (Some k, g)) steps)
  in
  let rate variant =
    match List.find_opt (fun (k, _, _, _) -> k = variant) measured with
    | Some (_, g, par, _) -> gflops g par
    | None -> 0.0
  in
  let par_total = List.fold_left (fun acc (_, _, p, _) -> acc +. p) 0.0 measured in
  let seq_total = List.fold_left (fun acc (_, _, _, s) -> acc +. s) 0.0 measured in
  let x = Tensor.init gate (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let y = Tensor.init gate (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let z = Tensor.init gate (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let dst = Tensor.zeros gate in
  let steps_ew = [| Tensor.f_sigmoid; Tensor.f_mul 1; Tensor.f_add 2 |] in
  let ew =
    per_call (fun () -> Tensor.Into.fused ~runtime steps_ew [| x; y; z |] ~dst)
  in
  let bytes = float_of_int (4 * Tensor.numel dst * 8) in
  let shapes =
    List.map
      (fun (_, g, _, _) ->
        Printf.sprintf "%s%s %dx%dx%d" (if g.ta then "T" else "N")
          (if g.tb then "T" else "N") g.m g.k g.n)
      measured
  in
  ( [
      ("tensor.matmul_nt_gflops", rate (Some (false, true)));
      ("tensor.matmul_tn_gflops", rate (Some (true, false)));
      ("tensor.matmul_nn_gflops", rate (Some (false, false)));
      ("tensor.matmul_vocab_gflops", rate None);
      ("tensor.parallel_speedup", seq_total /. par_total);
      ("tensor.elementwise_gbps", bytes /. ew /. 1e9);
    ],
    "GEMM shapes (variant m x k x n): " ^ String.concat ", " shapes )
