(* lm-train: the E15-Full LSTM language model trained by [Loop.train] over a
   seeded Zipf-Markov stream — echo planner at a 10% budget, fusion on, SGD
   with global-norm clipping at 5.0, two domains. The step is mostly GEMM,
   so kernels, the parallel runtime, the executor and the optimizer do the
   work; the compiler runs once, in set-up. *)

open Echo_tensor
open Echo_ir
open Common
module Pipeline = Echo_compiler.Pipeline
module Executor = Echo_compiler.Executor
module Language_model = Echo_models.Language_model
module Recurrent = Echo_models.Recurrent
module Model = Echo_models.Model
module Params = Echo_models.Params
module Corpus = Echo_workloads.Corpus
module Loop = Echo_train.Loop
module Optimizer = Echo_train.Optimizer
module Planner = Echo_core.Planner
module Fault = Echo_runtime.Fault
module Event = Echo_runtime.Event
module Sanitize = Echo_analysis.Sanitize
module Fusion = Echo_opt.Fusion
module Costmodel = Echo_gpusim.Costmodel

let config ~seed =
  {
    Language_model.vocab = 2000;
    embed = 64;
    hidden = 64;
    layers = 2;
    seq_len = 35;
    batch = 16;
    dropout = 0.0;
    cell = Recurrent.Lstm;
    seed;
  }

let planner () = Planner.instantiate ~knobs:[ ("budget", 0.10) ] "echo"
let clip_norm = 5.0
let lr = 1.0

(* Step periods after the first [warmup] are steady state. *)
let warmup = 2
let max_steps = 320
let setup_reps = 5

(* Step-1 agreement with the interpreter on the un-rewritten graph: a
   rewrite may reassociate arithmetic under a stated ULP contract, so the
   benchmark only catches wrong numbers; the test suite guards
   bit-identity. *)
let rtol = 1e-6

(* The traced run's step spans must account for the untraced step within
   this share. *)
let accounting_tolerance = 0.25

type data = {
  lm : Language_model.t;
  batches : Loop.batch list;
  training : Pipeline.training;
}

let prepare ~seed =
  let cfg = config ~seed in
  let lm = Trace.span "models.build" (fun () -> Language_model.build cfg) in
  let batches =
    Trace.span "workloads.batch_gen" (fun () ->
        let corpus =
          Corpus.generate ~seed ~vocab:cfg.Language_model.vocab
            ~length:
              (((max_steps + 2) * cfg.Language_model.batch
               * cfg.Language_model.seq_len)
              + 1)
        in
        List.map
          (fun (tokens, labels) ->
            [
              (lm.Language_model.token_input, tokens);
              (lm.Language_model.label_input, labels);
            ])
          (Corpus.lm_batches corpus ~batch:cfg.Language_model.batch
             ~seq_len:cfg.Language_model.seq_len ~steps:max_steps))
  in
  let training =
    Trace.span "pipeline.differentiate" (fun () ->
        Pipeline.differentiate (Pipeline.of_model lm.Language_model.model))
  in
  { lm; batches; training }

let params d = Params.bindings d.lm.Language_model.model.Model.params
let graph d = d.training.Pipeline.autodiff.Echo_autodiff.Grad.graph

exception Stop

type session = {
  data : data;
  setup : dur;  (** start of [prepare] to the end of the first step *)
  marks : (float * float) array;
      (** each step's end, and when the loop resumed after its callback *)
  losses : float list;
  nonfinite : int;
  exe : Pipeline.executable;  (** the executable [Loop.train] compiled *)
}

(* One [Loop.train] run from scratch, stopped by [stop steps since_first]
   after any step. A pass-through compile hook captures the executable the
   loop compiles (it caches nothing). *)
let session ~runtime ~seed ~stop =
  let t0 = now () in
  let data = prepare ~seed in
  let captured = ref None in
  let hook =
    {
      Pipeline.fetch =
        (fun ~key:_ ~compile ->
          let e = compile () in
          captured := Some e;
          e);
    }
  in
  let marks = ref [] and losses = ref [] and nonfinite = ref 0 in
  let first = ref nan and steps = ref 0 in
  (* A host probe between steps is taken out of the step period: the
     period runs from the end of one callback to the start of the next. *)
  let on_step (s : Loop.step_stats) =
    let t = now () in
    if !steps = 0 then first := t;
    incr steps;
    losses := s.Loop.loss :: !losses;
    Calib.tick ();
    marks := (t, now ()) :: !marks;
    if stop !steps (t -. !first) then raise Stop
  in
  let on_event = function Event.Nan_guard _ -> incr nonfinite | _ -> () in
  (try
     ignore
       (Loop.train ~graph:(graph data) ~params:(params data)
          ~optimizer:(Optimizer.create (Optimizer.Sgd { lr }))
          ~clip_norm ~on_step ~on_event ~faults:Fault.none ~runtime ~fuse:true
          ~sanitize:Sanitize.Off ~planner:(planner ()) ~cache:hook
          ~batches:data.batches ())
   with Stop -> ());
  {
    data;
    setup = { raw = !first -. t0; ended = !first };
    marks = Array.of_list (List.rev !marks);
    losses = List.rev !losses;
    nonfinite = !nonfinite;
    exe = Option.get !captured;
  }

let periods s =
  List.init
    (max 0 (Array.length s.marks - 1 - warmup))
    (fun i ->
      let ended = fst s.marks.(i + warmup + 1) in
      { raw = ended -. snd s.marks.(i + warmup); ended })

let bits_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let mean_first n l = Stats.mean (List.filteri (fun i _ -> i < n) l)
let mean_last n l = mean_first n (List.rev l)

(* Loss and gradients of the compiled step at the initial parameters must
   match the reference interpreter on the un-rewritten stash-all graph. *)
let step1_agrees s =
  let feeds = List.hd s.data.batches @ params s.data in
  let e = Pipeline.executor s.exe in
  List.iter (fun (n, t) -> Executor.feed e n t) feeds;
  Executor.run e;
  let got = Array.to_list (Array.map Tensor.copy (Executor.outputs e)) in
  let expect = Echo_exec.Interp.eval (graph s.data) ~feeds in
  List.length got = List.length expect
  && List.for_all2 (fun r a -> close_enough ~rtol ~reference:r a) expect got

let graph_flops g =
  List.fold_left (fun acc n -> acc +. Costmodel.node_flops n) 0.0 (Graph.nodes g)

let global_norm grads =
  sqrt
    (Array.fold_left
       (fun acc g ->
         let n = Tensor.frobenius g in
         acc +. (n *. n))
       0.0 grads)

(* The traced replica of [Loop.train]'s step: the same stages compile the
   same executable, and each step feeds, runs, clips and updates in the
   loop's order, so the spans split a step the loop keeps opaque. *)
let replica ~runtime d ~steps =
  let stage name f = Trace.span ("pipeline." ^ name) f in
  let optimized =
    stage "optimize" (fun () -> Pipeline.optimize ~enabled:false d.training)
  in
  let rewritten =
    stage "rewrite" (fun () -> Pipeline.rewrite ~planner:(planner ()) optimized)
  in
  let planned = stage "plan" (fun () -> Pipeline.plan rewritten) in
  let fused =
    stage "fuse" (fun () -> Pipeline.fuse ~enabled:true ~runtime planned)
  in
  let exe =
    stage "compile" (fun () ->
        Pipeline.compile ~runtime ~sanitize:Sanitize.Off fused)
  in
  let e = Pipeline.executor exe in
  let bindings = params d in
  let param_nodes = Array.of_list (List.map fst bindings) in
  let n = Array.length param_nodes in
  let values = ref (Array.of_list (List.map snd bindings)) in
  let optimizer = Optimizer.create (Optimizer.Sgd { lr }) in
  let losses = ref [] in
  List.iteri
    (fun i batch ->
      if i < steps then
        Trace.span ~req:i "step" (fun () ->
            Trace.span "executor.feed" (fun () ->
                List.iter (fun (node, t) -> Executor.feed e node t) batch;
                Array.iteri (fun k node -> Executor.feed e node !values.(k))
                  param_nodes);
            Trace.span "executor.run" (fun () -> Executor.run e);
            let outs = Executor.outputs e in
            let loss = Tensor.get1 outs.(0) 0 in
            let grads =
              Trace.span "train.clip" (fun () ->
                  Optimizer.clip_by_global_norm_arrays ~max_norm:clip_norm
                    (Array.sub outs 1 n))
            in
            if Float.is_finite loss && Float.is_finite (global_norm grads)
            then begin
              losses := loss :: !losses;
              values :=
                Trace.span "train.optimizer" (fun () ->
                    Optimizer.step_arrays optimizer ~param_nodes
                      ~params:!values ~grads)
            end))
    d.batches;
  (optimized, rewritten, planned, exe, List.rev !losses)

(* Per step: the step span minus its run, clip and optimizer children. *)
let loop_overheads () =
  let spans = Trace.spans () in
  List.filter_map
    (fun (s : Trace.span) ->
      if s.Trace.name <> "step" then None
      else
        let inner =
          List.fold_left
            (fun acc (c : Trace.span) ->
              if
                c.Trace.parent = s.Trace.id
                && List.mem c.Trace.name
                     [ "executor.run"; "train.clip"; "train.optimizer" ]
              then acc +. Trace.duration c
              else acc)
            0.0 spans
        in
        Some (Trace.duration s -. inner))
    spans

let run ~runtime ~seed ~seconds ~traced =
  let tally = tally () in
  let setups =
    List.init (setup_reps - 1) (fun _ ->
        (session ~runtime ~seed ~stop:(fun _ _ -> true)).setup)
  in
  (* Untraced runs report the median and p90 step, so they need 101 steady
     periods; the traced run only medians, and its replica replays as many
     steps, so it takes half the window and half the cap. *)
  let tail_q = 0.9 in
  let floor, window_s, cap =
    if traced then (Stats.samples_for 0.5, seconds /. 2.0, cap_s /. 2.0)
    else (Stats.samples_for tail_q, seconds, cap_s)
  in
  let s =
    session ~runtime ~seed ~stop:(fun steps since ->
        (since >= window_s && steps - 1 - warmup >= floor) || since >= cap)
  in
  let peak_bytes = Executor.footprint_bytes (Pipeline.executor s.exe) in
  let periods = periods s in
  let cfg = config ~seed in
  let tokens_per_step =
    float_of_int (cfg.Language_model.batch * cfg.Language_model.seq_len)
  in
  let steps = Array.length s.marks in
  tally.attempted <- tally.attempted + steps + s.nonfinite;
  tally.failed <- tally.failed + s.nonfinite;
  if s.nonfinite > 0 then
    tally.failures <-
      Printf.sprintf "%d non-finite training steps" s.nonfinite
      :: tally.failures;
  check tally
    (List.for_all Float.is_finite s.losses
    && mean_last 10 s.losses < mean_first 10 s.losses)
    "losses are not finite and falling";
  check tally (step1_agrees s)
    (Printf.sprintf
       "step 1 loss/gradients differ from Interp on the stash-all graph \
        (rtol %g)"
       rtol);
  let exe = Pipeline.executor s.exe in
  let counts =
    [
      ("steps", string_of_int steps);
      ("peak_bytes", string_of_int peak_bytes);
      ("executor.active_instrs", string_of_int (Executor.active_instruction_count exe));
      ("executor.fused_groups", string_of_int (Executor.fused_group_count exe));
      ("first_loss", Printf.sprintf "%h" (List.hd s.losses));
    ]
  in
  let layers, notes, counts =
    if not traced then ([], [], counts)
    else begin
      let optimized, rewritten, planned, rexe, replica_losses =
        replica ~runtime s.data ~steps
      in
      check tally
        (bits_equal replica_losses s.losses)
        "traced replica losses differ from Loop.train's";
      let stash =
        Pipeline.compile ~runtime ~sanitize:Sanitize.Off
          (Pipeline.fuse ~enabled:true ~runtime
             (Pipeline.plan
                (Pipeline.rewrite
                   ~planner:(Planner.instantiate "stash-all")
                   optimized)))
      in
      let re = Pipeline.executor rexe in
      let median_ms name = ms (Stats.median (Trace.durations name)) in
      let run_s = Stats.median (Trace.durations "executor.run") in
      let kernels, shapes =
        Kernels.probe ~runtime ~graph:planned.Pipeline.graph
          ~vocab:cfg.Language_model.vocab
          ~rows:(cfg.Language_model.seq_len * cfg.Language_model.batch)
          ~hidden:cfg.Language_model.hidden
          ~gate:[| cfg.Language_model.batch; 4 * cfg.Language_model.hidden |]
      in
      let overheads = loop_overheads () in
      let traced_steps = Trace.durations "step" in
      (* Raw times on both sides: the spans are not scaled. *)
      let raw_periods = List.map (fun d -> d.raw) periods in
      let untraced_p50 = Stats.median raw_periods in
      let traced_p50 = Stats.median traced_steps in
      let accounted = Stats.mean traced_steps /. Stats.mean raw_periods in
      let layers =
        [
          ("models.build_ms", median_ms "models.build");
          ("workloads.batch_gen_ms", median_ms "workloads.batch_gen");
          ("pipeline.differentiate_ms", median_ms "pipeline.differentiate");
          ("pipeline.optimize_ms", median_ms "pipeline.optimize");
          ("pipeline.rewrite_ms", median_ms "pipeline.rewrite");
          ("pipeline.plan_ms", median_ms "pipeline.plan");
          ("pipeline.fuse_ms", median_ms "pipeline.fuse");
          ("pipeline.compile_ms", median_ms "pipeline.compile");
          ("ir.nodes_optimized", float_of_int (Graph.node_count optimized.Pipeline.graph));
          ("ir.nodes_rewritten", float_of_int (Graph.node_count rewritten.Pipeline.graph));
          ( "core.recompute_flops_ratio",
            graph_flops rewritten.Pipeline.graph /. graph_flops optimized.Pipeline.graph );
          ( "core.footprint_reduction",
            float_of_int (Executor.footprint_bytes (Pipeline.executor stash))
            /. float_of_int (Executor.footprint_bytes re) );
          ("executor.run_ms_p50", ms run_s);
          ("executor.active_instrs", float_of_int (Executor.active_instruction_count re));
          ("executor.fused_groups", float_of_int (Executor.fused_group_count re));
          ("train.optimizer_ms", median_ms "train.optimizer");
          ("train.clip_ms", median_ms "train.clip");
          ("train.loop_overhead_ms", ms (Stats.median overheads));
          ( "opt.host_pred_over_measured",
            Fusion.host_graph_time (Fusion.of_runtime runtime) ~fuse:true
              planned.Pipeline.graph
            /. run_s );
        ]
        @ kernels
      in
      let notes =
        [
          shapes;
          Printf.sprintf
            "tracing overhead: traced replica step p50 %.2f ms vs untraced \
             Loop.train step p50 %.2f ms (%+.2f ms, %+.1f%%)"
            (ms traced_p50) (ms untraced_p50)
            (ms (traced_p50 -. untraced_p50))
            (100.0 *. ((traced_p50 /. untraced_p50) -. 1.0));
          Printf.sprintf
            "step accounting: span self times sum to %.1f%% of the untraced \
             mean step (tolerance +/-%.0f%%): %s"
            (100.0 *. accounted)
            (100.0 *. accounting_tolerance)
            (if Float.abs (accounted -. 1.0) <= accounting_tolerance then "ok"
             else "OUTSIDE TOLERANCE");
        ]
      in
      let counts =
        counts
        @ [
            ( "core.recompute_flops_ratio",
              Printf.sprintf "%.6f"
                (List.assoc "core.recompute_flops_ratio" layers) );
            ("ir.nodes_rewritten", Printf.sprintf "%.0f" (List.assoc "ir.nodes_rewritten" layers));
            ( "trace.step_overhead_pct",
              Printf.sprintf "%.2f" (100.0 *. ((traced_p50 /. untraced_p50) -. 1.0)) );
            ("trace.step_accounted_pct", Printf.sprintf "%.2f" (100.0 *. accounted));
            ( "trace.accounting_tolerance_pct",
              Printf.sprintf "%.0f" (100.0 *. accounting_tolerance) );
          ]
      in
      (layers, notes, counts)
    end
  in
  {
    setup_s = setups @ [ s.setup ];
    latency = periods;
    tail_q;
    work = tokens_per_step *. float_of_int (List.length periods);
    busy = periods;
    work_unit = "tokens";
    peak_bytes;
    tally;
    layers;
    unmeasured = [];
    counts;
    notes;
  }
