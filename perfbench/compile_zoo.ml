(* compile-zoo: cold compiles of the model zoo through every pipeline stage,
   under each planner, in a seeded order. Compilation does all the work and
   kernels almost none, so a faster Echo pass shows here and not on
   lm-train, and a graph rewrite that speeds up training but slows
   compilation shows its cost here. Nothing is cached. *)

open Echo_tensor
open Echo_ir
open Common
module Pipeline = Echo_compiler.Pipeline
module Executor = Echo_compiler.Executor
module Language_model = Echo_models.Language_model
module Recurrent = Echo_models.Recurrent
module Nmt = Echo_models.Nmt
module Deepspeech = Echo_models.Deepspeech
module Transformer = Echo_models.Transformer
module Planner = Echo_core.Planner
module Sanitize = Echo_analysis.Sanitize
module Report = Echo_diag.Report

(* The two LMs at the lm-train shape; the other three at the experiment
   harness's Quick shapes. *)
let models ~seed =
  let lm cell () =
    (Language_model.build { (Lm_train.config ~seed) with Language_model.cell })
      .Language_model.model
  in
  [
    ("lstm-lm", lm Recurrent.Lstm);
    ("gru-lm", lm Recurrent.Gru);
    ( "nmt-attn",
      fun () ->
        (Nmt.build
           {
             Nmt.gnmt_like with
             Nmt.src_vocab = 4000;
             tgt_vocab = 4000;
             hidden = 128;
             embed = 128;
             enc_layers = 2;
             dec_layers = 2;
             src_len = 10;
             tgt_len = 10;
             batch = 16;
             seed;
           })
          .Nmt.model );
    ( "deepspeech2",
      fun () ->
        (Deepspeech.build
           {
             Deepspeech.ds2_like with
             Deepspeech.time = 32;
             rnn_hidden = 128;
             rnn_layers = 2;
             batch = 4;
             seed;
           })
          .Deepspeech.model );
    ( "transformer",
      fun () ->
        (Transformer.build
           {
             Transformer.base_like with
             Transformer.vocab = 4000;
             seq_len = 16;
             batch = 2;
             d_model = 128;
             d_ff = 256;
             layers = 2;
             seed;
           })
          .Transformer.model );
  ]

let planners =
  [
    ("stash-all", []);
    ("echo", [ ("budget", 0.03) ]);
    ("echo", [ ("budget", 0.10) ]);
    ("echo", [ ("budget", 0.30) ]);
    ("checkpoint-sqrt", []);
    ("dp-bptt", []);
  ]

let setup_reps = 15
let tail_q = 0.9

let build_zoo ~seed =
  Trace.span "models.build" (fun () ->
      List.map (fun (name, build) -> (name, build ())) (models ~seed))

let compile ~runtime ~req model (pname, knobs) =
  let stage name f = Trace.span ("pipeline." ^ name) f in
  Trace.span ~req "compile" (fun () ->
      let training =
        stage "differentiate" (fun () ->
            Pipeline.differentiate (Pipeline.of_model model))
      in
      let optimized = stage "optimize" (fun () -> Pipeline.optimize training) in
      let rewritten =
        stage "rewrite" (fun () ->
            Pipeline.rewrite
              ~planner:(Planner.instantiate ~knobs pname)
              optimized)
      in
      let planned = stage "plan" (fun () -> Pipeline.plan rewritten) in
      let fused =
        stage "fuse" (fun () -> Pipeline.fuse ~enabled:true ~runtime planned)
      in
      stage "compile" (fun () ->
          Pipeline.compile ~runtime ~sanitize:Sanitize.Off fused))

type facts = {
  footprint : int;
  instrs : int;
  groups : int;
  nodes_optimized : int;
  nodes_rewritten : int;
  flops_optimized : float;
  flops_rewritten : float;
}

let facts exe =
  let e = Pipeline.executor exe in
  let planned = Pipeline.planned_of exe in
  let rewritten = planned.Pipeline.rewritten in
  let optimized = rewritten.Pipeline.optimized in
  {
    footprint = Executor.footprint_bytes e;
    instrs = Executor.active_instruction_count e;
    groups = Executor.fused_group_count e;
    nodes_optimized = Graph.node_count optimized.Pipeline.graph;
    nodes_rewritten = Graph.node_count rewritten.Pipeline.graph;
    flops_optimized = Lm_train.graph_flops optimized.Pipeline.graph;
    flops_rewritten = Lm_train.graph_flops rewritten.Pipeline.graph;
  }

let label (pname, knobs) =
  Planner.label (Planner.instantiate ~knobs pname)

let run ~runtime ~seed ~seconds ~traced =
  let tally = tally () in
  let setups = ref [] and zoo = ref [] in
  for _ = 1 to setup_reps do
    Calib.tick ();
    let t0 = now () in
    zoo := build_zoo ~seed;
    setups := since t0 :: !setups
  done;
  let pairs =
    Array.of_list
      (List.concat_map
         (fun (mname, model) -> List.map (fun p -> (mname, model, p)) planners)
         !zoo)
  in
  let rng = Rng.create seed in
  let seen : (string * string, facts) Hashtbl.t = Hashtbl.create 32 in
  let order = Buffer.create 256 in
  let latencies = ref [] and count = ref 0 in
  let round = ref [||] and pos = ref 0 in
  let w = window ~seconds ~tail_q in
  (* Whole rounds only, so every seed compiles the same multiset of
     pairs and only their order differs. *)
  while not (!pos = Array.length !round && finished w ~samples:!count) do
    if !pos = Array.length !round then begin
      round := shuffle rng pairs;
      pos := 0
    end;
    let mname, model, planner = !round.(!pos) in
    incr pos;
    Calib.tick ();
    let t0 = now () in
    let exe = compile ~runtime ~req:!count model planner in
    latencies := since t0 :: !latencies;
    incr count;
    let plabel = label planner in
    if !count <= Array.length pairs then
      Buffer.add_string order (mname ^ "/" ^ plabel ^ ";");
    (* Outside the timed compile: every executable passes Echo-verify and
       race-verify, and its footprint is its fused plan's arena. *)
    let f = facts exe in
    let v = Pipeline.verify (Pipeline.Executable exe) in
    let r = Pipeline.race_verify exe in
    let arena =
      exe.Pipeline.fused.Pipeline.fused_memplan.Echo_exec.Memplan.arena_bytes
    in
    check tally
      (Report.error_count v = 0 && Report.error_count r = 0
      && f.footprint = arena)
      (Printf.sprintf "%s/%s: %d verify and %d race errors, footprint %d vs \
                       arena %d" mname plabel (Report.error_count v)
         (Report.error_count r) f.footprint arena);
    Hashtbl.replace seen (mname, plabel) f
  done;
  let all = Hashtbl.fold (fun k f acc -> (k, f) :: acc) seen [] in
  let total g = List.fold_left (fun acc (_, f) -> acc + g f) 0 all in
  let totalf g = List.fold_left (fun acc (_, f) -> acc +. g f) 0.0 all in
  let peak_bytes = total (fun f -> f.footprint) in
  let reductions =
    List.filter_map
      (fun ((m, p), f) ->
        if p = "stash-all" then None
        else
          Some
            (float_of_int (Hashtbl.find seen (m, "stash-all")).footprint
            /. float_of_int f.footprint))
      all
  in
  let flops_ratio =
    totalf (fun f -> f.flops_rewritten) /. totalf (fun f -> f.flops_optimized)
  in
  let counts =
    [
      ("compiles", string_of_int !count);
      ("pairs", string_of_int (List.length all));
      ("peak_bytes", string_of_int peak_bytes);
      ("executor.active_instrs", string_of_int (total (fun f -> f.instrs)));
      ("executor.fused_groups", string_of_int (total (fun f -> f.groups)));
      ("core.recompute_flops_ratio", Printf.sprintf "%.6f" flops_ratio);
      ("order", Digest.to_hex (Digest.string (Buffer.contents order)));
    ]
  in
  let layers =
    if not traced then []
    else
      let mean_ms name =
        ms (Stats.sum (Trace.durations name) /. float_of_int !count)
      in
      [
        ("models.build_ms", ms (Stats.median (Trace.durations "models.build")));
        ("pipeline.differentiate_ms", mean_ms "pipeline.differentiate");
        ("pipeline.optimize_ms", mean_ms "pipeline.optimize");
        ("pipeline.rewrite_ms", mean_ms "pipeline.rewrite");
        ("pipeline.plan_ms", mean_ms "pipeline.plan");
        ("pipeline.fuse_ms", mean_ms "pipeline.fuse");
        ("pipeline.compile_ms", mean_ms "pipeline.compile");
        ("ir.nodes_optimized", float_of_int (total (fun f -> f.nodes_optimized)));
        ("ir.nodes_rewritten", float_of_int (total (fun f -> f.nodes_rewritten)));
        ("core.recompute_flops_ratio", flops_ratio);
        ("core.footprint_reduction", Stats.geomean reductions);
        ("executor.active_instrs", float_of_int (total (fun f -> f.instrs)));
        ("executor.fused_groups", float_of_int (total (fun f -> f.groups)));
      ]
  in
  {
    setup_s = List.rev !setups;
    latency = !latencies;
    tail_q;
    work = float_of_int !count;
    busy = !latencies;
    work_unit = "compiles";
    peak_bytes;
    tally;
    layers;
    unmeasured = [];
    counts;
    notes =
      [
        Printf.sprintf
          "%d cold compiles over %d (model, planner) pairs; pipeline stage \
           times are means per compile"
          !count (List.length all);
      ];
  }
