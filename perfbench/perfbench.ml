(* The repository benchmark.

     perfbench.exe --workload lm-train|compile-zoo|serve-mix --seed N
                   --seconds S --trace 0|1 [--commit SHA]

   Runs one workload in a closed loop for at least S seconds (longer when
   the reported tail percentile needs more samples), checks the program's
   outputs, prints a human-readable report, writes a run record (and, when
   traced, a Chrome trace) under .perfbench-out/, and prints one JSON result
   as the last line of standard output. With --trace 0 the result holds the
   end-to-end metrics; with --trace 1, the per-layer metrics. Exits 1 when
   any correctness check fails. See README.md beside this file. *)

(* Each workload with its kernel runtime's domain count. lm-train's GEMM
   steps use two. A compile and a serve drain are one caller's dispatch-
   bound work at tiny shapes; an idle second domain would only add a
   stop-the-world handshake to every minor collection, which made their
   timings swing with the load on the other core (README.md, "Host
   speed"). *)
let workloads =
  [
    ("lm-train", (Lm_train.run, 2));
    ("compile-zoo", (Compile_zoo.run, 1));
    ("serve-mix", (Serve_mix.run, 1));
  ]

(* (name, unit); the order of BENCHMARK.json. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("latency_ms_p50", "ms");
    ("latency_ms_tail", "ms");
    ("throughput_per_s", "1/s");
    ("peak_bytes", "bytes");
    ("peak_rss_mib", "MiB");
    ("ok_rate", "ratio");
  ]

let per_layer =
  [
    ("models.build_ms", "ms");
    ("workloads.batch_gen_ms", "ms");
    ("pipeline.differentiate_ms", "ms");
    ("pipeline.optimize_ms", "ms");
    ("pipeline.rewrite_ms", "ms");
    ("pipeline.plan_ms", "ms");
    ("pipeline.fuse_ms", "ms");
    ("pipeline.compile_ms", "ms");
    ("ir.nodes_optimized", "count");
    ("ir.nodes_rewritten", "count");
    ("core.recompute_flops_ratio", "ratio");
    ("core.footprint_reduction", "ratio");
    ("executor.run_ms_p50", "ms");
    ("executor.active_instrs", "count");
    ("executor.fused_groups", "count");
    ("tensor.matmul_nt_gflops", "GFLOP/s");
    ("tensor.matmul_tn_gflops", "GFLOP/s");
    ("tensor.matmul_nn_gflops", "GFLOP/s");
    ("tensor.matmul_vocab_gflops", "GFLOP/s");
    ("tensor.parallel_speedup", "ratio");
    ("tensor.elementwise_gbps", "GB/s");
    ("train.optimizer_ms", "ms");
    ("train.clip_ms", "ms");
    ("train.loop_overhead_ms", "ms");
    ("opt.host_pred_over_measured", "ratio");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.cache_misses", "count");
    ("serve.cache_evictions", "count");
    ("serve.batch_mean", "count");
    ("serve.compile_hit_us_p50", "us");
    ("serve.eval_ms_p50", "ms");
    ("serve.compile_miss_ms_p50", "ms");
    ("serve.train_ms_p50", "ms");
  ]

(* What each workload's unit operation is called in the report. *)
let op_names = function
  | "lm-train" -> ("step_ms", "train_tokens_per_s")
  | "compile-zoo" -> ("compile_ms", "compiles_per_s")
  | _ -> ("req_ms", "req_per_s")

(* Non-finite values never reach a result marked correct (an unmeasured
   end-to-end metric fails the run); they print as 0 to keep the JSON
   valid. *)
let json_number x =
  if not (Float.is_finite x) then "0"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_metrics metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
             (Trace.json_string name) (json_number v) (Trace.json_string unit))
         metrics)
  ^ "}"

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let trace = ref (-1) and commit = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME lm-train|compile-zoo|serve-mix");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S minimum measuring window (>= 1)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--commit", Arg.Set_string commit, "SHA recorded in the run record");
    ]
  in
  let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    Arg.usage spec usage;
    exit 2
  in
  let run, want_domains =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      fail
        (Printf.sprintf "unknown workload %S (%s)" !workload
           (String.concat "|" (List.map fst workloads)))
  in
  if !seed < 0 then fail "--seed must be a non-negative integer";
  if !seconds < 1 then fail "--seconds must be a positive integer";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  Common.check_env ();
  let traced = !trace = 1 in
  Trace.enabled := traced;
  let domains, runtime = Common.make_runtime want_domains in
  Calib.burst ();
  let t0 = Common.now () in
  let r = run ~runtime ~seed:!seed ~seconds:(float_of_int !seconds) ~traced in
  let wall_s = Common.now () -. t0 in
  Calib.burst ();
  Echo_tensor.Parallel.shutdown runtime;
  let tally = r.Common.tally in
  let rss = Common.peak_rss_mib () in
  (* Timings are reported at the reference host speed: each measured
     duration over the host speed factor of the seconds around it (Calib).
     The raw figures go into the report and the run record. *)
  let factor = Calib.factor () in
  let summarise ?tail_q f ds = Stats.summarise ?tail_q (List.map f ds) in
  let raw_ms d = Common.ms d.Common.raw and ref_ms d = Common.ms (Common.at_ref d) in
  let tail_q = r.Common.tail_q in
  let raw_lat = summarise ~tail_q raw_ms r.Common.latency in
  let raw_setup = summarise (fun d -> d.Common.raw) r.Common.setup_s in
  let raw_throughput = r.Common.work /. Common.sum_durs (fun d -> d.Common.raw) r.Common.busy in
  let lat = summarise ~tail_q ref_ms r.Common.latency in
  let setup = summarise Common.at_ref r.Common.setup_s in
  let throughput = r.Common.work /. Common.sum_durs Common.at_ref r.Common.busy in
  let measured =
    [
      ("setup_s", setup.Stats.p50);
      ("latency_ms_p50", lat.Stats.p50);
      ("latency_ms_tail", lat.Stats.tail);
      ("throughput_per_s", throughput);
      ("peak_bytes", float_of_int r.Common.peak_bytes);
      ("peak_rss_mib", rss);
    ]
  in
  List.iter
    (fun (name, v) ->
      Common.check tally (Float.is_finite v && v > 0.0)
        (Printf.sprintf "end-to-end metric %s could not be measured" name))
    measured;
  let ok_rate =
    1.0 -. (float_of_int tally.Common.failed /. float_of_int (max 1 tally.Common.attempted))
  in
  let e2e = measured @ [ ("ok_rate", ok_rate) ] in
  (* A per-layer metric the run did not measure reads 0, with the reason:
     the workload's own (it runs the layer but cannot time it from
     outside), or else that it does not exercise the layer. *)
  let layers =
    List.map
      (fun (name, _) ->
        match List.assoc_opt name r.Common.layers with
        | Some v when Float.is_finite v -> (name, v)
        | _ -> (name, 0.0))
      per_layer
  in
  let unmeasured =
    List.filter_map
      (fun (name, _) ->
        match List.assoc_opt name r.Common.layers with
        | Some v when Float.is_finite v -> None
        | Some _ -> Some (name, "measured no sample")
        | None ->
          let reason =
            List.find_map
              (fun (prefix, why) ->
                if String.starts_with ~prefix name then Some why else None)
              r.Common.unmeasured
          in
          Some (name, Option.value reason ~default:("not exercised by " ^ !workload)))
      per_layer
  in
  let op, thr = op_names !workload in
  let tail_pct = Printf.sprintf "p%.0f" (100.0 *. r.Common.tail_q) in
  let nproc = Echo_tensor.Parallel.hardware_parallelism () in
  Format.printf "perfbench %s  seed=%d  domains=%d  nproc=%d  ocaml=%s  commit=%s@."
    !workload !seed domains nproc Sys.ocaml_version !commit;
  Format.printf
    "host speed factor %.4f (probe median %.3f ms over the %.3f ms reference, \
     %d probes): timings below are measured / the factor of the seconds \
     around each@."
    factor (1e3 *. Calib.median_s ()) (1e3 *. Calib.reference_s) (Calib.count ());
  Format.printf "raw: setup_s %.4f  %s_p50 %.4f  %s_%s %.4f  %s %.4f@."
    raw_setup.Stats.p50 op raw_lat.Stats.p50 op tail_pct raw_lat.Stats.tail thr
    raw_throughput;
  Format.printf "%-22s %14.4f  (n=%d, quartiles %.4g..%.4g)@." "setup_s"
    setup.Stats.p50 setup.Stats.n setup.Stats.p25 setup.Stats.p75;
  Format.printf "%-22s %14.4f  (n=%d, quartiles %.4g..%.4g)@." (op ^ "_p50")
    lat.Stats.p50 lat.Stats.n lat.Stats.p25 lat.Stats.p75;
  let beyond = Stats.beyond ~q:r.Common.tail_q lat.Stats.n in
  Format.printf "%-22s %14.4f  (n=%d, %d beyond%s)@." (op ^ "_" ^ tail_pct)
    lat.Stats.tail lat.Stats.n beyond
    (if beyond < 10 then "; too few for this percentile" else "");
  Format.printf "%-22s %14.4f  (%s / busy s)@." thr throughput r.Common.work_unit;
  Format.printf "%-22s %14d@." "peak_bytes" r.Common.peak_bytes;
  Format.printf "%-22s %14.2f@." "peak_rss_mib" rss;
  Format.printf "%-22s %14.6f  (%d failed of %d attempted)@." "ok_rate" ok_rate
    tally.Common.failed tally.Common.attempted;
  List.iter (fun f -> Format.printf "FAILED: %s@." f) (List.rev tally.Common.failures);
  List.iter (fun n -> Format.printf "%s@." n) r.Common.notes;
  List.iter (fun (k, v) -> Format.printf "count %s = %s@." k v) r.Common.counts;
  if traced then begin
    Format.printf "@.per-layer metrics:@.";
    List.iter
      (fun (name, unit) ->
        match List.assoc_opt name unmeasured with
        | None -> Format.printf "  %-30s %14.4f %s@." name (List.assoc name layers) unit
        | Some why -> Format.printf "  %-30s %14s  %s@." name "-" why)
      per_layer;
    Format.printf "@.self time by span:@.%a" Trace.pp_self_times ()
  end;
  (* The run record: metadata, every timing's median, quartiles and sample
     count, and the counts a fixed seed must repeat. *)
  let out = ".perfbench-out" in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let base = Printf.sprintf "%s/%s-seed%d-trace%d" out !workload !seed !trace in
  let summary name (s : Stats.summary) =
    Printf.sprintf
      "%s: {\"n\": %d, \"p25\": %s, \"p50\": %s, \"p75\": %s, \"tail\": %s}"
      (Trace.json_string name) s.Stats.n (json_number s.Stats.p25)
      (json_number s.Stats.p50) (json_number s.Stats.p75) (json_number s.Stats.tail)
  in
  let kv (k, v) = Printf.sprintf "%s: %s" (Trace.json_string k) (Trace.json_string v) in
  let record =
    String.concat ",\n  "
      [
        kv ("workload", !workload);
        Printf.sprintf "\"seed\": %d" !seed;
        Printf.sprintf "\"domains\": %d" domains;
        Printf.sprintf "\"nproc\": %d" nproc;
        kv ("ocaml", Sys.ocaml_version);
        kv ("commit", !commit);
        Printf.sprintf "\"traced\": %b" traced;
        Printf.sprintf "\"seconds\": %d" !seconds;
        Printf.sprintf "\"wall_s\": %s" (json_number wall_s);
        Printf.sprintf
          "\"host_speed\": {\"factor\": %s, \"probes\": %d, \"median_ms\": %s, \
           \"reference_ms\": %s}"
          (json_number factor) (Calib.count ())
          (json_number (1e3 *. Calib.median_s ()))
          (json_number (1e3 *. Calib.reference_s));
        kv ("tail_percentile", tail_pct);
        Printf.sprintf "\"timings\": {%s, %s}" (summary "setup_s" setup)
          (summary op lat);
        Printf.sprintf "\"raw_timings\": {%s, %s, %s}" (summary "setup_s" raw_setup)
          (summary op raw_lat)
          (Printf.sprintf "%s: %s" (Trace.json_string thr) (json_number raw_throughput));
        Printf.sprintf "\"counts\": {%s}"
          (String.concat ", " (List.map kv r.Common.counts));
        Printf.sprintf "\"attempted\": %d" tally.Common.attempted;
        Printf.sprintf "\"failed\": %d" tally.Common.failed;
        Printf.sprintf "\"failures\": [%s]"
          (String.concat ", " (List.map Trace.json_string tally.Common.failures));
        Printf.sprintf "\"end_to_end\": %s"
          (json_metrics (List.map (fun (n, u) -> (n, u, List.assoc n e2e)) end_to_end));
        Printf.sprintf "\"per_layer\": %s"
          (json_metrics (List.map (fun (n, u) -> (n, u, List.assoc n layers)) per_layer));
        Printf.sprintf "\"per_layer_unmeasured\": {%s}"
          (String.concat ", " (List.map kv unmeasured));
      ]
  in
  write_file (base ^ ".json") ("{\n  " ^ record ^ "\n}\n");
  if traced then write_file (base ^ ".trace.json") (Trace.to_chrome_trace ());
  let metrics =
    if traced then List.map (fun (n, u) -> (n, u, List.assoc n layers)) per_layer
    else List.map (fun (n, u) -> (n, u, List.assoc n e2e)) end_to_end
  in
  let correct = tally.Common.failed = 0 in
  Format.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}@."
    correct tally.Common.attempted tally.Common.failed (json_metrics metrics);
  exit (if correct then 0 else 1)
