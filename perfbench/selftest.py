#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

For every workload: two traced runs at one seed must repeat the run-stable
counts exactly; a run at another seed must change the inputs but not the
shapes; and the metric names each run prints must be those of
BENCHMARK.json. On lm-train, the traced step spans must account for the
untraced step within the tolerance the run states. On serve-mix, the
traffic must hold the populations its sizing promises (README.md,
"Traffic basis"). Also prints the tracing overhead (the traced run's
median operation time against the untraced run's at the same seed) and
the host speed factor of each run. Takes a few minutes; exits 1 on any failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED_A, SEED_B, SECONDS = 11, 12, 1

# Counts a fixed seed must repeat exactly.
REPEAT = ["peak_bytes", "executor.active_instrs", "executor.fused_groups",
          "core.recompute_flops_ratio", "serve.cache_misses",
          "serve.cache_evictions", "serve.batch_mean"]
# Per workload: what a new seed must change (inputs) and keep (shapes).
INPUTS = {"lm-train": ["first_loss"], "compile-zoo": ["order"],
          "serve-mix": ["stream"]}
SHAPES = {"lm-train": ["peak_bytes", "executor.active_instrs",
                       "executor.fused_groups", "core.recompute_flops_ratio"],
          "compile-zoo": ["peak_bytes", "executor.active_instrs",
                          "executor.fused_groups", "core.recompute_flops_ratio"],
          "serve-mix": ["variants", "peak_bytes"]}
# serve-mix traffic sizing, over the stream prefix every run serves: each
# per-verb p50 needs 21 samples (ten beyond it), and the share of requests
# that wait on a cache miss must put the p99 inside the miss population
# and the p50 outside it.
P50_SAMPLES = 21
MISS_WAIT_SHARE = (0.02, 0.5)

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    expect(out.returncode == 0, "%s seed %d trace %d exits 0" % (workload, seed, trace))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record_path = os.path.join(ROOT, ".perfbench-out",
                               "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(record_path) as f:
        record = json.load(f)
    return result, record


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {0: [m["name"] for m in bench["end_to_end"]],
             1: [m["name"] for m in bench["per_layer"]]}
    for wl in [w["name"] for w in bench["workloads"]]:
        untraced, rec_u = run(wl, SEED_A, 0)
        a, rec_a = run(wl, SEED_A, 1)
        a2, rec_a2 = run(wl, SEED_A, 1)
        b, rec_b = run(wl, SEED_B, 1)
        expect(list(untraced["metrics"]) == names[0],
               "%s: untraced metric names match BENCHMARK.json" % wl)
        for r in (a, a2, b):
            expect(list(r["metrics"]) == names[1],
                   "%s: traced metric names match BENCHMARK.json" % wl)
        # lm-train's traced run measures its own overhead: its timed
        # operations are the untraced loop's, the replica's are spanned.
        if "trace.step_overhead_pct" in rec_a["counts"]:
            print("info  %s: tracing overhead on the step p50: %s%%"
                  % (wl, rec_a["counts"]["trace.step_overhead_pct"]))
        else:
            op = [k for k in rec_u["timings"] if k != "setup_s"][0]
            p50_u, p50_t = rec_u["timings"][op]["p50"], rec_a["timings"][op]["p50"]
            print("info  %s: tracing overhead on %s p50: %.3f traced vs %.3f "
                  "untraced (%+.1f%%)" % (wl, op, p50_t, p50_u, 100 * (p50_t / p50_u - 1)))
        print("info  %s: host speed factor %s (untraced run), %s (traced run)"
              % (wl, rec_u["host_speed"]["factor"], rec_a["host_speed"]["factor"]))
        ca, ca2, cb = rec_a["counts"], rec_a2["counts"], rec_b["counts"]
        if "trace.step_accounted_pct" in ca:
            for c in (ca, ca2, cb):
                acc, tol = float(c["trace.step_accounted_pct"]), float(
                    c["trace.accounting_tolerance_pct"])
                expect(abs(acc - 100) <= tol,
                       "%s: step spans account for %.1f%% of the untraced step "
                       "(tolerance +/-%.0f%%)" % (wl, acc, tol))
        if "prefix.share.miss_wait" in ca:
            for c in (ca, cb):
                for pop in ("compile_hit", "compile_miss", "train"):
                    n = int(c["prefix.requests." + pop])
                    expect(n >= P50_SAMPLES, "%s: %d %s samples >= %d"
                           % (wl, n, pop, P50_SAMPLES))
                share = float(c["prefix.share.miss_wait"])
                lo, hi = MISS_WAIT_SHARE
                expect(lo <= share <= hi, "%s: miss-wait share %.4f in [%g, %g]"
                       % (wl, share, lo, hi))
        for k in REPEAT + [k for k in ca if k.startswith("prefix.")]:
            if k in ca:
                expect(ca[k] == ca2.get(k),
                       "%s: %s repeats for one seed (%s, %s)" % (wl, k, ca[k], ca2.get(k)))
        for k in INPUTS[wl]:
            expect(ca[k] == ca2[k] and ca[k] != cb[k],
                   "%s: %s is a function of the seed" % (wl, k))
        for k in SHAPES[wl]:
            expect(ca[k] == cb[k], "%s: %s does not depend on the seed (%s, %s)"
                   % (wl, k, ca[k], cb[k]))
    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
