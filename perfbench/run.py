#!/usr/bin/env python3
"""Runner for the repo benchmark (see perfbench/NOTES.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload hunt --seed 7 --seconds 30 --trace 0
      one workload; prints a human-readable table, then one JSON line
  python3 perfbench/run.py --all --seed 7 --seconds 30
      hunt, explore and fuzz, untraced and traced: every end-to-end metric
      by name with its unit, then the per-layer metrics
  python3 perfbench/run.py compare OLD NEW
      two result sets (directories of saved results, or single files):
      per workload and metric, do they agree within the benchmark's bounds?

The runner builds perfbench/main.exe with dune, times the workload's
set-up over several fresh processes, runs the workload and checks its
outputs. Full results go to --out (default .perfbench/results/).
"""

import argparse
import glob
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ["hunt", "explore", "fuzz"]
# set-up is timed over SETUP_MIN to SETUP_MAX spawns, stopping once
# SETUP_BUDGET_S seconds have gone into it
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 15, 61, 3.0
# Wall time of a probe process (start-up and two speed probes) on the
# reference machine: set-up times are reported at the speed at which a
# probe process takes this long.
PROBE_REF_S = 0.012
RUN_TIMEOUT = 170

# name -> (unit, better, bound). A bound is the share of the old median by
# which the new one may be worse; None means a count that must repeat
# exactly for every seed both result sets ran. BENCHMARK.json gates on the
# GATED metrics, which every workload reports, with the same bounds. Raw
# wall-clock rates and times drift with the shared machine's speed, so they
# get the widest bound.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "execs_per_s": ("1/s", "higher", 0.25),
    "steps_per_s": ("1/s", "higher", 0.25),
    "steps_per_ref_s": ("1/s", "higher", 0.25),
    "heap_peak_mb": ("MB", "lower", 0.25),
    "hunt_wall_s": ("s", "lower", 0.25),
    "hunt_execs_gmean": ("count", "lower", None),
    "hunt_execs_p90": ("count", "lower", None),
    "hunt_miss_ratio": ("ratio", "lower", None),
    "triage_s": ("s", "lower", 0.25),
    "witness_choices_gmean": ("count", "lower", None),
    "coverage_points": ("count", "higher", None),
    "partial_orders": ("count", "higher", None),
}
# heap_peak_mb is not gated: the hunt workload's top heap is 6-7 MB, and
# how far the major heap grows ahead of the collector over a round moved
# it by 21% (IQR / median) over ten seeds, too near any allowed bound.
GATED = ["setup_s", "steps_per_ref_s"]

# Per-layer metrics every workload reports (BENCHMARK.json's per_layer);
# the workload-specific ones follow and are kept in the saved results.
PER_LAYER = [
    "runtime.ns_per_step",
    "runtime.minor_words_per_step",
    "runtime.promoted_words_per_step",
    "runtime.major_gcs_per_kexec",
    "runtime.steps_per_exec",
    "strategy.decisions_per_step",
    "strategy.ns_per_decision",
    "coverage.record_ns_per_step",
    "hb.record_ns_per_step",
    "lin.ns_per_step_delta",
    "trace.print_ns_per_choice",
    "trace.parse_ns_per_choice",
    "trace.overhead_ratio",
    "fault.injected_per_exec",
    "clock.virtual_time_per_exec",
]
LAYER_BY_WORKLOAD = {
    "hunt": [
        "shrink.reexecs_per_witness",
        "shrink.s_per_witness",
        "shrink.choice_ratio",
        "shrink.skipped_ratio",
        "replay.us_per_choice",
        "replay.log_lines_per_choice",
        "scenario.wedge_ratio",
    ],
    "explore": [],
    "fuzz": [
        "coverage.absorb_us_per_exec",
        "coverage.note_us_per_exec",
        "coverage.novel_exec_ratio",
        "hb.fingerprint_us_per_exec",
        "fuzz.feedback_us_per_exec",
        "fuzz.admit_ratio",
        "campaign.save_ms",
        "campaign.load_ms",
        "campaign.bytes",
        "fuzz.corpus_size",
    ],
}
# Per-layer counts that must repeat exactly between two runs of one seed.
EXACT_LAYERS = {
    "runtime.minor_words_per_step",
    "runtime.steps_per_exec",
    "strategy.decisions_per_step",
    "fault.injected_per_exec",
    "clock.virtual_time_per_exec",
    "shrink.reexecs_per_witness",
    "shrink.choice_ratio",
    "coverage.novel_exec_ratio",
    "fuzz.admit_ratio",
    "campaign.bytes",
    "fuzz.corpus_size",
}


def die(msg, code=2):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def build():
    if not os.path.isdir(os.path.join(ROOT, "lib", "core")):
        die("no library sources under lib/ in %s" % ROOT)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            cwd=ROOT, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout + r.stderr)
        die("build failed")


def exe(mode, workload, seed, workdir, extra=(), timeout=RUN_TIMEOUT):
    cmd = [EXE, mode, "--workload", workload, "--seed", str(seed),
           "--dir", workdir] + list(extra)
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        die("%s %s timed out" % (mode, workload))
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        die("%s %s exited with %d" % (mode, workload, r.returncode))
    return r.stdout


def spawn(cmd, what):
    # a blocking wait: waiting with a timeout polls in steps of up to
    # 50 ms, which would round the time up
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    code = p.wait()
    if code != 0:
        die("%s exited with %d" % (what, code))
    return time.perf_counter() - t0


def time_setup(workload, seed, workdir):
    """Set-up time of one window: the median wall time of fresh processes
    that set the workload up and exit before its first execution
    (start-up, catalog construction, scenario parsing, seed-spacing check
    and campaign load), rescaled to the reference speed by the median of
    probe processes spawned in turn with them. Returns the rescaled and
    the raw median, and the number of set-up spawns."""
    cmd = [EXE, "setup", "--workload", workload, "--seed", str(seed),
           "--dir", workdir]
    walls, probes = [], []
    while len(walls) < SETUP_MIN or (
            len(walls) < SETUP_MAX
            and sum(walls) + sum(probes) < SETUP_BUDGET_S):
        walls.append(spawn(cmd, "setup %s" % workload))
        probes.append(spawn([EXE, "probe"], "probe"))
    raw = statistics.median(walls)
    return raw * PROBE_REF_S / statistics.median(probes), raw, len(walls)


def run_one(workload, seed, seconds, trace, out_dir):
    workdir = os.path.join(WORK, "work", "%s-%d" % (workload, seed))
    os.makedirs(workdir, exist_ok=True)
    if workload == "fuzz":
        exe("prepare", workload, seed, workdir)
    exe("setup", workload, seed, workdir, timeout=60)  # fail loudly first
    # Set-up is timed in a window before the run and one after it, and the
    # faster window counts: the shared machine this was tuned on has slow
    # phases lasting seconds, and one window of spawns (0.1-3 s) often
    # falls entirely inside one.
    before, raw_before, n_before = time_setup(workload, seed, workdir)
    out = exe("trace" if trace else "run", workload, seed, workdir,
              ["--seconds", str(seconds)])
    after, raw_after, n_after = time_setup(workload, seed, workdir)
    res = json.loads(out.strip().splitlines()[-1])
    res["e2e"]["setup_s"] = {"value": min(before, after), "unit": "s",
                             "samples": n_before + n_after,
                             "windows_s": [before, after],
                             "raw_windows_s": [raw_before, raw_after]}
    res["trace"] = int(trace)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir,
                        "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w") as f:
        json.dump(res, f, indent=1, sort_keys=True)
    return res


def fmt(v):
    return "%.4g" % v if isinstance(v, float) else str(v)


def print_e2e(workload, res):
    print("== %s: end-to-end (untraced) ==" % workload)
    for name, (unit, better, _) in END_TO_END.items():
        m = res["e2e"].get(name)
        val = fmt(m["value"]) if m else "n/a"
        n = " (n=%d)" % m["samples"] if m and "samples" in m else ""
        print("  %-24s %14s %-6s %s is better%s"
              % (name, val, unit, better, n))


def print_layers(workload, res):
    print("== %s: per layer (traced run) ==" % workload)
    layers = res.get("per_layer", {})
    for name in PER_LAYER + LAYER_BY_WORKLOAD[workload]:
        m = layers.get(name)
        if m:
            print("  %-34s %14s %s" % (name, fmt(m["value"]), m["unit"]))
    for g, kvs in sorted(res.get("detail", {}).get("per_harness", {}).items()):
        print("  [%s] %s" % (g, ", ".join(
            "%s=%s" % (k.split(".", 1)[1], fmt(v)) for k, v in
            sorted(kvs.items()))))


def valid_number(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def contract_line(res, trace):
    names = PER_LAYER if trace else GATED
    src = res.get("per_layer", {}) if trace else res["e2e"]
    metrics = {}
    missing = []
    for name in names:
        m = src.get(name)
        if m is None or not valid_number(m["value"]):
            missing.append(name)
        else:
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
    failed = res["failed"] + len(missing)
    return {
        "correct": failed == 0,
        "attempted": max(1, res["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }, missing


def main_single(args):
    build()
    res = run_one(args.workload, args.seed, args.seconds, args.trace,
                  args.out)
    if args.trace:
        print_layers(args.workload, res)
    else:
        print_e2e(args.workload, res)
    for f in res.get("failures", []):
        print("FAILED: %s" % f)
    line, missing = contract_line(res, args.trace)
    for name in missing:
        print("FAILED: metric %s missing" % name)
    if not args.trace:
        zero = [n for n, m in line["metrics"].items() if m["value"] <= 0]
        if zero:
            die("zero-valued metrics: %s" % ", ".join(zero))
    print(json.dumps(line))
    sys.exit(0 if line["correct"] else 1)


def main_all(args):
    build()
    ok = True
    results = {}
    for w in WORKLOADS:
        results[w] = (run_one(w, args.seed, args.seconds, 0, args.out),
                      run_one(w, args.seed, args.seconds, 1, args.out))
    for w in WORKLOADS:
        print_e2e(w, results[w][0])
    for w in WORKLOADS:
        print_layers(w, results[w][1])
    for w in WORKLOADS:
        for res in results[w]:
            for f in res.get("failures", []):
                ok = False
                print("FAILED %s: %s" % (w, f))
    print("all correctness checks passed" if ok
          else "correctness checks FAILED")
    sys.exit(0 if ok else 1)


# ---------------------------------------------------------------- compare

def load_set(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    out = []
    for f in files:
        with open(f) as h:
            out.append(json.load(h))
    return out


def compare(old_path, new_path):
    old, new = load_set(old_path), load_set(new_path)
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            o = [r for r in old if r["provenance"]["workload"] == w
                 and r.get("trace") == trace]
            n = [r for r in new if r["provenance"]["workload"] == w
                 and r.get("trace") == trace]
            if not o or not n:
                continue
            kind = "per layer" if trace else "end to end"
            print("== %s, %s: %d old runs, %d new runs ==" % (
                w, kind, len(o), len(n)))
            if trace:
                specs = {k: (None, "lower", None if k in EXACT_LAYERS
                             else "info")
                         for k in PER_LAYER + LAYER_BY_WORKLOAD[w]}
                get = lambda r, k: r.get("per_layer", {}).get(k)
            else:
                specs = END_TO_END
                get = lambda r, k: r["e2e"].get(k)
            for name, (_, better, bound) in specs.items():
                ov = {r["provenance"]["seed"]: get(r, name) for r in o}
                nv = {r["provenance"]["seed"]: get(r, name) for r in n}
                ov = {s: m["value"] for s, m in ov.items() if m}
                nv = {s: m["value"] for s, m in nv.items() if m}
                if not ov or not nv:
                    continue
                if bound is None:
                    common = sorted(set(ov) & set(nv))
                    same = all(ov[s] == nv[s] for s in common)
                    if not common:
                        verdict = "not compared: no common seed"
                    else:
                        verdict = "%s over %d common seeds" % (
                            "exact" if same else "DIFFERS", len(common))
                    ok = ok and same
                    print("  %-34s %s" % (name, verdict))
                    continue
                om = statistics.median(ov.values())
                nm = statistics.median(nv.values())
                change = (nm - om) / om if om else 0.0
                worse = change if better == "lower" else -change
                if bound == "info":
                    verdict = "(no bound)"
                elif worse > bound:
                    verdict = "WORSE than bound %.2f" % bound
                    ok = False
                else:
                    verdict = "within %.2f" % bound
                print("  %-34s old %-12s new %-12s %+6.1f%%  %s" % (
                    name, fmt(om), fmt(nm), 100 * change, verdict))
    print("agree" if ok else "DISAGREE")
    return ok


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            die("usage: run.py compare OLD NEW")
        sys.exit(0 if compare(sys.argv[2], sys.argv[3]) else 1)
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", default=os.path.join(WORK, "results"),
                   help="directory for the full results")
    args = p.parse_args()
    if args.all:
        main_all(args)
    elif args.workload:
        main_single(args)
    else:
        die("give --workload or --all")


if __name__ == "__main__":
    main()
