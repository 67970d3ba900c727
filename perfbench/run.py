"""hdcalc benchmark: time to a correct verdict, end to end and per layer.

    python3 perfbench/run.py [--workload confluence|identities|cli]
                             [--seed N] [--trace 0|1]

Run from the root of a checkout; hdcalc is imported from its `src/`.
Without --workload all three workloads run one after another.  Each
measurement runs in a fresh interpreter (perfbench/worker.py), one caller
in one thread, each job sent after the previous one returned.

A run holds a fixed number of rounds of jobs (worker.ROUNDS), so every
commit runs the same jobs.  --seconds is accepted, as the benchmark's
command-line interface includes it, and does not change the run.
--trace 0 prints the end-to-end metrics; --trace 1 runs worker.TRACE_ROUNDS
rounds twice, untraced and traced, and prints the per-layer metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is
nonzero when any verdict is wrong.  Results, with the environment they were
measured in, go to perfbench/results/.  See perfbench/README.md for the rationale.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

from tracer import POLY_OPS, RATFUN_OPS  # noqa: E402
from worker import TRACE_ROUNDS  # noqa: E402

WORKLOADS = ("confluence", "identities", "cli")
# fresh interpreters whose set-up time is measured besides the timed one
SETUP_REPEATS = 8
# A run must end within 180 s, and at the parent commit one takes 25-45 s.
# No job starts later than JOB_DEADLINE_S after the run began (the untraced
# twin of a traced run gets a third of that), so a program several times
# slower is measured on the jobs it got through, not killed.  A worker still
# alive KILL_S after the start is killed and the run fails.
JOB_DEADLINE_S = 120
KILL_S = 170

# Per-layer counts that must be nonzero (True) or zero (False) on each
# workload: a count that breaks the pattern means a call path the tracer
# does not see, or a workload that no longer reaches a layer.
COUNT_PATTERN = {
    "ratfield.ratfun_ops": (True, True, True),
    "ratfield.ratfun_new": (True, True, True),
    "ratfield.poly_ops": (True, True, True),
    "ratfield.divisibility_tests": (True, True, True),
    "ratfield.divisions": (True, True, True),
    "ratfield.partial_fractions_calls": (False, False, True),
    "rmatrix.component_calls": (True, True, True),
    "diffring.normal_form_calls": (True, False, True),
    "diffring.multiply_calls": (False, False, True),
    "diffring.module_form_calls": (False, False, True),
    "diffring.terms_out": (True, False, True),
    "multicopy.mixed_normal_form_calls": (True, False, False),
    "potential.calls": (True, False, True),
    "central.calls": (False, False, True),
    "lowestweight.act_calls": (False, False, True),
    "expressions.calls": (False, False, True),
    "cli.calls": (False, False, True),
}


class BenchError(RuntimeError):
    pass


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "git_sha": sha,
            "nproc": os.cpu_count(), "cpu_model": cpu, "seed": seed,
            "platform": platform.platform()}


def run_worker(workload, seed, scratch, mode, started, deadline_s=None):
    """Run worker.py in `mode`; `started` is the time.monotonic() at which
    the run began, and no job starts after `started + deadline_s`."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--scratch", scratch, "--mode", mode]
    if deadline_s is not None:
        argv += ["--deadline", repr(started + deadline_s)]
    spawned = time.monotonic()
    timeout = max(started + KILL_S - spawned, 1.0)
    try:
        proc = subprocess.run(argv + ["--spawned", repr(spawned)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} worker still running {KILL_S} s after "
                         f"the run began") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker failed (exit {proc.returncode}):\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


def tail_index(count):
    """Index, in ascending order, of the highest percentile that still has
    at least ten jobs beyond it."""
    return max(count - 11, 0)


def end_to_end(main, setups):
    """Times are in reference seconds (see worker.yardstick); the wall-clock
    figures go alongside into the results file."""
    lat = sorted(main["ref_latencies_s"])
    good = sum(main["verdicts"])
    k = tail_index(len(lat))
    return {
        "verdicts_per_s": (good / sum(lat), "1/s"),
        "verdict_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "verdict_tail_ms": (lat[k] * 1e3, "ms"),
        "setup_s": (statistics.median(s["setup_ref_s"] for s in setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }, {
        "jobs": len(lat), "tail_rank": k + 1,
        "tail_percentile": 100.0 * (k + 1) / len(lat),
        "error_frac": (len(lat) - good) / len(lat),
        "wall_verdicts_per_s": good / main["wall_s"],
        "wall_verdict_p50_ms": statistics.median(main["latencies_s"]) * 1e3,
        "wall_verdict_tail_ms": sorted(main["latencies_s"])[k] * 1e3,
        "wall_setup_s": statistics.median(s["setup_s"] for s in setups),
    }


def overhead(traced, untraced):
    """Reference time of the traced jobs minus that of the same jobs run
    untraced (the jobs both runs got through before their deadlines)."""
    k = min(len(traced["ref_latencies_s"]), len(untraced["ref_latencies_s"]))
    return (sum(traced["ref_latencies_s"][:k])
            - sum(untraced["ref_latencies_s"][:k]))


def per_layer(traced, untraced):
    """Per-layer metrics from the traced run, the counts COUNT_PATTERN
    checks, and the bases of the two ratios."""
    pn = traced["per_name"]

    def calls(*names):
        return sum(pn.get(n, (0, 0))[0] for n in names)

    def self_s(*names):
        return sum(pn.get(n, (0, 0))[1] for n in names)

    def layer(module, col):
        return sum(v[col] for k, v in pn.items()
                   if k.startswith(module + ".") and ">" not in k)

    ratfun_ops = [f"ratfield.RatFun.{m}" for m in RATFUN_OPS]
    new = "ratfield.RatFun.__init__"
    poly_ops = [f"ratfield.Poly.{m}" for m in POLY_OPS]
    test = "ratfield.Poly.subst_var_linear"
    div = "ratfield.Poly.div_linfactor"
    # the divisibility test and the division that RatFun._cancel makes on
    # every construction; both are called elsewhere too (factoring,
    # substitution), which these counts leave out
    n_tests, n_divs = calls(f"{new}>{test}"), calls(f"{new}>{div}")
    hits, misses = traced["rmatrix_cache"]
    metrics = {
        "ratfield.ratfun_ops": (calls(*ratfun_ops), "count"),
        "ratfield.ratfun_self_s": (self_s(*ratfun_ops, new), "s"),
        "ratfield.ratfun_new": (calls(new), "count"),
        "ratfield.poly_ops": (calls(*poly_ops), "count"),
        "ratfield.poly_self_s": (self_s(*poly_ops, test, div), "s"),
        "ratfield.divisibility_tests": (n_tests, "count"),
        "ratfield.divisions": (n_divs, "count"),
        "ratfield.division_hit_ratio":
            (n_divs / n_tests if n_tests else 0.0, "ratio"),
        "ratfield.partial_fractions_self_s":
            (self_s("ratfield.partial_fractions"), "s"),
        "rmatrix.component_calls":
            (calls("rmatrix.r_component", "rmatrix.psi_component"), "count"),
        "rmatrix.self_s": (layer("rmatrix", 1), "s"),
        "rmatrix.cache_hit_ratio":
            (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "diffring.normal_form_calls": (calls("diffring.normal_form"), "count"),
        "diffring.normal_form_self_s": (self_s("diffring.normal_form"), "s"),
        "diffring.multiply_calls": (calls("diffring.multiply"), "count"),
        "diffring.module_form_calls": (calls("diffring.module_form"), "count"),
        "diffring.module_form_self_s": (self_s("diffring.module_form"), "s"),
        "diffring.terms_out": (traced["terms_out"], "count"),
        "multicopy.mixed_normal_form_calls":
            (calls("multicopy.mixed_normal_form"), "count"),
        "multicopy.self_s": (layer("multicopy", 1), "s"),
        "potential.calls": (layer("potential", 0), "count"),
        "potential.self_s": (layer("potential", 1), "s"),
        "central.self_s": (layer("central", 1), "s"),
        "lowestweight.act_calls": (calls("lowestweight.act"), "count"),
        "lowestweight.self_s": (layer("lowestweight", 1), "s"),
        "expressions.self_s": (layer("expressions", 1), "s"),
        "cli.self_s": (layer("cli", 1), "s"),
        "trace.overhead_s": (overhead(traced, untraced), "s"),
    }
    counts = {name: metrics[name][0] for name in COUNT_PATTERN
              if name in metrics}
    counts["ratfield.partial_fractions_calls"] = calls("ratfield.partial_fractions")
    for module in ("central", "expressions", "cli"):
        counts[f"{module}.calls"] = layer(module, 0)
    return metrics, counts, {"division_base": n_tests,
                             "cache_lookups": hits + misses}


def pattern_violations(workload, counts, complete):
    """A run stopped at its deadline may not have reached every layer, so
    then only the counts that must be zero are checked."""
    col = WORKLOADS.index(workload)
    bad = []
    for name, expect in COUNT_PATTERN.items():
        if not complete and expect[col]:
            continue
        if bool(counts[name]) != expect[col]:
            bad.append(f"{name} = {counts[name]}, expected "
                       f"{'nonzero' if expect[col] else 'zero'}")
    return bad


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def stopped_early(run):
    done = len(run["verdicts"])
    if done == 0:
        raise BenchError("the deadline passed before the first job")
    return done < run["jobs"]


def measure(workload, seed, trace):
    """Run one workload, print its metrics, write its results file, and
    return the object for the JSON line."""
    started = time.monotonic()
    scratch = os.path.join(RESULTS, f"{workload}-seed{seed}")
    os.makedirs(scratch, exist_ok=True)
    record = {"workload": workload, "environment": environment(seed),
              "trace": trace}
    if not trace:
        setups = [run_worker(workload, seed, scratch, "setup", started)
                  for _ in range(SETUP_REPEATS)]
        main = run_worker(workload, seed, scratch, "main", started,
                          JOB_DEADLINE_S)
        setups.append(main)
        metrics, info = end_to_end(main, setups)
        runs = [main]
        print(f"{workload} seed={seed}: {info['jobs']} jobs in "
              f"{main['wall_s']:.1f} s, closed loop, one caller; times in "
              f"reference seconds (wall clock in brackets)")
        if stopped_early(main):
            print(f"  stopped at the job deadline ({JOB_DEADLINE_S} s) after "
                  f"{info['jobs']} of {main['jobs']} jobs")
        for name, (value, unit) in metrics.items():
            wall = info.get(f"wall_{name}")
            extra = "" if wall is None else f" [{fmt(wall)}]"
            if name == "verdict_tail_ms":
                extra += (f"  (p{info['tail_percentile']:.1f}: rank "
                         f"{info['tail_rank']} of {info['jobs']} jobs, "
                         f"{info['jobs'] - info['tail_rank']} beyond)")
            elif name == "setup_s":
                extra += f"  (median of {len(setups)} fresh interpreters)"
            print(f"  {name:<18} {fmt(value)} {unit}{extra}")
        print(f"  {'error_frac':<18} {fmt(info['error_frac'])} fraction"
              f"  ({info['jobs'] - sum(main['verdicts'])} of {info['jobs']} jobs)")
        record["wall_clock"] = {k: v for k, v in info.items()
                                if k.startswith("wall_")}
        violations = []
    else:
        untraced = run_worker(workload, seed, scratch, "untraced", started,
                              JOB_DEADLINE_S / 3)
        traced = run_worker(workload, seed, scratch, "traced", started,
                            JOB_DEADLINE_S)
        complete = not (stopped_early(untraced) or stopped_early(traced))
        metrics, counts, info = per_layer(traced, untraced)
        violations = pattern_violations(workload, counts, complete)
        runs = [untraced, traced]
        print(f"{workload} seed={seed} traced: {len(traced['verdicts'])} of "
              f"{traced['jobs']} jobs in {TRACE_ROUNDS[workload]} round(s), "
              f"{traced['spans']} spans -> {traced['spans_file']}")
        if not complete:
            print("  stopped at the job deadline: counts cover the jobs run, "
                  "and only the counts that must be zero are checked")
        for name, (value, unit) in metrics.items():
            extra = ""
            if name == "ratfield.division_hit_ratio":
                extra = f"  (base: {info['division_base']} divisibility tests)"
            elif name == "rmatrix.cache_hit_ratio":
                extra = f"  (base: {info['cache_lookups']} cached lookups)"
            print(f"  {name:<36} {fmt(value)} {unit}{extra}")
        for v in violations:
            print(f"  layer pattern broken: {v}")
        record["counts"] = counts
    attempted = sum(len(r["verdicts"]) for r in runs)
    failed = sum(len(r["verdicts"]) - sum(r["verdicts"]) for r in runs)
    for r in runs:
        for err in r["errors"]:
            print(f"  wrong verdict: {err}", file=sys.stderr)
    result = {"correct": failed == 0 and not violations,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record.update(result)
    record["runs"] = runs
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="accepted and ignored: the run length is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hdcalc", "__init__.py")):
        print(f"no hdcalc sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for w in workloads:
            results[w] = measure(w, args.seed, bool(args.trace))
    except BenchError as e:
        print(str(e), file=sys.stderr)
        return 2
    if args.workload:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
