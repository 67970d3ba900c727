"""Checks of the benchmark itself.

    python3 perfbench/selftest.py [--workload W] [--seed N]

1. Count determinism: two traced runs of one seed give identical per-layer
   counts (every span name and caller/callee pair), identical
   diffring.terms_out and identical rmatrix cache lookups.
2. Workload shape: two seeds give, round by round, the same jobs (kind, n
   and the denominator factor count of every sigma entry), and numerator
   term counts whose totals differ by at most 10%: seeded coefficients
   sometimes cancel a term.

Exits nonzero on any difference.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

from run import RESULTS, WORKLOADS, run_worker
from worker import ROUNDS, generate, import_hdcalc


def counts(result):
    out = {name: row[0] for name, row in result["per_name"].items()}
    out["diffring.terms_out"] = result["terms_out"]
    out["rmatrix.cache_lookups"] = result["rmatrix_cache"]
    return out


def check_counts(workload, seed):
    scratch = os.path.join(RESULTS, f"selftest-{workload}-seed{seed}")
    os.makedirs(scratch, exist_ok=True)
    a, b = (counts(run_worker(workload, seed, scratch, "traced",
                              time.monotonic())) for _ in range(2))
    diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for k in diff[:10]:
        print(f"  {workload}: {k} differs: {a.get(k)} vs {b.get(k)}")
    print(f"{workload}: {len(a)} counts over two traced runs of seed {seed}: "
          f"{'identical' if not diff else f'{len(diff)} differ'}")
    return not diff


def shape(workload, seed, scratch):
    """Per round the sorted (kind, n, factor counts), and the total number
    of numerator terms over all sigma entries."""
    rounds, terms = [], 0
    for rnd in generate(workload, seed, ROUNDS[workload], scratch):
        recs = [job.record() for job in rnd]
        rounds.append(sorted((r["kind"], r["n"], [f for _, f in r["sigma"]])
                             for r in recs))
        terms += sum(t for r in recs for t, _ in r["sigma"])
    return rounds, terms


def check_shape(workload, seed):
    with tempfile.TemporaryDirectory(dir=RESULTS) as scratch:
        (ra, ta), (rb, tb) = (shape(workload, s, scratch)
                              for s in (seed, seed + 1))
    same = ra == rb and abs(ta - tb) <= 0.1 * max(ta, tb, 1)
    print(f"{workload}: shape of {sum(map(len, ra))} jobs, seeds {seed} and "
          f"{seed + 1}: {'same' if same else 'different'} "
          f"(numerator terms {ta} vs {tb})")
    return same


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    os.makedirs(RESULTS, exist_ok=True)
    import_hdcalc()
    ok = True
    for w in [args.workload] if args.workload else WORKLOADS:
        ok = check_shape(w, args.seed) and ok
        ok = check_counts(w, args.seed) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
