"""One workload process: import hdcalc from the checkout, generate the seeded
jobs, run them closed-loop (one caller, each job sent after the previous one
returned), then check every verdict.  Prints one JSON object.

Run by run.py in a fresh interpreter per measurement.  The module-level
lru_caches of rmatrix are cleared once the inputs are generated, so the jobs
start with them empty, as a command-line user does.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Rounds in a run.  Fixed, so every commit runs the same jobs and the tail
# percentile (the eleventh slowest job) stays at the same rank: inside the
# tier of the n=3 verify_pbw jobs, of the second verify_dybe(3), and of the
# ~1 s commands (verify, n=3 check-pbw and lw-character).  At the parent
# commit a run's jobs take 20-35 s.
ROUNDS = {"confluence": 7, "identities": 5, "cli": 3}
# rounds of the traced run and of its untraced twin
TRACE_ROUNDS = {"confluence": 2, "identities": 1, "cli": 1}
# main: ROUNDS; setup: set up and exit; untraced/traced: TRACE_ROUNDS
MODES = ("main", "setup", "untraced", "traced")


# The yardstick: a fixed sparse product of polynomials with Fraction
# coefficients, the kind of work hdcalc's inner loops do, written here so
# that no change to hdcalc changes it.  The CPU speed of the machine this
# benchmark was written on drifts by up to 1.6x over seconds to minutes, and
# the drift moves the yardstick and hdcalc together, so job times are
# scaled by the yardstick's time (see SpeedProbe).
def _yardstick_poly():
    rng = random.Random(0)
    return {(rng.randrange(5), rng.randrange(5), rng.randrange(4)):
            Fraction(rng.randint(1, 9), rng.randint(1, 7)) for _ in range(32)}


YARDSTICK_POLY = _yardstick_poly()
# about the yardstick's time on the machine the benchmark was written on, so
# that reference seconds are close to wall seconds there
YARDSTICK_REF_S = 0.007
PROBE_INTERVAL_S = 0.2


def yardstick():
    """Wall time of two fixed sparse polynomial products, without garbage
    collection pauses, which are not machine speed."""
    gc.disable()
    t = time.perf_counter()
    for _ in range(2):
        out = {}
        for e1, c1 in YARDSTICK_POLY.items():
            for e2, c2 in YARDSTICK_POLY.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
    dt = time.perf_counter() - t
    gc.enable()
    return dt


class SpeedProbe:
    """Yardstick samples taken between jobs and, from a SIGALRM handler,
    every PROBE_INTERVAL_S during them, so a long job is scaled by the speed
    it actually ran at.  The time the handler takes is not job time; in a
    traced run `on_interrupt` gets it, so that no span's self time holds it.
    A job's speed is the mean of the samples during it, the one right after
    it, and the last three before it; for a job of a few milliseconds the
    earlier ones halve the noise of a single sample."""

    def __init__(self, on_interrupt=None):
        self.on_interrupt = on_interrupt
        self.samples = []
        self.spent = 0.0

    def sample(self):
        t = time.perf_counter()
        self.samples.append(yardstick())
        self.spent += time.perf_counter() - t

    def _interrupt(self, signum, frame):
        spent = self.spent
        self.sample()
        if self.on_interrupt is not None:
            self.on_interrupt(self.spent - spent)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._interrupt)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, call):
        """(output or None, traceback or None, wall s, reference s).

        Every job starts after a full collection, so the collections during
        it follow from its own allocations, as in a fresh process, and not
        from what earlier jobs left behind."""
        gc.collect()
        self.sample()
        first, spent = max(len(self.samples) - 3, 0), self.spent
        t = time.perf_counter()
        try:
            out, problem = call(), None
        except Exception:
            out, problem = None, traceback.format_exc(limit=3)
        dt = time.perf_counter() - t - (self.spent - spent)
        self.sample()
        speed = statistics.fmean(self.samples[first:])
        return out, problem, dt, dt * YARDSTICK_REF_S / speed


def import_hdcalc():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import hdcalc
    if not os.path.abspath(hdcalc.__file__).startswith(src + os.sep):
        raise ImportError(f"hdcalc resolved outside {src}: {hdcalc.__file__}")
    sys.path.insert(0, HERE)


def rmatrix_cached():
    """The lru_cache'd functions of rmatrix; taken before the tracer wraps
    them, as the wrappers have no cache_info."""
    from hdcalc import rmatrix
    return [obj for obj in vars(rmatrix).values() if hasattr(obj, "cache_info")]


def generate(workload, seed, rounds, scratch):
    """The first `rounds` rounds of the seeded job stream, as lists."""
    import workloads
    make = {"confluence": workloads.confluence_round,
            "identities": workloads.identities_round,
            "cli": lambda rng, r: workloads.cli_round(rng, r, scratch)}[workload]
    rng = random.Random(seed)
    return [make(rng, r) for r in range(rounds)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=MODES, required=True)
    ap.add_argument("--deadline", type=float,
                    help="time.monotonic() after which no further job starts")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--scratch", required=True)
    args = ap.parse_args()

    import_hdcalc()
    rounds = (ROUNDS if args.mode in ("main", "setup")
              else TRACE_ROUNDS)[args.workload]
    jobs = [job for rnd in generate(args.workload, args.seed, rounds,
                                    args.scratch) for job in rnd]
    setup_s = time.monotonic() - args.spawned
    scale = YARDSTICK_REF_S / statistics.median(yardstick() for _ in range(3))
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_s * scale}))
        return 0

    cached = rmatrix_cached()
    # generating the inputs filled them; a command-line user starts empty
    for fn in cached:
        fn.cache_clear()
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    # Verdicts are checked after the loop: checks call hdcalc too, and
    # between jobs they would fill the rmatrix caches for later jobs and be
    # counted in the traced run.  Outputs are small reports and strings.
    outputs, latencies, ref_latencies = [], [], []
    with SpeedProbe(None if tracer is None else tracer.exclude) as probe:
        for k, job in enumerate(jobs):
            if args.deadline is not None and time.monotonic() > args.deadline:
                break
            if tracer is not None:
                tracer.job = k
            out, problem, dt, ref = probe.timed(job.call)
            outputs.append((out, problem))
            latencies.append(dt)
            ref_latencies.append(ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    hits = sum(fn.cache_info().hits for fn in cached)
    misses = sum(fn.cache_info().misses for fn in cached)

    verdicts, errors = [], []
    for job, (out, problem) in zip(jobs, outputs):
        if problem is None:
            try:
                if not job.check(out):
                    problem = "wrong verdict"
            except Exception:
                problem = "check raised\n" + traceback.format_exc(limit=3)
        verdicts.append(problem is None)
        if problem is not None:
            errors.append(f"{job.kind} n={job.n}: {problem}")

    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_s * scale,
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "ref_latencies_s": ref_latencies,
        "jobs": len(jobs),
        "kinds": [job.kind for job in jobs[:len(outputs)]],
        "verdicts": verdicts,
        "errors": errors[:20],
        "peak_rss_mb": peak_rss_mb,
        "rmatrix_cache": [hits, misses],
        "shape": [j.record() for j in jobs],
    }
    if tracer is not None:
        result["per_name"] = tracer.per_name(
            [r / w for r, w in zip(ref_latencies, latencies)])
        result["terms_out"] = tracer.terms_out
        result["spans"] = len(tracer)
        spans_path = os.path.join(args.scratch, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        tracer.write(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
