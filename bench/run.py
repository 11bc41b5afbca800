"""Benchmark for the sparqlsat analyzer: one workload per run.

    python3 bench/run.py --workload corpus-777 --seed 1 --seconds 30 --trace 0

It imports the package from `src/` beside its own directory and exits with
status 2 if there is none.  It is a closed loop in one thread: each
operation starts when the previous one has returned.

The inputs are rebuilt a few times (set-up), then rounds run over every case
of the workload until `--seconds` have passed, at least three rounds and at
least MIN_SAMPLES timed operations.  The first round also runs the
correctness gate on every result, outside the timed region; later rounds
must render every outcome exactly as the first did.  Times are scaled to a
reference machine speed measured as the run goes (see calibrate.py).

With `--trace 0` the last line holds the end-to-end metrics.  With
`--trace 1` untraced and traced rounds alternate, and the last line holds
the per-layer metrics of the traced rounds and the tracing overhead.
Either way every metric is also printed on its own line, by name with its
unit, before that last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from calibrate import CAL_REF_NS, calibration_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Wall-clock limit on the measuring loop, whatever else is unmet.
HARD_LIMIT_S = 150.0
SETUP_REPEATS = 5
#: Operations between two calibrations, in seconds of wall time.
SEGMENT_S = 0.1
#: Timed operations a run needs at least, so ten lie beyond the p99.
MIN_SAMPLES = 1000
#: Depth probes run in the first rounds only: once the recursion limit no
#: longer stops them they may take seconds each.
PROBE_ROUNDS = 3

E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "shape_geomean_ms": "ms",
    "decided_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Printed with the end-to-end metrics; the result line carries them as
#: `failed` and `correct`.
E2E_PRINTED_ONLY = {"failed_frac": "ratio", "wrong_verdicts": "count"}


class OpTimeout(Exception):
    """The operation ran past its workload's cap."""


def _on_alarm(signum, frame):
    raise OpTimeout("operation exceeded its cap")


def import_package():
    if not (SRC / "sparqlsat" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'sparqlsat'}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import sparqlsat

    if Path(sparqlsat.__file__).resolve().parent != (SRC / "sparqlsat").resolve():
        print(f"error: imported sparqlsat from {sparqlsat.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


_IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from calibrate import CAL_REF_NS, calibration_ns
before = calibration_ns()
start = time.perf_counter()
import sparqlsat.cli
elapsed = time.perf_counter() - start
print(elapsed * CAL_REF_NS / ((before + calibration_ns()) / 2))
"""


def measure_setup(build):
    """Median package import time in a fresh interpreter plus median input
    build time, each scaled by the calibrations around it; returns the
    seconds and the last built workload."""
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(Path(__file__).parent)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        imports.append(float(done.stdout))
        before = calibration_ns()
        start = time.perf_counter()
        workload = build()
        elapsed = time.perf_counter() - start
        builds.append(elapsed * CAL_REF_NS / ((before + calibration_ns()) / 2))
    return statistics.median(imports) + statistics.median(builds), workload


class Run:
    """Rounds over a workload's cases, with the per-case bookkeeping.

    Operations are timed in segments of about SEGMENT_S with a calibration
    before and after each, and every time is kept scaled by CAL_REF_NS over
    the mean of the two (see calibrate.py).
    """

    def __init__(self, workload, seed: int, tracer_factory=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer_factory() if tracer_factory else None
        cases = workload.cases
        self.times = {case.key: [] for case in cases}  # scaled untraced ns per ok op
        self.traced_times = {case.key: [] for case in cases}
        self.samples = []  # scaled untraced ns of every ok non-probe op
        self.calibrations = []
        self.signatures = {}
        self.verdicts = {}
        self.failed_keys = set()
        self.failures = Counter()
        self.errors = []
        self.unchecked = 0
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.traced_rounds = 0

    def one_round(self):
        workload = self.workload
        traced = self.tracer is not None and self.rounds % 2 == 1
        first = self.rounds == 0
        cases = [c for c in workload.cases if not c.probe or self.rounds < PROBE_ROUNDS]
        random.Random(f"{self.seed}/{self.rounds}").shuffle(cases)
        gc.collect()
        if traced:
            self.tracer.install()
        try:
            before = self._calibrate()
            segment = []
            opened = time.perf_counter()
            for case in cases:
                elapsed = self._one_op(case, traced, first)
                if elapsed is not None:
                    segment.append((case, elapsed))
                if time.perf_counter() - opened >= SEGMENT_S:
                    before = self._close(segment, traced, before)
                    segment = []
                    opened = time.perf_counter()
            if segment:
                self._close(segment, traced, before)
        finally:
            if traced:
                self.tracer.uninstall()
        self.rounds += 1
        self.traced_rounds += traced

    def _calibrate(self) -> int:
        ns = calibration_ns()
        self.calibrations.append(ns)
        return ns

    def _close(self, segment: list, traced: bool, before: int) -> int:
        after = self._calibrate()
        scale = CAL_REF_NS / ((before + after) / 2)
        for case, elapsed in segment:
            scaled = elapsed * scale
            (self.traced_times if traced else self.times)[case.key].append(scaled)
            if not traced and not case.probe:
                self.samples.append(scaled)
        if traced:
            self.tracer.fold(scale)
        return after

    def _one_op(self, case, traced: bool, first: bool) -> int | None:
        """Runs one operation; returns its time in ns, or None if it failed."""
        workload = self.workload
        workload.prepare(case)
        self.attempted += 1
        if traced:
            self.tracer.begin_op()
        signal.setitimer(signal.ITIMER_REAL, workload.op_cap_s)
        try:
            start = time.perf_counter_ns()
            result = workload.op(case)
            elapsed = time.perf_counter_ns() - start
            ok = True
        except Exception as exc:  # every failure is counted, none aborts the run
            elapsed = time.perf_counter_ns() - start
            ok = False
            result = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if traced:
            self.tracer.end_op(elapsed, ok)
        if not ok:
            self.failed += 1
            self.failed_keys.add(case.key)
            self.failures[type(result).__name__] += 1
            return None
        signature = workload.signature(case, result)
        known = self.signatures.setdefault(case.key, signature)
        if known != signature:
            self.errors.append(f"{case.key}: outcome differs between rounds")
        if first:
            self.verdicts[case.key] = workload.verdict(case, result)
            rng = random.Random(f"{self.seed}/{case.key}")
            try:
                error = workload.check(case, result, rng)
            except Exception as exc:  # the reference itself could not run
                self.unchecked += 1
                print(f"unchecked {case.key}: {type(exc).__name__}", file=sys.stderr)
                error = None
            if error:
                self.errors.append(f"{case.key}: {error}")
        return elapsed

    def done(self, started: float, seconds: float) -> bool:
        elapsed = time.perf_counter() - started
        if elapsed >= HARD_LIMIT_S:
            return True
        if self.tracer is not None:
            return self.rounds >= 6 and elapsed >= seconds
        return (
            self.rounds >= 3
            and elapsed >= seconds
            and len(self.samples) >= MIN_SAMPLES
        )


# --- metrics -------------------------------------------------------------------------

def nearest_rank(sorted_values, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def case_medians(times: dict, cases) -> list:
    return [statistics.median(times[c.key]) for c in cases if not c.probe and times[c.key]]


def rate(medians_ns: list) -> float:
    """Cases per second over one pass, each case at its median time."""
    return len(medians_ns) / (sum(medians_ns) / 1e9)


def outcome_metrics(run: Run) -> dict:
    cases = run.workload.cases
    decisions = [
        run.verdicts[c.key] for c in cases
        if c.key not in run.failed_keys and run.verdicts.get(c.key) is not None
    ]
    decided = sum(1 for v in decisions if v in ("sat", "unsat"))
    return {
        "decided_frac": decided / len(decisions) if decisions else 1.0,
        "failed_frac": len(run.failed_keys) / len(cases),
        "wrong_verdicts": len(run.errors),
    }


def end_to_end(run: Run, setup_s: float) -> dict:
    medians = case_medians(run.times, run.workload.cases)
    samples = sorted(run.samples)
    out = {
        "ops_per_s": rate(medians),
        "latency_p50_us": nearest_rank(samples, 0.50) / 1e3,
        "latency_p99_us": nearest_rank(samples, 0.99) / 1e3,
        "shape_geomean_ms": math.exp(statistics.fmean(math.log(m / 1e6) for m in medians)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    out.update(outcome_metrics(run))
    return out


def per_layer(run: Run) -> dict:
    out = run.tracer.metrics()
    untraced = rate(case_medians(run.times, run.workload.cases))
    traced = rate(case_medians(run.traced_times, run.workload.cases))
    out["trace.ops_per_s"] = traced
    out["trace.overhead_pct"] = 100.0 * (untraced / traced - 1.0)
    return out


def layer_units(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name in ("normalize.growth", "evaluator.useful_ratio"):
        return "ratio"
    return "count"


# --- main --------------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: String hashes, and with them set order and hash collisions, are fixed
#: across runs; with a random hash seed per process they moved the
#: latency percentiles by several percent from run to run.
HASH_SEED = "0"


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    import_package()
    import layertrace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        kind = workloads.WORKLOADS[args.workload]
        setup_s, workload = measure_setup(lambda: kind(args.seed, str(workdir)))
        run = Run(workload, args.seed, layertrace.Tracer if args.trace else None)
        started = time.perf_counter()
        while not run.done(started, args.seconds):
            run.one_round()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = per_layer(run)
        units = {name: layer_units(name) for name in metrics}
        shown = dict(metrics)
    else:
        shown = end_to_end(run, setup_s)
        units = {**E2E_UNITS, **E2E_PRINTED_ONLY}
        metrics = {name: shown[name] for name in E2E_UNITS}

    print(
        f"workload {workload.name}  seed {args.seed}  rounds {run.rounds} ({run.traced_rounds} traced)  "
        f"cases {len(workload.cases)}  timed samples {len(run.samples)}  "
        f"ops {run.attempted} ({run.failed} failed: {dict(run.failures)})  unchecked {run.unchecked}  "
        f"verdicts {dict(Counter(v for v in run.verdicts.values() if v))}"
    )
    print(
        f"times scaled to a calibration loop of {CAL_REF_NS / 1e3:.0f} us; "
        f"it took {statistics.median(run.calibrations) / 1e3:.0f} us (median of {len(run.calibrations)})"
    )
    op_us = shown.get("trace.op_us")
    for name, value in shown.items():
        share = ""
        if op_us and name.endswith(".self_us"):
            share = f"  ({100.0 * value / op_us:.1f}% of op time)"
        print(f"  {name:<34} {value:14.4f} {units[name]}{share}")
    for error in run.errors[:20]:
        print(f"WRONG {error}")
    correct = not run.errors
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
