"""Self-test of the benchmark at tiny sizes; takes a few seconds.

    python3 bench/selftest.py

Checks, for every workload, that every metric BENCHMARK.json names is
computed with the unit it states, that traced and untraced rounds render
identical outcomes (the run flags any difference as a wrong verdict), that
the correctness gate passes, that a depth probe is counted as a failure and
not dropped, and that the benchmark refuses to run without the package
source.  Exits with status 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT
run.import_package()

import layertrace  # noqa: E402  (needs the package on the path)
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, workdir: str):
    if name == "corpus-777":
        return workloads.Corpus777(3, workdir, size=40)
    if name == "wide-shapes":
        ladder = [(key, text) for key, text in workloads.LADDER if key in ("optional-nest-28", "bgp-50", "union-8", "bound-or-8")]
        return workloads.WideShapes(3, workdir, ladder=ladder, probes=("bgp-350",))
    return workloads.Verify(3, workdir, patterns=40, sizes=(3,))


def expect(condition: bool, message: str):
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)


def check_units(computed: dict, units, listed: list, what: str):
    for metric in listed:
        name = metric["name"]
        expect(name in computed, f"{what}: {name} is not computed")
        expect(units(name) == metric["unit"], f"{what}: {name} unit {units(name)!r} != {metric['unit']!r}")


def check_workload(name: str, workdir: Path):
    untraced = run.Run(tiny(name, str(workdir)), 3)
    for _ in range(3):
        untraced.one_round()
    traced = run.Run(tiny(name, str(workdir)), 3, layertrace.Tracer)
    for _ in range(6):
        traced.one_round()
    for each in (untraced, traced):
        expect(not each.errors, f"{name}: {each.errors[:3]}")
    expect(untraced.signatures == traced.signatures, f"{name}: traced and untraced outcomes differ")
    ok = [c for c in traced.workload.cases if not c.probe]
    expect(all(traced.traced_times[c.key] for c in ok), f"{name}: a case never ran traced")

    e2e = run.end_to_end(untraced, 0.1)
    check_units(e2e, lambda n: run.E2E_UNITS[n], SPEC["end_to_end"], name)
    layers = run.per_layer(traced)
    check_units(layers, run.layer_units, SPEC["per_layer"], name)
    expect(set(layers) == {m["name"] for m in SPEC["per_layer"]}, f"{name}: per-layer metrics differ from BENCHMARK.json")
    values = (*e2e.values(), *layers.values())
    expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values), f"{name}: non-number metric")
    if name == "wide-shapes":
        expect(untraced.failures["RecursionError"] == 3, "wide-shapes: the depth probe is not counted as failed")
        expect(e2e["failed_frac"] > 0, "wide-shapes: failed_frac hides the depth probe")
    print(f"ok {name}: {len(untraced.workload.cases)} cases, outcomes equal traced and untraced")


def check_refuses_without_source(workdir: Path):
    bare = workdir / "bare"
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    expect(done.returncode != 0 and not done.stdout.strip(), "runs without the package source")
    print("ok refuses to run without the package source")


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    expect(sorted(names) == sorted(workloads.WORKLOADS), "BENCHMARK.json workloads differ from the benchmark's")
    workdir = ROOT / ".bench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        for name in names:
            check_workload(name, workdir)
        check_refuses_without_source(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print("selftest passed")


if __name__ == "__main__":
    main()
