"""Batch analysis driver, per-stage timing, and report emission.

Timing mirrors the classic read-and-parse baseline methodology: the parse
pass over the raw corpus is the baseline, every analysis stage is measured
separately on pre-parsed input, and the report shows cumulative totals with
their percentage overhead relative to the baseline.  The timing loop repeats
a configurable number of times and averages; with timing disabled the report
is byte-stable across runs.
"""

from __future__ import annotations

import json
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .corpus import CorpusEntry
from .errors import SparqlSatError
from .evaluator import format_graph
from .normalize import DEFAULT_DNF_CAP, normalize_filters
from .patterns import Pattern
from .rewrites import af_reduce, select_eliminate, union_free_split, wrong_literal_reduce
from .satisfiability import PipelineResult, Satisfiable, Unsatisfiable, run_pipeline
from .schemes import candidate_schemes, pruned_schemes
from .syntax import parse_pattern
from .terms import format_term
from .welldesigned import derive_sort_map, extract_constraints, is_well_designed
from .constraints import consistent

SCHEMA_VERSION = 1
STAGES = ("parse", "wrong_literal", "schemes", "well_designed")


@dataclass(frozen=True)
class PipelineOptions:
    builtins_as_bound: bool = False
    dnf_cap: int = DEFAULT_DNF_CAP
    repeats: int = 5
    parallel: int = 1
    size_buckets: tuple = ()

    @property
    def timing(self) -> bool:
        return self.repeats > 0


@dataclass
class EntryRecord:
    entry_id: int
    status: str
    verdict: dict | None = None
    kinds: list | None = None
    route: str | None = None
    well_designed: bool | None = None
    wrong_literal_modified: bool | None = None
    stage_ns: dict | None = None
    error: str | None = None


@dataclass
class ScalingResult:
    sizes: list
    total_ms: list
    pearson: float


@dataclass
class AnalysisReport:
    total: int
    counts: dict
    entries: list
    stage_totals_ms: dict | None = None
    overhead_pct: dict | None = None
    scaling: ScalingResult | None = None


def verdict_to_json(verdict) -> dict:
    if isinstance(verdict, Satisfiable):
        return {
            "status": "satisfiable",
            "witness": sorted(str(t) for t in verdict.witness),
            "sample": {str(v): format_term(t) for v, t in verdict.sample.items()},
        }
    if isinstance(verdict, Unsatisfiable):
        return {"status": "unsatisfiable", "reason": verdict.reason.value}
    return {"status": "unknown", "reason": verdict.reason}


def _analyze_one(entry: CorpusEntry, options: PipelineOptions) -> EntryRecord:
    if entry.status != "ok":
        return EntryRecord(entry.entry_id, entry.status, error=entry.error)
    try:
        result: PipelineResult = run_pipeline(
            entry.pattern,
            builtins_as_bound=options.builtins_as_bound,
            dnf_cap=options.dnf_cap,
        )
    except Exception as exc:  # analysis must never abort the batch
        reason = f"{type(exc).__name__}: {exc}"
        if not isinstance(exc, (SparqlSatError, RecursionError)):
            reason = f"internal-error: {reason}"
        return EntryRecord(entry.entry_id, "ok", verdict={"status": "unknown", "reason": reason})
    profile = result.profile
    return EntryRecord(
        entry.entry_id,
        "ok",
        verdict=verdict_to_json(result.verdict),
        kinds=sorted(k.value for k in profile.kinds) if profile else None,
        route=profile.route.value if profile else None,
        well_designed=result.well_designed,
        wrong_literal_modified=result.wrong_literal_modified,
    )


def _prepare_for_timing(entry: CorpusEntry, options: PipelineOptions):
    """Pre-compute the stage inputs so each stage can be timed in isolation."""
    try:
        core = normalize_filters(
            select_eliminate(entry.pattern),
            builtins_as_bound=options.builtins_as_bound,
            dnf_cap=options.dnf_cap,
        )
    except SparqlSatError:
        return None
    reduced = wrong_literal_reduce(core)
    return (core, reduced)


def _stage_wrong_literal(core: Pattern):
    wrong_literal_reduce(core)


def _stage_schemes(reduced: Pattern):
    pruned_schemes(reduced)


def _stage_well_designed(reduced: Pattern):
    for member in union_free_split(reduced):
        if not member.union_free:
            continue
        ok, _ = is_well_designed(member.pattern)
        if not ok:
            continue
        core = af_reduce(member.pattern)
        if candidate_schemes(core):
            consistent(extract_constraints(core), derive_sort_map(core))


def analyze_batch(entries: list, options: PipelineOptions | None = None) -> AnalysisReport:
    """Run the decision pipeline over a corpus and assemble the report."""
    options = options or PipelineOptions()

    if options.parallel > 1 and not options.timing:
        with ThreadPoolExecutor(max_workers=options.parallel) as pool:
            records = list(pool.map(lambda e: _analyze_one(e, options), entries))
    else:
        records = [_analyze_one(entry, options) for entry in entries]

    counts = {"satisfiable": 0, "unsatisfiable": 0, "unknown": 0, "syntax-error": 0, "unsupported": 0}
    for record in records:
        if record.status != "ok":
            counts[record.status] += 1
        else:
            counts[record.verdict["status"]] += 1

    stage_totals = None
    overheads = None
    if options.timing:
        stage_totals = _run_timing(entries, records, options)
        baseline = stage_totals["parse"]
        if baseline > 0:
            overheads = {
                "wrong_literal": 100.0 * stage_totals["wrong_literal"] / baseline,
                "schemes": 100.0 * (stage_totals["wrong_literal"] + stage_totals["schemes"]) / baseline,
                "well_designed": 100.0 * stage_totals["well_designed"] / baseline,
            }

    scaling = None
    if options.size_buckets:
        scaling = _run_scaling(entries, options)

    return AnalysisReport(
        total=len(entries),
        counts=counts,
        entries=records,
        stage_totals_ms=stage_totals,
        overhead_pct=overheads,
        scaling=scaling,
    )


def _run_timing(entries: list, records: list, options: PipelineOptions) -> dict:
    prepared = []
    for entry, record in zip(entries, records):
        prepared.append(_prepare_for_timing(entry, options) if entry.status == "ok" else None)

    per_entry = {stage: [0.0] * len(entries) for stage in STAGES}
    totals = {stage: 0.0 for stage in STAGES}

    for _ in range(options.repeats):
        for index, entry in enumerate(entries):
            start = time.perf_counter_ns()
            try:
                parse_pattern(entry.raw_text)
            except SparqlSatError:
                pass
            per_entry["parse"][index] += time.perf_counter_ns() - start
        for index, ready in enumerate(prepared):
            if ready is None:
                continue
            core, reduced = ready
            start = time.perf_counter_ns()
            _stage_wrong_literal(core)
            per_entry["wrong_literal"][index] += time.perf_counter_ns() - start
            if reduced is None:
                continue
            start = time.perf_counter_ns()
            _stage_schemes(reduced)
            per_entry["schemes"][index] += time.perf_counter_ns() - start
            start = time.perf_counter_ns()
            _stage_well_designed(reduced)
            per_entry["well_designed"][index] += time.perf_counter_ns() - start

    for stage in STAGES:
        for index, record in enumerate(records):
            mean_ns = per_entry[stage][index] / options.repeats
            if record.stage_ns is None:
                record.stage_ns = {}
            record.stage_ns[stage] = mean_ns
        totals[stage] = sum(per_entry[stage]) / options.repeats / 1e6  # ms
    return totals


def full_pipeline_pass(raw_texts: list, options: PipelineOptions) -> int:
    """Parse and analyze every query once; returns how many analyzed OK."""
    analyzed = 0
    for raw in raw_texts:
        try:
            pattern = parse_pattern(raw)
        except SparqlSatError:
            continue
        try:
            run_pipeline(
                pattern,
                builtins_as_bound=options.builtins_as_bound,
                dnf_cap=options.dnf_cap,
            )
            analyzed += 1
        except (SparqlSatError, RecursionError):
            continue
    return analyzed


def measure_scaling(raw_texts: list, sizes, options: PipelineOptions | None = None) -> ScalingResult:
    """Time the full parse-and-analyze pipeline over growing corpus prefixes."""
    options = options or PipelineOptions()
    sizes = sorted(sizes)
    if not sizes or sizes[-1] > len(raw_texts):
        raise ValueError(f"size buckets {sizes} do not fit a corpus of {len(raw_texts)}")
    totals = []
    repeats = max(1, options.repeats)
    for size in sizes:
        elapsed = []
        for _ in range(repeats):
            start = time.perf_counter()
            full_pipeline_pass(raw_texts[:size], options)
            elapsed.append((time.perf_counter() - start) * 1000.0)
        totals.append(statistics.fmean(elapsed))
    return ScalingResult(list(sizes), totals, pearson(sizes, totals))


def _run_scaling(entries: list, options: PipelineOptions) -> ScalingResult:
    return measure_scaling([entry.raw_text for entry in entries], options.size_buckets, options)


def pearson(xs, ys) -> float:
    return statistics.correlation(list(map(float, xs)), list(map(float, ys)))


# --- emission -----------------------------------------------------------------------

def report_to_dict(report: AnalysisReport) -> dict:
    out = {
        "schema": SCHEMA_VERSION,
        "total": report.total,
        "counts": report.counts,
        "stage_totals_ms": report.stage_totals_ms,
        "overhead_pct": report.overhead_pct,
        "scaling": None,
        "entries": [],
    }
    if report.scaling:
        out["scaling"] = {
            "sizes": report.scaling.sizes,
            "total_ms": report.scaling.total_ms,
            "pearson": report.scaling.pearson,
        }
    for record in report.entries:
        entry = {
            "id": record.entry_id,
            "status": record.status,
            "verdict": record.verdict,
            "kinds": record.kinds,
            "route": record.route,
            "well_designed": record.well_designed,
            "wrong_literal_modified": record.wrong_literal_modified,
            "stage_ns": record.stage_ns,
            "error": record.error,
        }
        out["entries"].append(entry)
    return out


def emit_report(report: AnalysisReport, mode: str = "json") -> str:
    if mode == "json":
        return json.dumps(report_to_dict(report), indent=2)
    if mode == "table":
        return _emit_table(report)
    raise ValueError(f"unknown report mode: {mode!r}")


def _emit_table(report: AnalysisReport) -> str:
    lines = []
    lines.append(f"queries: {report.total}")
    lines.append(
        "verdicts: "
        + "  ".join(f"{key}={value}" for key, value in report.counts.items())
    )
    if report.stage_totals_ms is not None:
        base = report.stage_totals_ms["parse"]
        wl = base + report.stage_totals_ms["wrong_literal"]
        schemes = wl + report.stage_totals_ms["schemes"]
        wd = base + report.stage_totals_ms["well_designed"]

        def pct(value: float) -> str:
            return "n/a" if base == 0 else f"{100.0 * (value - base) / base:.0f}%"

        lines.append("")
        lines.append(f"{'baseline':>12} {'WL':>12} {'':>5} {'schemes':>12} {'':>5} {'AF':>12} {'':>5}")
        lines.append(
            f"{base:12.1f} {wl:12.1f} {pct(wl):>5} {schemes:12.1f} {pct(schemes):>5} "
            f"{wd:12.1f} {pct(wd):>5}"
        )
        lines.append("(cumulative milliseconds; percentages relative to the parse baseline)")
    if report.scaling:
        lines.append("")
        lines.append("scaling: " + "  ".join(
            f"{size}->{total:.0f}ms" for size, total in zip(report.scaling.sizes, report.scaling.total_ms)
        ))
        lines.append(f"pearson: {report.scaling.pearson:.6f}")
    return "\n".join(lines)


def format_verdict_text(verdict) -> str:
    """Human-oriented single verdict for the `check` command."""
    if isinstance(verdict, Satisfiable):
        graph_text = format_graph(verdict.witness)
        sample = ", ".join(f"{v} -> {format_term(t)}" for v, t in verdict.sample.items())
        return f"satisfiable\nsample solution: {{{sample}}}\nwitness graph:\n{graph_text}"
    if isinstance(verdict, Unsatisfiable):
        return f"unsatisfiable ({verdict.reason.value})"
    return f"unknown ({verdict.reason})"
