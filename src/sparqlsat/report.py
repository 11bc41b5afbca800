"""Batch analysis driver, per-stage timing, and report emission.

Timing follows the classic read-and-parse baseline methodology: each timing
round parses every raw query as the baseline, then runs the decision
pipeline on the entry with a sink for its stage spans, so the stages timed
are the stages of the real run.  The report averages the rounds and shows
cumulative totals with their percentage overhead relative to the baseline.
With timing disabled no clock is read and the report is byte-stable across
runs.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass

from .corpus import CorpusEntry
from .errors import SparqlSatError
from .evaluator import format_graph
from .patterns import Pattern
from .satisfiability import Satisfiable, Unsatisfiable, run_pipeline
from .syntax import parse_pattern
from .terms import format_term

SCHEMA_VERSION = 1
STAGES = ("parse", "wrong_literal", "schemes", "well_designed")


@dataclass(frozen=True)
class PipelineOptions:
    builtins_as_bound: bool = False
    repeats: int = 5
    size_buckets: tuple = ()


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


def _guarded_run(pattern: Pattern, options: PipelineOptions, stage_ns: dict | None = None):
    """`run_pipeline`'s result, or the exception it raised: one entry must
    never abort a batch or a scaling pass."""
    try:
        return run_pipeline(
            pattern, builtins_as_bound=options.builtins_as_bound, stage_ns=stage_ns
        )
    except Exception as exc:
        return exc


def _analyze_one(
    entry: CorpusEntry, options: PipelineOptions, stage_ns: dict | None = None
) -> EntryRecord:
    if entry.status != "ok":
        return EntryRecord(entry.entry_id, entry.status, error=entry.error)
    result = _guarded_run(entry.pattern, options, stage_ns)
    if isinstance(result, Exception):
        reason = f"{type(result).__name__}: {result}"
        if not isinstance(result, (SparqlSatError, RecursionError)):
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


def analyze_batch(entries: list, options: PipelineOptions | None = None) -> AnalysisReport:
    """Run the decision pipeline over a corpus and assemble the report."""
    options = options or PipelineOptions()

    stage_totals = None
    overheads = None
    if options.repeats > 0:
        records = _timed_rounds(entries, options)
        stage_totals = {
            stage: sum(record.stage_ns[stage] for record in records) / 1e6  # ms
            for stage in STAGES
        }
        baseline = stage_totals["parse"]
        if baseline > 0:
            overheads = {
                "wrong_literal": 100.0 * stage_totals["wrong_literal"] / baseline,
                "schemes": 100.0 * (stage_totals["wrong_literal"] + stage_totals["schemes"]) / baseline,
                "well_designed": 100.0 * stage_totals["well_designed"] / baseline,
            }
    else:
        records = [_analyze_one(entry, options) for entry in entries]

    counts = {"satisfiable": 0, "unsatisfiable": 0, "unknown": 0, "syntax-error": 0, "unsupported": 0}
    for record in records:
        if record.status != "ok":
            counts[record.status] += 1
        else:
            counts[record.verdict["status"]] += 1

    scaling = None
    if options.size_buckets:
        raw_texts = [entry.raw_text for entry in entries]
        scaling = measure_scaling(raw_texts, options.size_buckets, options)

    return AnalysisReport(
        total=len(entries),
        counts=counts,
        entries=records,
        stage_totals_ms=stage_totals,
        overhead_pct=overheads,
        scaling=scaling,
    )


def _timed_rounds(entries: list, options: PipelineOptions) -> list:
    """The first round's records, with each stage's mean time over all rounds.

    A round times `parse_pattern` on the raw text as the baseline, then runs
    the pipeline on the entry with its stage spans as the sink; only the
    first round builds the records.
    """
    spans = [dict.fromkeys(STAGES, 0) for _ in entries]
    records = []
    for round_index in range(options.repeats):
        for entry, entry_spans in zip(entries, spans):
            start = time.perf_counter_ns()
            try:
                parse_pattern(entry.raw_text)
            except SparqlSatError:
                pass
            entry_spans["parse"] += time.perf_counter_ns() - start
            if round_index == 0:
                records.append(_analyze_one(entry, options, entry_spans))
            elif entry.status == "ok":
                _guarded_run(entry.pattern, options, entry_spans)
    for record, entry_spans in zip(records, spans):
        record.stage_ns = {stage: entry_spans[stage] / options.repeats for stage in STAGES}
    return records


def full_pipeline_pass(raw_texts: list, options: PipelineOptions) -> int:
    """Parse and analyze every query once; returns how many analyzed OK."""
    analyzed = 0
    for raw in raw_texts:
        try:
            pattern = parse_pattern(raw)
        except SparqlSatError:
            continue
        if not isinstance(_guarded_run(pattern, options), Exception):
            analyzed += 1
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
        overheads = report.overhead_pct  # None when the baseline took no time

        def pct(stage: str) -> str:
            return "n/a" if overheads is None else f"{overheads[stage]:.0f}%"

        lines.append("")
        lines.append(f"{'baseline':>12} {'WL':>12} {'':>5} {'schemes':>12} {'':>5} {'AF':>12} {'':>5}")
        lines.append(
            f"{base:12.1f} {wl:12.1f} {pct('wrong_literal'):>5} {schemes:12.1f} {pct('schemes'):>5} "
            f"{wd:12.1f} {pct('well_designed'):>5}"
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
