"""Batch analysis driver, per-stage timing, and report emission.

One per-entry function, `_run_one`, runs the decision pipeline for the
report's records, for every timing round and for the scaling run.  Timing
follows the classic read-and-parse baseline methodology: with a sink for
stage spans, it first parses the raw query again as the baseline, then runs
the pipeline with the sink, so the stages timed are the stages of the real
run.  The report averages the rounds and shows cumulative totals with their
percentage overhead relative to the baseline.  With timing disabled no clock
is read and the report is byte-stable across runs.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass, replace

from .corpus import CorpusEntry, entry_from_text
from .errors import SparqlSatError
from .satisfiability import Satisfiable, Unsatisfiable, run_pipeline
from .syntax import parse_pattern
from .terms import format_term, graph_lines

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


def _witness_texts(verdict: Satisfiable) -> tuple[list[str], list[tuple[str, str]]]:
    """A SAT verdict's sorted witness lines and its sample as (variable,
    value) texts, formatting each distinct term once: a sample's values
    are terms of its witness."""
    texts: dict = {}
    lines = graph_lines(verdict.witness, texts)
    return lines, [(str(v), texts.get(t) or format_term(t)) for v, t in verdict.sample.items()]


def verdict_to_json(verdict) -> dict:
    if isinstance(verdict, Satisfiable):
        lines, sample = _witness_texts(verdict)
        return {"status": "satisfiable", "witness": lines, "sample": dict(sample)}
    if isinstance(verdict, Unsatisfiable):
        return {"status": "unsatisfiable", "reason": verdict.reason.value}
    return {"status": "unknown", "reason": verdict.reason}


def _run_one(entry: CorpusEntry, options: PipelineOptions, stage_ns: dict | None = None):
    """The pipeline's result for one entry, the exception it raised (one
    entry must never abort a batch or a scaling pass), or None for an entry
    that did not parse.  With a `stage_ns` dict, the baseline parse of the
    raw text is timed into it first, then the pipeline adds its stage spans.
    """
    if stage_ns is not None:
        start = time.perf_counter_ns()
        try:
            parse_pattern(entry.raw_text)
        except SparqlSatError:
            pass
        stage_ns["parse"] += time.perf_counter_ns() - start
    if entry.status != "ok":
        return None
    try:
        return run_pipeline(entry.pattern, builtins_as_bound=options.builtins_as_bound, stage_ns=stage_ns)
    except Exception as exc:
        return exc


def _record(entry: CorpusEntry, result) -> EntryRecord:
    """The report record of `_run_one`'s result for `entry`."""
    if result is None:
        return EntryRecord(entry.entry_id, entry.status, error=entry.error)
    if isinstance(result, Exception):
        reason = f"{type(result).__name__}: {result}"
        if not isinstance(result, SparqlSatError):
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


def check_options(options: PipelineOptions, corpus_size: int | None = None) -> None:
    """Raise ValueError for options no analysis can honour, checking the
    size buckets against `corpus_size` when it is given."""
    if options.repeats < 0:
        raise ValueError(f"repeats must be 0 or more, not {options.repeats}")
    if not options.size_buckets:
        return
    buckets = sorted(options.size_buckets)
    if buckets[0] < 1 or buckets[0] == buckets[-1]:
        raise ValueError(f"size buckets must be at least two distinct positive sizes: {buckets}")
    if corpus_size is not None and buckets[-1] > corpus_size:
        raise ValueError(f"size buckets {buckets} do not fit a corpus of {corpus_size}")


def analyze_batch(entries: list, options: PipelineOptions | None = None) -> AnalysisReport:
    """Run the decision pipeline over a corpus and assemble the report.

    The first round builds the records; with timing on, each of the
    `repeats` rounds adds every entry's baseline parse and stage spans, and
    a record's `stage_ns` is their mean.
    """
    options = options or PipelineOptions()
    check_options(options, len(entries))
    repeats = options.repeats
    spans = [dict.fromkeys(STAGES, 0) for _ in entries] if repeats else [None] * len(entries)
    records = [_record(entry, _run_one(entry, options, span)) for entry, span in zip(entries, spans)]
    for _ in range(1, repeats):
        for entry, span in zip(entries, spans):
            _run_one(entry, options, span)

    stage_totals = None
    overheads = None
    if repeats:
        for record, span in zip(records, spans):
            record.stage_ns = {stage: span[stage] / repeats for stage in STAGES}
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

    counts = {"satisfiable": 0, "unsatisfiable": 0, "unknown": 0, "syntax-error": 0, "unsupported": 0}
    for record in records:
        counts[record.verdict["status"] if record.status == "ok" else record.status] += 1

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


def measure_scaling(raw_texts: list, sizes, options: PipelineOptions | None = None) -> ScalingResult:
    """Time parsing and analyzing growing corpus prefixes, one query at a
    time, so no parsed entry or record outlives its query."""
    options = options or PipelineOptions()
    sizes = sorted(sizes)
    check_options(replace(options, size_buckets=tuple(sizes)), len(raw_texts))
    totals = []
    for size in sizes:
        elapsed = []
        for _ in range(max(1, options.repeats)):
            start = time.perf_counter()
            for index in range(size):
                _run_one(entry_from_text(index + 1, raw_texts[index]), options)
            elapsed.append((time.perf_counter() - start) * 1000.0)
        totals.append(statistics.fmean(elapsed))
    return ScalingResult(sizes, totals, pearson(sizes, totals))


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
        "scaling": asdict(report.scaling) if report.scaling else None,
        "entries": [],
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
        lines, sample = _witness_texts(verdict)
        graph_text = "\n".join(lines)
        sample_text = ", ".join(f"{v} -> {t}" for v, t in sample)
        return f"satisfiable\nsample solution: {{{sample_text}}}\nwitness graph:\n{graph_text}"
    if isinstance(verdict, Unsatisfiable):
        return f"unsatisfiable ({verdict.reason.value})"
    return f"unknown ({verdict.reason})"
