"""Corpus analysis, per-stage timing, and report emission.

One loop, `_analyze`, decides a corpus for both `analyze_batch`, which
keeps every entry and record, and `stream_report`, which the `analyze`
command runs and which keeps none.  It runs `max(repeats, 1)` rounds of
`_decide`, the per-entry pipeline run, which the scaling run calls too.
Timing follows the classic read-and-parse baseline methodology: with
timing on, each entry's parse is timed as the baseline (the parse that
builds a streamed entry, or a parse of a given entry's text again), then
the pipeline runs with a sink for its stage spans, so the stages timed are
the stages of the real run.  Every round adds its spans to the stage
totals, which average the rounds and show their percentage overhead
relative to the baseline; a record's `stage_ns` are its last round's spans.
With timing disabled no clock is read and the report is byte-stable
across runs.
"""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii as _string
from time import perf_counter, perf_counter_ns

from .corpus import CorpusEntry, entry_from_text
from .errors import SparqlSatError
from .record import Record, _setattr
from .satisfiability import Satisfiable, Unsatisfiable, run_pipeline
from .syntax import parse_pattern
from .terms import graph_lines

SCHEMA_VERSION = 1
STAGES = ("parse", "wrong_literal", "schemes", "well_designed")
#: The keys of a report's `counts`: the verdict of an entry that parsed,
#: else its status.
OUTCOMES = ("satisfiable", "unsatisfiable", "unknown", "syntax-error", "unsupported")


class PipelineOptions(Record):
    __slots__ = ("builtins_as_bound", "repeats", "size_buckets")

    def __init__(self, builtins_as_bound: bool = False, repeats: int = 5, size_buckets: tuple = ()):
        _setattr(self, "builtins_as_bound", builtins_as_bound)
        _setattr(self, "repeats", repeats)
        _setattr(self, "size_buckets", size_buckets)


class EntryRecord(Record, mutable=True):
    __slots__ = (
        "entry_id", "status", "verdict", "kinds", "route", "well_designed", "wrong_literal_modified", "stage_ns",
        "error",
    )

    def __init__(self, entry_id: int, status: str, verdict: dict | None = None, kinds: list | None = None,
                 route: str | None = None, well_designed: bool | None = None,
                 wrong_literal_modified: bool | None = None, stage_ns: dict | None = None, error: str | None = None):
        self.entry_id, self.status, self.verdict, self.kinds, self.route = entry_id, status, verdict, kinds, route
        self.well_designed, self.wrong_literal_modified = well_designed, wrong_literal_modified
        self.stage_ns, self.error = stage_ns, error


class ScalingResult(Record, mutable=True):
    __slots__ = ("sizes", "total_ms", "pearson")


class AnalysisReport(Record, mutable=True):
    __slots__ = ("total", "counts", "entries", "stage_totals_ms", "overhead_pct", "scaling")

    def __init__(self, total: int, counts: dict, entries: list, stage_totals_ms: dict | None = None,
                 overhead_pct: dict | None = None, scaling: ScalingResult | None = None):
        self.total, self.counts, self.entries = total, counts, entries
        self.stage_totals_ms, self.overhead_pct, self.scaling = stage_totals_ms, overhead_pct, scaling


def _witness_texts(verdict: Satisfiable) -> tuple[list[str], list[tuple[str, str]]]:
    """A SAT verdict's sorted witness lines and its sample as (variable,
    value) texts, each the text its term carries."""
    return graph_lines(verdict.witness), [(v._text, t._text) for v, t in verdict.sample.items()]


def verdict_to_json(verdict) -> dict:
    if isinstance(verdict, Satisfiable):
        lines, sample = _witness_texts(verdict)
        return {"status": "satisfiable", "witness": lines, "sample": dict(sample)}
    if isinstance(verdict, Unsatisfiable):
        return {"status": "unsatisfiable", "reason": verdict.reason.value}
    return {"status": "unknown", "reason": verdict.reason}


def _decide(entry: CorpusEntry, options: PipelineOptions, stage_ns: dict | None = None):
    """The pipeline's result for one entry, the exception it raised (one
    entry must never abort a batch or a scaling pass), or None for an entry
    that did not parse.  With a `stage_ns` dict, the pipeline adds its stage
    spans to it."""
    if entry.status != "ok":
        return None
    try:
        return run_pipeline(entry.pattern, builtins_as_bound=options.builtins_as_bound, stage_ns=stage_ns)
    except Exception as exc:
        return exc


def _record(entry: CorpusEntry, result) -> EntryRecord:
    """The report record of `_decide`'s result for `entry`."""
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


def _outcome(record: EntryRecord) -> str:
    """The key of `counts` that `record` adds to."""
    return record.verdict["status"] if record.status == "ok" else record.status


def _overheads(stage_totals: dict | None) -> dict | None:
    """Each stage's cumulative overhead over the parse baseline, in percent;
    None without timing or when the baseline took no time."""
    if not stage_totals or stage_totals["parse"] <= 0:
        return None
    baseline = stage_totals["parse"]
    return {
        "wrong_literal": 100.0 * stage_totals["wrong_literal"] / baseline,
        "schemes": 100.0 * (stage_totals["wrong_literal"] + stage_totals["schemes"]) / baseline,
        "well_designed": 100.0 * stage_totals["well_designed"] / baseline,
    }


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


def _analyze(texts, entries, total: int, options: PipelineOptions, keep) -> AnalysisReport:
    """Decide a corpus in `max(repeats, 1)` rounds and return its report
    without entries; `keep` is given each record, in corpus order, as the
    last round builds it.

    Each call of `texts()` yields the corpus's `total` raw entry texts
    again.  The entries decided are `entries`, one for each text, or, with
    `entries` None, each text's entry built afresh in every round.  With
    timing on, each entry's baseline is timed before the pipeline runs: the
    parse that builds the entry or, for a given entry, a parse of its text
    again.
    """
    check_options(options, total)
    repeats = options.repeats
    totals = dict.fromkeys(STAGES, 0)
    counts = dict.fromkeys(OUTCOMES, 0)
    for rounds_left in reversed(range(max(repeats, 1))):
        for index, item in enumerate(texts() if entries is None else entries, 1):
            if not repeats:
                span = None
                entry = item if entries is not None else entry_from_text(index, item)
            else:
                span = dict.fromkeys(STAGES, 0)
                start = perf_counter_ns()
                if entries is None:
                    entry = entry_from_text(index, item)
                else:
                    entry = item
                    try:
                        parse_pattern(entry.raw_text)
                    except SparqlSatError:
                        pass
                span["parse"] = perf_counter_ns() - start
            result = _decide(entry, options, span)
            if span is not None:
                for stage in STAGES:
                    totals[stage] += span[stage]
            if not rounds_left:
                record = _record(entry, result)
                if span is not None:
                    record.stage_ns = {stage: float(span[stage]) for stage in STAGES}
                counts[_outcome(record)] += 1
                keep(record)

    stage_totals = {stage: totals[stage] / repeats / 1e6 for stage in STAGES} if repeats else None  # ms
    scaling = None
    if options.size_buckets:
        sizes = sorted(options.size_buckets)
        scaling = measure_scaling(list(itertools.islice(texts(), sizes[-1])), sizes, options)
    return AnalysisReport(sum(counts.values()), counts, [], stage_totals, _overheads(stage_totals), scaling)


def analyze_batch(entries: list, options: PipelineOptions | None = None) -> AnalysisReport:
    """Run the decision pipeline over a corpus and assemble the report."""
    records: list = []
    report = _analyze(
        lambda: (entry.raw_text for entry in entries), entries, len(entries), options or PipelineOptions(),
        records.append,
    )
    report.entries = records
    return report


def stream_report(read_texts, total: int, options: PipelineOptions, out, mode: str = "json") -> None:
    """Analyze a corpus one entry at a time and write its report to `out`,
    as `print(emit_report(analyze_batch(entries, options), mode), file=out)`
    would, keeping no entry, record or text past its own query.

    Each call of `read_texts()` yields the corpus's `total` raw entry texts
    again.  The JSON text of each record goes to a temporary spool file,
    copied to `out` after the header, whose counts and totals cover the
    whole corpus; the table needs no spool.
    """
    if mode not in ("json", "table"):
        raise ValueError(f"unknown report mode: {mode!r}")
    if mode == "table":
        out.write(_emit_table(_analyze(read_texts, None, total, options, lambda record: None)) + "\n")
        return
    import shutil  # only the JSON spool needs these, so `check` never loads them
    import tempfile

    with tempfile.TemporaryFile("w+", encoding="utf-8") as spool:
        # a streamed entry's id is its place in the corpus, counted from 1
        report = _analyze(
            read_texts, None, total, options,
            lambda record: spool.write((",\n" if record.entry_id > 1 else "[\n") + entry_text(record)),
        )
        out.write(header_text(report))
        if not report.total:
            out.write("[]\n}\n")
            return
        spool.seek(0)
        shutil.copyfileobj(spool, out)
        out.write("\n  ]\n}\n")


def measure_scaling(raw_texts: list, sizes, options: PipelineOptions | None = None) -> ScalingResult:
    """Time parsing and analyzing growing corpus prefixes, one query at a
    time, so no parsed entry or record outlives its query."""
    options = options or PipelineOptions()
    sizes = sorted(sizes)
    check_options(PipelineOptions(options.builtins_as_bound, options.repeats, tuple(sizes)), len(raw_texts))
    import statistics  # only timing needs it, so `check` never loads it

    totals = []
    for size in sizes:
        elapsed = []
        for _ in range(max(1, options.repeats)):
            start = perf_counter()
            for index in range(size):
                _decide(entry_from_text(index + 1, raw_texts[index]), options)
            elapsed.append((perf_counter() - start) * 1000.0)
        totals.append(statistics.fmean(elapsed))
    return ScalingResult(sizes, totals, pearson(sizes, totals))


def pearson(xs, ys) -> float:
    import statistics

    return statistics.correlation(list(map(float, xs)), list(map(float, ys)))


# --- emission -----------------------------------------------------------------------

def emit_report(report: AnalysisReport, mode: str = "json") -> str:
    if mode == "json":
        entries = [entry_text(record) for record in report.entries]
        return header_text(report) + ("[\n" + ",\n".join(entries) + "\n  ]\n}" if entries else "[]\n}")
    if mode == "table":
        return _emit_table(report)
    raise ValueError(f"unknown report mode: {mode!r}")


# The JSON report is what `json.dumps(..., indent=2)` writes, but written
# without json's encoder, which is the pure-Python one whenever an indent is
# given: `header_text` writes everything before the `entries` list and
# `entry_text` one record, with json's own C function escaping every string.
# Only values a record rarely holds, such as timing floats, go through
# `json.dumps`.  `emit_report` joins their texts for a whole report, and
# `stream_report` writes them one entry at a time.

def header_text(report: AnalysisReport) -> str:
    """The report's JSON text up to its `entries` list."""
    counts = report.counts
    counts = "{\n    " + ",\n    ".join(
        [_string(key) + ": " + _item_text(value, 2) for key, value in counts.items()]
    ) + "\n  }" if counts else "{}"
    scaling = report.scaling
    if scaling is not None:
        scaling = {"sizes": list(scaling.sizes), "total_ms": list(scaling.total_ms), "pearson": scaling.pearson}
    return (
        '{\n  "schema": ' + _item_text(SCHEMA_VERSION, 1)
        + ',\n  "total": ' + _item_text(report.total, 1)
        + ',\n  "counts": ' + counts
        + ',\n  "stage_totals_ms": ' + _item_text(report.stage_totals_ms, 1)
        + ',\n  "overhead_pct": ' + _item_text(report.overhead_pct, 1)
        + ',\n  "scaling": ' + _item_text(scaling, 1)
        + ',\n  "entries": '
    )


def entry_text(record: EntryRecord) -> str:
    """The JSON text of one record, an item of the report's `entries` list."""
    verdict = record.verdict
    if type(verdict) is dict and verdict:
        verdict = "{\n        " + ",\n        ".join(
            [_string(key) + ": " + _item_text(value, 4) for key, value in verdict.items()]
        ) + "\n      }"
    else:
        verdict = _item_text(verdict, 3)
    return (
        '    {\n      "id": ' + _item_text(record.entry_id, 3)
        + ',\n      "status": ' + _item_text(record.status, 3)
        + ',\n      "verdict": ' + verdict
        + ',\n      "kinds": ' + _item_text(record.kinds, 3)
        + ',\n      "route": ' + _item_text(record.route, 3)
        + ',\n      "well_designed": ' + _item_text(record.well_designed, 3)
        + ',\n      "wrong_literal_modified": ' + _item_text(record.wrong_literal_modified, 3)
        + ',\n      "stage_ns": ' + _item_text(record.stage_ns, 3)
        + ',\n      "error": ' + _item_text(record.error, 3)
        + "\n    }"
    )


def _item_text(value, level: int) -> str:
    """The JSON text of `value` nested `level` containers deep, written
    directly for the values a record holds: None, booleans, ints, strings,
    and lists and dicts of strings."""
    kind = type(value)
    if kind is str:
        return _string(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    pad = "\n" + "  " * (level + 1)
    if kind is list:
        try:
            return "[" + pad + ("," + pad).join(map(_string, value)) + pad[:-2] + "]" if value else "[]"
        except TypeError:  # an item that is not a string
            pass
    elif kind is dict:
        try:
            return "{" + pad + ("," + pad).join([_string(k) + ": " + _string(v) for k, v in value.items()]) + \
                pad[:-2] + "}" if value else "{}"
        except TypeError:
            pass
    # anything else, such as floats, by json itself; its text holds no raw newline but those it indents with
    return json.dumps(value, indent=2).replace("\n", pad[:-2])


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
