"""The streamed analysis that the `analyze` command runs: the report of
`report.analyze_batch` and `report.emit_report`, written one entry at a
time.  The module loads on first use, since `check` never writes a report.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
import time

from .corpus import entry_from_text
from .report import (
    OUTCOMES,
    STAGES,
    AnalysisReport,
    PipelineOptions,
    _decide,
    _emit_table,
    _outcome,
    _overheads,
    _record,
    check_options,
    entry_text,
    header_text,
    measure_scaling,
)


def stream_report(read_texts, total: int, options: PipelineOptions, out, mode: str = "json") -> None:
    """Analyze a corpus one entry at a time and write its report to `out`,
    as `print(emit_report(analyze_batch(entries, options), mode), file=out)`
    would, keeping no entry, record or text past its own query.

    Each call of `read_texts()` yields the corpus's `total` raw entry texts
    again.  With timing on, each round but the last only adds every entry's
    parse, timed as the baseline, and stage spans to the stage totals; the
    last adds them too and builds the records, whose `stage_ns` are that
    round's spans.  The JSON text of each record goes to a temporary spool
    file, copied to `out` after the header, whose counts and totals cover
    the whole corpus.
    """
    if mode not in ("json", "table"):
        raise ValueError(f"unknown report mode: {mode!r}")
    check_options(options, total)
    repeats = options.repeats
    spans = dict.fromkeys(STAGES, 0)
    for _ in range(1, repeats):
        for index, raw in enumerate(read_texts(), 1):
            _run_text(index, raw, options, spans)

    spool = tempfile.TemporaryFile("w+", encoding="utf-8") if mode == "json" else None
    try:
        counts = dict.fromkeys(OUTCOMES, 0)
        for index, raw in enumerate(read_texts(), 1):
            span = dict.fromkeys(STAGES, 0) if repeats else None
            record = _record(*_run_text(index, raw, options, span))
            if span is not None:
                record.stage_ns = {stage: float(span[stage]) for stage in STAGES}
                for stage in STAGES:
                    spans[stage] += span[stage]
            counts[_outcome(record)] += 1
            if spool is not None:
                spool.write((",\n" if index > 1 else "[\n") + entry_text(record))
        analyzed = sum(counts.values())
        stage_totals = {stage: spans[stage] / repeats / 1e6 for stage in STAGES} if repeats else None  # ms
        scaling = None
        if options.size_buckets:
            sizes = sorted(options.size_buckets)
            scaling = measure_scaling(list(itertools.islice(read_texts(), sizes[-1])), sizes, options)
        report = AnalysisReport(analyzed, counts, [], stage_totals, _overheads(stage_totals), scaling)
        if spool is None:
            out.write(_emit_table(report) + "\n")
        elif analyzed:
            out.write(header_text(report))
            spool.seek(0)
            shutil.copyfileobj(spool, out)
            out.write("\n  ]\n}\n")
        else:
            out.write(header_text(report) + "[]\n}\n")
    finally:
        if spool is not None:
            spool.close()


def _run_text(entry_id: int, raw: str, options: PipelineOptions, stage_ns: dict | None):
    """The entry of a raw text and `_decide`'s result for it.  With a
    `stage_ns` dict, the parse that builds the entry is the baseline timed
    into it."""
    if stage_ns is None:
        entry = entry_from_text(entry_id, raw)
    else:
        start = time.perf_counter_ns()
        entry = entry_from_text(entry_id, raw)
        stage_ns["parse"] += time.perf_counter_ns() - start
    return entry, _decide(entry, options, stage_ns)
