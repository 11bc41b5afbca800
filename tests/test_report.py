"""Batch analysis reports, timing aggregation, and the command-line surface."""

import hashlib
import json
import sys

import pytest

from deep_nests import DEPTH, deep_nests
from wide_shapes import LADDER, basic_graph_pattern
from sparqlsat.cli import main
from sparqlsat.corpus import entry_from_text, generate_corpus, ingest_corpus, write_corpus
from sparqlsat.report import (
    PipelineOptions,
    analyze_batch,
    emit_report,
    format_verdict_text,
    measure_scaling,
    pearson,
    verdict_to_json,
)
from sparqlsat.satisfiability import decide_satisfiability
from sparqlsat.syntax import parse_pattern


def entries_from(queries):
    return [entry_from_text(i + 1, q) for i, q in enumerate(queries)]


GOLDEN_QUERIES = [
    "SELECT * WHERE { ?x <p> ?y FILTER (?x != <a>) }",          # satisfiable
    "SELECT * WHERE { 49 <p> ?y }",                              # wrong literal
    "SELECT * WHERE { { ?x <p> ?y } UNION { ?x <q> ?z } FILTER (bound(?y) && bound(?z)) }",
    "SELECT WHERE {",                                            # syntax error
    "ASK { ?x <p> ?y }",                                         # unsupported
]


def test_counts_reconcile_with_entries():
    report = analyze_batch(entries_from(GOLDEN_QUERIES), PipelineOptions(repeats=0))
    assert report.total == 5
    assert sum(report.counts.values()) == report.total
    assert report.counts == {
        "satisfiable": 1,
        "unsatisfiable": 2,
        "unknown": 0,
        "syntax-error": 1,
        "unsupported": 1,
    }
    verdicts = [e.verdict["status"] for e in report.entries if e.status == "ok"]
    assert verdicts == ["satisfiable", "unsatisfiable", "unsatisfiable"]
    reasons = [e.verdict.get("reason") for e in report.entries if e.status == "ok"]
    assert reasons == [None, "wrong-literal", "empty-schemes"]


def test_wrong_literal_flag_is_reported():
    queries = ["SELECT * WHERE { ?a <p> ?b OPTIONAL { 42 <q> ?c } }"]
    report = analyze_batch(entries_from(queries), PipelineOptions(repeats=0))
    record = report.entries[0]
    assert record.wrong_literal_modified is True
    assert record.verdict["status"] == "satisfiable"


def test_report_is_deterministic_with_timing_disabled():
    queries = generate_corpus(60, seed=9)
    options = PipelineOptions(repeats=0, builtins_as_bound=True)
    first = emit_report(analyze_batch(entries_from(queries), options), "json")
    second = emit_report(analyze_batch(entries_from(queries), options), "json")
    assert first == second
    parsed = json.loads(first)
    assert parsed["schema"] == 1
    assert parsed["stage_totals_ms"] is None


def test_timing_produces_stage_totals_and_overheads():
    queries = generate_corpus(25, seed=12)
    report = analyze_batch(entries_from(queries), PipelineOptions(repeats=2, builtins_as_bound=True))
    assert set(report.stage_totals_ms) == {"parse", "wrong_literal", "schemes", "well_designed"}
    assert report.stage_totals_ms["parse"] > 0
    assert set(report.overhead_pct) == {"wrong_literal", "schemes", "well_designed"}
    ok_records = [e for e in report.entries if e.status == "ok"]
    assert all(e.stage_ns and e.stage_ns["parse"] > 0 for e in ok_records)
    table = emit_report(report, "table")
    assert "baseline" in table and "%" in table


def test_stage_times_are_spans_of_the_real_run():
    queries = [
        "SELECT * WHERE { ?x <p> ?y . ?y <q> ?z FILTER (?x = ?y) FILTER (?y != ?z) }",
        "SELECT * WHERE { 49 <p> ?y }",
        "SELECT * WHERE { ?x <p> ?y FILTER (?x != <a>) }",
        'SELECT * WHERE { ?x <p> ?y FILTER (langMatches(lang(?y), "en")) }',
    ]
    core_decided, wrong_literal, fragment, blocked = analyze_batch(
        entries_from(queries), PipelineOptions(repeats=1)
    ).entries
    # decided by the well-designed core: the scheme table never runs
    assert core_decided.route == "none" and core_decided.verdict["status"] == "satisfiable"
    assert core_decided.stage_ns["schemes"] == 0
    assert core_decided.stage_ns["well_designed"] > 0
    # wrong-literal UNSAT stops before both decision stages
    assert wrong_literal.verdict["reason"] == "wrong-literal"
    assert wrong_literal.stage_ns["wrong_literal"] > 0
    assert wrong_literal.stage_ns["schemes"] == wrong_literal.stage_ns["well_designed"] == 0
    assert fragment.route != "none" and fragment.stage_ns["schemes"] > 0
    # an opaque builtin stops normalization, before both decision stages
    assert blocked.verdict["status"] == "unknown" and blocked.route is None
    assert blocked.stage_ns["schemes"] == blocked.stage_ns["well_designed"] == 0


def test_a_stage_left_by_an_exception_keeps_its_span(monkeypatch):
    from sparqlsat import satisfiability

    def failing_table(pattern, **facts):
        raise AssertionError("scheme table failed")

    monkeypatch.setattr(satisfiability, "scheme_table", failing_table)
    stage_ns = {}
    with pytest.raises(AssertionError):
        satisfiability.run_pipeline(
            parse_pattern("SELECT * WHERE { ?x <p> ?y FILTER (?x != <a>) }"), stage_ns=stage_ns
        )
    assert set(stage_ns) == {"wrong_literal", "well_designed", "schemes"}
    assert stage_ns["schemes"] > 0


def test_empty_corpus_report_has_no_division_by_zero():
    report = analyze_batch([], PipelineOptions(repeats=1))
    assert report.total == 0
    assert report.overhead_pct is None
    payload = json.loads(emit_report(report, "json"))
    assert payload["overhead_pct"] is None
    assert payload["entries"] == []


def test_scaling_buckets_and_pearson():
    queries = generate_corpus(400, seed=14)
    options = PipelineOptions(repeats=1, builtins_as_bound=True, size_buckets=(50, 100, 200, 400))
    report = analyze_batch(entries_from(queries), options)
    assert report.scaling.sizes == [50, 100, 200, 400]
    assert len(report.scaling.total_ms) == 4
    assert -1.0 <= report.scaling.pearson <= 1.0


def test_scaling_bucket_larger_than_corpus_is_an_error():
    with pytest.raises(ValueError):
        analyze_batch(entries_from(["SELECT * WHERE { ?x <p> ?y }"]), PipelineOptions(size_buckets=(5,)))


def test_pearson_on_a_perfect_line():
    assert pearson([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)


def test_internal_error_on_one_entry_does_not_abort_the_batch(monkeypatch):
    from sparqlsat import report as report_module

    real_run_pipeline = report_module.run_pipeline
    entries = entries_from(GOLDEN_QUERIES)
    doomed = entries[2].pattern

    def failing_on_one(pattern, **options):
        if pattern is doomed:
            raise AssertionError("target scheme lost in union branch")
        return real_run_pipeline(pattern, **options)

    monkeypatch.setattr(report_module, "run_pipeline", failing_on_one)
    report = analyze_batch(entries, PipelineOptions(repeats=0))
    assert [e.entry_id for e in report.entries] == [1, 2, 3, 4, 5]
    failed = report.entries[2]
    assert failed.verdict["status"] == "unknown"
    assert failed.verdict["reason"].startswith("internal-error: AssertionError")
    assert report.entries[0].verdict["status"] == "satisfiable"
    assert report.entries[1].verdict["reason"] == "wrong-literal"
    assert report.counts == {
        "satisfiable": 1,
        "unsatisfiable": 1,
        "unknown": 1,
        "syntax-error": 1,
        "unsupported": 1,
    }


def test_internal_error_on_one_query_does_not_abort_scaling(monkeypatch):
    from collections import Counter

    from sparqlsat import corpus
    from sparqlsat import report as report_module

    real_parse, real_run_pipeline = corpus.parse_pattern, report_module.run_pipeline
    texts = generate_corpus(40, seed=14)
    doomed = parse_pattern(texts[7])
    parsed, analyzed = Counter(), []

    def counting_parse(text):
        parsed[text] += 1
        return real_parse(text)

    def failing_on_one(pattern, **options):
        analyzed.append(pattern)
        if pattern == doomed:
            raise AssertionError("target scheme lost in union branch")
        return real_run_pipeline(pattern, **options)

    def no_baseline(text):
        raise AssertionError("the scaling run is untimed per entry")

    monkeypatch.setattr(corpus, "parse_pattern", counting_parse)
    monkeypatch.setattr(report_module, "run_pipeline", failing_on_one)
    monkeypatch.setattr(report_module, "parse_pattern", no_baseline)
    options = PipelineOptions(repeats=2, builtins_as_bound=True)
    result = measure_scaling(texts, (20, 10, 40), options)
    assert result.sizes == [10, 20, 40]
    assert len(result.total_ms) == 3
    # each prefix text is parsed, and analyzed, once per repeat
    assert parsed == Counter(text for size in (10, 20, 40) for _ in range(2) for text in texts[:size])
    assert len(analyzed) == sum(parsed.values())
    assert sum(pattern == doomed for pattern in analyzed) == 6 * texts.count(texts[7])


def test_each_timing_round_runs_the_pipeline_and_the_baseline_once_per_entry(monkeypatch):
    from collections import Counter

    from sparqlsat import report as report_module

    real_parse, real_run_pipeline = report_module.parse_pattern, report_module.run_pipeline
    entries = entries_from(GOLDEN_QUERIES)
    parsed, analyzed = Counter(), Counter()

    def counting_parse(text):
        parsed[text] += 1
        return real_parse(text)

    def counting_run(pattern, **options):
        analyzed[id(pattern)] += 1
        return real_run_pipeline(pattern, **options)

    monkeypatch.setattr(report_module, "parse_pattern", counting_parse)
    monkeypatch.setattr(report_module, "run_pipeline", counting_run)
    report = analyze_batch(entries, PipelineOptions(repeats=3))
    ok = [entry for entry in entries if entry.status == "ok"]
    assert len(ok) == 3
    assert analyzed == Counter({id(entry.pattern): 3 for entry in ok})
    assert parsed == Counter({entry.raw_text: 3 for entry in entries})
    assert all(record.stage_ns["parse"] > 0 for record in report.entries)


#: Options no analysis of a 20-query corpus can honour.
BAD_OPTIONS = [
    PipelineOptions(repeats=-2),
    PipelineOptions(size_buckets=(10,)),
    PipelineOptions(size_buckets=(5, 5)),
    PipelineOptions(size_buckets=(0, 10)),
    PipelineOptions(size_buckets=(5, 50)),
]


@pytest.mark.parametrize("options", BAD_OPTIONS)
def test_bad_options_are_rejected_before_any_work(options, monkeypatch):
    from sparqlsat import report as report_module

    analyzed = []
    monkeypatch.setattr(report_module, "run_pipeline", lambda pattern, **_: analyzed.append(pattern))
    entries = entries_from(generate_corpus(20, seed=4))
    with pytest.raises(ValueError):
        analyze_batch(entries, options)
    assert analyzed == []


# Digests of the --repeats 0 JSON report at commit 0e56db8, the parent of the
# change that made timing spans of the real run: refactors of the pipeline
# and the report must leave it byte-identical.
GATE_DIGESTS = {
    False: "49d6653639f6e11088f1b7ec74d245680e7bbca3bdbb67f4a30b8a332d2521a3",
    True: "fdf188cbe2b63a014437e7ec52dea9a7b03a7a6908b7f2919f71454f56b9990f",
}


@pytest.mark.parametrize("builtins_as_bound", [False, True])
def test_untimed_report_is_byte_identical_to_the_gate(builtins_as_bound):
    entries = entries_from(generate_corpus(2000, seed=7))
    options = PipelineOptions(repeats=0, builtins_as_bound=builtins_as_bound)
    text = emit_report(analyze_batch(entries, options), "json")
    assert hashlib.sha256(text.encode()).hexdigest() == GATE_DIGESTS[builtins_as_bound]


# --- the JSON writer and the streamed command ------------------------------------------

def reference_dict(report):
    """The report in the layout of its JSON text, for `json.dumps(..., indent=2)`."""
    scaling = report.scaling
    if scaling is not None:
        scaling = {"sizes": list(scaling.sizes), "total_ms": list(scaling.total_ms), "pearson": scaling.pearson}
    entries = [
        {
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
        for record in report.entries
    ]
    return {
        "schema": 1,
        "total": report.total,
        "counts": report.counts,
        "stage_totals_ms": report.stage_totals_ms,
        "overhead_pct": report.overhead_pct,
        "scaling": scaling,
        "entries": entries,
    }


#: Queries whose literals, errors and reasons hold non-ASCII and control
#: characters, quotes and backslashes.
ODD_QUERIES = [
    'SELECT * WHERE { ?x <p> "\u00fc\x01 \\"q\\" \\\\ \u00e9 \u4e2d \U0001F600" }',
    'SELECT * WHERE { ?x <p> ?o FILTER regex(?o, "\u00e9\t\\"\\\\\x7f") }',
    "SELECT * WHERE { ?x <p> \u00e9 }",
    'SELECT * WHERE { ?x <p\u00e9> "\u2028" }',
]


@pytest.mark.parametrize(
    "queries, options",
    [
        ([], PipelineOptions(repeats=0)),
        ([], PipelineOptions(repeats=1)),
        (GOLDEN_QUERIES, PipelineOptions(repeats=0)),
        (ODD_QUERIES, PipelineOptions(repeats=0, builtins_as_bound=False)),
        (generate_corpus(60, seed=3, error_rate=0.1), PipelineOptions(repeats=2, size_buckets=(20, 40, 60))),
        (generate_corpus(30, seed=5), PipelineOptions(repeats=1, builtins_as_bound=True)),
    ],
    ids=["empty", "empty-timed", "statuses", "odd-characters", "timed-buckets", "timed"],
)
def test_the_json_writer_writes_what_json_dumps_writes(queries, options):
    report = analyze_batch(entries_from(queries), options)
    assert emit_report(report, "json") == json.dumps(reference_dict(report), indent=2)


def test_the_json_writer_writes_an_internal_error_as_json_dumps_does(monkeypatch):
    from sparqlsat import report as report_module

    def failing(pattern, **options):
        raise RuntimeError('lost \u00fc\x00 "scheme" \\ \u4e2d')

    monkeypatch.setattr(report_module, "run_pipeline", failing)
    report = analyze_batch(entries_from(GOLDEN_QUERIES), PipelineOptions(repeats=0))
    assert report.entries[0].verdict["reason"].startswith("internal-error: RuntimeError")
    assert emit_report(report, "json") == json.dumps(reference_dict(report), indent=2)


@pytest.mark.parametrize(
    "value",
    [
        None, True, False, 0, 1, -7, 2 ** 70, 0.1, -0.0, 1e300, float("nan"), float("inf"), float("-inf"),
        "", "\u00e9\"\\\n", [], {}, (), [True, 1, 1.0, None], {"a": [], "b": {}, "c": [{}, [[]]]},
        {"k": {"j": [1, (2, 3), {"i": "x"}]}}, [{"a": None}, {"b": False}], ["a", "b\x00\u00e9"],
        {"?x": "<a>", "?\u00e9": "\"\\"}, ["a", 1], {"a": "b", "c": None},
    ],
)
@pytest.mark.parametrize("level", [0, 1, 3])
def test_json_values_are_written_as_json_dumps_writes_them(value, level):
    from sparqlsat.report import _item_text

    assert _item_text(value, level) == json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)


@pytest.mark.parametrize("builtins_as_bound", [False, True])
def test_the_streamed_command_prints_the_gate_report(builtins_as_bound, tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    assert main(["gen", "--count", "2000", "--seed", "7", "--out", str(corpus)]) == 0
    capsys.readouterr()
    flags = ["--builtins-as-bound"] if builtins_as_bound else []
    assert main(["analyze", str(corpus), "--repeats", "0", "--mode", "json", *flags]) == 0
    text = capsys.readouterr().out
    assert text.endswith("}\n")
    assert hashlib.sha256(text[:-1].encode()).hexdigest() == GATE_DIGESTS[builtins_as_bound]


@pytest.mark.parametrize("fmt", ["delim", "lines"])
def test_the_streamed_command_prints_the_library_report(fmt, tmp_path, capsys):
    queries = GOLDEN_QUERIES + ODD_QUERIES
    corpus = tmp_path / "corpus.txt"
    write_corpus(str(corpus), queries, fmt)
    assert main(["analyze", str(corpus), "--format", fmt, "--repeats", "0"]) == 0
    expected = emit_report(analyze_batch(ingest_corpus(str(corpus), fmt), PipelineOptions(repeats=0)), "json")
    assert capsys.readouterr().out == expected + "\n"
    empty = tmp_path / "empty.txt"
    empty.write_text("\n####\n")
    assert main(["analyze", str(empty), "--repeats", "0"]) == 0
    assert capsys.readouterr().out == emit_report(analyze_batch([], PipelineOptions(repeats=0)), "json") + "\n"


def test_the_timed_command_prints_the_library_report(tmp_path, capsys, monkeypatch):
    # a clock whose ticks grow with every reading gives each round other
    # spans, so both paths must read it alike and keep the same round's spans
    from sparqlsat import report as report_module
    from sparqlsat import satisfiability

    readings = [0]

    def clock():
        readings[0] += 1
        return readings[0] ** 2

    monkeypatch.setattr(report_module, "perf_counter_ns", clock)
    monkeypatch.setattr(satisfiability, "perf_counter_ns", clock)
    corpus = tmp_path / "corpus.txt"
    write_corpus(str(corpus), GOLDEN_QUERIES + ODD_QUERIES)
    entries = ingest_corpus(str(corpus))
    assert main(["analyze", str(corpus), "--repeats", "3"]) == 0
    text = capsys.readouterr().out
    readings[0] = 0
    assert text == emit_report(analyze_batch(entries, PipelineOptions(repeats=3)), "json") + "\n"
    payload = json.loads(text)
    assert all(payload["stage_totals_ms"][stage] > 0 for stage in ("parse", "wrong_literal", "well_designed"))
    # this clock makes each round slower than the one before, so the spans
    # of the last round, which the records hold, add up to more than the mean
    last = sum(entry["stage_ns"]["parse"] for entry in payload["entries"])
    assert last > payload["stage_totals_ms"]["parse"] * 1e6


def test_each_streamed_round_parses_and_analyzes_each_entry_once(tmp_path, capsys, monkeypatch):
    from collections import Counter

    from sparqlsat import corpus as corpus_module
    from sparqlsat import report as report_module

    real_parse, real_run_pipeline = corpus_module.parse_pattern, report_module.run_pipeline
    parsed, analyzed = Counter(), Counter()

    def counting_parse(text):
        parsed[text] += 1
        return real_parse(text)

    def counting_run(pattern, **options):
        analyzed[pattern] += 1
        return real_run_pipeline(pattern, **options)

    def no_second_parse(text):
        raise AssertionError("a streamed round times the parse that builds its entry")

    monkeypatch.setattr(corpus_module, "parse_pattern", counting_parse)
    monkeypatch.setattr(report_module, "run_pipeline", counting_run)
    monkeypatch.setattr(report_module, "parse_pattern", no_second_parse)
    corpus = tmp_path / "corpus.txt"
    write_corpus(str(corpus), GOLDEN_QUERIES)
    assert main(["analyze", str(corpus), "--repeats", "3", "--buckets", "2,5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    ok = [real_parse(query) for query in GOLDEN_QUERIES[:3]]
    # three timing rounds, then one untimed pass per repeat over each bucket's prefix
    assert parsed == Counter({query: 3 + 3 * (1 + (i < 2)) for i, query in enumerate(GOLDEN_QUERIES)})
    assert analyzed == Counter({ok[0]: 3 + 2 * 3, ok[1]: 3 + 2 * 3, ok[2]: 3 + 3})
    assert payload["total"] == 5 and payload["counts"] == analyze_batch(
        entries_from(GOLDEN_QUERIES), PipelineOptions(repeats=0)
    ).counts
    assert set(payload["stage_totals_ms"]) == {"parse", "wrong_literal", "schemes", "well_designed"}
    assert all(entry["stage_ns"]["parse"] > 0 for entry in payload["entries"])
    assert payload["scaling"]["sizes"] == [2, 5]


def test_the_streamed_table_writes_no_spool(tmp_path, capsys, monkeypatch):
    import tempfile

    def no_spool(*args, **kwargs):
        raise AssertionError("the table needs no spool")

    monkeypatch.setattr(tempfile, "TemporaryFile", no_spool)
    corpus = tmp_path / "corpus.txt"
    write_corpus(str(corpus), GOLDEN_QUERIES)
    assert main(["analyze", str(corpus), "--repeats", "0", "--mode", "table"]) == 0
    expected = emit_report(analyze_batch(entries_from(GOLDEN_QUERIES), PipelineOptions(repeats=0)), "table")
    assert capsys.readouterr().out == expected + "\n"


_TRACED_ANALYZE = """
import sys, tracemalloc
from sparqlsat.cli import main
status = main(["analyze", sys.argv[1], "--repeats", "0", "--builtins-as-bound", "--mode", "json"])
sys.stderr.write(str(tracemalloc.get_traced_memory()[1]))
sys.exit(status)
"""


def test_streamed_memory_does_not_grow_with_the_corpus(tmp_path):
    # each run is a process traced from its start, as its peak RSS counts
    # it, writing its report to a file; a report held whole grows about
    # 9 KB a query
    import os
    import subprocess

    import sparqlsat

    package_root = os.path.dirname(os.path.dirname(sparqlsat.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    queries = generate_corpus(4000, seed=7)
    peaks = []
    for size in (1000, 4000):
        corpus = tmp_path / f"corpus-{size}.txt"
        write_corpus(str(corpus), queries[:size])
        with open(tmp_path / f"report-{size}.json", "w") as out:
            result = subprocess.run(
                [sys.executable, "-X", "tracemalloc", "-c", _TRACED_ANALYZE, str(corpus)],
                stdout=out, stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300,
            )
        assert result.returncode == 0, result.stderr
        peaks.append(int(result.stderr))
    assert peaks[1] <= 1.1 * peaks[0], peaks


# Digests of the output of `analyze --repeats 0 --mode table` on the same
# corpus, written by `gen --count 2000 --seed 7`, at commit 495702f.
TABLE_GATE_DIGESTS = {
    False: "760114c4b178859e3e0b33ed212c5d32f95427d90ac37cbf70ac2331720807bf",
    True: "90bdb4c9f7082ed7a1ffff1e23a2de2126843f5ba0916a631d6b5f28e7517609",
}


@pytest.mark.parametrize("builtins_as_bound", [False, True])
def test_untimed_table_is_byte_identical_to_the_gate(builtins_as_bound, tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    assert main(["gen", "--count", "2000", "--seed", "7", "--out", str(corpus)]) == 0
    capsys.readouterr()
    flags = ["--builtins-as-bound"] if builtins_as_bound else []
    assert main(["analyze", str(corpus), "--repeats", "0", "--mode", "table", *flags]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_GATE_DIGESTS[builtins_as_bound]


# Digest of what `check --builtins-as-bound` prints for the 18 wide shapes
# and the 2,000 seed-777 corpus queries, each verdict text followed by a
# NUL byte, at commit dfdaa2c: faster witness printing must print the same.
CHECK_DIGEST = "6b7da1ebd3395178c3014d8b734a9a509866cabc840fbf2dc0741801d422c302"


def test_check_output_is_byte_identical_to_the_gate():
    digest = hashlib.sha256()
    for text in [text for _, text in LADDER] + generate_corpus(2000, seed=777):
        verdict = decide_satisfiability(parse_pattern(text), builtins_as_bound=True)
        digest.update(format_verdict_text(verdict).encode() + b"\0")
    assert digest.hexdigest() == CHECK_DIGEST


# Digest of what `dalab compile` prints for the four expressions of the
# benchmark's verify workload and three more nested ones, under each variant,
# without and with --wrapper, each output followed by a NUL byte, at commit
# 7c3636e: a rewrite of the compilers must print the same patterns.
DALAB_COMPILE_EXPRESSIONS = (
    "(R . R) - R",
    "R - (R . R)",
    "((R . R) - R) . R",
    "R . (R - (R . R))",
    "((R . R) - R) . (R - (R . R))",
    "(R . (R | R)) - ((R - R) . R)",
    "((R - (R . R)) . R) | (R . ((R . R) - R))",
)
DALAB_COMPILE_DIGEST = "33b581214f5998c6980da25782cfdcc50856b26b2595d32d7cc841fdbd9aa67e"


def test_dalab_compile_output_is_byte_identical_to_the_gate(capsys):
    digest = hashlib.sha256()
    for expr in DALAB_COMPILE_EXPRESSIONS:
        for variant in ("negbound", "eqneq", "eqc"):
            for wrapper in ([], ["--wrapper"]):
                assert main(["dalab", "compile", "--expr", expr, "--variant", variant, *wrapper]) == 0
                digest.update(capsys.readouterr().out.encode() + b"\0")
    assert digest.hexdigest() == DALAB_COMPILE_DIGEST


@pytest.mark.parametrize(
    "query",
    [
        basic_graph_pattern(300),  # the constant model: one IRI for every variable
        "SELECT * WHERE { ?x <p> ?y . ?y <q> ?z . ?z <r> \"v\" FILTER (?x != ?y && ?y != ?z) }",  # injective
    ],
    ids=["constant-model", "injective-model"],
)
def test_printing_a_witness_formats_no_term(query, monkeypatch):
    # each term's text is made once, when the term is built: the parse and
    # the decision build each of their new terms once, and a render none
    import format_term_reference
    from sparqlsat.terms import BlankNode, Iri, Literal, Variable

    made = []
    for kind in (Iri, Literal, BlankNode, Variable):
        monkeypatch.setattr(kind, "_text_of", staticmethod(
            lambda key, _kind=kind, _text_of=kind._text_of: made.append((_kind, key)) or _text_of(key)
        ))
    verdict = decide_satisfiability(parse_pattern(query), builtins_as_bound=True)
    assert len(made) == len(set(made))
    made.clear()
    rendered = [render(verdict) for render in (format_verdict_text, verdict_to_json)]
    assert made == []
    text = format_term_reference.format_term
    lines = sorted(f"{text(t.subject)} {text(t.predicate)} {text(t.object)} ." for t in verdict.witness)
    sample = {text(v): text(t) for v, t in verdict.sample.items()}
    assert rendered[0].split("witness graph:\n", 1)[1].splitlines() == lines
    assert rendered[1] == {"status": "satisfiable", "witness": lines, "sample": sample}


def test_verdict_records_serialize_witnesses():
    report = analyze_batch(entries_from(GOLDEN_QUERIES[:1]), PipelineOptions(repeats=0))
    verdict = report.entries[0].verdict
    assert verdict["status"] == "satisfiable"
    assert verdict["witness"] and all(line.endswith(".") for line in verdict["witness"])
    assert verdict["sample"]


def test_report_is_stable_across_hash_seeds(tmp_path):
    # different PYTHONHASHSEED values must not leak set iteration order
    import os
    import subprocess
    import sys

    import sparqlsat
    from sparqlsat.corpus import write_corpus

    corpus = tmp_path / "corpus.txt"
    write_corpus(str(corpus), generate_corpus(40, seed=8), "delim")
    # the child imports the package this test imported, however pytest found it
    package_root = os.path.dirname(os.path.dirname(sparqlsat.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    script = (
        "import sys\n"
        "from sparqlsat.corpus import ingest_corpus\n"
        "from sparqlsat.report import PipelineOptions, analyze_batch, emit_report\n"
        "entries = ingest_corpus(sys.argv[1])\n"
        "options = PipelineOptions(repeats=0, builtins_as_bound=True)\n"
        "sys.stdout.write(emit_report(analyze_batch(entries, options), 'json'))\n"
    )
    outputs = []
    for seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        result = subprocess.run(
            [sys.executable, "-c", script, str(corpus)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_report_does_not_depend_on_term_history():
    # a term built again after its last instance died has a new identity
    # hash: render with the vocabulary just built, warm, and built again
    # while the flushed terms hold the old addresses
    import gc

    from sparqlsat.patterns import pattern_facts
    from sparqlsat.terms import RING_SIZE, Iri

    texts = generate_corpus(40, seed=8)
    options = PipelineOptions(repeats=0, builtins_as_bound=True)

    def render():
        return emit_report(analyze_batch(entries_from(texts), options), "json")

    def flush(tag):
        dummies = [Iri(f"history {tag} {i}") for i in range(RING_SIZE)]
        gc.collect()
        return dummies

    def vocabulary_ids():
        facts = [pattern_facts(entry.pattern) for entry in entries_from(texts) if entry.pattern]
        return {id(term) for fact in facts for term in fact.variables | fact.constants}

    flush("cold")
    cold = render()
    assert render() == cold
    warm_ids = vocabulary_ids()
    held = flush("rebuilt")
    assert render() == cold
    assert vocabulary_ids() != warm_ids
    del held


# --- command line ---------------------------------------------------------------------

def test_cli_analyze_and_gen(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    assert main(["gen", "--count", "30", "--seed", "4", "--out", str(corpus)]) == 0
    capsys.readouterr()
    code = main(["analyze", str(corpus), "--repeats", "0", "--builtins-as-bound", "--mode", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 30
    assert sum(payload["counts"].values()) == 30


def test_cli_analyze_missing_file_exits_2(capsys):
    assert main(["analyze", "/nonexistent/corpus.txt"]) == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["--repeats", "-2"], "repeats must be 0 or more"),
        (["--buckets", "10"], "at least two distinct positive sizes"),
        (["--buckets", "5,5"], "at least two distinct positive sizes"),
        (["--buckets", "0,10"], "at least two distinct positive sizes"),
        (["--buckets", "x,10"], "comma-separated sizes"),
        (["--buckets", "5,50"], "do not fit a corpus of 20"),
    ],
)
def test_cli_analyze_rejects_bad_options_in_one_line(args, message, tmp_path, capsys, monkeypatch):
    from sparqlsat import report as report_module

    analyzed = []
    monkeypatch.setattr(report_module, "run_pipeline", lambda pattern, **_: analyzed.append(pattern))
    corpus = tmp_path / "corpus.txt"
    write_corpus(str(corpus), generate_corpus(20, seed=4))
    assert main(["analyze", str(corpus), "--repeats", "1", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and analyzed == []
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--count", "-3"], "--count must be 0 or more, not -3"),
        (["--count", "2", "--error-rate", "1.5"], "--error-rate must lie between 0 and 1, not 1.5"),
        (["--count", "2", "--error-rate", "-0.1"], "--error-rate must lie between 0 and 1, not -0.1"),
        (["--count", "2", "--error-rate", "nan"], "--error-rate must lie between 0 and 1, not nan"),
    ],
)
def test_cli_gen_rejects_bad_options_in_one_line(args, message, tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    assert main(["gen", "--out", str(corpus), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert not corpus.exists()


def test_cli_exits_1_without_a_traceback_when_stdout_closes(tmp_path):
    # as `analyze ... | head -1` does: the reader takes one line and leaves
    # while the report, larger than a pipe's buffer, is still being written
    import os
    import subprocess
    import sys

    import sparqlsat

    corpus = tmp_path / "corpus.txt"
    write_corpus(str(corpus), generate_corpus(400, seed=4))
    package_root = os.path.dirname(os.path.dirname(sparqlsat.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    child = subprocess.Popen(
        [sys.executable, "-m", "sparqlsat.cli", "analyze", str(corpus), "--repeats", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
    )
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert stderr == b""


def test_cli_analyze_has_no_parallel_flag(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("SELECT * WHERE { ?x <p> ?y }\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", str(corpus), "--parallel", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --parallel" in capsys.readouterr().err


def test_cli_check_prints_witness(tmp_path, capsys):
    query = tmp_path / "query.rq"
    query.write_text("SELECT * WHERE { ?x <p> ?y FILTER (?x != <a>) }")
    assert main(["check", str(query)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("satisfiable")
    assert "witness graph:" in out


@pytest.mark.parametrize("name", list(deep_nests(DEPTH)))
def test_cli_check_decides_a_deep_nest(name, tmp_path, capsys):
    assert sys.getrecursionlimit() == 1000
    text = deep_nests(DEPTH)[name]
    query = tmp_path / "query.rq"
    query.write_text(text)
    assert main(["check", str(query)]) == 0
    captured = capsys.readouterr()
    assert captured.out == format_verdict_text(decide_satisfiability(parse_pattern(text))) + "\n"
    assert captured.out.startswith("satisfiable") and captured.err == ""


def test_deep_entries_are_decided_and_leave_the_batch_unchanged(tmp_path):
    deep = list(deep_nests(DEPTH).values())
    ordinary = GOLDEN_QUERIES + generate_corpus(20, seed=5)
    queries = ordinary[:3] + deep[:5] + ordinary[3:10] + deep[5:] + ordinary[10:]
    path = tmp_path / "corpus.txt"
    write_corpus(str(path), queries, "delim")
    options = PipelineOptions(repeats=0, builtins_as_bound=True)
    report = analyze_batch(ingest_corpus(str(path)), options)
    assert report.total == len(queries) == len(report.entries)
    deep_records = [record for record, text in zip(report.entries, queries) if text in deep]
    assert [(record.status, record.verdict["status"]) for record in deep_records] == [("ok", "satisfiable")] * len(deep)
    expected = analyze_batch(entries_from(ordinary), options).entries
    kept = [record for record, text in zip(report.entries, queries) if text not in deep]
    assert [(r.status, r.verdict, r.error) for r in kept] == [(r.status, r.verdict, r.error) for r in expected]


def _assert_not_utf8_reported(command, tmp_path, capsys):
    query = tmp_path / "query.rq"
    query.write_bytes('SELECT * WHERE {\n  ?x <p> "café" }'.encode("latin-1"))
    assert main([command, str(query)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {query}: not UTF-8 (line 2, byte 0xE9)\n"


def test_cli_check_reports_a_file_that_is_not_utf8(tmp_path, capsys):
    _assert_not_utf8_reported("check", tmp_path, capsys)


def test_cli_analyze_reports_a_file_that_is_not_utf8(tmp_path, capsys):
    _assert_not_utf8_reported("analyze", tmp_path, capsys)


def test_cli_check_accepts_a_byte_order_mark(tmp_path, capsys):
    query = tmp_path / "query.rq"
    query.write_bytes(b"\xef\xbb\xbfSELECT * WHERE { ?x <p> ?y }")
    assert main(["check", str(query)]) == 0
    assert capsys.readouterr().out.startswith("satisfiable\n")


@pytest.mark.parametrize("fmt", ["delim", "lines"])
def test_cli_analyze_accepts_a_byte_order_mark(fmt, tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    write_corpus(str(corpus), GOLDEN_QUERIES, fmt)
    corpus.write_bytes(b"\xef\xbb\xbf" + corpus.read_bytes())
    assert main(["analyze", str(corpus), "--format", fmt, "--repeats", "0"]) == 0
    expected = emit_report(analyze_batch(entries_from(GOLDEN_QUERIES), PipelineOptions(repeats=0)), "json")
    assert capsys.readouterr().out == expected + "\n"
    assert [entry.raw_text for entry in ingest_corpus(str(corpus), fmt)] == GOLDEN_QUERIES


def test_cli_dalab_eval_accepts_a_byte_order_mark(tmp_path, capsys):
    relation = tmp_path / "rel.txt"
    relation.write_bytes(b"\xef\xbb\xbfa b\nb c\n")
    assert main(["dalab", "eval", "--expr", "R . R", "--relation", str(relation)]) == 0
    assert capsys.readouterr().out == "a c\n"


def test_cli_dalab_round(tmp_path, capsys):
    relation = tmp_path / "rel.txt"
    relation.write_text("a b\nb c\na c\nc d\n")
    assert main(["dalab", "eval", "--expr", "(R . R) - R", "--relation", str(relation)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["a d", "b d"]

    assert main(["dalab", "compile", "--expr", "R . R"]) == 0
    assert "(?x r ?_g1) AND (?_g1 r ?y)" in capsys.readouterr().out

    assert main(["dalab", "search", "--expr", "((R . R) - R) . R - (R . R) . R"]) == 0
    assert "no model" in capsys.readouterr().out

    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert main(["dalab", "cnf", str(cnf)]) == 0
    out = capsys.readouterr().out
    assert "brute-force satisfiable: False" in out
    assert "unsatisfiable" in out


@pytest.mark.parametrize(
    "args, content, code",
    [
        pytest.param(["eval", "--expr", "R", "--relation", "{file}"], "a b c\n", 1, id="eval-three-fields"),
        pytest.param(["eval", "--expr", "R", "--relation", "{file}"], "a b\ncafé b\n".encode("latin-1"), 2, id="eval-not-utf8"),
        pytest.param(["eval", "--expr", "R", "--relation", "{file}"], None, 2, id="eval-missing-file"),
        pytest.param(["eval", "--expr", "R ..", "--relation", "{file}"], "a b\n", 1, id="eval-malformed-expr"),
        pytest.param(["compile", "--expr", "R R"], None, 1, id="compile-malformed-expr"),
        pytest.param(["compile", "--expr", "R", "--variant", "eqc", "--const-a", "a", "--const-b", "a"], None, 2,
                     id="compile-equal-constants"),
        pytest.param(["search", "--expr", "(R"], None, 1, id="search-malformed-expr"),
        pytest.param(["search", "--expr", "R", "--max-adom", "9"], None, 2, id="search-bound-too-large"),
        pytest.param(["search", "--expr", "R", "--max-adom", "0"], None, 2, id="search-bound-zero"),
        pytest.param(["search", "--expr", "R", "--max-adom", "-1"], None, 2, id="search-bound-negative"),
        pytest.param(["cnf", "{file}"], "p cnf 1 1\n1 x 0\n", 1, id="cnf-malformed-clause"),
        pytest.param(["cnf", "{file}"], "c a formula\nc caf\xe9\np cnf 1 1\n1 0\n".encode("latin-1"), 2, id="cnf-not-utf8"),
    ],
)
def test_cli_dalab_reports_bad_input_in_one_line(args, content, code, tmp_path, capsys):
    # an unreadable file or an option value out of range exits 2, malformed content 1
    path = tmp_path / "input.txt"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    assert main(["dalab"] + [arg.format(file=path) for arg in args]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if isinstance(content, bytes):  # the file, the line and the byte that is not UTF-8
        assert captured.err == f"error: {path}: not UTF-8 (line 2, byte 0xE9)\n"


def test_traced_names_resolve():
    # the benchmark's tracer rebinds these names through `owner.__dict__`,
    # and its generators import `vars_of` and `constants_of`
    import importlib.util
    from pathlib import Path

    from sparqlsat import evaluator, patterns, terms

    path = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    # the counters it rebinds outside SPANS
    counted = ((evaluator, "join"), (evaluator, "_match_triple"), (terms.Mapping, "merge"))
    spans = tuple((owner, attr) for owner, attr, _, _ in layertrace.SPANS)
    missing = [f"{owner.__name__}.{attr}" for owner, attr in spans + counted if attr not in owner.__dict__]
    assert missing == []
    assert callable(patterns.vars_of) and callable(patterns.constants_of)
