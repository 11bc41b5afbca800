"""The three benchmark workloads: their inputs, their operation and its check.

Each workload is a list of cases, one input each, and four functions:

* `prepare(case)` writes what the operation reads (untimed);
* `op(case)` is the timed operation, a call into the real program entry
  points, looked up through their modules at call time so a traced round
  sees its wrappers;
* `signature(case, result)` renders the outcome; every round must render
  the same text, traced or not;
* `check(case, result, rng)` is the correctness gate, run once per case,
  outside the timed region.  It returns an error text or None.

`verdict(case, result)` classifies decision outcomes as "sat", "unsat" or
"unknown", and returns None for operations that decide nothing.
"""

from __future__ import annotations

import gc
import json
import os
import random
from dataclasses import dataclass

import randpat
from sparqlsat import corpus, dalab, evaluator, report, satisfiability, syntax
from sparqlsat.normalize import normalize_filters
from sparqlsat.satisfiability import Satisfiable, Unsatisfiable
from sparqlsat.terms import Iri, Mapping, Variable

#: Random graphs each UNSAT verdict is tested against.
UNSAT_FUZZ_GRAPHS = 20


@dataclass
class Case:
    key: str
    data: object
    probe: bool = False  # counts toward failures and decisions only


def _fuzz_unsat(pattern, rng: random.Random) -> str | None:
    for _ in range(UNSAT_FUZZ_GRAPHS):
        graph = randpat.graph(rng, pattern)
        if evaluator.evaluate(pattern, graph):
            return "UNSAT verdict refuted by a random graph"
    return None


def _sample_holds(pattern, witness, sample) -> str | None:
    if sample in evaluator.evaluate(pattern, witness):
        return None
    return "SAT sample is not a solution on the witness graph"


# --- corpus-777 ------------------------------------------------------------------

class Corpus777:
    """`sparqlsat analyze --builtins-as-bound --repeats 0` on the seed-777
    corpus, one entry per corpus file; --seed only shuffles the order."""

    name = "corpus-777"
    corpus_seed = 777
    op_cap_s = 2.0
    options = report.PipelineOptions(builtins_as_bound=True, repeats=0)

    def __init__(self, seed: int, workdir: str, size: int = 2000):
        texts = corpus.generate_corpus(size, self.corpus_seed)
        order = list(range(size))
        random.Random(seed).shuffle(order)
        self.cases = [Case(f"entry-{i + 1}", texts[i]) for i in order]
        self.path = os.path.join(workdir, "corpus.txt")

    def prepare(self, case: Case):
        corpus.write_corpus(self.path, [case.data])

    def op(self, case: Case):
        entries = corpus.ingest_corpus(self.path)
        analysis = report.analyze_batch(entries, self.options)
        return entries, report.emit_report(analysis, "json")

    def signature(self, case: Case, result) -> str:
        return result[1]

    def verdict(self, case: Case, result) -> str | None:
        record = json.loads(result[1])["entries"][0]
        if record["status"] != "ok":
            return "unknown"
        return {"satisfiable": "sat", "unsatisfiable": "unsat"}.get(record["verdict"]["status"], "unknown")

    def check(self, case: Case, result, rng: random.Random) -> str | None:
        entries, text = result
        record = json.loads(text)["entries"][0]
        if record["status"] != "ok":
            return f"generated entry did not parse: {record['status']}"
        # the verdicts are reached under builtins-as-bound, so they are
        # checked against the lowered pattern
        pattern = normalize_filters(entries[0].pattern, builtins_as_bound=True)
        verdict = record["verdict"]
        if verdict["status"] == "satisfiable":
            witness = evaluator.parse_graph("\n".join(verdict["witness"]))
            sample = Mapping({Variable(v[1:]): _read_term(t) for v, t in verdict["sample"].items()})
            return _sample_holds(pattern, witness, sample)
        if verdict["status"] == "unsatisfiable":
            return _fuzz_unsat(pattern, rng)
        return None


def _read_term(text: str):
    (triple,) = evaluator.parse_graph(f"<s> <p> {text} .")
    return triple.object


# --- wide-shapes -------------------------------------------------------------------

_PREFIX = "PREFIX p: <http://example.org/p/>\n"


def optional_nest(arms: int) -> str:
    lines = ["?s a p:University .", "?s p:country p:Chile ."]
    lines += [f"OPTIONAL {{ ?s p:arm{i} ?v{i} . }}" for i in range(arms)]
    lines += [
        f'FILTER ( langMatches(lang(?v{i}), "es") || langMatches(lang(?v{i}), "en") )'
        for i in (1, 2)
    ]
    return _PREFIX + "SELECT DISTINCT * WHERE {\n  " + "\n  ".join(lines) + "\n}"


def basic_graph_pattern(triples: int) -> str:
    lines = [f"?s p:bgp{i} ?o{i} ." for i in range(triples)]
    return _PREFIX + "SELECT * WHERE {\n  " + "\n  ".join(lines) + "\n}"


def union_group(arms: int) -> str:
    body = " UNION ".join(f"{{ ?s p:alt{i} ?o . }}" for i in range(arms))
    return _PREFIX + "SELECT ?s ?o WHERE {\n  " + body + "\n  ?s a p:Thing .\n}"


def bound_disjunction(arms: int) -> str:
    lines = ["?s a p:Thing ."] + [f"OPTIONAL {{ ?s p:opt{i} ?v{i} . }}" for i in range(arms)]
    lines.append("FILTER ( " + " || ".join(f"bound(?v{i})" for i in range(arms)) + " )")
    return _PREFIX + "SELECT * WHERE {\n  " + "\n  ".join(lines) + "\n}"


#: The ladder of large single queries, every one satisfiable by construction.
LADDER = (
    [(f"optional-nest-{n}", optional_nest(n)) for n in (28, 50)]
    + [(f"bgp-{n}", basic_graph_pattern(n)) for n in (50, 100, 150, 200, 250, 300)]
    + [(f"union-{n}", union_group(n)) for n in (8, 16, 32, 64, 128)]
    + [(f"bound-or-{k}", bound_disjunction(k)) for k in (8, 9, 10, 11, 12)]
)

#: Basic graph patterns deep enough to exhaust the recursion limit today.
DEPTH_PROBES = tuple(f"bgp-{n}" for n in (350, 400, 5000))


class WideShapes:
    """Each shape decided as `sparqlsat check --builtins-as-bound` decides it.

    `check` runs one query per process, so each operation starts from a
    collected heap: otherwise a full collection of the previous shapes'
    garbage lands inside whichever large shape comes next.
    """

    name = "wide-shapes"
    op_cap_s = 10.0

    def __init__(self, seed: int, workdir: str, ladder=LADDER, probes=DEPTH_PROBES):
        cases = [Case(key, text) for key, text in ladder]
        cases += [Case(key, basic_graph_pattern(int(key[4:])), probe=True) for key in probes]
        random.Random(seed).shuffle(cases)
        self.cases = cases

    def prepare(self, case: Case):
        gc.collect()

    def op(self, case: Case):
        pattern = syntax.parse_pattern(case.data)
        verdict = satisfiability.decide_satisfiability(pattern, builtins_as_bound=True)
        return pattern, verdict, report.format_verdict_text(verdict)

    def signature(self, case: Case, result) -> str:
        return result[2]

    def verdict(self, case: Case, result) -> str | None:
        return _verdict_kind(result[1])

    def check(self, case: Case, result, rng: random.Random) -> str | None:
        pattern, verdict, _ = result
        if isinstance(verdict, Unsatisfiable):
            return "UNSAT verdict on a satisfiable shape"
        if isinstance(verdict, Satisfiable):
            lowered = normalize_filters(pattern, builtins_as_bound=True)
            return _sample_holds(lowered, verdict.witness, verdict.sample)
        return None


def _verdict_kind(verdict) -> str:
    if isinstance(verdict, Satisfiable):
        return "sat"
    if isinstance(verdict, Unsatisfiable):
        return "unsat"
    return "unknown"


# --- verify ------------------------------------------------------------------------

#: Difference expressions of the relation algebra, the first the worked
#: instance.  Each has one difference: nested differences make the cost
#: swing tenfold with the shape of the relation.
DA_EXPRESSIONS = ("(R . R) - R", "R - (R . R)", "((R . R) - R) . R", "R . (R - (R . R))")
DA_VARIANTS = ("negbound", "eqneq", "eqc")
#: Relations per expression, by size, drawn with a fixed seed so the
#: costliest operations are the same in every run.  Three of each size
#: put the eqneq evaluations, 1.5% of the operations, above the p99.
RELATION_SIZES = (3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6)
RELATION_SEED = 777
D1, D2 = Iri("d1"), Iri("d2")


def _random_relation(rng: random.Random, size: int):
    """A relation over {d1, d2, d3} whose active domain holds d1 and d2,
    where all three compilers are exact."""
    domain = dalab.canonical_domain(3)
    pairs = [(x, y) for x in domain for y in domain]
    while True:
        relation = frozenset(rng.sample(pairs, size))
        if {D1, D2} <= dalab.adom(relation):
            return relation


class Verify:
    """Evaluator-heavy checking: (a) the three difference compilers against
    direct evaluation, (b) decisions on random patterns with every SAT
    witness replayed through the evaluator."""

    name = "verify"
    op_cap_s = 10.0

    def __init__(self, seed: int, workdir: str, patterns: int = 3000, sizes=RELATION_SIZES):
        relations = random.Random(RELATION_SEED)
        cases = []
        for text in DA_EXPRESSIONS:
            expr = dalab.parse_da(text)
            for index, size in enumerate(sizes):
                relation = _random_relation(relations, size)
                graph = dalab.graph_of_relation(relation)
                for variant in DA_VARIANTS:
                    data = (expr, variant, relation, graph)
                    cases.append(Case(f"da {text} {variant} relation-{index}", data))
        rng = random.Random(seed)
        for index in range(patterns):
            roll = rng.random()
            if roll < 0.3:
                pattern = randpat.pattern(rng, rng.randint(0, 5), randpat.EQ_KINDS)
            elif roll < 0.6:
                pattern = randpat.pattern(rng, rng.randint(0, 5), randpat.NEQ_KINDS)
            elif roll < 0.8:
                pattern = randpat.pattern(
                    rng, rng.randint(0, 4), randpat.ALL_KINDS, literal_subject_rate=0.1, select_rate=0.2
                )
            else:
                pattern = randpat.well_designed(rng, rng.randint(1, 4))
            cases.append(Case(f"pattern-{index}", pattern))
        rng.shuffle(cases)
        self.cases = cases

    def prepare(self, case: Case):
        pass

    def op(self, case: Case):
        if isinstance(case.data, tuple):
            expr, variant, relation, graph = case.data
            if variant == "negbound":
                compiled = dalab.emulate_negbound(expr)
            elif variant == "eqneq":
                compiled = dalab.emulate_eqneq(expr)
            else:
                compiled = dalab.emulate_eqc(expr, D1, D2)
            got = dalab.result_pairs(evaluator.evaluate(compiled, graph))
            return got, dalab.da_eval(expr, relation)
        verdict = satisfiability.decide_satisfiability(case.data)
        if isinstance(verdict, Satisfiable):
            return verdict, evaluator.evaluate(case.data, verdict.witness)
        return verdict, None

    def signature(self, case: Case, result) -> str:
        if isinstance(case.data, tuple):
            return repr(sorted((x.name, y.name) for x, y in result[0]))
        verdict, solutions = result
        text = report.format_verdict_text(verdict)
        return text if solutions is None else f"{text}\nsolutions: {len(solutions)}"

    def verdict(self, case: Case, result) -> str | None:
        return None if isinstance(case.data, tuple) else _verdict_kind(result[0])

    def check(self, case: Case, result, rng: random.Random) -> str | None:
        if isinstance(case.data, tuple):
            got, expected = result
            return None if got == expected else "compiled pattern disagrees with direct evaluation"
        verdict, solutions = result
        if isinstance(verdict, Satisfiable):
            return None if verdict.sample in solutions else "SAT sample is not a solution on the witness graph"
        if isinstance(verdict, Unsatisfiable):
            return _fuzz_unsat(case.data, rng)
        return None


WORKLOADS = {w.name: w for w in (Corpus777, WideShapes, Verify)}
