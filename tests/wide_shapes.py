"""The ladder of large single queries that the benchmark's wide-shapes
workload decides: OPTIONAL nests, 50-300-triple BGPs, 8-128-arm UNIONs and
k-way bound disjunctions, every one satisfiable by construction.

The texts are written out here, not imported from `bench/`, so that the
output digests pinned over them stay put when the benchmark changes.
"""

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


LADDER = (
    [(f"optional-nest-{n}", optional_nest(n)) for n in (28, 50)]
    + [(f"bgp-{n}", basic_graph_pattern(n)) for n in (50, 100, 150, 200, 250, 300)]
    + [(f"union-{n}", union_group(n)) for n in (8, 16, 32, 64, 128)]
    + [(f"bound-or-{k}", bound_disjunction(k)) for k in (8, 9, 10, 11, 12)]
)
