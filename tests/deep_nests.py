"""Queries that nest one construct thousands of levels deep, in both grammars.

The parsers keep their own stacks, so each of these parses at Python's
default recursion limit.  The EXISTS nests are decided only at 1,000 levels:
SELECT elimination re-walks the body of every SELECT that an EXISTS becomes,
so deciding them costs time quadratic in the depth (about 0.5 s at 1,000
levels, several seconds at 4,000).
"""

DEPTH = 5000
EXISTS_DECIDE_DEPTH = 1000

_TRIPLE = "(?x p ?y)"
_SURFACE = "SELECT * WHERE "


def deep_nests(depth: int) -> dict[str, str]:
    """One query per nesting construct, each `depth` levels deep."""
    return {
        "compact-parentheses": f"{_TRIPLE} AND (" * depth + _TRIPLE + ")" * depth,
        "compact-filter-parentheses": f"{_TRIPLE} FILTER " + "(" * depth + "bound(?y)" + ")" * depth,
        "compact-filter-negations": f"{_TRIPLE} FILTER " + "!(" * depth + "bound(?y)" + ")" * depth,
        "compact-select": "SELECT {?x} (" * depth + _TRIPLE + ")" * depth,
        "compact-exists": f"{_TRIPLE} FILTER EXISTS (" * depth + _TRIPLE + ")" * depth,
        "surface-groups": _SURFACE + "{ ?x <p> ?y " * depth + "}" * depth,
        "surface-optional": _SURFACE + "{ ?x <p> ?y OPTIONAL " * depth + "{ ?x <p> ?y }" + " }" * depth,
        "surface-union": _SURFACE + "{ " + "{ ?x <p> ?y } UNION { " * depth + "?x <p> ?y" + " }" * depth + " }",
        "surface-filter-parentheses": _SURFACE + "{ ?x <p> ?y FILTER" + "(" * depth + "bound(?y)" + ")" * depth + " }",
        "surface-exists": _SURFACE + "{ ?x <p> ?y FILTER EXISTS " * depth + "{ ?x <p> ?y }" + " }" * depth,
    }


def decided_nests() -> dict[str, str]:
    """The nests the decision tests run: every construct at `DEPTH` but
    EXISTS, which runs at `EXISTS_DECIDE_DEPTH`."""
    nests = deep_nests(DEPTH)
    nests.update((name, text) for name, text in deep_nests(EXISTS_DECIDE_DEPTH).items() if "exists" in name)
    return nests
