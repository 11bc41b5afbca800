"""Queries that nest one construct thousands of levels deep, in both grammars.

The parsers keep their own stacks, so each of these parses at Python's
default recursion limit, and each is decided at that depth.  The EXISTS
nests come in two families: every level binds the same ?x ?y, or every
level binds a variable of its own.
"""

DEPTH = 5000

_TRIPLE = "(?x p ?y)"
_SURFACE = "SELECT * WHERE "


def exists_nests(depth: int) -> dict[str, str]:
    """The EXISTS nests, `depth` levels deep, in both families and grammars."""
    return {
        "compact-exists": f"{_TRIPLE} FILTER EXISTS (" * depth + _TRIPLE + ")" * depth,
        "compact-exists-fresh": "".join(f"(?x p ?v{i}) FILTER EXISTS (" for i in range(depth))
        + _TRIPLE + ")" * depth,
        "surface-exists": _SURFACE + "{ ?x <p> ?y FILTER EXISTS " * depth + "{ ?x <p> ?y }" + " }" * depth,
        "surface-exists-fresh": _SURFACE + "".join(f"{{ ?x <p> ?v{i} FILTER EXISTS " for i in range(depth))
        + "{ ?x <p> ?y }" + " }" * depth,
    }


def deep_nests(depth: int) -> dict[str, str]:
    """One query per nesting construct, each `depth` levels deep."""
    return {
        "compact-parentheses": f"{_TRIPLE} AND (" * depth + _TRIPLE + ")" * depth,
        "compact-filter-parentheses": f"{_TRIPLE} FILTER " + "(" * depth + "bound(?y)" + ")" * depth,
        "compact-filter-negations": f"{_TRIPLE} FILTER " + "!(" * depth + "bound(?y)" + ")" * depth,
        "compact-select": "SELECT {?x} (" * depth + _TRIPLE + ")" * depth,
        "surface-groups": _SURFACE + "{ ?x <p> ?y " * depth + "}" * depth,
        "surface-optional": _SURFACE + "{ ?x <p> ?y OPTIONAL " * depth + "{ ?x <p> ?y }" + " }" * depth,
        "surface-union": _SURFACE + "{ " + "{ ?x <p> ?y } UNION { " * depth + "?x <p> ?y" + " }" * depth + " }",
        "surface-filter-parentheses": _SURFACE + "{ ?x <p> ?y FILTER" + "(" * depth + "bound(?y)" + ")" * depth + " }",
        **exists_nests(depth),
    }
