"""Command-line interface: corpus analysis, single checks, and the reduction lab."""

from __future__ import annotations

import argparse
import os
import sys

from .corpus import FORMATS, generate_corpus, read_corpus, read_text, write_corpus
from .errors import BoundTooLarge, InvalidConstants, SparqlSatError, UnknownFormat
from .report import PipelineOptions, check_options, format_verdict_text, stream_report
from .satisfiability import decide_satisfiability
from .syntax import parse_pattern, serialize_pattern
from .terms import Iri


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparqlsat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a query corpus file")
    analyze.add_argument("file")
    analyze.add_argument("--format", choices=FORMATS, default="delim")
    analyze.add_argument("--builtins-as-bound", action="store_true")
    analyze.add_argument("--repeats", type=int, default=5, help="timing repeats; 0 disables timing")
    analyze.add_argument("--mode", choices=("json", "table"), default="json")
    analyze.add_argument("--buckets", default="", help="comma-separated sizes for the scaling run")

    check = sub.add_parser("check", help="decide satisfiability of a single query file")
    check.add_argument("file")
    check.add_argument("--builtins-as-bound", action="store_true")

    dalab = sub.add_parser("dalab", help="binary relation algebra lab")
    dalab_sub = dalab.add_subparsers(dest="dalab_command", required=True)

    da_eval_cmd = dalab_sub.add_parser("eval", help="evaluate an expression on a relation")
    da_eval_cmd.add_argument("--expr", required=True, help="e.g. '(R . R) - R'")
    da_eval_cmd.add_argument("--relation", required=True, help="file with one 'a b' pair per line")

    compile_cmd = dalab_sub.add_parser("compile", help="compile an expression to a pattern")
    compile_cmd.add_argument("--expr", required=True)
    compile_cmd.add_argument("--variant", choices=("negbound", "eqneq", "eqc"), default="negbound")
    compile_cmd.add_argument("--const-a", default="a")
    compile_cmd.add_argument("--const-b", default="b")
    compile_cmd.add_argument("--wrapper", action="store_true", help="emit the satisfiability wrapper pattern")

    search_cmd = dalab_sub.add_parser("search", help="bounded model search for an expression")
    search_cmd.add_argument("--expr", required=True)
    search_cmd.add_argument("--max-adom", type=int, default=3)

    cnf_cmd = dalab_sub.add_parser("cnf", help="run the CNF -> choice cover -> pattern pipeline")
    cnf_cmd.add_argument("file", help="DIMACS-like CNF file")

    gen = sub.add_parser("gen", help="generate a synthetic corpus")
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--format", choices=FORMATS, default="delim")
    gen.add_argument("--error-rate", type=float, default=0.0)

    return parser


def _relation(text: str):
    pairs = set()
    for number, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 2:
            raise ValueError(f"line {number} of the relation holds {len(fields)} names, not 2")
        pairs.add((Iri(fields[0]), Iri(fields[1])))
    return frozenset(pairs)


def _cmd_analyze(args) -> int:
    try:
        buckets = tuple(int(b) for b in args.buckets.split(",") if b.strip())
    except ValueError:
        print(f"error: --buckets takes comma-separated sizes, not {args.buckets!r}", file=sys.stderr)
        return 2
    options = PipelineOptions(
        builtins_as_bound=args.builtins_as_bound,
        repeats=args.repeats,
        size_buckets=buckets,
    )
    try:
        check_options(options)  # before reading the corpus
        total = sum(1 for _ in read_corpus(args.file, args.format))  # split, not parsed
        check_options(options, total)
    except (OSError, UnknownFormat, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stream_report(lambda: read_corpus(args.file, args.format), total, options, sys.stdout, args.mode)
    return 0


def _cmd_check(args) -> int:
    try:
        text = read_text(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        pattern = parse_pattern(text)
        verdict = decide_satisfiability(pattern, builtins_as_bound=args.builtins_as_bound)
    except SparqlSatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_verdict_text(verdict))
    return 0


def _cmd_dalab(args) -> int:
    if args.dalab_command == "search" and args.max_adom < 1:
        print(f"error: --max-adom must be 1 or more, not {args.max_adom}", file=sys.stderr)
        return 2
    try:
        _run_dalab(args)
    except (OSError, SparqlSatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # an unreadable file or an option value out of range; else malformed content, as for `check`
        return 2 if isinstance(exc, (OSError, BoundTooLarge, InvalidConstants)) else 1
    return 0


def _run_dalab(args) -> None:
    from . import dalab  # only this command needs the reduction lab

    if args.dalab_command == "eval":
        expr = dalab.parse_da(args.expr)
        result = dalab.da_eval(expr, _relation(read_text(args.relation)))
        for x, y in sorted((x.name, y.name) for x, y in result):
            print(x, y)
    elif args.dalab_command == "compile":
        expr = dalab.parse_da(args.expr)
        if args.variant == "negbound":
            pattern = dalab.emulate_negbound(expr)
        elif args.variant == "eqneq":
            pattern = dalab.emulate_eqneq(expr)
        else:
            pattern = dalab.emulate_eqc(expr, Iri(args.const_a), Iri(args.const_b))
        if args.wrapper:
            if args.variant == "eqneq":
                pattern = dalab.two_sat_wrapper(expr)
            elif args.variant == "eqc":
                pattern = dalab.ab_sat_wrapper(expr, Iri(args.const_a), Iri(args.const_b))
        print(serialize_pattern(pattern))
    elif args.dalab_command == "search":
        expr = dalab.parse_da(args.expr)
        relation = dalab.bounded_sat_search(expr, args.max_adom)
        if relation is None:
            print(f"no model with active domain of size <= {args.max_adom}")
        else:
            for x, y in sorted((x.name, y.name) for x, y in relation):
                print(x, y)
    else:  # cnf
        cnf = dalab.parse_dimacs(read_text(args.file))
        instance = dalab.cnf_to_choice_cover(cnf)
        cover = dalab.choice_cover_solve(instance)
        brute = dalab.cnf_satisfiable(cnf)
        pattern = dalab.choice_cover_to_pattern(instance)
        verdict = decide_satisfiability(pattern)
        print(f"clauses: {len(cnf)}")
        print(f"brute-force satisfiable: {brute}")
        print(f"choice cover solvable:   {cover}")
        print(f"pattern verdict:         {format_verdict_text(verdict).splitlines()[0]}")


def _cmd_gen(args) -> int:
    if args.count < 0:
        print(f"error: --count must be 0 or more, not {args.count}", file=sys.stderr)
        return 2
    if not 0.0 <= args.error_rate <= 1.0:  # NaN fails this too
        print(f"error: --error-rate must lie between 0 and 1, not {args.error_rate}", file=sys.stderr)
        return 2
    queries = generate_corpus(args.count, args.seed, args.error_rate)
    try:
        write_corpus(args.out, queries, args.format)
    except (OSError, UnknownFormat) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(queries)} queries to {args.out}")
    return 0


_COMMANDS = {"analyze": _cmd_analyze, "check": _cmd_check, "dalab": _cmd_dalab, "gen": _cmd_gen}


def main(argv: list | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
    except BrokenPipeError:
        # the reader went away (as `| head` does); the Python docs' recipe
        # for SIGPIPE: point stdout at devnull so the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
