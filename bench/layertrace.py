"""Per-layer tracing from outside the program.

A traced round rebinds the names through which the layers call each other
(for example `satisfiability.scheme_table`, the name `run_pipeline` looks
up) to timing wrappers, and restores the originals afterwards.  Nothing in
the package changes, and an untraced round runs the original functions.

A span's self time is its duration minus the time of the spans it caused.
Spans are kept per operation and folded into the totals only when the
operation succeeded, so a crashing input adds nothing to any layer.  Times
are folded with the same machine-speed scale as the operation's own time.
"""

from __future__ import annotations

import time
from collections import defaultdict

from sparqlsat import corpus, dalab, evaluator, report, satisfiability, syntax, terms

#: (owner, attribute, layer, outermost-only) for every timed entry point.
#: Several names that lead to one function share a layer.
SPANS = (
    (syntax, "_tokenize", "syntax.tokenize", False),
    (syntax, "parse_pattern", "syntax.parse", False),
    (corpus, "parse_pattern", "syntax.parse", False),
    (corpus, "ingest_corpus", "corpus.ingest", False),
    (report, "analyze_batch", "report.analyze_batch", False),
    (report, "emit_report", "report.emit", False),
    (report, "format_verdict_text", "report.format_verdict", False),
    (report, "run_pipeline", "satisfiability.pipeline", False),
    (satisfiability, "run_pipeline", "satisfiability.pipeline", False),
    (satisfiability, "select_eliminate_info", "rewrites.select_eliminate", False),
    (satisfiability, "normalize_filters", "normalize", False),
    (satisfiability, "wrong_literal_reduce", "rewrites.wrong_literal", False),
    (satisfiability, "classify_fragment", "satisfiability.classify", False),
    (satisfiability, "union_free_split", "rewrites.union_split", False),
    (satisfiability, "is_well_designed", "welldesigned.check", False),
    (satisfiability, "scheme_table", "schemes.table", False),
    (satisfiability, "candidate_schemes", "schemes.candidates", False),
    (satisfiability, "extract_constraints", "welldesigned.extract", False),
    (satisfiability, "solve_constraints", "constraints.solve", False),
    (satisfiability, "evaluate", "evaluator.evaluate", True),
    (evaluator, "evaluate", "evaluator.evaluate", True),
    (dalab, "emulate_negbound", "dalab.compile", False),
    (dalab, "emulate_eqneq", "dalab.compile", False),
    (dalab, "emulate_eqc", "dalab.compile", False),
    (dalab, "da_eval", "dalab.da_eval", True),
)

#: Layers reported as self time per operation, in report order.
LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in SPANS))

#: Counts reported per operation.
COUNTS = (
    "syntax.tokens_per_op",
    "schemes.table_entries",
    "evaluator.join.calls",
    "evaluator.mappings_built",
    "terms.merge.calls",
    "constraints.solve.calls",
)


def pattern_size(node) -> int:
    """Node count, walked with an explicit stack so deep patterns cannot
    make the measurement itself fail."""
    size = 0
    todo = [node]
    while todo:
        node = todo.pop()
        size += 1
        for name in ("left", "right", "pattern"):
            child = getattr(node, name, None)
            if child is not None:
                todo.append(child)
    return size


class Tracer:
    """Installs the wrappers for one round and accumulates what they see."""

    def __init__(self):
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.ops = 0
        self.op_ns = 0
        self.covered_ns = 0
        self.table_max = 0
        self.growth_in = 0
        self.growth_out = 0
        self.solutions = 0
        self._saved = []
        self._finished = []
        self._reset_op()

    # -- one operation --------------------------------------------------------

    def _reset_op(self):
        self._stack = []
        self._depth = defaultdict(int)
        self._self = defaultdict(int)
        self._counts = defaultdict(int)
        self._covered = 0
        self._tables = []
        self._normalized = []
        self._solutions = 0

    def begin_op(self):
        self._reset_op()

    def end_op(self, op_ns: int, ok: bool):
        """Keep the operation's spans if it succeeded, for the next fold."""
        if ok:
            self._finished.append(
                (op_ns, self._covered, self._self, self._counts, self._tables, self._normalized, self._solutions)
            )
        self._reset_op()

    def fold(self, scale: float):
        """Add the kept operations to the totals, times multiplied by `scale`."""
        for op_ns, covered, selfs, counts, tables, normalized, solutions in self._finished:
            self.ops += 1
            self.op_ns += op_ns * scale
            self.covered_ns += covered * scale
            for layer, ns in selfs.items():
                self.self_ns[layer] += ns * scale
            for name, count in counts.items():
                self.counts[name] += count
            for table in tables:
                sizes = [len(family) for family in table.values()]
                self.counts["schemes.table_entries"] += sum(sizes)
                self.table_max = max(self.table_max, max(sizes, default=0))
            for before, after in normalized:
                self.growth_in += pattern_size(before)
                self.growth_out += pattern_size(after)
            self.solutions += solutions
        self._finished = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, layer: str, fn, outermost: bool):
        perf = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            depth = tracer._depth
            if outermost and depth[layer]:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [0]
            stack.append(frame)
            depth[layer] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                depth[layer] -= 1
                stack.pop()
                tracer._self[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    tracer._covered += elapsed
            tracer._observe(layer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, layer: str, args, result):
        """Cheap bookkeeping; anything that walks a tree waits for `fold`."""
        if layer == "syntax.tokenize":
            self._counts["syntax.tokens_per_op"] += len(result) - 1  # minus the end marker
        elif layer == "schemes.table":
            self._tables.append(result[1])
        elif layer == "normalize":
            self._normalized.append((args[0], result))
        elif layer == "constraints.solve":
            self._counts["constraints.solve.calls"] += 1
        elif layer == "evaluator.evaluate":
            self._solutions += len(result)

    def _counter(self, fn, calls: str | None = None, built: bool = False):
        """Counts calls under `calls` and, if `built`, the mappings returned."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = tracer._counts
            if calls is not None:
                counts[calls] += 1
            if built:
                counts["evaluator.mappings_built"] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, layer, outermost in SPANS:
            original = getattr(owner, attr)
            key = (id(original), layer)
            if key not in wrappers:
                wrappers[key] = self._span(layer, original, outermost)
            self._rebind(owner, attr, wrappers[key])
        self._rebind(evaluator, "join", self._counter(evaluator.join, "evaluator.join.calls", True))
        self._rebind(evaluator, "_match_triple", self._counter(evaluator._match_triple, built=True))
        self._rebind(terms.Mapping, "merge", self._counter(terms.Mapping.merge, "terms.merge.calls"))

    def _rebind(self, owner, attr: str, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures per successful traced operation."""
        ops = max(self.ops, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_us"] = self.self_ns[layer] / ops / 1e3
        for name in COUNTS:
            out[name] = self.counts[name] / ops
        out["schemes.table_max"] = float(self.table_max)
        out["normalize.growth"] = self.growth_out / self.growth_in if self.growth_in else 1.0
        built = self.counts["evaluator.mappings_built"]
        out["evaluator.useful_ratio"] = self.solutions / built if built else 0.0
        out["trace.op_us"] = self.op_ns / ops / 1e3
        out["trace.unattributed_us"] = (self.op_ns - self.covered_ns) / ops / 1e3
        return out
