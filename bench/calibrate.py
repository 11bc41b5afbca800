"""A fixed pure-Python loop that measures how fast the machine runs now.

On a machine shared with other work, speed can change by half and more
within seconds.  The benchmark times this loop around every few
operations and reports each time scaled by CAL_REF_NS over the loop's time
around it: the time the operation would take where the loop takes
CAL_REF_NS.  The module imports only `gc` and `time`, so a fresh
interpreter can calibrate before it imports the package.
"""

import gc
import time

#: Reported times are scaled to a machine where `calibration_ns` takes this.
CAL_REF_NS = 500_000


class Node:
    __slots__ = ("left", "right", "tag")

    def __init__(self, left, right, tag):
        self.left, self.right, self.tag = left, right, tag


def _tree(depth: int, tag: int):
    return tag if depth == 0 else Node(_tree(depth - 1, 2 * tag), _tree(depth - 1, 2 * tag + 1), tag)


def _walk(node) -> frozenset:
    if isinstance(node, Node):
        return _walk(node.left) | _walk(node.right) | {node.tag % 29}
    return frozenset((node % 31,))


def _calibration_loop() -> int:
    table = {}
    for i in range(400):
        key = (i % 61, "k" + str(i % 37))
        table[key] = table.get(key, frozenset()) | {i % 13}
    total = sum(len(v) for _, v in sorted(table.items()))
    for tag in range(2):
        total += len(_walk(_tree(6, tag)))
    return total


def calibration_ns() -> int:
    """Time of a fixed pure-Python loop with the analyzer's kind of work:
    calls, slotted objects, tuples, dicts and frozensets.  The least of
    three tries, so a moment without the processor does not count.  The
    garbage collector is off meanwhile: a collection here would cost in
    proportion to the program's heap, not to the machine's speed."""
    best = None
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter_ns()
            _calibration_loop()
            elapsed = time.perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
    finally:
        if enabled:
            gc.enable()
    return best
