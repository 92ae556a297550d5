"""A fixed reference task, timed beside every operation to track host speed.

The host the benchmark runs on changes speed by up to 2x within a minute
(see README), which moves every wall-clock timing with it.  Before each
operation the closed loop times this task once.  It runs only benchmark
code, so a change to ``attackquant`` cannot change its cost, and its mix
is what the operations do: file reading, JSON parsing and dumping, and
pure-Python dict, set and sort work over an ``at/1`` tree.

``run.py`` scales each operation's latency by ``NOMINAL_S`` over the
median reference time of the operations around it, which gives the
latency on a host where the task takes exactly ``NOMINAL_S``.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time

import atgen

NOMINAL_S = 0.006  # about its median on the 2-vCPU host the README describes
WINDOW = 2  # reference times on each side of an operation that scale it


class Reference:
    def __init__(self, workdir: str):
        doc = atgen.tree_doc(random.Random(0), 300, False)
        self.text = json.dumps(doc, indent=1)
        self.path = os.path.join(workdir, "reference.at.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(self.text)

    def _work(self) -> int:
        counts: dict[str, int] = {}
        for i in range(4000):
            key = str(i % 997)
            counts[key] = counts.get(key, 0) + i
        ranked = sorted(counts.values(), key=lambda v: -v)
        pairs = {(i, i * 7 % 13) for i in range(1000)}
        model = atgen.AtModel(json.loads(self.text))
        total = atgen.fold(model, {leaf: 1.0 for leaf in model.leaves}, "mincost")
        with open(self.path, encoding="utf-8") as fh:
            doc = json.load(fh)
        model = atgen.AtModel(doc)
        total += atgen.fold(model, {leaf: 2.0 for leaf in model.leaves}, "mincost")
        return len(ranked) + len(pairs) + len(json.dumps(doc)) + int(total)

    def time(self) -> float:
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start


def scale_factors(ref_times: list[float]) -> list[float]:
    """NOMINAL_S over the median reference time in a window round each op.

    The reference for op i is timed just before it and the one for op
    i + 1 just after it, so the window brackets the operation.
    """
    return [NOMINAL_S / statistics.median(ref_times[max(0, i - WINDOW): i + WINDOW + 1])
            for i in range(len(ref_times))]
