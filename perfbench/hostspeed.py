"""How fast the host runs right now, from a fixed calibration loop.

On a shared host the CPU time of the same work drifts by tens of percent
over seconds to minutes (the neighbours' load on shared cores, caches and
memory), in CPU time as well as wall time.  The load generator runs
:func:`calibration_seconds` every ``INTERVAL_S`` of the measured window,
between two of its own requests, so the samples cover the window evenly.
A figure divided by :func:`slowdown` of those samples reads as if the host
had run at the reference speed throughout.

The loop mixes what the server spends its time on: interpreter work on
small object trees, dicts and strings, JSON, base64, small numpy calls,
and BLAS products of a size between the two execute workloads.  It uses
only the standard library and numpy, so no change to the repository's
code moves it.
"""

from __future__ import annotations

import base64
import json
import statistics
import time
from typing import Sequence

import numpy as np

#: Seconds between two calibrations in a measured window.
INTERVAL_S = 0.25
#: Thread CPU seconds of one calibration at the reference speed: about
#: its time on an idle 2-vCPU Xeon host.  Any fixed value would do; it only
#: sets the scale of the scaled figures.
REFERENCE_S = 0.007

_DOC = {"op": "execute", "id": 17, "sizes": list(range(12)), "name": "chain" * 4}
_SMALL = np.linspace(0.0, 1.0, 64).reshape(8, 8) + 4.0 * np.eye(8)
_MEDIUM = np.linspace(-1.0, 1.0, 256 * 256).reshape(256, 256)


class _Node:
    """A small expression tree: attribute access, calls and recursion,
    like the compiler's symbolic work."""

    def __init__(self, name: str, children: tuple):
        self.name = name
        self.children = children

    def weight(self) -> int:
        return len(self.name) + sum(child.weight() for child in self.children)


def _tree(depth: int) -> _Node:
    if depth == 0:
        return _Node("leaf", ())
    return _Node(f"n{depth}", (_tree(depth - 1), _tree(depth - 1)))


def _round() -> float:
    tree = _tree(3)
    seen = {(node.name, len(node.children)) for node in tree.children}
    line = json.dumps(_DOC)
    doc = json.loads(line)
    raw = base64.b64encode(line.encode())
    index = {str(key): key * key for key in doc["sizes"]}
    total = sum(index.values()) + len(base64.b64decode(raw)) + tree.weight() + len(seen)
    solved = np.linalg.solve(_SMALL, _SMALL[:, 0])
    return total + float(solved[0]) + float(np.dot(_SMALL[0], _SMALL[1]))


def calibration_seconds() -> float:
    """Thread CPU seconds of one fixed calibration loop (about
    ``REFERENCE_S``); time stolen from the vCPU does not count."""
    start = time.thread_time()
    for _ in range(220):
        _round()
    for _ in range(3):
        _MEDIUM @ _MEDIUM
    return time.thread_time() - start


def slowdown(samples: Sequence[float]) -> float:
    """The host's slowdown over a window: the mean calibration time over
    the reference.  The mean, because a window's CPU time is the sum of
    its parts, each slowed by the host speed of its moment."""
    return statistics.fmean(samples) / REFERENCE_S
