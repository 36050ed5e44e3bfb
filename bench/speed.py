"""Times at a reference machine speed.

On a shared virtual machine the speed of the vCPU drifts over minutes, in
wall and in CPU time alike: one ``normalize`` call measured 0.21 s and
0.41 s on the same input within a minute.  So the benchmark times a fixed
reference job right before every operation, and multiplies the measured
time of the operation by ``reference time / reference job time``.  A time
so rescaled is the time the operation would take on a machine where the
reference job takes its reference time; the measured times are printed
beside it.

The reference job is a pure-Python loop that allocates and walks frozen
dataclass trees and dicts, the same kind of work the kernel does.  For
library workloads it runs in the benchmark process.  For command-line
workloads it runs in a fresh interpreter started the same way as the
command, so that interpreter start is part of the reference too.  It calls
no kernel code, so a change to the kernel cannot move it.

Run as a script, this file is that fresh-interpreter reference job.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

REFERENCE_S = 0.02  # the loop, in process
CHILD_REFERENCE_S = 0.15  # interpreter start plus CHILD_LOOPS loops
CHILD_LOOPS = 3


@dataclass(frozen=True)
class _Node:
    label: int
    kids: tuple


def _build(depth: int, label: int) -> _Node:
    if depth == 0:
        return _Node(label, ())
    return _Node(label, tuple(_build(depth - 1, label * 3 + i) for i in range(3)))


def _walk(node: _Node, seen: dict) -> int:
    seen[node.label] = len(node.kids)
    return 1 + sum(_walk(kid, seen) for kid in node.kids)


def calibration_ns() -> int:
    """Time of the fixed calibration loop: 20 to 30 ms on the machine the
    baseline in bench/README.md was measured on."""
    start = perf_counter_ns()
    for label in range(2):
        tree = _build(7, label)
        seen: dict = {}
        _walk(tree, seen)
        repr(tree.kids[0].kids[0])
    return perf_counter_ns() - start


class SpeedMeter:
    """Reference-job samples taken through one run.

    With ``child`` set, each sample starts ``python speed.py`` with the
    given working directory and environment and times it to exit.
    """

    def __init__(self, child: tuple[Path, dict] | None = None) -> None:
        self.samples: list[int] = []
        self.child = child

    def factor(self) -> float:
        """Time the reference job now; return the factor from measured to
        reference-speed time for an operation that starts next."""
        if self.child is None:
            took, reference = calibration_ns(), REFERENCE_S
        else:
            cwd, env = self.child
            start = perf_counter_ns()
            subprocess.run([sys.executable, __file__], cwd=cwd, env=env, check=True,
                           capture_output=True, timeout=60)
            took, reference = perf_counter_ns() - start, CHILD_REFERENCE_S
        self.samples.append(took)
        return reference * 1e9 / took

    def median_factor(self) -> float:
        reference = REFERENCE_S if self.child is None else CHILD_REFERENCE_S
        return reference * 1e9 / statistics.median(self.samples)


if __name__ == "__main__":
    for _ in range(CHILD_LOOPS):
        calibration_ns()
