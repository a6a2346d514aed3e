"""Line coverage measurement (Sect. C of the paper).

Line coverage is measured on the *original* (uninstrumented) function: a
tracing hook records every executed line of the function's code object while
the test inputs are replayed.  The denominator is the set of traceable source
lines of the function, which matches how Gcov counts executable lines.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.instrument.runtime import PROGRAM_ERRORS


def executable_lines(func: Callable) -> frozenset[int]:
    """The set of traceable source line numbers of ``func``."""
    code = func.__code__
    lines = {line for _, _, line in code.co_lines() if line is not None}
    lines.discard(code.co_firstlineno)  # the ``def`` line itself
    return frozenset(lines)


@dataclass
class LineCoverage:
    """Accumulates executed-line coverage of one Python function."""

    func: Callable
    lines: frozenset[int] = field(default_factory=frozenset)
    covered: set[int] = field(default_factory=set)
    executions: int = 0

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = executable_lines(self.func)

    def run(self, args: Sequence[float]) -> None:
        """Execute the function on ``args`` under the line tracer."""
        code = self.func.__code__
        hit: set[int] = set()

        def tracer(frame, event, _arg):
            if frame.f_code is code and event == "line":
                hit.add(frame.f_lineno)
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            self.func(*args)
        except PROGRAM_ERRORS:
            pass
        finally:
            sys.settrace(previous)
        self.executions += 1
        self.covered |= hit & self.lines

    def run_all(self, inputs: Iterable[Sequence[float]]) -> None:
        for args in inputs:
            self.run(args)

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    @property
    def n_covered(self) -> int:
        return len(self.covered)

    @property
    def percent(self) -> float:
        if not self.lines:
            return 100.0
        return 100.0 * len(self.covered) / len(self.lines)
