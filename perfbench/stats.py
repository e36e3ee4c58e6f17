"""Summary statistics and the closed measurement loop."""
from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

# Percentiles a timing may be reported at, highest last.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs))


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the *q*-th percentile among *n* samples
    (rounded first so 99.9 % of 10 000 is rank 9 990, not 9 991)."""
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(xs: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (a value that was actually measured)."""
    s = sorted(xs)
    return float(s[_rank(len(s), q) - 1])


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank *q*-th percentile of *n*."""
    return n - _rank(n, q)


def supported_percentiles(n: int) -> List[float]:
    """The median plus every higher percentile with at least
    ``MIN_BEYOND`` samples beyond it."""
    return [q for q in PERCENTILES if q == 50.0 or beyond(n, q) >= MIN_BEYOND]


@dataclass
class Iteration:
    """One call into the engine: its result (None when it raised or
    timed out) and whether the output check passed."""
    index: int
    result: Optional[object]
    ok: bool
    error: str = ""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    iterations: List[Iteration] = field(default_factory=list)

    def record(self, it: Iteration) -> None:
        self.attempted += 1
        self.failed += 0 if it.ok else 1
        self.iterations.append(it)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def completed(self) -> List[object]:
        """Results of every iteration that returned, checked or not."""
        return [it.result for it in self.iterations if it.result is not None]


def measure(run: Callable[[int], object], check: Callable[[object], bool],
            seconds: float, duration: Callable[[object], float],
            clock: Callable[[], float] = time.monotonic,
            min_iterations: int = 1) -> Tally:
    """Closed loop with one client: call ``run(i)``, wait for it, check
    its output, repeat.  A next call starts only while the run still
    expects to finish it within *seconds* (by the median duration so
    far).  A call that raises counts as failed, as does one whose output
    check fails."""
    tally = Tally()
    start = clock()
    i = 0
    while True:
        durations = [duration(r) for r in tally.completed()]
        elapsed = clock() - start
        if i >= min_iterations:
            expected = median(durations) if durations else 0.0
            if elapsed + expected > seconds:
                break
        try:
            result = run(i)
        except Exception as exc:  # an engine failure is a measured outcome
            traceback.print_exc(file=sys.stderr)
            tally.record(Iteration(i, None, False, repr(exc)))
        else:
            try:
                ok = bool(check(result))
                err = "" if ok else "output check failed"
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                ok, err = False, repr(exc)
            tally.record(Iteration(i, result, ok, err))
        i += 1
        if clock() - start > seconds and i >= min_iterations:
            break
    return tally
