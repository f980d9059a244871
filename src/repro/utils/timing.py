"""Wall-clock accounting used to reproduce Table V (scheduling overhead)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Stopwatch:
    """Accumulating stopwatch with named buckets.

    The MICCO session clocks scheduler decisions separately from
    simulated execution so that Table V's "scheduling overhead vs total
    time" split can be reported from real measurements.

    Example
    -------
    >>> sw = Stopwatch()
    >>> with sw.measure("schedule"):
    ...     pass
    >>> sw.total("schedule") >= 0.0
    True
    """

    buckets: dict[str, float] = field(default_factory=dict)

    def measure(self, bucket: str):
        """Context manager adding the elapsed time to ``bucket``."""
        return _Measurement(self, bucket)

    def add(self, bucket: str, seconds: float) -> None:
        self.buckets[bucket] = self.buckets.get(bucket, 0.0) + seconds

    def total(self, bucket: str) -> float:
        return self.buckets.get(bucket, 0.0)

    def reset(self) -> None:
        self.buckets.clear()


class _Measurement:
    __slots__ = ("_sw", "_bucket", "_start")

    def __init__(self, sw: Stopwatch, bucket: str):
        self._sw = sw
        self._bucket = bucket
        self._start = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._sw.add(self._bucket, time.perf_counter() - self._start)
        return False
