"""Arrival processes: when do vectors reach the server?

Three generators, all driven through :func:`repro.utils.rng.as_generator`
so a fixed seed yields a bit-identical arrival trace:

* :class:`PoissonArrivals` — memoryless open-loop traffic at a fixed
  mean rate (exponential inter-arrivals),
* :class:`BurstyArrivals` — an on/off modulated Poisson process
  (exponentially distributed phase durations, different rates per
  phase) modelling flash crowds,
* :class:`TraceArrivals` — replay of explicit arrival timestamps,
  loadable from / savable to JSON (in the style of
  ray-scheduler-prototype's ``replaytrace``).
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from pathlib import Path

from repro.errors import WorkloadError
from repro.utils.rng import as_generator


class ArrivalProcess(ABC):
    """Produces absolute arrival timestamps (seconds, non-decreasing)."""

    #: Human-readable name used in reports (doubles as the ``kind`` tag
    #: in the serialized form).
    name: str = "arrivals"

    @abstractmethod
    def arrival_times(self, n: int, seed=None) -> list[float]:
        """Return ``n`` absolute arrival times starting from t=0."""

    @abstractmethod
    def to_dict(self) -> dict:
        """JSON-ready spec: ``{"kind": <name>, ...parameters}``."""

    def __eq__(self, other) -> bool:
        """Value equality: same process type and parameters."""
        return type(other) is type(self) and other.to_dict() == self.to_dict()

    __hash__ = None  # mutable-style value object

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class PoissonArrivals(ArrivalProcess):
    """Open-loop Poisson traffic: ``rate`` vectors per simulated second."""

    name = "poisson"

    def __init__(self, rate: float):
        _check_finite("rate", rate)
        if rate <= 0:
            raise WorkloadError(f"arrival rate must be > 0, got {rate}")
        self.rate = float(rate)

    def arrival_times(self, n: int, seed=None) -> list[float]:
        _check_count(n)
        rng = as_generator(seed)
        gaps = rng.exponential(1.0 / self.rate, size=n)
        times, t = [], 0.0
        for g in gaps:
            t += float(g)
            times.append(t)
        return times

    def to_dict(self) -> dict:
        return {"kind": self.name, "rate": self.rate}


class BurstyArrivals(ArrivalProcess):
    """On/off modulated Poisson process (interrupted Poisson traffic).

    The source alternates between an ON phase (rate ``rate_on``, mean
    duration ``mean_on_s``) and an OFF phase (rate ``rate_off``, mean
    duration ``mean_off_s``); phase durations are exponential.  Because
    exponential inter-arrivals are memoryless, an arrival drawn past
    the phase boundary is discarded and redrawn at the new phase's
    rate — exact and deterministic under a fixed generator.
    """

    name = "bursty"

    def __init__(
        self,
        rate_on: float,
        rate_off: float = 0.0,
        *,
        mean_on_s: float = 1.0,
        mean_off_s: float = 1.0,
    ):
        for name, value in (
            ("rate_on", rate_on),
            ("rate_off", rate_off),
            ("mean_on_s", mean_on_s),
            ("mean_off_s", mean_off_s),
        ):
            _check_finite(name, value)
        if rate_on <= 0:
            raise WorkloadError(f"rate_on must be > 0, got {rate_on}")
        if rate_off < 0:
            raise WorkloadError(f"rate_off must be >= 0, got {rate_off}")
        if mean_on_s <= 0 or mean_off_s <= 0:
            raise WorkloadError(
                f"phase durations must be > 0, got on={mean_on_s} off={mean_off_s}"
            )
        self.rate_on = float(rate_on)
        self.rate_off = float(rate_off)
        self.mean_on_s = float(mean_on_s)
        self.mean_off_s = float(mean_off_s)

    def arrival_times(self, n: int, seed=None) -> list[float]:
        _check_count(n)
        rng = as_generator(seed)
        times: list[float] = []
        t = 0.0
        on = True
        phase_end = float(rng.exponential(self.mean_on_s))
        while len(times) < n:
            rate = self.rate_on if on else self.rate_off
            if rate > 0:
                nxt = t + float(rng.exponential(1.0 / rate))
                if nxt <= phase_end:
                    t = nxt
                    times.append(t)
                    continue
            t = phase_end
            on = not on
            mean = self.mean_on_s if on else self.mean_off_s
            phase_end = t + float(rng.exponential(mean))
        return times

    def to_dict(self) -> dict:
        return {
            "kind": self.name,
            "rate_on": self.rate_on,
            "rate_off": self.rate_off,
            "mean_on_s": self.mean_on_s,
            "mean_off_s": self.mean_off_s,
        }


class TraceArrivals(ArrivalProcess):
    """Replay of recorded arrival timestamps (seed is ignored)."""

    name = "trace"

    def __init__(self, times: list[float]):
        times = [float(t) for t in times]
        if not times:
            raise WorkloadError("an arrival trace needs at least one timestamp")
        for i, t in enumerate(times):
            if not math.isfinite(t):
                raise WorkloadError(f"arrival times must be finite, got times[{i}]={t}")
        if any(t < 0 for t in times):
            raise WorkloadError("arrival timestamps must be >= 0")
        if any(b < a for a, b in zip(times, times[1:])):
            raise WorkloadError("arrival timestamps must be non-decreasing")
        self.times = times

    def __len__(self) -> int:
        return len(self.times)

    def arrival_times(self, n: int, seed=None) -> list[float]:
        _check_count(n)
        if n > len(self.times):
            raise WorkloadError(
                f"trace holds {len(self.times)} arrivals, {n} requested"
            )
        return list(self.times[:n])

    def to_dict(self) -> dict:
        return {"kind": self.name, "times": list(self.times)}

    # ----------------------------------------------------------- JSON replay
    @classmethod
    def from_json(cls, path: str | Path) -> "TraceArrivals":
        """Load a trace written by :meth:`to_json`."""
        payload = json.loads(Path(path).read_text())
        try:
            times = payload["arrival_s"]
        except (TypeError, KeyError):
            raise WorkloadError(
                f"{path}: expected a JSON object with an 'arrival_s' list"
            ) from None
        return cls(times)

    def to_json(self, path: str | Path) -> None:
        """Write the trace as ``{"version": 1, "arrival_s": [...]}``."""
        Path(path).write_text(json.dumps({"version": 1, "arrival_s": self.times}))


def arrivals_from_dict(spec: dict) -> ArrivalProcess:
    """Rebuild an arrival process from its :meth:`~ArrivalProcess.to_dict` form."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise WorkloadError(f"arrival spec must be a dict with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    params = {k: v for k, v in spec.items() if k != "kind"}
    makers = {
        "poisson": lambda: PoissonArrivals(**params),
        "bursty": lambda: BurstyArrivals(**params),
        "trace": lambda: TraceArrivals(**params),
    }
    if kind not in makers:
        raise WorkloadError(
            f"unknown arrival kind {kind!r}; expected one of {sorted(makers)}"
        )
    try:
        return makers[kind]()
    except TypeError as exc:
        raise WorkloadError(f"bad parameters for {kind!r} arrivals: {exc}") from None


def _check_finite(name: str, value: float) -> None:
    # NaN slips through every ordered comparison and inf through the
    # positivity checks; both would corrupt the simulated timeline.
    if not math.isfinite(value):
        raise WorkloadError(f"{name} must be finite, got {value}")


def _check_count(n: int) -> None:
    if n <= 0:
        raise WorkloadError(f"number of arrivals must be > 0, got {n}")
