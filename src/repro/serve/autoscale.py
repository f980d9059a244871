"""p99-driven autoscaling of the simulated device pool.

An :class:`Autoscaler` watches two live signals as the serving event
loop advances — admission-queue depth and the p99 of end-to-end
latencies completed inside a sliding window — and decides when to grow
or shrink the alive device pool:

* **scale up** when the queue depth reaches ``up_queue_depth`` or the
  windowed p99 exceeds ``p99_target_s``; the new device pays a
  ``warmup_s`` delay before it becomes schedulable and joins with a
  cold memory pool (no resident tensors);
* **scale down** when the queue has drained to ``down_queue_depth``
  and the windowed p99 sits comfortably under target (below
  ``down_latency_frac × p99_target_s``); the retired device's
  in-flight pairs are re-scheduled onto the survivors through the same
  orphan-rescheduling path device *loss* recovery uses.

Every decision is a pure function of simulated time and observed
completions, so autoscaled runs replay bit-for-bit from a seed.  The
policy object keeps an ``actions`` log (scale-up/online/scale-down
records) that lands in the serving report.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.codec import JsonConfig


@dataclass(frozen=True)
class AutoscalerConfig(JsonConfig):
    """Knobs of the pool autoscaler.

    Parameters
    ----------
    min_devices, max_devices:
        Alive-pool bounds.  ``max_devices`` is additionally clamped to
        the cluster's physical device count at run time.
    initial_devices:
        Pool size at t=0 (default: ``min_devices``).
    p99_target_s:
        Windowed-p99 SLO target driving latency-based decisions;
        ``None`` disables the latency signal (queue depth only).
    window_s:
        Sliding-window width over which the p99 is computed.
    up_queue_depth:
        Queue depth at (or above) which the pool grows.
    down_queue_depth:
        Queue depth at (or below) which the pool may shrink.
    warmup_s:
        Delay between a scale-up decision and the device becoming
        schedulable (cold memory pool, no resident tensors).
    cooldown_s:
        Minimum simulated time between consecutive scaling decisions.
    down_latency_frac:
        Scale down only while the windowed p99 is below this fraction
        of ``p99_target_s`` (ignored when the latency signal is off).
    replace_lost:
        When True, a permanent device/node loss immediately requests
        one replacement per lost device (bypassing the cooldown clock —
        loss replacement is reactive, not a load decision).  The
        replacements still pay ``warmup_s`` and honour ``max_devices``.
    """

    BLOCK = "autoscaler"

    min_devices: int = 1
    max_devices: int = 8
    initial_devices: int | None = None
    p99_target_s: float | None = None
    window_s: float = 1.0
    up_queue_depth: int = 4
    down_queue_depth: int = 0
    warmup_s: float = 0.05
    cooldown_s: float = 0.25
    down_latency_frac: float = 0.5
    replace_lost: bool = False

    def __post_init__(self):
        if self.min_devices < 1:
            raise ConfigurationError(f"min_devices must be >= 1, got {self.min_devices}")
        if self.max_devices < self.min_devices:
            raise ConfigurationError(
                f"max_devices ({self.max_devices}) must be >= min_devices ({self.min_devices})"
            )
        if self.initial_devices is not None and not (
            self.min_devices <= self.initial_devices <= self.max_devices
        ):
            raise ConfigurationError(
                f"initial_devices ({self.initial_devices}) must lie in "
                f"[{self.min_devices}, {self.max_devices}]"
            )
        if self.p99_target_s is not None and self.p99_target_s <= 0:
            raise ConfigurationError(f"p99_target_s must be > 0, got {self.p99_target_s}")
        if self.window_s <= 0:
            raise ConfigurationError(f"window_s must be > 0, got {self.window_s}")
        if self.up_queue_depth < 1:
            raise ConfigurationError(f"up_queue_depth must be >= 1, got {self.up_queue_depth}")
        if self.down_queue_depth < 0:
            raise ConfigurationError(
                f"down_queue_depth must be >= 0, got {self.down_queue_depth}"
            )
        if self.down_queue_depth >= self.up_queue_depth:
            raise ConfigurationError(
                f"down_queue_depth ({self.down_queue_depth}) must be below "
                f"up_queue_depth ({self.up_queue_depth})"
            )
        if self.warmup_s < 0:
            raise ConfigurationError(f"warmup_s must be >= 0, got {self.warmup_s}")
        if self.cooldown_s < 0:
            raise ConfigurationError(f"cooldown_s must be >= 0, got {self.cooldown_s}")
        if not 0 < self.down_latency_frac <= 1:
            raise ConfigurationError(
                f"down_latency_frac must be in (0, 1], got {self.down_latency_frac}"
            )


class Autoscaler:
    """Runtime decision state for one serving run.

    Build a fresh instance per run (it accumulates the latency window,
    the cooldown clock and the action log).  The server drives it:
    :meth:`observe_completion` on every finished vector, :meth:`decide`
    at each event-loop step, :meth:`log` after applying a decision.
    """

    def __init__(self, config: AutoscalerConfig):
        self.config = config
        #: (complete_s, latency_s) pairs inside the sliding window.
        self._window: deque[tuple[float, float]] = deque()
        self._last_action_s = -math.inf
        #: Applied pool actions, in order: dicts with ``time_s``,
        #: ``action`` ("up" | "online" | "down"), ``device``,
        #: ``alive_after`` and ``reason``.
        self.actions: list[dict] = []

    # -------------------------------------------------------------- signals
    def observe_completion(self, now: float, latency_s: float) -> None:
        """Feed one completed vector's end-to-end latency."""
        self._window.append((now, float(latency_s)))
        self._prune(now)

    def _prune(self, now: float) -> None:
        horizon = now - self.config.window_s
        while self._window and self._window[0][0] < horizon:
            self._window.popleft()

    def windowed_p99(self, now: float) -> float:
        """p99 of latencies completed in the last ``window_s`` (NaN if none)."""
        self._prune(now)
        if not self._window:
            return float("nan")
        return float(np.percentile([lat for _, lat in self._window], 99))

    # ------------------------------------------------------------- decisions
    def decide(self, now: float, *, queue_depth: int, num_alive: int) -> str | None:
        """Return ``"up"``, ``"down"`` or ``None`` for the current state.

        ``num_alive`` must count devices already warming up, so one
        burst does not trigger a scale-up per event while the first
        replacement is still paying its warm-up delay.
        """
        c = self.config
        if now - self._last_action_s < c.cooldown_s:
            return None
        p99 = self.windowed_p99(now)
        overloaded = queue_depth >= c.up_queue_depth or (
            c.p99_target_s is not None and not math.isnan(p99) and p99 > c.p99_target_s
        )
        if overloaded and num_alive < c.max_devices:
            return "up"
        idle = queue_depth <= c.down_queue_depth and num_alive > c.min_devices
        if idle and c.p99_target_s is not None:
            idle = math.isnan(p99) or p99 < c.down_latency_frac * c.p99_target_s
        return "down" if idle else None

    def log(
        self,
        now: float,
        action: str,
        device: int,
        alive_after: int,
        reason: str = "",
        *,
        starts_cooldown: bool = True,
    ) -> None:
        """Record an applied action; decisions arm the cooldown clock.

        ``online`` records (warm-up completion) pass
        ``starts_cooldown=False`` — they finish an earlier ``up``
        decision rather than making a new one.
        """
        self.actions.append(
            {
                "time_s": float(now),
                "action": action,
                "device": int(device),
                "alive_after": int(alive_after),
                "reason": reason,
            }
        )
        if starts_cooldown:
            self._last_action_s = now
