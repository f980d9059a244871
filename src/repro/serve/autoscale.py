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
records) that lands in the serving report.  Each shard's autoscaler
also applies its decisions and owns the shard's pool membership.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.timeline import DeviceOnline
from repro.utils.codec import JsonConfig


@dataclass(frozen=True)
class AutoscalerConfig(JsonConfig):
    """Knobs of the pool autoscaler.

    Parameters
    ----------
    min_devices, max_devices:
        Alive-pool bounds.  Each shard's :class:`Autoscaler` clamps
        them (and ``initial_devices``) to the shard's device count.
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


def clamp_to_shard(config: AutoscalerConfig, num_devices: int) -> AutoscalerConfig:
    """``config`` with ``min/max/initial_devices`` clamped to a shard of
    ``num_devices`` devices (at least one device, ``min <= max``)."""
    lo = max(1, min(config.min_devices, num_devices))
    hi = max(lo, min(config.max_devices, num_devices))
    initial = config.initial_devices if config.initial_devices is not None else lo
    return config.with_(min_devices=lo, max_devices=hi, initial_devices=max(lo, min(initial, hi)))


class Autoscaler:
    """Pool size and membership of one shard for one serving run.

    Built fresh per run for shard ``node`` over ``devices`` (default
    ``range(config.max_devices)``), the only devices it retires or
    brings online; ``min/max/initial_devices`` are clamped to them here,
    once, by :func:`clamp_to_shard`.  The run calls
    :meth:`shrink_to_initial` at start, :meth:`step` at each event-loop
    step, :meth:`observe_completion`, :meth:`online` and
    :meth:`replace_lost` at their hooks, adds quarantined devices to
    :attr:`barred`, and lends it the work that needs run state:
    ``drain`` and ``rejoin``.
    """

    def __init__(self, config: AutoscalerConfig, devices=None, node: int = 0):
        if devices is None:
            devices = range(config.max_devices)
        self.devices = tuple(devices)
        self.node = int(node)
        self.config = clamp_to_shard(config, len(self.devices))
        #: (complete_s, latency_s) pairs inside the sliding window.
        self._window: deque[tuple[float, float]] = deque()
        self._last_action_s = -math.inf
        #: Devices warming up (scale-up or loss replacement).
        self.pending: set[int] = set()
        #: Devices that never rejoin the pool (integrity quarantine).
        self.barred: set[int] = set()
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
        replacement is still paying its warm-up delay.  The windowed
        p99 is computed only when ``p99_target_s`` is set.
        """
        c = self.config
        if now - self._last_action_s < c.cooldown_s:
            return None
        p99 = self.windowed_p99(now) if c.p99_target_s is not None else math.nan
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

    # ---------------------------------------------------------- pool actions
    def tag(self, text: str, sep: str = " ") -> str:
        """Prefix an action reason with the shard."""
        return f"shard {self.node}{sep}{text}"

    def shrink_to_initial(self, shard) -> None:
        """Retire the shard's highest alive devices down to the initial pool."""
        view = shard.view
        while view.num_alive > self.config.initial_devices:
            view.retire_device(view.alive_ids()[-1])
            shard.rescale_bounds()

    def step(self, now: float, shard, timeline, drain) -> None:
        """Decide for the shard's current state and apply the decision.

        A scale-down retires the highest alive device and hands it to
        ``drain(shard, device, now)``, which moves its in-flight pairs
        onto the survivors and returns how many vectors moved.
        """
        if shard.dead:
            return
        c = self.config
        view = shard.view
        depth = len(shard.queue)
        decision = self.decide(
            now, queue_depth=depth, num_alive=view.num_alive + len(self.pending)
        )
        if decision == "up":
            self.request_device(
                now, shard, timeline, self.tag(f"queue depth {depth}, warm-up {c.warmup_s:g}s")
            )
        elif decision == "down":
            # Never shrink below the floor or while a warm-up is pending
            # (mixed signals: the queue says grow, the window says shrink).
            if self.pending or view.num_alive <= c.min_devices:
                return
            dev = view.alive_ids()[-1]
            view.retire_device(dev)
            shard.rescale_bounds()
            moved = drain(shard, dev, now)
            self.log(
                now, "down", dev, view.num_alive,
                reason=self.tag(f"drained {moved} in-flight vectors"),
            )

    def spare(self, view) -> int | None:
        """The lowest retired device that may rejoin (not failed, pending or barred)."""
        for d in self.devices:
            if not (
                view.is_alive(d) or view.is_failed(d) or d in self.pending or d in self.barred
            ):
                return d
        return None

    def request_device(
        self, now: float, shard, timeline, reason: str, *, cooldown: bool = True
    ) -> bool:
        """Start warming up the shard's first spare device.

        False (nothing started) when no spare is left or the pool plus
        pending warm-ups already reaches ``max_devices``.
        """
        view = shard.view
        dev = self.spare(view)
        if dev is None or view.num_alive + len(self.pending) >= self.config.max_devices:
            return False
        self.pending.add(dev)
        timeline.push(DeviceOnline(now + self.config.warmup_s, device=dev))
        self.log(now, "up", dev, view.num_alive, reason=reason, starts_cooldown=cooldown)
        return True

    def replace_lost(self, now: float, shard, timeline, count: int) -> None:
        """With ``replace_lost``, request one warm-up per just-lost device.

        Reactive, so it bypasses the cooldown clock (a rack dying is not
        a load signal); replacements still pay ``warmup_s`` and stop at
        ``max_devices`` or when the spares run out.
        """
        c = self.config
        if not c.replace_lost:
            return
        reason = self.tag(f"replace lost device, warm-up {c.warmup_s:g}s", sep=": ")
        for _ in range(count):
            if not self.request_device(now, shard, timeline, reason, cooldown=False):
                return

    def online(self, now: float, dev: int, shard, rejoin) -> None:
        """A warm-up ended: ``dev`` joins the pool unless it died, was barred or is back.

        ``rejoin(shard, dev, now)`` does the run's part and returns the
        number of tensors pre-warmed.
        """
        if shard.dead:
            return
        self.pending.discard(dev)
        view = shard.view
        if view.is_failed(dev) or view.is_alive(dev) or dev in self.barred:
            return
        view.activate_device(dev)
        restored = rejoin(shard, dev, now)
        reason = "warm-up complete"
        if restored:
            reason += f", {restored} tensors pre-warmed"
        self.log(now, "online", dev, view.num_alive, reason=reason, starts_cooldown=False)


def autoscale_section(scalers: list[Autoscaler]) -> dict | None:
    """The report's autoscale section over every shard's autoscaler."""
    if not scalers:
        return None

    def count(actions, kind):
        return sum(1 for a in actions if a["action"] == kind)

    actions = sorted(
        (a for s in scalers for a in s.actions), key=lambda a: (a["time_s"], a["device"])
    )
    return {
        "scale_ups": count(actions, "up"),
        "scale_downs": count(actions, "down"),
        "actions": actions,
        "per_shard": {
            str(s.node): {
                "scale_ups": count(s.actions, "up"),
                "scale_downs": count(s.actions, "down"),
            }
            for s in scalers
        },
    }
