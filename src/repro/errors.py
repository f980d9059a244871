"""Exception hierarchy for the MICCO reproduction.

Every error raised intentionally by this library derives from
:class:`ReproError`, so downstream users can catch one type.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError, ValueError):
    """An invalid configuration value was supplied.

    Also a :class:`ValueError`: bad values passed at construction time
    (negative reuse bounds, out-of-range fractions, ...) are caught by
    plain ``except ValueError`` in generic callers.
    """


class SchedulingError(ReproError):
    """A scheduler produced (or was handed) an inconsistent assignment."""


class LifecycleError(SchedulingError):
    """A device was asked to take an edge missing from the lifecycle table."""

    def __init__(self, device_id: int, from_state: str, to_state: str):
        self.device_id, self.from_state, self.to_state = device_id, from_state, to_state
        super().__init__(f"device {device_id} cannot go from {from_state} to {to_state}")


class CapacityError(ReproError, RuntimeError):
    """A tensor cannot fit on a device even after evicting everything else.

    Also a :class:`RuntimeError`: capacity exhaustion happens at run
    time, not construction time, so generic callers that wrap a whole
    run in ``except RuntimeError`` see it without importing repro.
    """


class FaultError(ReproError, RuntimeError):
    """Base class for injected-fault failures the runtime could not hide.

    Raised only after recovery was attempted (or is impossible):
    transient faults that exhausted their retries, or work placed on a
    device that no longer exists.  Also a :class:`RuntimeError` for the
    same reason as :class:`CapacityError`.
    """


class TransientFaultError(FaultError):
    """A transient kernel fault persisted past the retry budget."""


class DeviceLostError(FaultError):
    """Work referenced a device that has been lost (permanent failure).

    Attributes
    ----------
    device_id:
        The lost device.
    pair_index:
        Index of the pair within its vector, when raised from
        :meth:`~repro.gpusim.engine.ExecutionEngine.execute_vector`;
        ``None`` for single-pair execution.
    """

    def __init__(self, device_id: int, pair_index: int | None = None):
        self.device_id = device_id
        self.pair_index = pair_index
        where = f" (pair index {pair_index})" if pair_index is not None else ""
        super().__init__(f"device {device_id} has been lost{where}")


class ModelError(ReproError):
    """An ML model was used before fitting or with malformed inputs."""


class GraphError(ReproError):
    """A contraction graph is malformed or cannot be contracted."""


class WorkloadError(ReproError):
    """A workload generator was configured with impossible parameters."""
