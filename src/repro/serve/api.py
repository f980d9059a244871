"""Unified serving entry point: one ``serve()`` call for every mode.

Every serving mode is one :class:`~repro.serve.server.MiccoServer.run`
over the shards its server supplies.  :func:`make_server` picks the
server class from the :class:`~repro.serve.config.ServeConfig` alone —
:class:`~repro.serve.sharded.ShardedServer` (one shard per topology
node behind the global router) for ``sharded=True``,
:class:`~repro.serve.server.MiccoServer` (one whole-cluster shard)
otherwise — and :func:`serve` builds the server and runs it.  Whether
the traffic is one vector stream or a tenant roster is up to
``ServeConfig.tenants``, for either class.

Example
-------
>>> from repro.serve.api import serve
>>> result = serve(
...     ServeConfig(queue_capacity=32),
...     vectors=vectors,
...     arrivals=PoissonArrivals(200.0),
...     seed=7,
... )
>>> result.summary()["p99_s"]
"""

from __future__ import annotations

from repro.core.config import MiccoConfig
from repro.serve.config import ServeConfig
from repro.serve.result import ServeResult
from repro.serve.server import MiccoServer
from repro.serve.sharded import ShardedServer

__all__ = ["make_server", "serve"]


def make_server(
    config: ServeConfig | None = None,
    *,
    cluster: MiccoConfig | None = None,
    scheduler=None,
    predictor=None,
) -> MiccoServer:
    """Instantiate the server class ``config`` calls for.

    ``sharded=True`` selects :class:`ShardedServer`, anything else the
    one-shard :class:`MiccoServer`.

    Parameters
    ----------
    config:
        Serving-layer configuration (defaults to ``ServeConfig()``).
    cluster:
        Cluster + cost-model configuration (defaults to
        ``MiccoConfig()``).  Sharded mode needs a multi-node
        :class:`~repro.gpusim.topology.Topology` on its cost model.
    scheduler:
        Pair→GPU scheduler (defaults to MICCO).
    predictor:
        Optional reuse-bound predictor, forwarded verbatim.
    """
    cfg = config if config is not None else ServeConfig()
    cls = ShardedServer if cfg.sharded else MiccoServer
    return cls(scheduler, cluster, cfg, predictor)


def serve(
    config: ServeConfig | None = None,
    *,
    cluster: MiccoConfig | None = None,
    scheduler=None,
    predictor=None,
    vectors=None,
    arrivals=None,
    seed=0,
    faults=None,
    reset: bool = True,
) -> ServeResult:
    """Run one serving simulation; the mode comes from ``config`` alone.

    Single-stream modes take the request stream as ``vectors`` (a list
    of :class:`~repro.tensor.spec.VectorSpec`) plus ``arrivals`` (an
    :class:`~repro.serve.arrivals.ArrivalProcess` or explicit
    timestamps).  When ``config.tenants`` is set the streams are drawn
    from the tenant specs instead and ``vectors``/``arrivals`` must be
    omitted.

    ``seed`` drives every stochastic draw (arrivals, tenant workloads,
    fault application order); identical arguments give byte-identical
    :class:`~repro.serve.result.ServeResult` reports.  ``faults``
    (a :class:`~repro.faults.plan.FaultPlan`) takes precedence over
    ``config.faults``.
    """
    server = make_server(
        config, cluster=cluster, scheduler=scheduler, predictor=predictor
    )
    return server.run(vectors, arrivals, seed=seed, reset=reset, faults=faults)
