"""Command-line entry point: run any paper experiment, or serve online.

Examples
--------
::

    micco list                 # show available experiments
    micco fig7                 # quick Fig. 7 sweep
    micco tab4 --full          # full-scale Table IV (300 samples)
    micco serve --rate 500     # online serving under Poisson traffic
    micco serve --config examples/tenants.json   # multi-tenant + autoscale
    micco chaos --seed 0       # serving under seeded fault injection
    python -m repro tab6       # same, via the module
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="micco",
        description="MICCO reproduction: run a paper table/figure experiment.",
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment id (fig5, fig7, fig8, fig9, fig10, fig11, tab4, tab5, "
            "tab6, ablations), 'all', 'list', 'serve' (online serving "
            "simulator; see 'micco serve --help'), or 'chaos' (serving under "
            "fault injection; see 'micco chaos --help')"
        ),
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at full paper scale (slower; default is a quick configuration)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="with 'all': also write machine-readable results to PATH",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="micco serve",
        description=(
            "Online serving simulator: vectors arrive over simulated time, "
            "wait in a bounded admission queue, and execute under the chosen "
            "scheduler; reports latency SLO metrics (p50/p95/p99, throughput, "
            "drop rate) and writes a JSON latency report."
        ),
    )
    traffic = parser.add_argument_group("traffic")
    traffic.add_argument("--rate", type=float, default=100.0, help="mean arrival rate in vectors/second (default 100)")
    traffic.add_argument(
        "--arrivals",
        default="poisson",
        help=(
            "'poisson', 'bursty' (on/off phases at twice --rate, same mean), "
            "or a path to a JSON arrival trace written by TraceArrivals.to_json"
        ),
    )
    traffic.add_argument("--num-vectors", type=int, default=50, help="request-stream length (default 50)")
    traffic.add_argument("--seed", type=int, default=0, help="seed for workload and arrivals (default 0)")

    workload = parser.add_argument_group("workload")
    workload.add_argument("--vector-size", type=int, default=16, help="tensor slots per vector (default 16)")
    workload.add_argument("--tensor-size", type=int, default=256, help="tensor dimension length (default 256)")
    workload.add_argument("--repeated-rate", type=float, default=0.8, help="fraction of repeated tensors (default 0.8)")
    workload.add_argument("--batch", type=int, default=8, help="tensor batch dimension (default 8)")

    system = parser.add_argument_group("system")
    system.add_argument(
        "--scheduler",
        choices=("micco", "micco-naive", "groute", "roundrobin"),
        default="micco",
        help="pair->GPU scheduler under test (default micco)",
    )
    system.add_argument("--bounds", default="0,4,0", help="reuse-bound triple for --scheduler micco (default 0,4,0)")
    system.add_argument("--num-devices", type=int, default=4, help="simulated GPUs (default 4)")
    system.add_argument(
        "--config",
        metavar="PATH",
        help=(
            "ServeConfig JSON (ServeConfig.to_json): queue knobs, tenants, "
            "autoscaler and a fault plan nest inside; explicit flags override "
            "the file's values"
        ),
    )
    system.add_argument("--queue-capacity", type=int, default=None, help="admission-queue depth (default 64)")
    system.add_argument(
        "--queue-policy",
        choices=("auto", "fifo", "sjf", "weighted"),
        default=None,
        help="dispatch order (default auto: weighted-fair with tenants, else fifo)",
    )
    system.add_argument("--max-inflight", type=int, default=None, help="scheduling rounds dispatched but not complete (default 1)")
    system.add_argument(
        "--max-batch-vectors",
        type=int,
        default=None,
        help=(
            "coalesce up to this many mergeable queued vectors into one "
            "scheduling round (repeated tensors placed once, reused across "
            "the round; default 1: no batching)"
        ),
    )
    system.add_argument(
        "--batch-memory-frac",
        type=float,
        default=None,
        help=(
            "cap a round's combined unique-tensor footprint at this fraction "
            "of the alive pool's memory (default 0.5)"
        ),
    )
    system.add_argument(
        "--devices-per-node",
        type=int,
        default=None,
        help=(
            "group devices into nodes of this size (multi-node topology: "
            "inter-node transfers are slower, and node_lost faults kill "
            "whole nodes); default: single-node, no topology"
        ),
    )
    system.add_argument(
        "--sharded",
        action="store_true",
        help=(
            "two-level sharded control plane: a global router routes each "
            "vector to a per-node local scheduler (needs --devices-per-node)"
        ),
    )
    system.add_argument(
        "--sync-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "with --sharded: how often node runtimes report load/residency "
            "digests to the global router (default 0.05; between syncs the "
            "router routes on stale summaries)"
        ),
    )
    system.add_argument(
        "--routing",
        # Mirrors repro.serve.ROUTING_POLICIES; kept literal so building
        # the parser (and `micco --help`) never imports the serve stack.
        choices=("least-loaded", "residency-affinity", "threshold-local", "learned"),
        default=None,
        help="with --sharded: global routing policy (default least-loaded)",
    )
    system.add_argument(
        "--explore-floor",
        type=float,
        default=None,
        metavar="FRAC",
        help=(
            "with --routing learned: probability of routing a vector to a "
            "uniformly random shard instead of the predicted-fastest one "
            "(default 0.05; 0 disables exploration)"
        ),
    )
    system.add_argument(
        "--min-samples",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with --routing learned: completed-latency samples each shard "
            "must accumulate before predictions are trusted; until then the "
            "router falls back to the least-loaded ranking (default 24)"
        ),
    )
    system.add_argument(
        "--refit-interval",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with --routing learned: refit each per-shard predictor after "
            "this many new samples (default 16)"
        ),
    )
    system.add_argument(
        "--health",
        action="store_true",
        help=(
            "with --sharded: heartbeat health tracking on the global tier "
            "(suspicion scoring, quarantine/probation lifecycle, forwarding "
            "circuit breakers) — the defence against gray faults that are "
            "never announced"
        ),
    )
    system.add_argument(
        "--hedge",
        action="store_true",
        help=(
            "with --health: hedged dispatch — clone tickets stuck past the "
            "hedging deadline on suspect shards; first completion wins, the "
            "loser is cancelled exactly once"
        ),
    )
    system.add_argument(
        "--warm-restore",
        action="store_true",
        help=(
            "journal residency and replay it onto devices that come online "
            "(pre-warm the hottest tensors instead of starting cold)"
        ),
    )
    system.add_argument(
        "--fault-aware",
        action="store_true",
        help=(
            "fault-aware admission: shed vectors whose estimated completion "
            "probability under the live fault rate is too low "
            "(shed reason 'predicted-infeasible')"
        ),
    )
    system.add_argument(
        "--verify",
        choices=("off", "spot", "suspect-full"),
        default=None,
        help=(
            "result integrity mode: 'spot' audits a deterministic sample of "
            "pair outputs by recomputing them on a second device (the "
            "recompute doubles as the repair); 'suspect-full' escalates to "
            "auditing every pair of any ticket touching a blamed device "
            "(default off)"
        ),
    )
    system.add_argument(
        "--faults",
        metavar="PLAN",
        help="JSON fault plan (FaultPlan.to_json) to inject during the run",
    )

    output = parser.add_argument_group("output")
    output.add_argument("--json", metavar="PATH", default="serve_report.json", help="latency report path (default serve_report.json)")
    output.add_argument("--trace", metavar="PATH", help="also write a Chrome-trace of per-vector lifecycles")
    return parser


def build_chaos_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="micco chaos",
        description=(
            "Chaos-test the online serving loop: inject a seeded fault plan "
            "(transient kernel faults, permanent device loss, stragglers, "
            "transfer failures, silent data corruption) while vectors arrive "
            "over simulated time, and "
            "report recovery behaviour — retried/recovered counts, per-fault "
            "recovery latency, availability — alongside the latency SLOs.  "
            "Identical seeds give byte-identical reports."
        ),
        parents=[build_serve_parser()],
        add_help=False,  # the serve parent already contributes -h/--help
        conflict_handler="resolve",
    )
    faults = parser.add_argument_group("fault plan (ignored with --faults)")
    faults.add_argument("--kill", type=int, default=1, help="devices to lose permanently (default 1)")
    faults.add_argument(
        "--kill-nodes",
        type=int,
        default=0,
        help=(
            "whole nodes to lose permanently (correlated node_lost faults; "
            "needs --devices-per-node to expand beyond one device; default 0)"
        ),
    )
    faults.add_argument(
        "--cut-links",
        type=int,
        default=0,
        help=(
            "nodes whose inter-node links to sever (link_lost faults: the "
            "node's devices stay alive but cross-node fetches are staged "
            "through the host; needs --devices-per-node; default 0)"
        ),
    )
    faults.add_argument(
        "--flap-nodes",
        type=int,
        default=0,
        help=(
            "nodes to flap (node_flap gray faults: repeated short down/up "
            "cycles, never announced to the router; needs --devices-per-node "
            "to expand beyond one device; default 0)"
        ),
    )
    faults.add_argument(
        "--silence-nodes",
        type=int,
        default=0,
        help=(
            "nodes to silence (heartbeat_loss gray faults: devices keep "
            "executing but report nothing for a window; needs "
            "--devices-per-node; default 0)"
        ),
    )
    faults.add_argument(
        "--corrupt-devices",
        type=int,
        default=0,
        help=(
            "devices given a silent data_corruption window (each pair "
            "computed inside it flips a biased coin and may produce a wrong "
            "result without any error signal; pair with --verify to detect; "
            "default 0)"
        ),
    )
    faults.add_argument(
        "--bitflips",
        type=int,
        default=0,
        help=(
            "tensor_bitflip faults to inject (each corrupts the lowest-uid "
            "tensor resident on a device in place; default 0)"
        ),
    )
    faults.add_argument(
        "--corruption-prob",
        type=float,
        default=0.5,
        metavar="P",
        help=(
            "per-pair corruption probability inside a data_corruption "
            "window (default 0.5)"
        ),
    )
    faults.add_argument("--transient", type=int, default=2, help="transient kernel faults to inject (default 2)")
    faults.add_argument("--transfer", type=int, default=2, help="transfer faults to inject (default 2)")
    faults.add_argument("--stragglers", type=int, default=1, help="straggler windows to open (default 1)")
    faults.add_argument("--straggler-factor", type=float, default=4.0, help="straggler kernel-time multiplier (default 4)")
    faults.add_argument("--no-recovery", action="store_true", help="shed fault-affected vectors instead of re-scheduling them")
    faults.add_argument("--save-plan", metavar="PATH", help="also write the (generated or loaded) fault plan as JSON")
    parser.set_defaults(json="chaos_report.json")
    return parser


def run_serve(argv: list[str], *, chaos: bool = False) -> int:
    import json

    from repro.errors import ReproError

    prog = "chaos" if chaos else "serve"
    try:
        return _run_serve(argv, chaos=chaos)
    except json.JSONDecodeError as exc:
        # A config / arrivals / fault-plan file that exists but is not
        # valid JSON is a user error too, not a crash.
        print(f"micco {prog}: error: malformed JSON input: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        # Bad knob values (negative rate, odd vector size, ...) are user
        # errors, not crashes: report them like argparse would.
        print(f"micco {prog}: error: {exc}", file=sys.stderr)
        return 2


def _run_serve(argv: list[str], *, chaos: bool = False) -> int:
    args = (build_chaos_parser() if chaos else build_serve_parser()).parse_args(argv)
    from repro.core.config import MiccoConfig
    from repro.faults import FaultPlan
    from repro.schedulers.bounds import ReuseBounds
    from repro.schedulers.groute import GrouteScheduler
    from repro.schedulers.micco import MiccoScheduler
    from repro.schedulers.roundrobin import RoundRobinScheduler
    from repro.serve import (
        BurstyArrivals,
        HealthConfig,
        IntegrityConfig,
        PoissonArrivals,
        ServeConfig,
        TraceArrivals,
        serve,
    )
    from repro.workloads import SyntheticWorkload, WorkloadParams

    schedulers = {
        "micco": lambda: MiccoScheduler(ReuseBounds.from_sequence(args.bounds.split(","))),
        "micco-naive": lambda: MiccoScheduler(ReuseBounds.zeros()),
        "groute": lambda: GrouteScheduler(),
        "roundrobin": lambda: RoundRobinScheduler(),
    }

    # The config file is the base; explicit flags override its values.
    if args.config:
        config_path = Path(args.config)
        if not config_path.exists():
            print(f"serve config {args.config!r} does not exist", file=sys.stderr)
            return 2
        serve_cfg = ServeConfig.from_json(config_path)
    else:
        serve_cfg = ServeConfig()
    overrides = {}
    if args.queue_capacity is not None:
        overrides["queue_capacity"] = args.queue_capacity
    if args.queue_policy is not None:
        overrides["queue_policy"] = args.queue_policy
    if args.max_inflight is not None:
        overrides["max_inflight"] = args.max_inflight
    if args.max_batch_vectors is not None:
        overrides["max_batch_vectors"] = args.max_batch_vectors
    if args.batch_memory_frac is not None:
        overrides["batch_memory_frac"] = args.batch_memory_frac
    if args.sharded:
        overrides["sharded"] = True
    if args.sync_interval is not None:
        overrides["sync_interval_s"] = args.sync_interval
    if args.routing is not None:
        overrides["routing"] = args.routing
    if args.explore_floor is not None:
        overrides["explore_floor"] = args.explore_floor
    if args.min_samples is not None:
        overrides["min_samples"] = args.min_samples
    if args.refit_interval is not None:
        overrides["refit_interval"] = args.refit_interval
    if args.health or args.hedge:
        # --hedge implies --health; either flag layers onto any health
        # block the config file already carries.
        base = serve_cfg.health or HealthConfig()
        overrides["health"] = base.with_(hedging=base.hedging or args.hedge)
    if args.verify is not None:
        # --verify layers onto any integrity block the config carries,
        # mirroring how --health layers onto an existing health block.
        base = serve_cfg.integrity or IntegrityConfig()
        overrides["integrity"] = base.with_(mode=args.verify)
    if args.warm_restore:
        overrides["warm_restore"] = True
    if args.fault_aware:
        overrides["fault_aware_admission"] = True
    if chaos and args.no_recovery:
        overrides["recover_faults"] = False
    if overrides:
        serve_cfg = serve_cfg.with_(**overrides)

    # Multi-node topology: slower inter-node links, and node_lost fault
    # events expand to every device of the named node.
    micco_cfg = MiccoConfig(num_devices=args.num_devices)
    if args.devices_per_node is not None:
        from repro.gpusim import CostModel, Topology

        topo = Topology(
            num_devices=args.num_devices, devices_per_node=args.devices_per_node
        )
        micco_cfg = MiccoConfig(
            num_devices=args.num_devices, cost_model=CostModel(topology=topo)
        )

    if args.arrivals == "poisson":
        arrivals = PoissonArrivals(args.rate)
    elif args.arrivals == "bursty":
        arrivals = BurstyArrivals(rate_on=2 * args.rate, rate_off=0.0, mean_on_s=0.5, mean_off_s=0.5)
    else:
        path = Path(args.arrivals)
        if not path.exists():
            print(f"unknown arrival process {args.arrivals!r}: not 'poisson', 'bursty' or an existing JSON trace", file=sys.stderr)
            return 2
        arrivals = TraceArrivals.from_json(path)

    plan = None
    if args.faults:
        plan_path = Path(args.faults)
        if not plan_path.exists():
            print(f"fault plan {args.faults!r} does not exist", file=sys.stderr)
            return 2
        plan = FaultPlan.from_json(plan_path)
    elif serve_cfg.faults is not None:
        plan = serve_cfg.faults
    elif chaos:
        # No explicit plan: draw one from the seed over the expected
        # arrival span, so the same seed replays the same chaos.
        plan = FaultPlan.generate(
            args.seed,
            num_devices=args.num_devices,
            horizon_s=args.num_vectors / args.rate,
            n_transient=args.transient,
            n_transfer=args.transfer,
            n_straggler=args.stragglers,
            n_device_lost=args.kill,
            n_node_lost=args.kill_nodes,
            n_link_lost=args.cut_links,
            n_node_flap=args.flap_nodes,
            n_heartbeat_loss=args.silence_nodes,
            n_data_corruption=args.corrupt_devices,
            n_tensor_bitflip=args.bitflips,
            straggler_factor=args.straggler_factor,
            corruption_prob=args.corruption_prob,
        )
    if chaos and args.save_plan and plan is not None:
        plan.to_json(args.save_plan)
        print(f"fault plan written to {args.save_plan}")

    # One entry point for every mode: serve() picks MiccoServer or
    # ShardedServer from the ServeConfig alone.
    if serve_cfg.tenants:
        # Multi-tenant mode: the tenant specs define the traffic, so the
        # single-stream workload/arrival flags are unused.
        result = serve(
            serve_cfg,
            cluster=micco_cfg,
            scheduler=schedulers[args.scheduler](),
            seed=args.seed,
            faults=plan,
        )
        traffic = f"{len(serve_cfg.tenants)} tenants"
    else:
        params = WorkloadParams(
            vector_size=args.vector_size,
            tensor_size=args.tensor_size,
            repeated_rate=args.repeated_rate,
            num_vectors=args.num_vectors,
            batch=args.batch,
        )
        vectors = SyntheticWorkload(params, seed=args.seed).vectors()
        result = serve(
            serve_cfg,
            cluster=micco_cfg,
            scheduler=schedulers[args.scheduler](),
            vectors=vectors,
            arrivals=arrivals,
            seed=args.seed,
            faults=plan,
        )
        traffic = f"{args.arrivals} arrivals, mean rate {args.rate:g}/s"

    s = result.summary()
    print(f"served {s['completed']}/{s['offered']} vectors with {args.scheduler} ({traffic})")
    print(f"  latency   p50 {s['p50_s'] * 1e3:8.3f} ms   p95 {s['p95_s'] * 1e3:8.3f} ms   p99 {s['p99_s'] * 1e3:8.3f} ms")
    print(f"  throughput {s['throughput_vps']:8.1f} vectors/s   drop rate {s['drop_rate']:.1%} ({s['dropped']} shed)")
    print(f"  queue      peak depth {s['queue']['peak_depth']} / capacity {s['queue']['capacity']} ({s['queue']['policy']})")
    b = s["batching"]
    if b["batched_rounds"]:
        print(
            f"  batching   {b['rounds']} rounds ({b['batched_rounds']} batched, "
            f"mean {b['mean_round_vectors']:.2f} vectors/round, "
            f"max {b['max_round_vectors']})   "
            f"amortized dispatch {b['amortized_schedule_s'] * 1e3:.3f} ms"
        )
    if result.sharding is not None:
        sh = result.sharding
        alive = sum(1 for x in sh["shards"] if not x["dead"])
        print(
            f"  sharding   {sh['num_shards']} shard(s), {alive} alive   "
            f"routing {sh['routing']} (sync every {sh['sync_interval_s']:g}s, "
            f"{sh['syncs']} syncs)   "
            f"{sh['forwards']} forward(s), {sh['rerouted']} rerouted, "
            f"{sh['cross_node_fetches']} cross-node fetch(es)"
        )
    if result.routing is not None:
        r = result.routing
        errs = [
            s["mean_abs_err_ms"]
            for s in r["per_shard"].values()
            if s["mean_abs_err_ms"] is not None
        ]
        err = f"{sum(errs) / len(errs):.3f} ms" if errs else "n/a"
        print(
            f"  routing    learned: {r['learned']} predicted, "
            f"{r['fallback']} cold-start fallback(s), {r['explored']} explored "
            f"(floor {r['explore_floor']:g})   mean |err| {err}"
        )
    if result.tenants is not None:
        for name, sec in result.tenants.items():
            t = sec["summary"]
            verdict = "slo ok" if sec["slo"]["attained"] else "slo MISS"
            print(
                f"  tenant     {name:<12} weight {sec['weight']:g}   "
                f"p99 {t['p99_s'] * 1e3:8.3f} ms   "
                f"drop rate {t['drop_rate']:.1%} ({t['completed']}/{t['offered']})   {verdict}"
            )
    if result.autoscale is not None:
        a, c = result.autoscale, serve_cfg.autoscaler
        print(
            f"  autoscale  {a['scale_ups']} scale-up(s), {a['scale_downs']} scale-down(s) "
            f"within [{c.min_devices}, {c.max_devices}] devices"
        )
    if result.faults is not None:
        f = result.faults
        injected = ", ".join(f"{k} {v}" for k, v in f["injected"].items() if v)
        print(f"  faults     injected: {injected or 'none'}")
        print(
            f"  recovery   {f['transient_recovered']} kernels retried ok, "
            f"{f['transfer_refetches']} host re-fetches, "
            f"{f['rescheduled_pairs']} pairs re-scheduled after "
            f"{f['device_losses']} device loss(es)"
        )
        print(
            f"  health     availability {f['availability_pct']:.1f}%   "
            f"degraded {f['degraded_device_s'] * 1e3:.1f} device-ms   "
            f"abandoned {f['transient_abandoned']}"
        )
        if f.get("node_losses"):
            print(
                f"  domains    {f['node_losses']} node loss(es), "
                f"{f['cross_node_fetches']} cross-node re-fetch(es)"
            )
        if f.get("prewarmed_tensors") or f.get("predicted_infeasible"):
            print(
                f"  resilience {f['prewarmed_tensors']} tensor(s) pre-warmed, "
                f"{f['predicted_infeasible']} vector(s) shed predicted-infeasible"
            )
    if result.health is not None:
        h = result.health
        hedges = h["hedges"]
        print(
            f"  gray       {len(h['quarantine_episodes'])} quarantine(s), "
            f"{h['missed']} missed heartbeat(s), "
            f"{h['breakers']['opens']} breaker open(s)   "
            f"hedges: {hedges['launched']} launched, "
            f"{hedges['won_by_clone']} won by clone, "
            f"{hedges['cancelled']} cancelled"
        )
    if result.integrity is not None:
        it = result.integrity
        quarantined = it["blame"]["quarantined"]
        print(
            f"  integrity  {it['detected']}/{it['injected']} corruption(s) "
            f"detected ({it['detection_rate']:.0%})   "
            f"{it['repaired']} repaired, {it['flagged']} flagged, "
            f"{it['escaped']} escaped   "
            f"audited {it['audited_pairs']} pair(s) "
            f"(overhead {it['audit_overhead_frac']:.1%})   "
            f"quarantined: "
            f"{', '.join(str(d) for d in quarantined) if quarantined else 'none'}"
        )

    extra = {
        "config": {
            "scheduler": args.scheduler,
            "arrivals": args.arrivals,
            "rate": args.rate,
            "num_devices": args.num_devices,
            "seed": args.seed,
            "serve": serve_cfg.to_dict(),
        },
        "queue": s["queue"],
    }
    if serve_cfg.tenants:
        extra["config"]["arrivals"] = "tenants"
    if result.faults is not None and plan is not None:
        extra["fault_plan"] = plan.to_dicts()
    result.to_json(args.json, extra=extra)
    print(f"latency report written to {args.json}")
    if args.trace:
        result.to_trace().save_chrome_trace(args.trace)
        print(f"chrome trace written to {args.trace}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        return run_serve(argv[1:])
    if argv and argv[0] == "chaos":
        return run_serve(argv[1:], chaos=True)
    args = build_parser().parse_args(argv)
    from repro.experiments import EXPERIMENTS

    if args.experiment == "list":
        for name, module in EXPERIMENTS.items():
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:9s} {doc}")
        print("serve     Online serving simulator (see 'micco serve --help').")
        print("chaos     Serving under seeded fault injection (see 'micco chaos --help').")
        return 0
    if args.experiment == "all":
        from repro.experiments.runner import run_all, save_results

        results = run_all(quick=not args.full)
        for name, entry in results.items():
            print(f"\n===== {name} =====")
            print(entry["text"])
        if args.json:
            save_results(results, args.json)
            print(f"\nmachine-readable results written to {args.json}")
        return 0
    module = EXPERIMENTS.get(args.experiment)
    if module is None:
        print(f"unknown experiment {args.experiment!r}; try 'micco list'", file=sys.stderr)
        return 2
    print(module.main(quick=not args.full))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
