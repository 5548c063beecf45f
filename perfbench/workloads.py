"""The benchmark's three workloads, built from the program's public API.

Each workload runs one *repetition* from a seed: it builds fresh
clusters, drives them for a fixed span of virtual time and returns a
:class:`Rep` holding the host timings, the virtual results and an exact
fingerprint of the simulated run. The same seed gives the same
fingerprint; ``run.py`` checks that across repetitions and between the
traced and the untraced run.

All three use pandora on the default benchmark topology (2 memory x 2
compute nodes, 16 coordinators per compute node) unless stated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import repro.load.engine as load_engine
from repro.bench.harness import default_config
from repro.chaos.oracle import check_cluster
from repro.cluster.builder import Cluster
from repro.load import ConservationMonitor, LoadResult, OpenLoopEngine, UserPopulation
from repro.workloads import MicroBenchmark, SmallBank, Tatp

import metrics

WARMUP = 2e-3


@dataclass
class Rep:
    """One repetition of a workload."""

    setup_s: float
    run_s: float
    commits: int  # every commit the timed simulation produced
    events: int
    virtual: Dict[str, float]  # end-to-end virtual metrics
    layer: Dict[str, float]  # per-layer virtual counts and latencies
    fingerprint: Dict[str, Any]
    violations: List[str] = field(default_factory=list)
    clusters: List[Any] = field(default_factory=list)


def verb_counts(cluster) -> Dict[str, Dict[str, int]]:
    return {
        f"m{node_id}": dict(sorted(node.verb_counts.items()))
        for node_id, node in sorted(cluster.memory_nodes.items())
    }


def latency_metrics(hist, into: Dict[str, float]) -> None:
    """Median, p99 and p999 of a seconds histogram, in microseconds.

    Raises when the sample cannot support p999: the workloads are sized
    so that it always can.
    """
    into["lat_p50_us"] = hist.percentile(50) * 1e6
    into["lat_p99_us"] = hist.percentile(99) * 1e6
    p999, beyond = metrics.supported_percentile(hist, 99.9)
    if p999 is None:
        raise metrics.BenchmarkError(
            f"p999 unsupported: {beyond} samples beyond it, need {metrics.MIN_SAMPLES_BEYOND}"
        )
    into["lat_p999_us"] = p999 * 1e6
    into["lat_samples"] = hist.count
    into["lat_p999_beyond"] = beyond


def protocol_layer(cluster, into: Dict[str, float]) -> None:
    stats = cluster.aggregate_stats()
    into["protocol.commits"] = stats.commits
    into["protocol.attempts"] = stats.attempts
    into["protocol.locks_stolen"] = stats.locks_stolen
    into["protocol.steal_retries"] = stats.steal_retries
    for reason, count in stats.abort_reasons.items():
        if reason not in metrics.APPLICATION_ABORTS:
            key = f"protocol.retry.{reason}"
            into[key] = into.get(key, 0) + count


def add_layers(total: Dict[str, float], part: Dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


class OracleTimer:
    """Times the chaos oracle the load engine calls after its run.

    The oracle is a correctness check, not part of the simulation, so
    its host time is taken out of the run time.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._original = None

    def __enter__(self):
        self._original = load_engine.check_cluster

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return self._original(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start

        load_engine.check_cluster = timed
        return self

    def __exit__(self, *exc) -> None:
        load_engine.check_cluster = self._original


def record_requests(population: UserPopulation, sim) -> List:
    """Keep every request the population hands out (virtual only, no timing).

    Also checks the generator's lag: the arrival loop admits each
    request at its intended virtual time, so ``sim.now - intended`` must
    be zero; the largest lag is kept on the list as ``max_lag``.
    """
    requests = _Requests()
    next_request = population.next_request

    def recording(now):
        request = next_request(now)
        requests.append(request)
        lag = sim.now - now
        if lag > requests.max_lag:
            requests.max_lag = lag
        return request

    population.next_request = recording
    return requests


class _Requests(list):
    max_lag = 0.0


def merge_results(results) -> LoadResult:
    """Pool the sub-runs of one offered rate into one result."""
    first = results[0]
    merged = LoadResult(first.protocol, first.workload, first.arrivals, first.offered,
                        sum(r.duration for r in results))
    for r in results:
        for name in ("intended", "completed", "commits", "aborts", "unknown", "censored",
                     "backlog_end"):
            setattr(merged, name, getattr(merged, name) + getattr(r, name))
        merged.abort_reasons.update(r.abort_reasons)
        merged.co.merge(r.co)
        merged.service.merge(r.service)
    merged.queue_depth_mean = sum(r.queue_depth_mean for r in results) / len(results)
    return merged


def open_loop_layer(result, runs, into: Dict[str, float]) -> None:
    """Queue wait, service time, queue depth and generator lag of one offered rate.

    *runs* holds each sub-run's ``(requests, horizon)``.
    """
    waits = [
        r.dispatched - r.intended
        for requests, _ in runs for r in requests
        if r.intended >= WARMUP and r.dispatched is not None
    ]
    wait_p50, wait_p99 = metrics.quantile_values(waits)
    into["load.queue_wait_p50_us"] = wait_p50 * 1e6
    into["load.queue_wait_p99_us"] = wait_p99 * 1e6
    into["load.service_p50_us"] = result.service.percentile(50) * 1e6
    into["load.service_p99_us"] = result.service.percentile(99) * 1e6
    into["load.queue_depth_mean"] = result.queue_depth_mean
    into["load.backlog_end"] = result.backlog_end
    into["load.backlog_window_end"] = max(
        metrics.backlog_at(requests, horizon) for requests, horizon in runs
    )
    into["load.gen_lag_us"] = max(requests.max_lag for requests, _ in runs) * 1e6


def open_loop_fingerprint(result, cluster) -> Dict[str, Any]:
    return {
        "intended": result.intended,
        "completed": result.completed,
        "commits": result.commits,
        "aborts": result.aborts,
        "unknown": result.unknown,
        "censored": result.censored,
        "abort_reasons": dict(sorted(result.abort_reasons.items())),
        "backlog_end": result.backlog_end,
        "co_samples": result.co.count,
        "sim_events": cluster.sim.processed_events,
        "verb_counts": verb_counts(cluster),
        "violations": list(result.violations),
    }


def open_loop_checks(result) -> List[str]:
    problems = list(result.violations)
    identity = metrics.check_co_identity(
        result.intended, result.completed, result.unknown, result.censored
    )
    if identity:
        problems.append(identity)
    if result.completed != result.commits + result.aborts:
        problems.append(
            f"completed {result.completed} != commits {result.commits} + aborts {result.aborts}"
        )
    return problems


class TatpSteady:
    """Closed loop TATP, uniform keys, no failures."""

    name = "tatp-steady"
    workload_classes = (Tatp,)
    params = {
        "protocol": "pandora", "loop": "closed", "subscribers": 50_000,
        "coordinators": "2x16", "warmup_ms": WARMUP * 1e3, "duration_ms": 6.0,
        "quiesce_ms": 10.0,
    }

    def build(self, seed: int):
        """Set-up only: build and start the cluster; returns it with its history sink."""
        cluster = Cluster(default_config(seed=seed), Tatp(subscribers=self.params["subscribers"]))
        history: List = []
        for coordinator in cluster.all_coordinators():
            coordinator.history_sink = history
        cluster.start()
        return cluster, history

    def rep(self, seed: int, on_built=None) -> Rep:
        start = time.perf_counter()
        cluster, history = self.build(seed)
        built = time.perf_counter()
        if on_built is not None:
            on_built(cluster)
        duration = self.params["duration_ms"] * 1e-3
        cluster.run(until=WARMUP + duration)
        ran = time.perf_counter()
        stats = cluster.aggregate_stats()
        events = cluster.sim.processed_events

        virtual: Dict[str, float] = {
            "sim_tps": cluster.timeline.rate_between(WARMUP, WARMUP + duration),
        }
        latency_metrics(stats.latency, virtual)
        layer: Dict[str, float] = {"sim.events": events, "requests": stats.commits}
        protocol_layer(cluster, layer)

        # Quiesce: stop new transactions, let in-flight ones finish, check.
        for node in cluster.compute_nodes.values():
            node.pause()
        cluster.run(until=cluster.sim.now + self.params["quiesce_ms"] * 1e-3)
        violations = [str(v) for v in check_cluster(cluster, history)]
        fingerprint = {
            "commits": stats.commits,
            "attempts": stats.attempts,
            "aborts": stats.aborts,
            "abort_reasons": dict(sorted(stats.abort_reasons.items())),
            "sim_events": events,
            "verb_counts": verb_counts(cluster),
            "history": len(history),
            "violations": violations,
        }
        return Rep(built - start, ran - built, stats.commits, events, virtual, layer,
                   fingerprint, violations, [cluster])


class OpenLoop:
    """Shared open-loop runner.

    Each offered rate runs as one or more independent sub-runs (fresh
    cluster, sub-seed ``16 * seed + k``) whose results are pooled: a
    tail shaped by rare events (a near-saturation busy period, a crash)
    settles faster over independent runs than over one long run.
    """

    users = 0
    zipf_theta = 0.99

    def build(self, seed: int) -> None:
        """Set-up only: build every cluster a repetition needs."""
        for kwargs in self.points():
            for k in range(kwargs.pop("subruns")):
                self.build_point(16 * seed + k, **kwargs)

    def build_point(self, seed: int, offered: float, duration: float, memory_nodes: int = 2,
                    crashes: Optional[Dict[str, float]] = None,
                    restart_after: Optional[float] = None):
        cfg = default_config(seed=seed, memory_nodes=memory_nodes,
                             restart_failed_after=restart_after)
        workload = self.make_workload()
        cluster = Cluster(cfg, workload)
        population = UserPopulation(workload, users=self.users, zipf_theta=self.zipf_theta,
                                    seed=seed)
        requests = record_requests(population, cluster.sim)
        crashes = crashes or {}
        if "memory" in crashes:
            cluster.crash_memory(0, at=WARMUP + crashes["memory"])
        crash_compute = [(0, WARMUP + crashes["compute"])] if "compute" in crashes else []
        engine = OpenLoopEngine(
            cluster, population, offered, duration, warmup=WARMUP, seed=seed + 7,
            monitors=self.monitors(workload), check_oracle=True, crash_compute=crash_compute,
        )
        return cluster, engine, requests

    def point(self, seed: int, on_built, subruns: int, **kwargs):
        """Build and drive one offered rate over its sub-runs; returns the pooled point."""
        setup_s = run_s = 0.0
        results, runs, clusters = [], [], []
        for k in range(subruns):
            start = time.perf_counter()
            cluster, engine, requests = self.build_point(16 * seed + k, **kwargs)
            built = time.perf_counter()
            if on_built is not None:
                on_built(cluster)
            with OracleTimer() as oracle:
                results.append(engine.run())
                ran = time.perf_counter()
            setup_s += built - start
            run_s += ran - built - oracle.seconds
            runs.append((requests, WARMUP + kwargs["duration"]))
            clusters.append(cluster)
        result = merge_results(results)
        layer: Dict[str, float] = {}
        open_loop_layer(result, runs, layer)
        for cluster in clusters:
            counts = {"sim.events": cluster.sim.processed_events}
            protocol_layer(cluster, counts)
            add_layers(layer, counts)
        violations = [v for r in results for v in open_loop_checks(r)]
        if layer["load.gen_lag_us"] != 0:
            violations.append(f"arrival generator lagged {layer['load.gen_lag_us']} us")
        return {
            "setup_s": setup_s,
            "run_s": run_s,
            "result": result,
            "clusters": clusters,
            "layer": layer,
            "violations": violations,
            "fingerprint": [open_loop_fingerprint(r, c) for r, c in zip(results, clusters)],
        }

    def monitors(self, workload):
        return []


class HotkeyLadder(OpenLoop):
    """Open loop hot-key RMW microbenchmark over an offered-rate ladder."""

    name = "hotkey-ladder"
    workload_classes = (MicroBenchmark,)
    users = 64
    rungs = (200_000.0, 300_000.0, 400_000.0, 500_000.0, 600_000.0)
    latency_rung = 400_000.0
    params = {
        "protocol": "pandora", "loop": "open", "arrivals": "poisson", "keys": 1_000,
        "ops_per_txn": 2, "rmw": True, "users": 64, "zipf_theta": 0.99,
        "rungs_tps": list(rungs), "latency_rung_tps": latency_rung,
        "warmup_ms": WARMUP * 1e3, "duration_ms": 10.0,
        "latency_rung_subruns": 8, "latency_rung_duration_ms": 20.0,
        "slo_p99_us": metrics.SLO_P99_LIMIT_US, "backlog_limit_ms": metrics.BACKLOG_LIMIT_S * 1e3,
    }

    def make_workload(self):
        return MicroBenchmark(
            num_keys=1_000, write_ratio=0.5, ops_per_txn=2, zipf_theta=0.99, rmw=True
        )

    def points(self):
        # The latency rung is pooled over sub-runs: near the knee its
        # tail needs many busy periods to settle, and p999 needs 10
        # samples beyond it.
        p = self.params
        points = []
        for offered in self.rungs:
            latency = offered == self.latency_rung
            points.append({
                "offered": offered,
                "subruns": p["latency_rung_subruns"] if latency else 1,
                "duration": 1e-3 * (p["latency_rung_duration_ms"] if latency
                                    else p["duration_ms"]),
            })
        return points

    def rep(self, seed: int, on_built=None) -> Rep:
        setup_s = run_s = 0.0
        virtual: Dict[str, float] = {}
        layer: Dict[str, float] = {}
        fingerprint: Dict[str, Any] = {}
        violations: List[str] = []
        ladder = []
        clusters = []
        for kwargs in self.points():
            offered = kwargs["offered"]
            point = self.point(seed, on_built, **kwargs)
            result = point["result"]
            setup_s += point["setup_s"]
            run_s += point["run_s"]
            clusters += point["clusters"]
            rung = point["layer"]
            growing = metrics.backlog_growing(rung["load.backlog_window_end"], offered)
            p99_us = result.co.percentile(99) * 1e6
            ladder.append((offered, p99_us, growing))
            label = f"{int(offered / 1000)}k"
            fingerprint[label] = point["fingerprint"]
            violations += [f"{label}: {v}" for v in point["violations"]]
            virtual[f"rung.{label}.co_p99_us"] = p99_us
            virtual[f"rung.{label}.backlog_growing"] = int(growing)
            if offered == self.latency_rung:
                virtual["sim_tps"] = result.commits / result.duration
                latency_metrics(result.co, virtual)
                virtual["fail_frac"] = metrics.fail_frac(
                    result.intended, result.abort_reasons, result.unknown, result.censored
                )
                layer.update({k: v for k, v in rung.items() if k.startswith("load.")})
            add_layers(layer, {k: v for k, v in rung.items() if not k.startswith("load.")})
            layer["requests"] = layer.get("requests", 0) + result.intended
        virtual["slo_max_tps"] = metrics.slo_max_tps(ladder)
        commits = sum(c.aggregate_stats().commits for c in clusters)
        return Rep(setup_s, run_s, commits, int(layer["sim.events"]), virtual, layer,
                   fingerprint, violations, clusters)


class SmallbankFailover(OpenLoop):
    """Open loop SmallBank through a compute crash and a later memory crash."""

    name = "smallbank-failover"
    workload_classes = (SmallBank,)
    users = 10_000
    offered = 500_000.0
    params = {
        "protocol": "pandora", "loop": "open", "arrivals": "poisson", "accounts": 100_000,
        "mix": "send_payment 60 / amalgamate 25 / balance 15", "users": 10_000,
        "zipf_theta": 0.99, "offered_tps": offered, "memory_nodes": 3,
        "warmup_ms": WARMUP * 1e3, "duration_ms": 30.0, "subruns": 3,
        "compute_crash_ms": 8.0, "restart_after_recovery_ms": 2.0, "memory_crash_ms": 20.0,
    }

    def make_workload(self):
        return SmallBank(accounts=self.params["accounts"], conserving_only=True)

    def monitors(self, workload):
        return [ConservationMonitor(workload)]

    def points(self):
        p = self.params
        return [{
            "offered": self.offered,
            "subruns": p["subruns"],
            "duration": p["duration_ms"] * 1e-3,
            "memory_nodes": p["memory_nodes"],
            "crashes": {"compute": p["compute_crash_ms"] * 1e-3,
                        "memory": p["memory_crash_ms"] * 1e-3},
            "restart_after": p["restart_after_recovery_ms"] * 1e-3,
        }]

    def rep(self, seed: int, on_built=None) -> Rep:
        p = self.params
        point = self.point(seed, on_built, **self.points()[0])
        result, clusters = point["result"], point["clusters"]
        virtual: Dict[str, float] = {"sim_tps": result.commits / result.duration}
        latency_metrics(result.co, virtual)
        virtual["fail_frac"] = metrics.fail_frac(
            result.intended, result.abort_reasons, result.unknown, result.censored
        )
        layer = dict(point["layer"], requests=result.intended)
        violations = point["violations"]
        fingerprint = {"runs": point["fingerprint"], "recoveries": []}

        crash_at = WARMUP + p["compute_crash_ms"] * 1e-3
        recovery = {"total": [], "detect": [], "log": [], "reconfig": []}
        for cluster in clusters:
            records = cluster.recovery.records
            fingerprint["recoveries"].append([
                (r.kind, r.node_id, round(r.detected_at, 12), round(r.finished_at, 12),
                 r.locks_released, r.rolled_forward, r.rolled_back)
                for r in records
            ])
            compute = [r for r in records if r.kind == "compute"]
            memory = [r for r in records if r.kind == "memory"]
            if len(compute) != 1 or len(memory) != 1:
                violations.append(
                    f"expected one compute and one memory recovery, got "
                    f"{[(r.kind, r.node_id) for r in records]}"
                )
                continue
            recovery["total"].append(compute[0].total_latency)
            recovery["detect"].append(compute[0].detected_at - crash_at)
            recovery["log"].append(compute[0].log_recovery_latency)
            recovery["reconfig"].append(memory[0].total_latency)
            for name in ("locks_released", "rolled_forward", "rolled_back"):
                layer[f"recovery.{name}"] = (
                    layer.get(f"recovery.{name}", 0) + sum(getattr(r, name) for r in records)
                )
            if not all(node.alive for node in cluster.compute_nodes.values()):
                violations.append("crashed compute node did not restart")
        if not violations:
            virtual["recovery_us"] = metrics.median(recovery["total"]) * 1e6
            layer["recovery.detect_ms"] = metrics.median(recovery["detect"]) * 1e3
            layer["recovery.log_recovery_us"] = metrics.median(recovery["log"]) * 1e6
            layer["recovery.reconfig_us"] = metrics.median(recovery["reconfig"]) * 1e6
        commits = sum(c.aggregate_stats().commits for c in clusters)
        return Rep(point["setup_s"], point["run_s"], commits, int(layer["sim.events"]), virtual,
                   layer, fingerprint, violations, clusters)


WORKLOADS = {w.name: w for w in (TatpSteady(), HotkeyLadder(), SmallbankFailover())}
