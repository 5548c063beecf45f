"""Benchmark entry point: one workload, one seed, host and virtual clocks.

    python3 perfbench/run.py --workload tatp-steady --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload's repetition (same seed, fresh
clusters) until ``--seconds`` of host time would be exceeded, checks
that every repetition reproduces the first one's virtual fingerprint,
and reports the end-to-end metrics: host metrics as medians over the
repetitions, virtual metrics from the (identical) simulation.

``--trace 1`` runs one untraced repetition, then one with a span around
every layer boundary (``spans.py``), checks that both fingerprints are
equal and reports the per-layer metrics. Spans are written to
``perfbench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Any failed check exits
non-zero without printing it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from metrics import BenchmarkError, median, ratio

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Non-application abort reasons, reported as ``protocol.retry.<reason>``.
RETRY_REASONS = (
    "lock_conflict", "read_locked", "validation_version", "validation_locked",
    "upgrade_version", "memory_reconfiguration", "link_revoked", "app_error",
)

#: Extra set-up-only builds top the samples up to this count while their
#: total stays within the budget, so cheap set-ups get a steady median.
SETUP_SAMPLES = 10
SETUP_TOPUP_S = 3.0


def source_hash() -> str:
    """Hash of the program's sources, so a result names the code it ran."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    """The checked-out commit read from ``.git``, or ``unknown`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def config_hash(params) -> str:
    return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:16]


def metric(value: float, unit: str):
    return {"value": value, "unit": unit}


def check_rep(workload, rep, reference=None) -> None:
    if rep.violations:
        raise BenchmarkError(f"{workload.name}: " + "; ".join(rep.violations[:10]))
    if reference is not None and rep.fingerprint != reference.fingerprint:
        raise BenchmarkError(
            f"{workload.name}: virtual fingerprint differs from the first run at the same seed"
        )


def run_untraced(workload, seed: int, seconds: float):
    """Repetitions until the next would overrun *seconds*; returns them and the set-up samples."""
    reps = []
    started = time.perf_counter()
    while True:
        gc.collect()
        rep_start = time.perf_counter()
        rep = workload.rep(seed)
        check_rep(workload, rep, reps[0] if reps else None)
        rep.clusters = []
        reps.append(rep)
        now = time.perf_counter()
        if now - started + (now - rep_start) > seconds:
            break
    setups = [rep.setup_s for rep in reps]
    spent = 0.0
    while len(setups) < SETUP_SAMPLES and spent + max(setups) < SETUP_TOPUP_S:
        gc.collect()
        start = time.perf_counter()
        workload.build(seed)
        setups.append(time.perf_counter() - start)
        spent += setups[-1]
    return reps, setups


def end_to_end(reps, setups):
    v = reps[0].virtual
    return {
        "setup_s": metric(median(setups), "s"),
        "host_txn_per_s": metric(median(r.commits / r.run_s for r in reps), "txn/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_tps": metric(v["sim_tps"], "txn/s"),
        "lat_p50_us": metric(v["lat_p50_us"], "us"),
        "lat_p99_us": metric(v["lat_p99_us"], "us"),
        "lat_p999_us": metric(v["lat_p999_us"], "us"),
    }


def live_mb(clusters) -> float:
    """Host memory held by the memory nodes' slot columns and distinct values."""
    seen = set()
    total = 0
    for cluster in clusters[:1]:
        for node in cluster.memory_nodes.values():
            for table in node.tables.values():
                for column in (table.locks, table.versions, table.values, table.present):
                    total += sys.getsizeof(column)
                for value in table.values:
                    if value is not None and id(value) not in seen:
                        seen.add(id(value))
                        total += sys.getsizeof(value)
    return total / 2**20


def per_layer(plain, traced, tracer):
    layer = traced.layer
    commits = layer["protocol.commits"]
    posts = tracer.calls("rdma.post")
    applies = tracer.calls("memory.apply")
    requests = tracer.calls("load.next_request")
    out = {
        "sim.events": metric(traced.events, "count"),
        "sim.host_us_per_event": metric(plain.run_s / plain.events * 1e6, "us"),
        "sim.self_ms": metric(tracer.self_s("sim.run") * 1e3, "ms"),
        "rdma.posts_per_commit": metric(ratio(posts, commits), "count"),
        "rdma.bytes_per_commit": metric(
            ratio(tracer.counts.get("rdma.request_bytes", 0)
                  + tracer.counts.get("rdma.response_bytes", 0), commits), "B"),
        "rdma.host_us_per_post": metric(ratio(tracer.total_s("rdma.post"), posts) * 1e6, "us"),
        "memory.applies_per_commit": metric(ratio(applies, commits), "count"),
        "memory.host_us_per_apply": metric(
            ratio(tracer.total_s("memory.apply"), applies) * 1e6, "us"),
        "memory.cas_fail_frac": metric(
            ratio(tracer.counts.get("memory.cas_failed", 0), tracer.counts.get("memory.cas", 0)),
            "ratio"),
        "memory.live_mb": metric(live_mb(traced.clusters), "MB"),
        "protocol.attempts_per_commit": metric(ratio(layer["protocol.attempts"], commits), "count"),
    }
    for reason in RETRY_REASONS:
        out[f"protocol.retry.{reason}"] = metric(layer.get(f"protocol.retry.{reason}", 0), "count")
    out.update({
        "protocol.locks_stolen": metric(layer["protocol.locks_stolen"], "count"),
        "protocol.steal_retries": metric(layer["protocol.steal_retries"], "count"),
        "protocol.host_us_per_txn": metric(
            ratio(tracer.self_s("protocol.txn", "protocol.lock"), tracer.requests) * 1e6, "us"),
    })
    for name, unit in (
        ("load.queue_wait_p50_us", "us"), ("load.queue_wait_p99_us", "us"),
        ("load.service_p50_us", "us"), ("load.service_p99_us", "us"),
        ("load.queue_depth_mean", "count"), ("load.backlog_end", "count"),
        ("load.gen_lag_us", "us"),
    ):
        out[name] = metric(layer.get(name, 0), unit)
    out["load.host_us_per_request"] = metric(
        ratio(tracer.self_s("load.next_request", "load.process"), requests) * 1e6, "us")
    for name, unit in (
        ("recovery.detect_ms", "ms"), ("recovery.log_recovery_us", "us"),
        ("recovery.reconfig_us", "us"), ("recovery.locks_released", "count"),
        ("recovery.rolled_forward", "count"), ("recovery.rolled_back", "count"),
    ):
        out[name] = metric(layer.get(name, 0), unit)
    out.update({
        "recovery.host_ms": metric(
            (tracer.total_s("recovery.handle")
             + tracer.self_s("recovery.process", "recovery.fd")) * 1e3, "ms"),
        "kvs.provision_s": metric(tracer.total_s("kvs.provision"), "s"),
        "kvs.load_s": metric(tracer.total_s("kvs.load"), "s"),
        "workloads.load_s": metric(tracer.self_s("workloads.load"), "s"),
        "cluster.build_s": metric(tracer.total_s("cluster.build"), "s"),
        "trace.overhead_frac": metric(traced.run_s / plain.run_s - 1.0, "ratio"),
        "slo_max_tps": metric(traced.virtual.get("slo_max_tps", 0.0), "txn/s"),
        "fail_frac": metric(traced.virtual.get("fail_frac", 0.0), "ratio"),
        "recovery_us": metric(traced.virtual.get("recovery_us", 0.0), "us"),
    })
    return out


def run_traced(workload, seed: int):
    from spans import Tracer, install, trace_network

    gc.collect()
    plain = workload.rep(seed)
    check_rep(workload, plain)
    plain.clusters = []
    tracer = Tracer()
    uninstall = install(tracer, workload.workload_classes)
    try:
        gc.collect()
        traced = workload.rep(seed, on_built=lambda cluster: trace_network(tracer, cluster.network))
    finally:
        uninstall()
    check_rep(workload, traced)
    if traced.fingerprint != plain.fingerprint:
        raise BenchmarkError(f"{workload.name}: the traced run changed the virtual fingerprint")
    return plain, traced, tracer


def check_names(metrics_out, trace: int) -> None:
    """The reported metrics must be exactly the ones ``BENCHMARK.json`` lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(expected) != sorted(metrics_out):
        missing = sorted(set(expected) - set(metrics_out))
        extra = sorted(set(metrics_out) - set(expected))
        raise BenchmarkError(f"metric names differ from BENCHMARK.json: "
                             f"missing {missing}, extra {extra}")


def describe(workload, seed, reps, metrics_out, provenance, trace: int) -> list:
    v = reps[0].virtual
    lines = [f"# {workload.name} seed={seed} reps={len(reps)}"]
    lines += [f"#   {k} = {val}" for k, val in provenance.items()]
    for name, m in metrics_out.items():
        lines.append(f"{name:28s} {m['value']:>16.6g} {m['unit']}")
    lines.append(
        f"{'lat_samples':28s} {v['lat_samples']:>16d} count "
        f"({v['lat_p999_beyond']} beyond p999)"
    )
    for name, unit in (("slo_max_tps", "txn/s"), ("fail_frac", "ratio"), ("recovery_us", "us")):
        if name in v and not trace:
            lines.append(f"{name:28s} {v[name]:>16.6g} {unit}")
    for name in sorted(k for k in v if k.startswith("rung.")):
        lines.append(f"{name:28s} {v[name]:>16.6g}")
    fingerprint = json.dumps(reps[0].fingerprint, sort_keys=True)
    lines.append(f"# fingerprint sha256={hashlib.sha256(fingerprint.encode()).hexdigest()[:16]}")
    lines.append(f"# fingerprint {fingerprint}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    provenance = {
        "seed": args.seed,
        "commit": git_commit(),
        "source_sha": source_hash(),
        "config_sha": config_hash(workload.params),
        "params": json.dumps(workload.params, sort_keys=True),
        "trace": args.trace,
    }
    try:
        if args.trace:
            plain, traced, tracer = run_traced(workload, args.seed)
            reps = [traced]
            metrics_out = per_layer(plain, traced, tracer)
            out_dir = BENCH_DIR / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"trace-{workload.name}-seed{args.seed}.json", provenance)
        else:
            reps, setups = run_untraced(workload, args.seed, args.seconds)
            metrics_out = end_to_end(reps, setups)
        check_names(metrics_out, args.trace)
    except BenchmarkError as error:
        print(f"FAILED: {error}", file=sys.stderr)
        return 1
    for line in describe(workload, args.seed, reps, metrics_out, provenance, args.trace):
        print(line)
    attempted = reps[0].layer["requests"] * len(reps)
    print(json.dumps({
        "correct": True,
        "attempted": int(attempted),
        "failed": 0,
        "metrics": metrics_out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
