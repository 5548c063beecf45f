"""The kernel profiler must measure, never perturb.

Profiling reads the wall clock around dispatch and subsystem
boundaries; none of those reads may feed back into simulated
behaviour. A seeded run must therefore be bit-identical — same event
order, same virtual timestamps, same protocol numbers — with the
profiler enabled, explicitly disabled, or absent. The wall-clock
overhead bound itself lives in ``benchmarks/test_kernel_perf.py``
(mirroring ``benchmarks/test_obs_overhead.py``); these tests pin the
*behavioural* half of the contract.
"""

from repro.bench.harness import run_steady_state
from repro.obs import NULL_PROFILER, KernelProfiler, Obs
from repro.workloads import SmallBank


def _smallbank():
    return SmallBank(accounts=1_000)


STEADY = dict(duration=6e-3, warmup=2e-3, coordinators_per_node=4, seed=11)


class TestProfilerParity:
    def test_profiled_run_identical_protocol_numbers(self):
        base = run_steady_state(_smallbank, "pandora", **STEADY)
        profiled = run_steady_state(
            _smallbank, "pandora", profiler=KernelProfiler(), **STEADY
        )
        # Dataclass equality covers commits, aborts, throughput, and
        # latency percentiles — the full observable outcome.
        assert profiled == base

    def test_null_profiler_is_also_inert(self):
        base = run_steady_state(_smallbank, "pandora", **STEADY)
        nulled = run_steady_state(
            _smallbank, "pandora", profiler=NULL_PROFILER, **STEADY
        )
        assert nulled == base

    def test_event_order_and_virtual_timestamps_bit_identical(self):
        """Same seed, profiler on vs off: every traced span — category,
        name, virtual start, virtual duration, pid — must match, and so
        must the kernel's processed-event count. A single reordered or
        shifted event would diverge the span streams."""
        plain_obs = Obs(trace=True)
        run_steady_state(_smallbank, "pandora", obs=plain_obs, **STEADY)
        profiled_obs = Obs(trace=True)
        run_steady_state(
            _smallbank,
            "pandora",
            obs=profiled_obs,
            profiler=KernelProfiler(),
            **STEADY,
        )
        assert plain_obs.tracer.events == profiled_obs.tracer.events
        plain_kernel = plain_obs.metrics.gauge("kernel.processed_events").value
        profiled_kernel = profiled_obs.metrics.gauge(
            "kernel.processed_events"
        ).value
        assert plain_kernel == profiled_kernel

    def test_profiler_saw_the_run_it_rode_along(self):
        profiler = KernelProfiler()
        result = run_steady_state(
            _smallbank, "pandora", profiler=profiler, **STEADY
        )
        assert result.commits > 0
        assert profiler.steps > 0
        assert profiler._stack == []  # balanced frames at run end
        rollup = profiler.subsystem_rollup()
        for subsystem in ("kernel", "rdma", "protocol"):
            assert subsystem in rollup, subsystem

    def test_profiled_run_is_bit_identical(self):
        from repro.bench.kernelperf import FleetSpec, run_fleet

        spec = FleetSpec("parity", compute_nodes=2, coordinators_per_node=4,
                         keys=500, duration=2e-3)
        plain = run_fleet(spec, repeats=1, seed=5)
        profiled = run_fleet(spec, repeats=1, seed=5, profiler=KernelProfiler())
        assert profiled.steps == plain.steps
