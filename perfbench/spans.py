"""Host-time spans around the calls into each layer, from outside the program.

:class:`Tracer` keeps a stack of open spans. Closing a span adds its
duration to the parent's covered child time, so a span's self time is
its duration minus the part its children cover. Every span is folded
into per-name totals; full span records are kept only for a bounded
sample of requests and written out when the run ends.

:func:`install` wraps the layers' public functions on their classes
(the program itself is unchanged) and returns a function that puts the
originals back. Generator functions and simulator processes are wrapped
so that each resumption of the generator is one span: the time a
coroutine runs between two yields is the host time it costs.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, List, Optional

from repro.cluster.builder import Cluster
from repro.kvs.catalog import Catalog
from repro.load.population import UserPopulation
from repro.memory.node import MemoryNode
from repro.protocol.coordinator import Coordinator
from repro.rdma.qp import VERB_HEADER_BYTES, QueuePair
from repro.recovery.manager import RecoveryManager
from repro.sim.kernel import Simulator

#: Simulator process-name prefixes and the layer their generators belong to.
PROCESS_LAYERS = (
    ("coordinator-", "protocol.worker"),
    ("lock-", "protocol.lock"),
    ("load-", "load.process"),
    ("recover", "recovery.process"),
    ("restore", "recovery.process"),
    ("heartbeat", "recovery.fd"),
    ("failure-detector", "recovery.fd"),
    ("recycler", "recovery.fd"),
    ("id-recycler", "recovery.process"),
)


def process_span_name(name: str) -> str:
    for prefix, span in PROCESS_LAYERS:
        if name.startswith(prefix):
            return span
    return "sim.process"


class Tracer:
    """Span stack, per-name totals and a bounded sample of full spans."""

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        sample_requests: int = 32,
        max_spans: int = 20_000,
    ) -> None:
        self.clock = clock
        self.sample_requests = sample_requests
        self.max_spans = max_spans
        # Open spans: [name, start, covered child time, span id, parent id, request].
        self._stack: List[list] = []
        self._next_span = 0
        self._next_request = 0
        #: Request id every span opened now belongs to (None outside requests).
        self.request: Optional[int] = None
        #: name -> [count, total ns, self ns]
        self.totals: Dict[str, List[int]] = {}
        #: Sampled spans: (span id, parent id, request, name, start ns, end ns).
        self.spans: List[tuple] = []
        self.dropped_spans = 0
        #: Counters measured at the layer boundaries.
        self.counts: Dict[str, int] = {}

    @property
    def requests(self) -> int:
        """Request ids handed out so far (one per transaction)."""
        return self._next_request

    def new_request(self) -> int:
        self._next_request += 1
        return self._next_request

    def begin(self, name: str) -> None:
        self._next_span += 1
        parent = self._stack[-1][3] if self._stack else 0
        self._stack.append([name, self.clock(), 0, self._next_span, parent, self.request])

    def end(self) -> None:
        name, start, covered, span_id, parent, request = self._stack.pop()
        end = self.clock()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - covered
        if request is not None and request <= self.sample_requests:
            if len(self.spans) < self.max_spans:
                self.spans.append((span_id, parent, request, name, start, end))
            else:
                self.dropped_spans += 1

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, *names: str) -> float:
        return sum(self.totals.get(name, (0, 0, 0))[2] for name in names) / 1e9

    def write(self, path, meta: Dict[str, Any]) -> None:
        """Write the totals and the sampled spans as one JSON document."""
        payload = {
            "meta": meta,
            "totals": {
                name: {"count": c, "total_ns": t, "self_ns": s}
                for name, (c, t, s) in sorted(self.totals.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "dropped_spans": self.dropped_spans,
            "spans": [
                {"id": i, "parent": p, "request": r, "name": n, "start_ns": b, "end_ns": e}
                for i, p, r, n, b, e in self.spans
            ],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)

    # -- wrappers ------------------------------------------------------------

    def call(self, name: str, func: Callable) -> Callable:
        """Wrap a plain function: one span per call."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.end()

        return traced

    def steps(self, name: str, generator, request: Optional[int] = None):
        """Drive *generator*, one span per resumption.

        Behaves like ``yield from generator``: sent values, thrown
        exceptions and ``close()`` reach the inner generator unchanged,
        and its return value is returned.
        """
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            outer_request = self.request
            if request is not None:
                self.request = request
            self.begin(name)
            try:
                if error is None:
                    target = generator.send(value)
                else:
                    target = generator.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self.end()
                self.request = outer_request
            try:
                value = yield target
                error = None
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as thrown:  # noqa: BLE001 - forwarded inward
                value, error = None, thrown


def install(tracer: Tracer, workload_classes) -> Callable[[], None]:
    """Wrap every layer boundary on its class; returns the undo function."""
    saved: List[tuple] = []

    def patch(owner, attr: str, wrapper) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # sim: the dispatch loop and every process spawned on it.
    patch(Simulator, "run", tracer.call("sim.run", Simulator.run))
    original_process = Simulator.process

    @functools.wraps(original_process)
    def process(sim, generator, name=""):
        name = name or getattr(generator, "__name__", "process")
        wrapped = tracer.steps(process_span_name(name), generator)
        return original_process(sim, wrapped, name=name)

    patch(Simulator, "process", process)

    # rdma: verb posts with their request bytes.
    original_post = QueuePair.post

    @functools.wraps(original_post)
    def post(qp, kind, args, request_size, signaled=True):
        tracer.count("rdma.request_bytes", request_size + VERB_HEADER_BYTES)
        tracer.begin("rdma.post")
        try:
            return original_post(qp, kind, args, request_size, signaled)
        finally:
            tracer.end()

    patch(QueuePair, "post", post)

    # memory: verb execution, response bytes and lock-CAS outcomes.
    original_apply = MemoryNode.apply

    @functools.wraps(original_apply)
    def apply(node, src_compute_id, kind, args):
        tracer.begin("memory.apply")
        try:
            result = original_apply(node, src_compute_id, kind, args)
        finally:
            tracer.end()
        tracer.count("rdma.response_bytes", result[1] + VERB_HEADER_BYTES)
        if kind == "cas_lock":
            tracer.count("memory.cas")
            if result[0] != args[2]:
                tracer.count("memory.cas_failed")
        return result

    patch(MemoryNode, "apply", apply)

    # protocol: one request id per transaction, retries included.
    original_run_transaction = Coordinator.run_transaction

    @functools.wraps(original_run_transaction)
    def run_transaction(coordinator, logic):
        request = tracer.new_request()
        generator = original_run_transaction(coordinator, logic)
        return (yield from tracer.steps("protocol.txn", generator, request))

    patch(Coordinator, "run_transaction", run_transaction)

    # recovery: the entry points the failure detector calls.
    for attr in ("handle_compute_failure", "handle_memory_failure", "restore_memory_node"):
        patch(RecoveryManager, attr, tracer.call("recovery.handle", getattr(RecoveryManager, attr)))

    # load: request generation.
    patch(
        UserPopulation, "next_request",
        tracer.call("load.next_request", UserPopulation.next_request),
    )

    # set-up: cluster build, table provisioning and data load.
    patch(Cluster, "__init__", tracer.call("cluster.build", Cluster.__init__))
    patch(Catalog, "provision", tracer.call("kvs.provision", Catalog.provision))
    patch(Catalog, "load", tracer.call("kvs.load", Catalog.load))
    for cls in workload_classes:
        patch(cls, "load", tracer.call("workloads.load", cls.load))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def trace_network(tracer: Tracer, network) -> None:
    """Wrap a built cluster's ``Network.delay`` (an instance attribute)."""
    network.delay = tracer.call("network.delay", network.delay)
