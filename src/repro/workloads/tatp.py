"""TATP: the telecom application transaction processing benchmark.

Four tables (subscriber, access_info, special_facility,
call_forwarding) with 48-byte values and the standard seven-profile
mix, ~80% of which is read-only (§4.1 "workload characteristics").

Keys follow the benchmark's structure: subscribers are dense ids;
access-info and special-facility rows are keyed by (subscriber id,
type 1..4); call-forwarding rows by (subscriber id, sf type,
start hour in {0, 8, 16}).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional

from repro.workloads.base import Workload

__all__ = ["Tatp"]

TABLE_SUBSCRIBER = 0
TABLE_ACCESS_INFO = 1
TABLE_SPECIAL_FACILITY = 2
TABLE_CALL_FORWARDING = 3

# The standard TATP mix: 80% reads / 20% updates+inserts+deletes.
DEFAULT_MIX = {
    "get_subscriber_data": 35,
    "get_new_destination": 10,
    "get_access_data": 35,
    "update_subscriber_data": 2,
    "update_location": 14,
    "insert_call_forwarding": 2,
    "delete_call_forwarding": 2,
}

START_HOURS = (0, 8, 16)
SF_TYPES = (1, 2, 3, 4)


# ``Random._randbelow(n)`` draws ``n.bit_length()`` bits per try; the
# populations sampled here hold at most four items.
_BELOW_BITS = tuple(n.bit_length() for n in range(len(SF_TYPES) + 1))


def _sample_some(getrandbits, population, low):
    """``rng.sample(population, rng.randint(low, len(population)))``.

    Makes exactly the ``getrandbits`` calls those two make (each
    ``_randbelow(n)`` redraws while the result is ``>= n``), so the
    loaded data stays identical, without their per-call overhead.
    """
    pool = list(population)
    top = len(pool)
    size = top - low + 1
    bits = _BELOW_BITS[size]
    count = getrandbits(bits)
    while count >= size:
        count = getrandbits(bits)
    chosen = []
    for size in range(top, top - count - low, -1):
        bits = _BELOW_BITS[size]
        index = getrandbits(bits)
        while index >= size:
            index = getrandbits(bits)
        chosen.append(pool[index])
        pool[index] = pool[size - 1]
    return chosen


class Tatp(Workload):
    """The TATP workload over the DKVS transactional API."""

    name = "tatp"

    def __init__(
        self,
        subscribers: int = 10_000,
        value_size: int = 48,
        mix: Optional[Dict[str, float]] = None,
    ) -> None:
        if subscribers < 1:
            raise ValueError("need at least one subscriber")
        self.subscribers = subscribers
        self.value_size = value_size
        self.mix = dict(mix) if mix else dict(DEFAULT_MIX)

    # -- schema & data ------------------------------------------------------

    def create_schema(self, catalog) -> None:
        from repro.kvs.catalog import TableSpec

        n = self.subscribers
        catalog.add_table(TableSpec(TABLE_SUBSCRIBER, "subscriber", n, self.value_size))
        catalog.add_table(
            TableSpec(TABLE_ACCESS_INFO, "access_info", 4 * n, self.value_size)
        )
        catalog.add_table(
            TableSpec(
                TABLE_SPECIAL_FACILITY, "special_facility", 4 * n, self.value_size
            )
        )
        catalog.add_table(
            TableSpec(
                TABLE_CALL_FORWARDING, "call_forwarding", 12 * n, self.value_size
            )
        )

    def load(self, catalog, memory_nodes: Dict[int, Any], rng: random.Random) -> None:
        catalog.load(
            memory_nodes,
            TABLE_SUBSCRIBER,
            (
                (sid, {"bits": rng.getrandbits(10), "location": rng.getrandbits(32)})
                for sid in range(self.subscribers)
            ),
        )
        access_rows = []
        facility_rows = []
        forwarding_rows = []
        getrandbits = rng.getrandbits
        for sid in range(self.subscribers):
            # Each subscriber has 1-4 access-info and special-facility
            # rows; each active facility has 0-3 call-forwarding rows.
            for ai_type in _sample_some(getrandbits, SF_TYPES, 1):
                access_rows.append(((sid, ai_type), {"data": getrandbits(16)}))
            for sf_type in _sample_some(getrandbits, SF_TYPES, 1):
                active = rng.random() < 0.85
                facility_rows.append(((sid, sf_type), {"is_active": active}))
                for hour in _sample_some(getrandbits, START_HOURS, 0):
                    forwarding_rows.append(
                        ((sid, sf_type, hour), {"numberx": getrandbits(32)})
                    )
        catalog.load(memory_nodes, TABLE_ACCESS_INFO, access_rows)
        catalog.load(memory_nodes, TABLE_SPECIAL_FACILITY, facility_rows)
        catalog.load(memory_nodes, TABLE_CALL_FORWARDING, forwarding_rows)

    # -- transactions -------------------------------------------------------------

    def _subscriber(
        self, rng: random.Random, home: Optional[int] = None
    ) -> int:
        return home if home is not None else rng.randrange(self.subscribers)

    def next_transaction(self, rng: random.Random) -> Callable:
        kind = self.pick(rng, self.mix)
        builder = getattr(self, f"_txn_{kind}")
        return builder(rng)

    def user_transaction(self, user: int, rng: random.Random) -> Callable:
        """One transaction on behalf of *user*: every profile keys off
        the subscriber id, so the user's home subscriber carries the
        population's skew straight into the key space."""
        kind = self.pick(rng, self.mix)
        builder = getattr(self, f"_txn_{kind}")
        return builder(rng, home=user % self.subscribers)

    def _txn_get_subscriber_data(
        self, rng: random.Random, home: Optional[int] = None
    ) -> Callable:
        sid = self._subscriber(rng, home)

        def logic(tx):
            row = yield from tx.read("subscriber", sid)
            return row

        return logic

    def _txn_get_new_destination(
        self, rng: random.Random, home: Optional[int] = None
    ) -> Callable:
        sid = self._subscriber(rng, home)
        sf_type = rng.choice(SF_TYPES)
        hour = rng.choice(START_HOURS)

        def logic(tx):
            facility = yield from tx.read("special_facility", (sid, sf_type))
            if facility is None or not facility.get("is_active"):
                return None
            forwarding = yield from tx.read("call_forwarding", (sid, sf_type, hour))
            return forwarding

        return logic

    def _txn_get_access_data(
        self, rng: random.Random, home: Optional[int] = None
    ) -> Callable:
        sid = self._subscriber(rng, home)
        ai_type = rng.choice(SF_TYPES)

        def logic(tx):
            row = yield from tx.read("access_info", (sid, ai_type))
            return row

        return logic

    def _txn_update_subscriber_data(
        self, rng: random.Random, home: Optional[int] = None
    ) -> Callable:
        sid = self._subscriber(rng, home)
        sf_type = rng.choice(SF_TYPES)
        new_bits = rng.getrandbits(10)

        def logic(tx):
            row = yield from tx.read_for_update("subscriber", sid)
            if row is None:
                tx.abort("missing subscriber")
            tx.write("subscriber", sid, {**row, "bits": new_bits})
            facility = yield from tx.read_for_update("special_facility", (sid, sf_type))
            if facility is not None:
                tx.write(
                    "special_facility",
                    (sid, sf_type),
                    {**facility, "data_a": rng.getrandbits(8)},
                )
            return None

        return logic

    def _txn_update_location(
        self, rng: random.Random, home: Optional[int] = None
    ) -> Callable:
        sid = self._subscriber(rng, home)
        location = rng.getrandbits(32)

        def logic(tx):
            row = yield from tx.read_for_update("subscriber", sid)
            if row is None:
                tx.abort("missing subscriber")
            tx.write("subscriber", sid, {**row, "location": location})
            return None

        return logic

    def _txn_insert_call_forwarding(
        self, rng: random.Random, home: Optional[int] = None
    ) -> Callable:
        sid = self._subscriber(rng, home)
        sf_type = rng.choice(SF_TYPES)
        hour = rng.choice(START_HOURS)
        number = rng.getrandbits(32)

        def logic(tx):
            facility = yield from tx.read("special_facility", (sid, sf_type))
            if facility is None:
                tx.abort("no such facility")
            existing = yield from tx.read("call_forwarding", (sid, sf_type, hour))
            if existing is not None:
                tx.abort("row already exists")
            tx.insert("call_forwarding", (sid, sf_type, hour), {"numberx": number})
            return None

        return logic

    def _txn_delete_call_forwarding(
        self, rng: random.Random, home: Optional[int] = None
    ) -> Callable:
        sid = self._subscriber(rng, home)
        sf_type = rng.choice(SF_TYPES)
        hour = rng.choice(START_HOURS)

        def logic(tx):
            existing = yield from tx.read("call_forwarding", (sid, sf_type, hour))
            if existing is None:
                tx.abort("no row to delete")
            tx.delete("call_forwarding", (sid, sf_type, hour))
            return None

        return logic
