"""Tests for the TATP workload."""

import hashlib
import random

import pytest

from repro import Cluster, ClusterConfig
from repro.workloads import Tatp
from repro.workloads.tatp import (
    START_HOURS,
    SF_TYPES,
    TABLE_ACCESS_INFO,
    TABLE_CALL_FORWARDING,
    TABLE_SPECIAL_FACILITY,
    TABLE_SUBSCRIBER,
    _sample_some,
)


class TestConfig:
    def test_invalid_subscribers(self):
        with pytest.raises(ValueError):
            Tatp(subscribers=0)

    def test_default_mix_is_80_percent_read(self):
        workload = Tatp()
        reads = sum(
            weight
            for kind, weight in workload.mix.items()
            if kind.startswith("get_")
        )
        assert reads == pytest.approx(80)


class TestSchema:
    def test_four_tables(self):
        from repro.kvs.catalog import Catalog
        from repro.kvs.placement import Placement

        catalog = Catalog(Placement([0, 1], replication_degree=2))
        Tatp(subscribers=100).create_schema(catalog)
        assert len(catalog.tables) == 4
        assert set(catalog.tables_by_name) == {
            "subscriber",
            "access_info",
            "special_facility",
            "call_forwarding",
        }


class TestEndToEnd:
    def _cluster(self, until=0.02, crash=None, seed=12):
        workload = Tatp(subscribers=1000)
        cluster = Cluster(ClusterConfig(coordinators_per_node=4, seed=seed), workload)
        cluster.start()
        if crash is not None:
            cluster.crash_compute(0, at=crash)
        cluster.run(until=until)
        return workload, cluster

    def test_commits_flow(self):
        _workload, cluster = self._cluster()
        stats = cluster.aggregate_stats()
        assert stats.commits > 300

    def test_insert_delete_cycle(self):
        """Forwarding rows inserted then deleted leave presence sane:
        every present call_forwarding row has an existing facility."""
        _workload, cluster = self._cluster(until=0.03)
        catalog = cluster.catalog
        cf = catalog.tables_by_name["call_forwarding"].table_id
        sf = catalog.tables_by_name["special_facility"].table_id
        for key in catalog.known_keys(cf):
            slot = catalog.slot_for(cf, key)
            primary = catalog.primary(cf, slot)
            if cluster.memory_nodes[primary].slot(cf, slot).present:
                sid, sf_type, _hour = key
                facility_slot = catalog.slot_for(sf, (sid, sf_type))
                facility_primary = catalog.primary(sf, facility_slot)
                assert cluster.memory_nodes[facility_primary].slot(
                    sf, facility_slot
                ).present

    def test_survives_compute_crash(self):
        _workload, cluster = self._cluster(until=0.05, crash=0.01)
        assert len(cluster.recovery.records) == 1
        # The surviving node keeps committing after recovery.
        post = cluster.timeline.rate_between(0.03, 0.05)
        assert post > 0


class ReferenceTatp(Tatp):
    """TATP loaded with ``rng.sample``/``rng.randint`` and one ``slot_for``
    plus one ``load_slot`` per replica per row."""

    def load(self, catalog, memory_nodes, rng):
        def put(table_id, key, value):
            slot = catalog.slot_for(table_id, key)
            for node_id in catalog.replicas(table_id, slot):
                memory_nodes[node_id].load_slot(table_id, slot, value)

        for sid in range(self.subscribers):
            put(
                TABLE_SUBSCRIBER,
                sid,
                {"bits": rng.getrandbits(10), "location": rng.getrandbits(32)},
            )
        rows = []
        for sid in range(self.subscribers):
            for ai_type in rng.sample(SF_TYPES, rng.randint(1, 4)):
                rows.append((TABLE_ACCESS_INFO, (sid, ai_type), {"data": rng.getrandbits(16)}))
            for sf_type in rng.sample(SF_TYPES, rng.randint(1, 4)):
                active = rng.random() < 0.85
                rows.append((TABLE_SPECIAL_FACILITY, (sid, sf_type), {"is_active": active}))
                for hour in rng.sample(START_HOURS, rng.randint(0, 3)):
                    rows.append(
                        (
                            TABLE_CALL_FORWARDING,
                            (sid, sf_type, hour),
                            {"numberx": rng.getrandbits(32)},
                        )
                    )
        for table_id, key, value in rows:
            put(table_id, key, value)


def data_digest(cluster):
    """Every table on every replica (values, versions, present bits) and
    the catalog's key -> slot map."""
    digest = hashlib.sha256()
    catalog = cluster.catalog
    for table_id in sorted(catalog.tables):
        keys = catalog.known_keys(table_id)
        digest.update(repr([(key, catalog.slot_for(table_id, key)) for key in keys]).encode())
        for node_id in sorted(cluster.memory_nodes):
            table = cluster.memory_nodes[node_id].tables[table_id]
            digest.update(repr((node_id, table.versions, table.present)).encode())
            digest.update(repr(table.values).encode())
    return digest.hexdigest()


class TestLoadMatchesReference:
    def test_sample_some_draws_like_sample_and_randint(self):
        ours, theirs = random.Random(8), random.Random(8)
        for _ in range(2_000):
            for population, low in ((SF_TYPES, 1), (START_HOURS, 0)):
                expected = theirs.sample(population, theirs.randint(low, len(population)))
                assert _sample_some(ours.getrandbits, population, low) == expected
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("memory_nodes", [2, 3])
    def test_data_digest_matches_reference_loader(self, memory_nodes):
        config = ClusterConfig(memory_nodes=memory_nodes, replication_degree=2, seed=4)
        loaded = Cluster(config, Tatp(subscribers=2_000))
        reference = Cluster(config, ReferenceTatp(subscribers=2_000))
        assert loaded.catalog.key_count(TABLE_CALL_FORWARDING) > 2_000
        assert data_digest(loaded) == data_digest(reference)
