"""Tests for the SmallBank workload, including money conservation."""

import random

import pytest

from repro import Cluster, ClusterConfig
from repro.workloads import SmallBank
from repro.workloads.smallbank import INITIAL_BALANCE, TABLE_CHECKING, TABLE_SAVINGS


class TestConfig:
    def test_minimum_accounts(self):
        with pytest.raises(ValueError):
            SmallBank(accounts=1)

    def test_hot_accounts_bounds(self):
        with pytest.raises(ValueError):
            SmallBank(accounts=10, hot_accounts=11)

    def test_conserving_mix(self):
        workload = SmallBank(accounts=10, conserving_only=True)
        assert set(workload.mix) == {"send_payment", "amalgamate", "balance"}


class TestMixGeneration:
    def test_all_profiles_generated(self):
        workload = SmallBank(accounts=100)
        rng = random.Random(4)
        kinds = set()
        for _ in range(500):
            logic = workload.next_transaction(rng)
            kinds.add(logic.__qualname__.split(".")[1].replace("_txn_", ""))
        # All six profiles appear over 500 draws.
        assert len(kinds) == 6


class TestEndToEnd:
    def _cluster(self, conserving, until=0.02, crash=None):
        workload = SmallBank(accounts=500, conserving_only=conserving)
        cluster = Cluster(
            ClusterConfig(coordinators_per_node=4, seed=10), workload
        )
        cluster.start()
        if crash is not None:
            cluster.crash_compute(0, at=crash)
        cluster.run(until=until)
        return workload, cluster

    def test_commits_flow(self):
        _workload, cluster = self._cluster(conserving=False)
        assert cluster.aggregate_stats().commits > 200

    def test_money_conserved_without_failures(self):
        workload, cluster = self._cluster(conserving=True)
        total = workload.total_balance(cluster.catalog, cluster.memory_nodes)
        assert total == 2 * 500 * INITIAL_BALANCE

    def test_money_conserved_across_compute_crash(self):
        """The headline end-to-end invariant: a compute crash plus
        recovery must not create or destroy money."""
        workload, cluster = self._cluster(conserving=True, until=0.05, crash=0.01)
        assert len(cluster.recovery.records) == 1
        total = workload.total_balance(cluster.catalog, cluster.memory_nodes)
        assert total == 2 * 500 * INITIAL_BALANCE

    def test_replicas_converge_after_crash(self):
        """All replicas of every account agree once recovery is done
        and in-flight transactions finished."""
        workload, cluster = self._cluster(conserving=True, until=0.05, crash=0.01)
        # Pause everything so no transaction is mid-commit.
        for node in cluster.compute_nodes.values():
            node.pause()
        cluster.run(until=0.052)
        catalog = cluster.catalog
        for table_id in (0, 1):
            for account in range(500):
                slot = catalog.slot_for(table_id, account)
                values = {
                    cluster.memory_nodes[n].slot(table_id, slot).value
                    for n in catalog.replicas(table_id, slot)
                }
                assert len(values) == 1, f"replica divergence at {table_id}/{account}"


def per_account_total(workload, catalog, memory_nodes):
    """Reference probe: ``slot_for`` + ``primary`` + ``ObjectSlot`` per account."""
    total = 0
    for table_id in (TABLE_SAVINGS, TABLE_CHECKING):
        for account in range(workload.accounts):
            slot = catalog.slot_for(table_id, account)
            entry = memory_nodes[catalog.primary(table_id, slot)].slot(table_id, slot)
            if entry.present:
                total += entry.value
    return total


class TestTotalBalance:
    """The strided probe sums exactly what the per-account probe sums."""

    ACCOUNTS = 1_001  # not a multiple of the 64 partitions

    def _cluster(self, crash_memory):
        workload = SmallBank(accounts=self.ACCOUNTS, conserving_only=True)
        cluster = Cluster(
            ClusterConfig(
                memory_nodes=3,
                replication_degree=2,
                coordinators_per_node=3,
                seed=21,
                fd_timeout=2e-3,
                fd_heartbeat_interval=0.5e-3,
                fd_check_interval=0.25e-3,
            ),
            workload,
        )
        cluster.start()
        if crash_memory:
            cluster.crash_memory(0, at=0.004)
        cluster.run(until=0.012)
        return workload, cluster

    def _scramble(self, cluster):
        """Give every replica its own balances and drop some rows, so a
        sum that reads a non-primary replica or an absent row differs."""
        rng = random.Random(5)
        for node in cluster.memory_nodes.values():
            for table in node.tables.values():
                for slot, present in enumerate(table.present):
                    if present:
                        table.values[slot] = rng.randrange(1_000_000)
                        table.present[slot] = rng.random() > 0.05

    @pytest.mark.parametrize("crash_memory", [False, True])
    def test_matches_per_account_probe(self, crash_memory):
        workload, cluster = self._cluster(crash_memory)
        catalog = cluster.catalog
        assert workload.total_balance(catalog, cluster.memory_nodes) == (
            2 * self.ACCOUNTS * INITIAL_BALANCE
        )
        promoted = [
            slot
            for slot in range(self.ACCOUNTS)
            if catalog.replicas(TABLE_SAVINGS, slot)[0] == 0
        ]
        assert promoted
        if crash_memory:
            assert 0 in cluster.placement.down_nodes
            assert all(catalog.primary(TABLE_SAVINGS, slot) != 0 for slot in promoted)
        else:
            assert all(catalog.primary(TABLE_SAVINGS, slot) == 0 for slot in promoted)
        self._scramble(cluster)
        expected = per_account_total(workload, catalog, cluster.memory_nodes)
        assert workload.total_balance(catalog, cluster.memory_nodes) == expected
