"""Tests for the catalog: schemas, key addressing, provisioning."""

import pytest

from repro.kvs.catalog import Catalog, TableSpec
from repro.kvs.placement import Placement
from repro.memory.node import MemoryNode


@pytest.fixture
def catalog():
    placement = Placement([0, 1, 2], replication_degree=2)
    cat = Catalog(placement)
    cat.add_table(TableSpec(table_id=0, name="accounts", max_keys=100, value_size=16))
    return cat


class TestSchema:
    def test_lookup_by_name_and_id(self, catalog):
        assert catalog.table("accounts").table_id == 0
        assert catalog.table(0).name == "accounts"

    def test_duplicate_id_raises(self, catalog):
        with pytest.raises(ValueError):
            catalog.add_table(TableSpec(0, "other", 10, 8))

    def test_duplicate_name_raises(self, catalog):
        with pytest.raises(ValueError):
            catalog.add_table(TableSpec(1, "accounts", 10, 8))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            TableSpec(0, "t", 0, 8)
        with pytest.raises(ValueError):
            TableSpec(0, "t", 10, 0)


class TestAddressing:
    def test_slots_are_dense_and_stable(self, catalog):
        first = catalog.slot_for(0, "alice")
        second = catalog.slot_for(0, "bob")
        assert (first, second) == (0, 1)
        assert catalog.slot_for(0, "alice") == 0  # stable on re-query

    def test_composite_keys(self, catalog):
        slot = catalog.slot_for(0, (3, 7, "order"))
        assert catalog.slot_for(0, (3, 7, "order")) == slot

    def test_keyspace_exhaustion(self, catalog):
        for key in range(100):
            catalog.slot_for(0, key)
        with pytest.raises(RuntimeError):
            catalog.slot_for(0, "one-too-many")

    def test_key_count(self, catalog):
        catalog.slot_for(0, "x")
        catalog.slot_for(0, "y")
        assert catalog.key_count(0) == 2


class TestProvisioningAndLoad:
    def test_provision_creates_tables_everywhere(self, catalog):
        nodes = {i: MemoryNode(i) for i in range(3)}
        catalog.provision(nodes.values())
        for node in nodes.values():
            assert 0 in node.tables
            assert len(node.tables[0]) == 100

    def test_load_replicates_to_all_replicas(self, catalog):
        nodes = {i: MemoryNode(i) for i in range(3)}
        catalog.provision(nodes.values())
        count = catalog.load(nodes, 0, [("acct-1", 500)])
        assert count == 1
        slot = catalog.slot_for(0, "acct-1")
        replicas = catalog.replicas(0, slot)
        assert len(replicas) == 2
        for node_id in replicas:
            assert nodes[node_id].slot(0, slot).value == 500
            assert nodes[node_id].slot(0, slot).present

    def test_total_dataset_bytes(self, catalog):
        nodes = {i: MemoryNode(i) for i in range(3)}
        catalog.provision(nodes.values())
        catalog.load(nodes, 0, [(k, 0) for k in range(10)])
        assert catalog.total_dataset_bytes() == 10 * (16 + 16)


def per_row_load(catalog, nodes, table_id, items):
    """Reference loader: one ``slot_for`` and one ``load_slot`` per replica per row."""
    count = 0
    for key, value in items:
        slot = catalog.slot_for(table_id, key)
        for node_id in catalog.replicas(table_id, slot):
            nodes[node_id].load_slot(table_id, slot, value)
        count += 1
    return count


def make_store(memory_nodes, partitions=7, max_keys=200):
    placement = Placement(
        list(range(memory_nodes)), replication_degree=2, partitions=partitions
    )
    cat = Catalog(placement)
    cat.add_table(TableSpec(table_id=0, name="a", max_keys=max_keys, value_size=8))
    cat.add_table(TableSpec(table_id=3, name="b", max_keys=max_keys, value_size=8))
    nodes = {i: MemoryNode(i) for i in range(memory_nodes)}
    cat.provision(nodes.values())
    return cat, nodes


def store_state(cat, nodes):
    """Everything a load can change: key->slot maps, slot counters, columns."""
    keys = {
        table_id: [(key, cat.slot_for(table_id, key)) for key in cat.known_keys(table_id)]
        for table_id in cat.tables
    }
    counts = {table_id: cat.key_count(table_id) for table_id in cat.tables}
    columns = {
        (node_id, table_id): (
            list(table.locks), list(table.versions), list(table.values), list(table.present)
        )
        for node_id, node in nodes.items()
        for table_id, table in node.tables.items()
    }
    return keys, counts, columns


def rows(keys, tag=""):
    return [(key, f"{tag}{key}") for key in keys]


class TestBulkLoadMatchesPerRow:
    """``Catalog.load`` must leave exactly the state per-row loading leaves."""

    def run_both(self, memory_nodes, loads, **store):
        bulk, reference = make_store(memory_nodes, **store), make_store(memory_nodes, **store)
        for table_id, items in loads:
            assert bulk[0].load(bulk[1], table_id, iter(items)) == len(items)
            assert per_row_load(*reference, table_id, items) == len(items)
        assert store_state(*bulk) == store_state(*reference)
        return bulk

    @pytest.mark.parametrize("memory_nodes", [2, 3])
    @pytest.mark.parametrize("count", [1, 5, 7, 21, 200, 199, 45])
    def test_fresh_dense_keys(self, memory_nodes, count):
        cat, _nodes = self.run_both(memory_nodes, [(0, rows(range(count)))])
        assert cat.key_count(0) == count

    @pytest.mark.parametrize("memory_nodes", [2, 3])
    def test_second_load_appends(self, memory_nodes):
        self.run_both(
            memory_nodes,
            [(0, rows(range(10))), (3, rows(range(4))), (0, rows(range(10, 33)))],
        )

    @pytest.mark.parametrize("memory_nodes", [2, 3])
    def test_reload_existing_keys(self, memory_nodes):
        self.run_both(memory_nodes, [(0, rows(range(30))), (0, rows(range(30), "new-"))])

    @pytest.mark.parametrize("memory_nodes", [2, 3])
    def test_mixed_existing_and_new_keys(self, memory_nodes):
        self.run_both(
            memory_nodes, [(0, rows(range(20))), (0, rows(range(15, 40), "new-"))]
        )

    def test_repeated_key_in_one_load(self):
        self.run_both(3, [(0, rows([5, 6, 5, 7], "x"))])

    def test_composite_keys(self):
        self.run_both(3, [(0, rows([(sid, kind) for sid in range(9) for kind in (1, 3)]))])

    def test_empty_iterable(self):
        cat, nodes = self.run_both(3, [(0, [])])
        assert cat.key_count(0) == 0
        assert cat.load(nodes, 0, iter(())) == 0

    def test_non_replica_columns_untouched(self):
        cat, nodes = self.run_both(3, [(0, rows(range(100)))], partitions=16)
        outsiders = 0
        for slot in range(100):
            replicas = cat.replicas(0, slot)
            for node_id, node in nodes.items():
                table = node.tables[0]
                if node_id in replicas:
                    assert (table.values[slot], table.versions[slot]) == (str(slot), 1)
                    assert table.present[slot]
                else:
                    outsiders += 1
                    assert table.values[slot] is None
                    assert (table.versions[slot], table.present[slot]) == (0, False)
        assert outsiders == 100  # replication 2 of 3: one outsider per slot
        assert not any(any(node.tables[3].present) for node in nodes.values())

    def test_returns_items_consumed_from_generator(self):
        cat, nodes = make_store(2)
        items = ((key, key) for key in range(13))
        assert cat.load(nodes, 0, items) == 13
        assert next(items, None) is None


class TestBulkLoadKeyspaceExhaustion:
    """A load past ``max_keys`` raises at the first key past the keyspace,
    with every earlier row loaded, exactly as per-row ``slot_for`` does."""

    @pytest.mark.parametrize(
        "first, second",
        [
            (range(0), range(25)),
            (range(15), range(100, 110)),
            (range(15), list(range(10, 15)) + list(range(100, 110))),
        ],
    )
    def test_same_state_and_error_as_per_row(self, first, second):
        bulk = make_store(3, max_keys=20)
        reference = make_store(3, max_keys=20)
        errors = []
        for cat, nodes, load in (
            (*bulk, lambda c, n, t, i: c.load(n, t, i)),
            (*reference, per_row_load),
        ):
            load(cat, nodes, 0, rows(first))
            with pytest.raises(RuntimeError, match="keyspace exhausted") as info:
                load(cat, nodes, 0, rows(second, "y"))
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert store_state(*bulk) == store_state(*reference)
        assert bulk[0].key_count(0) == 20
        with pytest.raises(RuntimeError, match="keyspace exhausted"):
            bulk[0].slot_for(0, "one-too-many")
