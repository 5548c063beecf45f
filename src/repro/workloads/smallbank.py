"""SmallBank: the banking OLTP benchmark (§4.1).

Two tables keyed by account id — ``savings`` and ``checking`` — with
16-byte balance values, and the standard six transaction profiles.
The default mix is ~85% writes, matching the paper's characterisation.

The money-conservation invariant (transfers move balance without
creating or destroying it) is what the integration tests check; the
``conserving_only`` flag restricts the mix to balance-neutral
transactions so the global total is exactly preserved.
"""

from __future__ import annotations

import random
from itertools import compress
from typing import Any, Callable, Dict, Optional

from repro.workloads.base import Workload

__all__ = ["SmallBank", "TABLE_SAVINGS", "TABLE_CHECKING"]

TABLE_SAVINGS = 0
TABLE_CHECKING = 1

# Standard SmallBank mix (H-Store distribution); ~85% of transactions
# write at least one balance.
DEFAULT_MIX = {
    "transact_savings": 15,
    "deposit_checking": 15,
    "send_payment": 25,
    "write_check": 15,
    "amalgamate": 15,
    "balance": 15,
}

INITIAL_BALANCE = 10_000


class SmallBank(Workload):
    """The SmallBank workload over the DKVS transactional API."""

    name = "smallbank"

    def __init__(
        self,
        accounts: int = 10_000,
        value_size: int = 16,
        hot_accounts: Optional[int] = None,
        mix: Optional[Dict[str, float]] = None,
        conserving_only: bool = False,
    ) -> None:
        if accounts < 2:
            raise ValueError("need at least two accounts")
        self.accounts = accounts
        self.value_size = value_size
        self.hot_accounts = hot_accounts if hot_accounts is not None else accounts
        if not 2 <= self.hot_accounts <= accounts:
            raise ValueError("hot_accounts must be in [2, accounts]")
        if conserving_only:
            self.mix = {"send_payment": 60, "amalgamate": 25, "balance": 15}
        else:
            self.mix = dict(mix) if mix else dict(DEFAULT_MIX)

    # -- schema & data ------------------------------------------------------

    def create_schema(self, catalog) -> None:
        from repro.kvs.catalog import TableSpec

        catalog.add_table(
            TableSpec(TABLE_SAVINGS, "savings", self.accounts, self.value_size)
        )
        catalog.add_table(
            TableSpec(TABLE_CHECKING, "checking", self.accounts, self.value_size)
        )

    def load(self, catalog, memory_nodes: Dict[int, Any], rng: random.Random) -> None:
        items = ((account, INITIAL_BALANCE) for account in range(self.accounts))
        catalog.load(memory_nodes, TABLE_SAVINGS, items)
        items = ((account, INITIAL_BALANCE) for account in range(self.accounts))
        catalog.load(memory_nodes, TABLE_CHECKING, items)

    def total_balance(self, catalog, memory_nodes) -> int:
        """Sum of all balances on primary replicas (invariant probe).

        Accounts fill each table's slots densely from 0, so the sum
        reads one column slice per partition from that partition's
        current primary (:meth:`Placement.partition_runs`).
        """
        total = 0
        for table_id in (TABLE_SAVINGS, TABLE_CHECKING):
            for run in catalog.placement.partition_runs(0, self.accounts):
                table = memory_nodes[catalog.primary(table_id, run.start)].tables[table_id]
                total += sum(compress(table.values[run], table.present[run]))
        return total

    # -- transactions -------------------------------------------------------------

    def _account(
        self, rng: random.Random, home: Optional[int] = None
    ) -> int:
        return home if home is not None else rng.randrange(self.hot_accounts)

    def _two_accounts(self, rng: random.Random, home: Optional[int] = None):
        first = self._account(rng, home)
        second = rng.randrange(self.hot_accounts)
        while second == first:
            second = rng.randrange(self.hot_accounts)
        return first, second

    def next_transaction(self, rng: random.Random) -> Callable:
        kind = self.pick(rng, self.mix)
        builder = getattr(self, f"_txn_{kind}")
        return builder(rng)

    def user_transaction(self, user: int, rng: random.Random) -> Callable:
        """One transaction on behalf of *user*: the primary account is
        the user's home account, so a skewed user population produces
        the matching skewed key-access pattern."""
        kind = self.pick(rng, self.mix)
        builder = getattr(self, f"_txn_{kind}")
        return builder(rng, home=user % self.hot_accounts)

    def _txn_transact_savings(
        self, rng: random.Random, home: Optional[int] = None
    ) -> Callable:
        account = self._account(rng, home)
        amount = rng.randint(1, 100)

        def logic(tx):
            balance = yield from tx.read_for_update("savings", account)
            tx.write("savings", account, (balance or 0) + amount)
            return None

        return logic

    def _txn_deposit_checking(
        self, rng: random.Random, home: Optional[int] = None
    ) -> Callable:
        account = self._account(rng, home)
        amount = rng.randint(1, 100)

        def logic(tx):
            balance = yield from tx.read_for_update("checking", account)
            tx.write("checking", account, (balance or 0) + amount)
            return None

        return logic

    def _txn_send_payment(
        self, rng: random.Random, home: Optional[int] = None
    ) -> Callable:
        sender, receiver = self._two_accounts(rng, home)
        amount = rng.randint(1, 50)

        def logic(tx):
            from_balance = yield from tx.read_for_update("checking", sender)
            if (from_balance or 0) < amount:
                tx.abort("insufficient funds")
            to_balance = yield from tx.read_for_update("checking", receiver)
            tx.write("checking", sender, from_balance - amount)
            tx.write("checking", receiver, (to_balance or 0) + amount)
            return None

        return logic

    def _txn_write_check(
        self, rng: random.Random, home: Optional[int] = None
    ) -> Callable:
        account = self._account(rng, home)
        amount = rng.randint(1, 50)

        def logic(tx):
            savings = yield from tx.read("savings", account)
            checking = yield from tx.read_for_update("checking", account)
            penalty = 1 if (savings or 0) + (checking or 0) < amount else 0
            tx.write("checking", account, (checking or 0) - amount - penalty)
            return None

        return logic

    def _txn_amalgamate(
        self, rng: random.Random, home: Optional[int] = None
    ) -> Callable:
        source, destination = self._two_accounts(rng, home)

        def logic(tx):
            savings = yield from tx.read_for_update("savings", source)
            checking = yield from tx.read_for_update("checking", source)
            dest_checking = yield from tx.read_for_update("checking", destination)
            moved = (savings or 0) + (checking or 0)
            tx.write("savings", source, 0)
            tx.write("checking", source, 0)
            tx.write("checking", destination, (dest_checking or 0) + moved)
            return None

        return logic

    def _txn_balance(
        self, rng: random.Random, home: Optional[int] = None
    ) -> Callable:
        account = self._account(rng, home)

        def logic(tx):
            savings = yield from tx.read("savings", account)
            checking = yield from tx.read("checking", account)
            return (savings or 0) + (checking or 0)

        return logic
