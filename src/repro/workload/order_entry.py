"""Order-entry scenario: a realistic multi-object transactional workload.

A miniature TPC-C-flavored scenario exercising the public API the way an
application would, with *checkable integrity invariants*:

* ``stock:<i>`` — units on hand per item (starts at ``initial_stock``);
* ``sold:<i>`` — units sold per item (starts at 0);
* ``revenue`` — accumulated payments;
* ``orders`` — order counter.

**Invariant 1 (conservation)** — for every item, ``stock + sold ==
initial_stock`` in *any* consistent snapshot.

**Invariant 2 (books balance)** — ``revenue == unit_price * sum(sold)`` in
any consistent snapshot.

New-order transactions are read-write and touch several objects; audit
transactions are read-only scans of the whole database.  Because the
invariants couple many objects, a non-snapshot reader (or a torn one) is
overwhelmingly likely to catch them mid-update — making this scenario a
sharp end-to-end consistency probe, used by tests across every protocol and
by ``examples/order_entry_demo.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.interface import Scheduler
from repro.errors import TransactionAborted
from repro.sim.engine import Simulator, closed_loop
from repro.sim.random_streams import RandomStreams

UNIT_PRICE = 5


@dataclass
class OrderEntryConfig:
    n_items: int = 20
    initial_stock: int = 1_000
    n_clerks: int = 6
    n_auditors: int = 2
    duration: float = 400.0
    max_order_size: int = 3
    seed: int = 0


@dataclass
class OrderEntryOutcome:
    orders_placed: int = 0
    orders_rejected: int = 0
    order_retries: int = 0
    audits: int = 0
    audit_restarts: int = 0
    conservation_violations: int = 0
    books_violations: int = 0


def seed_database(scheduler: Scheduler, config: OrderEntryConfig) -> None:
    """Install the initial inventory in one transaction."""
    setup = scheduler.begin()
    for i in range(config.n_items):
        scheduler.write(setup, f"stock:{i}", config.initial_stock).result()
        scheduler.write(setup, f"sold:{i}", 0).result()
    scheduler.write(setup, "revenue", 0).result()
    scheduler.write(setup, "orders", 0).result()
    scheduler.commit(setup).result()


def run_order_entry(
    scheduler: Scheduler, config: OrderEntryConfig | None = None
) -> OrderEntryOutcome:
    """Drive the scenario under the simulator; returns outcome + violations."""
    config = config or OrderEntryConfig()
    seed_database(scheduler, config)
    sim = Simulator()
    streams = RandomStreams(config.seed)
    outcome = OrderEntryOutcome()

    def clerk(clerk_id: int):
        rng = streams.stream(f"clerk{clerk_id}")

        def once():
            items = rng.sample(
                range(config.n_items), rng.randint(1, config.max_order_size)
            )
            quantity = rng.randint(1, 5)
            for _attempt in range(8):
                txn = scheduler.begin()
                try:
                    fills = []
                    for item in items:
                        yield 1.0
                        stock = yield scheduler.read(txn, f"stock:{item}")
                        sold = yield scheduler.read(txn, f"sold:{item}")
                        if stock < quantity:
                            fills = None
                            break
                        fills.append((item, stock, sold))
                    if fills is None:
                        scheduler.abort(txn)
                        outcome.orders_rejected += 1
                        break
                    for item, stock, sold in fills:
                        yield scheduler.write(txn, f"stock:{item}", stock - quantity)
                        yield scheduler.write(txn, f"sold:{item}", sold + quantity)
                    revenue = yield scheduler.read(txn, "revenue")
                    orders = yield scheduler.read(txn, "orders")
                    total_units = quantity * len(fills)
                    yield scheduler.write(txn, "revenue", revenue + total_units * UNIT_PRICE)
                    yield scheduler.write(txn, "orders", orders + 1)
                    yield scheduler.commit(txn)
                    outcome.orders_placed += 1
                    break
                except TransactionAborted:
                    scheduler.abort(txn)
                    outcome.order_retries += 1

        return closed_loop(sim, config.duration, lambda: rng.expovariate(0.4), once)

    def auditor(auditor_id: int):
        rng = streams.stream(f"auditor{auditor_id}")

        def once():
            txn = scheduler.begin(read_only=True)
            total_sold = 0
            consistent = True
            try:
                for i in range(config.n_items):
                    yield 0.5
                    stock = yield scheduler.read(txn, f"stock:{i}")
                    sold = yield scheduler.read(txn, f"sold:{i}")
                    total_sold += sold
                    if stock + sold != config.initial_stock:
                        consistent = False
                revenue = yield scheduler.read(txn, "revenue")
                yield scheduler.commit(txn)
            except TransactionAborted:
                # Single-version baselines can reject or victimize auditors;
                # the audit simply restarts on its next tick.
                scheduler.abort(txn)
                outcome.audit_restarts += 1
                return
            outcome.audits += 1
            if not consistent:
                outcome.conservation_violations += 1
            if revenue != total_sold * UNIT_PRICE:
                outcome.books_violations += 1

        return closed_loop(sim, config.duration, lambda: rng.expovariate(0.05), once)

    for c in range(config.n_clerks):
        sim.spawn(clerk(c), name=f"clerk-{c}")
    for a in range(config.n_auditors):
        sim.spawn(auditor(a), name=f"auditor-{a}")
    sim.run()
    return outcome
